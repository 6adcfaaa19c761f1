"""The canonical JSON job document: what a client submits to the MPH
service.

The paper treats MPH as a library each executable links against; the
service inverts that, following the separation the process-management
component papers (Butler, Gropp & Lusk) draw between *describing* a job
and *executing* it.  A :class:`JobDocument` is the description half — a
plain JSON document naming the job's components, processor map, entry
arguments, backend/transport selection, fault and match-schedule seeds,
and output spec.  The runtime half lives in
:mod:`repro.service.runtime`.

Design rules, enforced here:

* **Strict validation with typed errors.**  Every malformed input —
  wrong type, missing field, unknown key, out-of-range value, an
  inconsistent combination — raises :class:`~repro.errors.JobSpecError`
  naming the offending document path (``components[1].nprocs``).  A raw
  ``KeyError``/``TypeError`` escaping validation is a bug, and the fuzz
  suite (``tests/service/test_jobdoc.py``) hunts for exactly that.
* **Stable round-trip.**  ``from_spec(to_spec(doc))`` reproduces the
  document exactly, and :meth:`JobDocument.canonical_json` is
  byte-stable (sorted keys, defaults materialized) — the same
  serialization discipline :class:`~repro.mpi.faults.FaultSchedule`
  established for replayable fault seeds.
* **Layout hash.**  :meth:`JobDocument.layout_key` hashes only the
  portion of the document that determines the handshake layout
  (components, processor map, backend selection) — two documents that
  differ only in entry arguments, seeds, or output spec share a key, and
  the runtime's layout cache and resident worker worlds key on it.

Example document::

    {
      "mph_job": 1,
      "name": "coupled-demo",
      "components": [
        {"name": "atmosphere", "nprocs": 2, "program": "atm",
         "argv": ["--scenario", "a2"]},
        {"name": "ocean", "nprocs": 2, "program": "ocn"}
      ],
      "runtime": {"backend": "process", "transport": "auto"},
      "output": {"save": ["values"]}
    }
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Tuple

from repro.errors import JobSpecError, ReproError

#: The one schema version this service speaks.
SCHEMA_VERSION = 1

_BACKENDS = ("thread", "process")
_TRANSPORTS = ("auto", "unix", "shm")
_RANK_POLICIES = ("block", "round_robin")
_SAVE_KINDS = ("values", "document", "traffic", "logs")
_FORMATS = ("json", "pickle")

_TOP_KEYS = {"mph_job", "name", "components", "registry", "runtime", "seeds", "output"}
_COMPONENT_KEYS = {"name", "program", "nprocs", "argv"}
_RUNTIME_KEYS = {
    "backend",
    "transport",
    "nodes",
    "rank_policy",
    "reuse_world",
    "timeout",
}
_SEED_KEYS = {"fault", "match"}
_OUTPUT_KEYS = {"save", "format"}


# ---------------------------------------------------------------------------
# Typed extraction helpers: every failure is a JobSpecError naming the path
# ---------------------------------------------------------------------------


def _require_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise JobSpecError(
            f"expected an object, got {type(value).__name__}", path=path
        )
    return value


def _reject_unknown(d: Mapping, allowed: set, path: str) -> None:
    for key in d:
        if not isinstance(key, str):
            raise JobSpecError(f"non-string key {key!r}", path=path)
        if key not in allowed:
            raise JobSpecError(
                f"unknown key {key!r} (allowed: {sorted(allowed)})", path=path
            )


def _get_str(d: Mapping, key: str, path: str, default: Optional[str] = None) -> str:
    if key not in d:
        if default is not None:
            return default
        raise JobSpecError(f"missing required key {key!r}", path=path)
    value = d[key]
    if not isinstance(value, str) or not value:
        raise JobSpecError(
            f"expected a non-empty string, got {value!r}", path=f"{path}.{key}"
        )
    return value


def _get_choice(d: Mapping, key: str, choices: Sequence[str], path: str, default: str) -> str:
    value = d.get(key, default)
    if value not in choices:
        raise JobSpecError(
            f"expected one of {list(choices)}, got {value!r}", path=f"{path}.{key}"
        )
    return value


def _get_int(
    d: Mapping, key: str, path: str, *, default: Optional[int] = None, minimum: int = 0
) -> int:
    if key not in d:
        if default is not None:
            return default
        raise JobSpecError(f"missing required key {key!r}", path=path)
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(
            f"expected an integer, got {value!r}", path=f"{path}.{key}"
        )
    if value < minimum:
        raise JobSpecError(
            f"expected an integer >= {minimum}, got {value}", path=f"{path}.{key}"
        )
    return value


def _get_bool(d: Mapping, key: str, path: str, default: bool) -> bool:
    value = d.get(key, default)
    if not isinstance(value, bool):
        raise JobSpecError(
            f"expected a boolean, got {value!r}", path=f"{path}.{key}"
        )
    return value


def _get_float(d: Mapping, key: str, path: str, default: float) -> float:
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise JobSpecError(
            f"expected a number, got {value!r}", path=f"{path}.{key}"
        )
    if not 0 < value <= threading.TIMEOUT_MAX:  # NaN fails both comparisons
        raise JobSpecError(
            f"expected a number > 0 and at most {threading.TIMEOUT_MAX:.0f}, got {value}",
            path=f"{path}.{key}",
        )
    return float(value)


def _get_str_list(d: Mapping, key: str, path: str) -> Tuple[str, ...]:
    value = d.get(key, ())
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise JobSpecError(
            f"expected a list of strings, got {value!r}", path=f"{path}.{key}"
        )
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise JobSpecError(
                f"expected a string, got {item!r}", path=f"{path}.{key}[{i}]"
            )
        out.append(item)
    return tuple(out)


# ---------------------------------------------------------------------------
# Document pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentSpec:
    """One component entry: a single-component executable of the job."""

    #: MPH component name (the registration-file name-tag).
    name: str
    #: Number of MPI processes the component runs on.
    nprocs: int
    #: Program key resolved against the service's program catalog
    #: (defaults to the component name).
    program: str
    #: Entry-point command-line arguments.
    argv: Tuple[str, ...] = ()

    def to_spec(self) -> dict:
        """Plain-data form of this component entry."""
        return {
            "name": self.name,
            "program": self.program,
            "nprocs": self.nprocs,
            "argv": list(self.argv),
        }

    @classmethod
    def from_spec(cls, spec: Any, path: str) -> "ComponentSpec":
        d = _require_mapping(spec, path)
        _reject_unknown(d, _COMPONENT_KEYS, path)
        name = _get_str(d, "name", path)
        from repro.core.names import validate_name

        try:
            validate_name(name)
        except ReproError as exc:
            raise JobSpecError(str(exc), path=f"{path}.name") from None
        return cls(
            name=name,
            nprocs=_get_int(d, "nprocs", path, minimum=1),
            program=_get_str(d, "program", path, default=name),
            argv=_get_str_list(d, "argv", path),
        )


@dataclass(frozen=True)
class RuntimeSpec:
    """Backend/transport selection and processor-map policy."""

    backend: str = "thread"
    transport: str = "auto"
    nodes: Optional[int] = None
    rank_policy: str = "block"
    #: Allow the runtime to run this job on a cached resident worker
    #: world sharing the document's layout key (process backend).
    reuse_world: bool = True
    #: Per-job wall-clock budget in seconds.
    timeout: float = 60.0

    def to_spec(self) -> dict:
        """Plain-data form with every default materialized."""
        return {
            "backend": self.backend,
            "transport": self.transport,
            "nodes": self.nodes,
            "rank_policy": self.rank_policy,
            "reuse_world": self.reuse_world,
            "timeout": self.timeout,
        }

    @classmethod
    def from_spec(cls, spec: Any, path: str) -> "RuntimeSpec":
        d = _require_mapping(spec, path)
        _reject_unknown(d, _RUNTIME_KEYS, path)
        nodes = d.get("nodes")
        if nodes is not None and (
            isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 1
        ):
            raise JobSpecError(
                f"expected null or an integer >= 1, got {nodes!r}", path=f"{path}.nodes"
            )
        return cls(
            backend=_get_choice(d, "backend", _BACKENDS, path, "thread"),
            transport=_get_choice(d, "transport", _TRANSPORTS, path, "auto"),
            nodes=nodes,
            rank_policy=_get_choice(d, "rank_policy", _RANK_POLICIES, path, "block"),
            reuse_world=_get_bool(d, "reuse_world", path, True),
            timeout=_get_float(d, "timeout", path, 60.0),
        )


@dataclass(frozen=True)
class SeedSpec:
    """Fault and match-schedule seeds — the deterministic chaos inputs.

    ``fault`` is a full :meth:`repro.mpi.faults.FaultSchedule.to_spec`
    dict (so a failing chaos seed replays exactly); ``match`` is a
    :class:`~repro.mpi.sched.MatchSchedule` seed.  Both require the
    thread backend — the substrate's injection hooks live in the shared
    world — and validation enforces that here rather than letting the
    process backend reject the config at launch time.
    """

    fault: Optional[dict] = None
    match: Optional[int] = None

    def to_spec(self) -> dict:
        """Plain-data form (the fault spec in its canonical shape)."""
        return {
            "fault": dict(self.fault) if self.fault is not None else None,
            "match": self.match,
        }

    @classmethod
    def from_spec(cls, spec: Any, path: str) -> "SeedSpec":
        d = _require_mapping(spec, path)
        _reject_unknown(d, _SEED_KEYS, path)
        fault = d.get("fault")
        if fault is not None:
            fault_map = _require_mapping(fault, f"{path}.fault")
            from repro.mpi.faults import FaultSchedule

            try:
                rebuilt = FaultSchedule.from_spec(dict(fault_map))
            except Exception as exc:  # noqa: BLE001 - any malformed spec
                # detail (wrong-typed sub-field, bad rank, ...) must come
                # back typed, whatever FaultSchedule raises internally.
                raise JobSpecError(
                    f"not a valid FaultSchedule spec: {exc}", path=f"{path}.fault"
                ) from None
            fault = rebuilt.to_spec()
        match = d.get("match")
        if match is not None and (isinstance(match, bool) or not isinstance(match, int)):
            raise JobSpecError(
                f"expected null or an integer seed, got {match!r}", path=f"{path}.match"
            )
        return cls(fault=fault, match=match)


@dataclass(frozen=True)
class OutputSpec:
    """What the stager persists for a finished job."""

    #: Artifacts to stage: ``values`` (per-component return values),
    #: ``document`` (the canonical submitted document), ``traffic``
    #: (per-rank byte/message counters; backend-dependent, so excluded
    #: from cross-backend conformance), ``logs`` (per-process stdout,
    #: process backend only).
    save: Tuple[str, ...] = ("values",)
    #: ``json`` stages canonical JSON; ``pickle`` additionally keeps a
    #: pickle of the raw values for non-JSON-serializable results.
    format: str = "json"

    def to_spec(self) -> dict:
        """Plain-data form of the output selection."""
        return {"save": list(self.save), "format": self.format}

    @classmethod
    def from_spec(cls, spec: Any, path: str) -> "OutputSpec":
        d = _require_mapping(spec, path)
        _reject_unknown(d, _OUTPUT_KEYS, path)
        save = d.get("save", ["values"])
        if isinstance(save, str) or not isinstance(save, Sequence):
            raise JobSpecError(
                f"expected a list of artifact kinds, got {save!r}", path=f"{path}.save"
            )
        seen = []
        for i, kind in enumerate(save):
            if kind not in _SAVE_KINDS:
                raise JobSpecError(
                    f"expected one of {list(_SAVE_KINDS)}, got {kind!r}",
                    path=f"{path}.save[{i}]",
                )
            if kind in seen:
                raise JobSpecError(
                    f"duplicate artifact kind {kind!r}", path=f"{path}.save[{i}]"
                )
            seen.append(kind)
        return cls(
            save=tuple(seen),
            format=_get_choice(d, "format", _FORMATS, path, "json"),
        )


# ---------------------------------------------------------------------------
# The document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobDocument:
    """A validated MPH service job document."""

    name: str
    components: Tuple[ComponentSpec, ...]
    registry: Optional[str] = None
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    seeds: SeedSpec = field(default_factory=SeedSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    # -- derived views -----------------------------------------------------

    @property
    def world_size(self) -> int:
        """Total MPI processes: the component ranks."""
        return sum(c.nprocs for c in self.components)

    def registry_text(self) -> str:
        """The registration file for this job: the explicit ``registry``
        field, or one synthesized from the component list (one
        single-component entry per component, §3's registration table)."""
        if self.registry is not None:
            return self.registry
        lines = ["BEGIN"]
        lines += [c.name for c in self.components]
        lines.append("END")
        return "\n".join(lines) + "\n"

    # -- serialization -----------------------------------------------------

    def to_spec(self) -> dict:
        """A plain-data description with every default materialized —
        ``from_spec(to_spec(doc))`` reproduces the document exactly."""
        return {
            "mph_job": SCHEMA_VERSION,
            "name": self.name,
            "components": [c.to_spec() for c in self.components],
            "registry": self.registry,
            "runtime": self.runtime.to_spec(),
            "seeds": self.seeds.to_spec(),
            "output": self.output.to_spec(),
        }

    @classmethod
    def from_spec(cls, spec: Any) -> "JobDocument":
        """Validate *spec* and build the document.

        Raises :class:`~repro.errors.JobSpecError` naming the offending
        path for **every** malformed input — never a raw ``KeyError`` or
        ``TypeError``.
        """
        d = _require_mapping(spec, "$")
        _reject_unknown(d, _TOP_KEYS, "$")
        version = d.get("mph_job", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise JobSpecError(
                f"unsupported schema version {version!r} (this service speaks "
                f"{SCHEMA_VERSION})",
                path="$.mph_job",
            )
        name = _get_str(d, "name", "$", default="job")
        components_raw = d.get("components")
        if isinstance(components_raw, str) or not isinstance(components_raw, Sequence):
            raise JobSpecError(
                f"expected a list of components, got {components_raw!r}",
                path="$.components",
            )
        if not components_raw:
            raise JobSpecError("a job needs at least one component", path="$.components")
        components = tuple(
            ComponentSpec.from_spec(c, f"$.components[{i}]")
            for i, c in enumerate(components_raw)
        )
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise JobSpecError(
                f"duplicate component name {dup!r}", path="$.components"
            )

        registry = d.get("registry")
        if registry is not None and (not isinstance(registry, str) or not registry.strip()):
            raise JobSpecError(
                f"expected null or registration-file text, got {registry!r}",
                path="$.registry",
            )

        doc = cls(
            name=name,
            components=components,
            registry=registry,
            runtime=RuntimeSpec.from_spec(d.get("runtime", {}), "$.runtime"),
            seeds=SeedSpec.from_spec(d.get("seeds", {}), "$.seeds"),
            output=OutputSpec.from_spec(d.get("output", {}), "$.output"),
        )

        # Cross-field consistency: the substrate's injection hooks live in
        # the shared thread-backend world (procbackend refuses them at
        # launch); reject the combination here, at the document level.
        if doc.runtime.backend == "process":
            if doc.seeds.fault is not None:
                raise JobSpecError(
                    "fault injection requires the thread backend",
                    path="$.seeds.fault",
                )
            if doc.seeds.match is not None:
                raise JobSpecError(
                    "match-schedule exploration requires the thread backend",
                    path="$.seeds.match",
                )
        if doc.runtime.backend == "thread" and doc.runtime.transport != "auto":
            raise JobSpecError(
                f"transport {doc.runtime.transport!r} selects a process-backend "
                "transport; the thread backend only accepts 'auto'",
                path="$.runtime.transport",
            )
        if "logs" in doc.output.save and doc.runtime.backend != "process":
            raise JobSpecError(
                "per-process logs exist only on the process backend",
                path="$.output.save",
            )

        # The registration file, explicit or synthesized, must actually
        # parse and cover every declared component — catching it here
        # turns a mid-handshake abort into a typed rejection.
        from repro.core.registry import Registry

        # from_text, never load: load() treats a newline-free string as a
        # *file path*, and a service document must not reach the filesystem.
        try:
            parsed = Registry.from_text(doc.registry_text())
        except Exception as exc:  # noqa: BLE001 - typed rejection, always
            raise JobSpecError(
                f"registration text does not parse: {exc}", path="$.registry"
            ) from None
        known = set(parsed.component_names)
        for i, comp in enumerate(components):
            if comp.name not in known:
                raise JobSpecError(
                    f"component {comp.name!r} is not in the registration file "
                    f"(registered: {sorted(known)})",
                    path=f"$.components[{i}].name",
                )
        return doc

    @classmethod
    def from_json(cls, text: str) -> "JobDocument":
        """Parse JSON text and validate it."""
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"not valid JSON: {exc}", path="$") from None
        return cls.from_spec(spec)

    def canonical_json(self) -> str:
        """Byte-stable serialization: sorted keys, no whitespace drift.
        Two equal documents always produce identical bytes."""
        return json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))

    # -- the layout hash ---------------------------------------------------

    def layout_portion(self) -> dict:
        """The sub-document that determines the handshake layout: the
        components and processor map, the registration text, and the
        backend/transport/topology selection.  Entry arguments, seeds,
        and the output spec are deliberately excluded — they vary per job
        without changing the layout."""
        return {
            "components": [
                {"name": c.name, "program": c.program, "nprocs": c.nprocs}
                for c in self.components
            ],
            "registry": self.registry_text(),
            "runtime": {
                "backend": self.runtime.backend,
                "transport": self.runtime.transport,
                "nodes": self.runtime.nodes,
                "rank_policy": self.runtime.rank_policy,
            },
        }

    def layout_key(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`layout_portion` —
        the key under which the runtime caches resolved handshake
        layouts and resident worker worlds."""
        blob = json.dumps(self.layout_portion(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

"""Property/fuzz tests for the job-document spec layer.

Two properties, hunted with a seeded generator (no hypothesis
dependency — the container may not have it, and a seeded ``random.Random``
makes every failure replayable by its printed seed):

* **Round-trip stability** — for every generated valid document,
  ``from_spec(to_spec(d))`` reproduces ``d`` exactly and
  ``canonical_json()`` is bitwise stable across the round-trip.
* **Typed rejection** — for every mutated/truncated/wrong-typed input,
  validation either accepts it or raises
  :class:`~repro.errors.JobSpecError` carrying a ``$``-rooted path to
  the offending field.  A raw ``KeyError``/``TypeError``/``IndexError``
  escaping ``from_spec`` is the bug this file exists to catch.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.errors import JobSpecError
from repro.mpi.faults import random_schedule
from repro.service.jobdoc import SCHEMA_VERSION, JobDocument

#: Component-name pool (all legal per ``validate_name``).
_NAMES = ["atm", "ocn", "land", "ice", "cpl", "chem.v2", "bio-geo"]


def gen_valid_spec(rng: random.Random) -> dict:
    """One pseudo-random *valid* job-document spec."""
    names = rng.sample(_NAMES, rng.randint(1, 4))
    components = []
    for name in names:
        comp = {"name": name, "nprocs": rng.randint(1, 4)}
        if rng.random() < 0.5:
            comp["program"] = rng.choice(["model", "solo", name])
        if rng.random() < 0.5:
            comp["argv"] = [f"--flag{i}" for i in range(rng.randint(0, 3))]
        components.append(comp)
    spec: dict = {"name": f"fuzz-{rng.randrange(10**6)}", "components": components}
    if rng.random() < 0.5:
        spec["mph_job"] = SCHEMA_VERSION

    backend = "thread"
    if rng.random() < 0.7:
        runtime: dict = {"backend": rng.choice(["thread", "process"])}
        backend = runtime["backend"]
        if backend == "process" and rng.random() < 0.5:
            runtime["transport"] = rng.choice(["auto", "unix", "shm"])
        if rng.random() < 0.3:
            runtime["rank_policy"] = rng.choice(["block", "round_robin"])
        if rng.random() < 0.3:
            runtime["reuse_world"] = rng.choice([True, False])
        if rng.random() < 0.3:
            runtime["timeout"] = rng.choice([5.0, 30.0, 120.5])
        spec["runtime"] = runtime

    if backend == "thread" and rng.random() < 0.4:
        seeds: dict = {}
        if rng.random() < 0.7:
            nprocs = sum(c["nprocs"] for c in components)
            seeds["fault"] = random_schedule(rng.randrange(100), nprocs + 1).to_spec()
        if rng.random() < 0.5:
            seeds["match"] = rng.randrange(10**4)
        if seeds:
            spec["seeds"] = seeds

    if rng.random() < 0.3:
        registered = names + rng.sample([n for n in _NAMES if n not in names],
                                        rng.randint(0, 2))
        spec["registry"] = "BEGIN\n" + "\n".join(registered) + "\nEND\n"

    if rng.random() < 0.5:
        save = rng.sample(["values", "document", "traffic"], rng.randint(1, 3))
        if backend == "process" and rng.random() < 0.3:
            save.append("logs")
        output: dict = {"save": save}
        if rng.random() < 0.3:
            output["format"] = rng.choice(["json", "pickle"])
        spec["output"] = output
    return spec


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(150))
def test_round_trip_is_bitwise_stable(seed):
    rng = random.Random(seed)
    spec = gen_valid_spec(rng)
    doc = JobDocument.from_spec(spec)
    again = JobDocument.from_spec(doc.to_spec())
    assert again == doc, f"seed {seed}: round-trip changed the document"
    assert again.canonical_json() == doc.canonical_json(), f"seed {seed}"
    assert again.to_spec() == doc.to_spec(), f"seed {seed}"
    # And through actual JSON text, the wire format.
    assert JobDocument.from_json(doc.canonical_json()) == doc, f"seed {seed}"


@pytest.mark.parametrize("seed", range(50))
def test_layout_key_ignores_argv_seeds_output(seed):
    """Two documents differing only in entry args / seeds / output spec
    share a layout key (so they share cached layouts and worker worlds);
    changing the processor map changes it."""
    rng = random.Random(seed)
    spec = gen_valid_spec(rng)
    doc = JobDocument.from_spec(spec)

    varied = copy.deepcopy(spec)
    varied["components"] = copy.deepcopy(varied["components"])
    varied["components"][0]["argv"] = ["--other", "args"]
    varied["name"] = "renamed"
    varied["output"] = {"save": ["values"]}
    assert JobDocument.from_spec(varied).layout_key() == doc.layout_key()

    resized = copy.deepcopy(spec)
    resized["components"][0]["nprocs"] = doc.components[0].nprocs + 1
    assert JobDocument.from_spec(resized).layout_key() != doc.layout_key()


def test_defaults_materialize():
    doc = JobDocument.from_spec(
        {"components": [{"name": "atm", "nprocs": 1}]}
    )
    spec = doc.to_spec()
    assert spec["mph_job"] == SCHEMA_VERSION
    assert spec["runtime"]["backend"] == "thread"
    assert spec["runtime"]["timeout"] == 60.0
    assert spec["output"] == {"save": ["values"], "format": "json"}
    assert doc.registry_text() == "BEGIN\natm\nEND\n"
    assert doc.world_size == 1


# ---------------------------------------------------------------------------
# Typed rejection: the curated corpus
# ---------------------------------------------------------------------------


def _valid_base() -> dict:
    """A rich valid spec the mutation corpus perturbs."""
    return {
        "mph_job": SCHEMA_VERSION,
        "name": "base",
        "components": [
            {"name": "atm", "nprocs": 2, "program": "model", "argv": ["--co2", "2"]},
            {"name": "ocn", "nprocs": 1},
        ],
        "registry": "BEGIN\natm\nocn\nEND\n",
        "runtime": {"backend": "thread", "timeout": 30.0},
        "seeds": {"match": 7},
        "output": {"save": ["values", "document"], "format": "json"},
    }


def _mut(path_fragment):
    """Tag a mutator with the path fragment its rejection must name."""

    def wrap(fn):
        fn.expected_fragment = path_fragment
        return fn

    return wrap


def _set(spec, dotted, value):
    """``_set(s, "runtime.backend", "x")`` — tiny path helper."""
    *parents, last = dotted.split(".")
    node = spec
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[int(last) if last.isdigit() else last] = value
    return spec


_CORPUS = [
    ("not-a-mapping", "$", lambda s: 42),
    ("list-document", "$", lambda s: [s]),
    ("unknown-top-key", "$", lambda s: {**s, "nope": 1}),
    ("bad-version", "mph_job", lambda s: _set(s, "mph_job", 2)),
    ("empty-name", "name", lambda s: _set(s, "name", "")),
    ("int-name", "name", lambda s: _set(s, "name", 7)),
    ("no-components", "components", lambda s: _set(s, "components", [])),
    ("string-components", "components", lambda s: _set(s, "components", "atm")),
    ("component-not-mapping", "components[0]", lambda s: _set(s, "components.0", "atm")),
    ("component-unknown-key", "components[1]",
     lambda s: _set(s, "components.1", {"name": "ocn", "nprocs": 1, "np": 2})),
    ("component-missing-name", "components[0]",
     lambda s: _set(s, "components.0", {"nprocs": 2})),
    ("component-missing-nprocs", "components[0]",
     lambda s: _set(s, "components.0", {"name": "atm"})),
    ("nprocs-zero", "components[0].nprocs", lambda s: _set(s, "components.0.nprocs", 0)),
    ("nprocs-bool", "components[0].nprocs", lambda s: _set(s, "components.0.nprocs", True)),
    ("nprocs-string", "components[0].nprocs", lambda s: _set(s, "components.0.nprocs", "2")),
    ("argv-string", "components[0].argv", lambda s: _set(s, "components.0.argv", "--x")),
    ("argv-int-item", "components[0].argv[1]",
     lambda s: _set(s, "components.0.argv", ["--x", 3])),
    ("bad-component-name", "components[0].name",
     lambda s: _set(s, "components.0.name", "2fast")),
    ("keyword-component-name", "components[0].name",
     lambda s: _set(s, "components.0.name", "BEGIN")),
    ("duplicate-component", "components",
     lambda s: _set(s, "components.1", dict(s["components"][0]))),
    ("registry-int", "registry", lambda s: _set(s, "registry", 7)),
    ("registry-blank", "registry", lambda s: _set(s, "registry", "   ")),
    ("registry-unparseable", "registry", lambda s: _set(s, "registry", "atm ocn")),
    ("registry-missing-component", "components[1].name",
     lambda s: _set(s, "registry", "BEGIN\natm\nEND\n")),
    ("runtime-not-mapping", "runtime", lambda s: _set(s, "runtime", "thread")),
    ("runtime-unknown-key", "runtime",
     lambda s: _set(s, "runtime", {"backend": "thread", "nproc": 4})),
    ("bad-backend", "runtime.backend",
     lambda s: _set(s, "runtime", {"backend": "mpi"})),
    ("bad-transport", "runtime.transport",
     lambda s: _set(s, "runtime", {"backend": "process", "transport": "pigeon"})),
    ("retired-tcp-transport", "runtime.transport",
     lambda s: _set(s, "runtime", {"backend": "process", "transport": "tcp"})),
    ("thread-with-shm", "runtime.transport",
     lambda s: _set(s, "runtime", {"backend": "thread", "transport": "shm"})),
    ("bad-rank-policy", "runtime.rank_policy",
     lambda s: _set(s, "runtime", {"rank_policy": "spiral"})),
    ("retired-runtime-pool", "runtime",
     lambda s: _set(s, "runtime", {"backend": "thread", "pool": 1})),
    ("retired-runtime-nodes", "runtime",
     lambda s: _set(s, "runtime", {"backend": "thread", "nodes": 2})),
    ("reuse-world-string", "runtime.reuse_world",
     lambda s: _set(s, "runtime", {"reuse_world": "yes"})),
    ("timeout-zero", "runtime.timeout", lambda s: _set(s, "runtime", {"timeout": 0})),
    ("timeout-nan", "runtime.timeout",
     lambda s: _set(s, "runtime", {"timeout": float("nan")})),
    ("timeout-inf", "runtime.timeout",
     lambda s: _set(s, "runtime", {"timeout": float("inf")})),
    ("timeout-past-join-limit", "runtime.timeout",
     lambda s: _set(s, "runtime", {"timeout": 1e10})),
    ("timeout-string", "runtime.timeout",
     lambda s: _set(s, "runtime", {"timeout": "fast"})),
    ("seeds-not-mapping", "seeds", lambda s: _set(s, "seeds", 7)),
    ("seeds-unknown-key", "seeds", lambda s: _set(s, "seeds", {"chaos": 1})),
    ("fault-not-mapping", "seeds.fault", lambda s: _set(s, "seeds", {"fault": 3})),
    ("fault-garbage-spec", "seeds.fault",
     lambda s: _set(s, "seeds", {"fault": {"seed": 1, "crashes": [{"rank": "x"}]}})),
    ("match-bool", "seeds.match", lambda s: _set(s, "seeds", {"match": True})),
    ("match-string", "seeds.match", lambda s: _set(s, "seeds", {"match": "7"})),
    ("fault-on-process", "seeds.fault",
     lambda s: _set(_set(s, "runtime", {"backend": "process"}),
                    "seeds", {"fault": random_schedule(1, 3).to_spec()})),
    ("match-on-process", "seeds.match",
     lambda s: _set(_set(s, "runtime", {"backend": "process"}), "seeds", {"match": 3})),
    ("output-not-mapping", "output", lambda s: _set(s, "output", "values")),
    ("output-unknown-key", "output", lambda s: _set(s, "output", {"keep": []})),
    ("save-string", "output.save", lambda s: _set(s, "output", {"save": "values"})),
    ("save-unknown-kind", "output.save[0]",
     lambda s: _set(s, "output", {"save": ["blobs"]})),
    ("save-duplicate", "output.save[1]",
     lambda s: _set(s, "output", {"save": ["values", "values"]})),
    ("bad-format", "output.format", lambda s: _set(s, "output", {"format": "xml"})),
    ("logs-on-thread", "output.save",
     lambda s: _set(s, "output", {"save": ["logs"]})),
]


@pytest.mark.parametrize("label,fragment,mutate", _CORPUS,
                         ids=[c[0] for c in _CORPUS])
def test_corpus_rejections_are_typed_and_name_the_path(label, fragment, mutate):
    mutated = mutate(copy.deepcopy(_valid_base()))
    with pytest.raises(JobSpecError) as err:
        JobDocument.from_spec(mutated)
    exc = err.value
    assert isinstance(exc.path, str) and exc.path.startswith("$"), exc.path
    # The rejection points at (or into) the field the mutation broke.
    want = "$" if fragment == "$" else f"$.{fragment}"
    assert exc.path.startswith(want) or want.startswith(exc.path), (
        f"{label}: rejection path {exc.path!r} does not name {want!r}: {exc}"
    )
    assert str(exc), "rejection must carry a message"



def test_runtime_nodes_is_an_unknown_key():
    """A world's nodes are where its launcher places the ranks; a job
    document has no node count to give, and one that still carries it
    is refused like any key the schema does not know."""
    doc = _valid_base()
    doc["runtime"] = {"backend": "thread", "nodes": 2}
    with pytest.raises(JobSpecError, match="unknown key 'nodes'") as err:
        JobDocument.from_spec(doc)
    assert err.value.path == "$.runtime"
    valid = JobDocument.from_spec(_valid_base())
    assert "nodes" not in valid.to_spec()["runtime"]
    assert "nodes" not in valid.layout_portion()["runtime"]

# ---------------------------------------------------------------------------
# Typed rejection: random mutations and truncation
# ---------------------------------------------------------------------------


_JUNK = [None, True, False, -1, 0, 3.5, "", "x", [], {}, [1, 2], {"a": 1}, float("nan")]


def _sites(node, prefix=()):
    """Every (container, key) assignment site in a JSON tree."""
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            out.append((node, key))
            out.extend(_sites(value, prefix + (key,)))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.append((node, i))
            out.extend(_sites(value, prefix + (i,)))
    return out


@pytest.mark.parametrize("seed", range(300))
def test_random_mutation_never_raises_raw_exceptions(seed):
    """The core fuzz property: an arbitrary single-site mutation of a
    valid document either validates or fails with a pathed
    ``JobSpecError`` — never a raw ``KeyError``/``TypeError``."""
    rng = random.Random(10_000 + seed)
    spec = gen_valid_spec(rng)
    sites = _sites(spec)
    container, key = rng.choice(sites)
    action = rng.random()
    if action < 0.25 and isinstance(container, dict):
        del container[key]
    elif action < 0.5 and isinstance(container, dict):
        container[f"k{rng.randrange(100)}"] = rng.choice(_JUNK)
    else:
        container[key] = rng.choice(_JUNK)
    try:
        doc = JobDocument.from_spec(spec)
    except JobSpecError as exc:
        assert isinstance(exc.path, str) and exc.path.startswith("$"), (
            f"seed {seed}: JobSpecError without a $-rooted path: {exc}"
        )
    except Exception as exc:  # noqa: BLE001 - the property under test
        pytest.fail(
            f"seed {seed}: raw {type(exc).__name__} escaped validation: {exc!r}\n"
            f"spec: {spec!r}"
        )
    else:
        assert isinstance(doc, JobDocument)


@pytest.mark.parametrize("seed", range(40))
def test_truncated_json_is_a_typed_rejection(seed):
    """Every strict prefix of a serialized document is invalid JSON, and
    must come back as ``JobSpecError`` at ``$`` — not ``JSONDecodeError``."""
    rng = random.Random(20_000 + seed)
    text = JobDocument.from_spec(gen_valid_spec(rng)).canonical_json()
    cut = rng.randrange(len(text))
    with pytest.raises(JobSpecError) as err:
        JobDocument.from_json(text[:cut])
    assert err.value.path == "$"


@pytest.mark.parametrize(
    "text", ["", "null", "[]", '"job"', "true", "{", "{}{}"],
    ids=["empty", "null", "list", "string", "bool", "open-brace", "two-objects"],
)
def test_non_object_json_is_a_typed_rejection(text):
    with pytest.raises(JobSpecError):
        JobDocument.from_json(text)


def test_json_with_wrong_key_types_is_typed():
    # json.loads can't produce non-string keys, but from_spec accepts
    # plain mappings, where it can happen.
    with pytest.raises(JobSpecError) as err:
        JobDocument.from_spec({1: "x", "components": [{"name": "atm", "nprocs": 1}]})
    assert err.value.path == "$"


def test_error_message_carries_the_path():
    try:
        JobDocument.from_spec(
            {"components": [{"name": "atm", "nprocs": 2},
                            {"name": "ocn", "nprocs": "two"}]}
        )
    except JobSpecError as exc:
        assert exc.path == "$.components[1].nprocs"
        assert "$.components[1].nprocs" in str(exc)
    else:
        pytest.fail("expected a rejection")


def test_fault_seed_spec_is_normalized():
    """A valid fault spec is stored in its canonical ``to_spec`` form,
    so the document round-trip stays a fixed point."""
    schedule = random_schedule(9, 4)
    doc = JobDocument.from_spec(
        {
            "components": [{"name": "atm", "nprocs": 4}],
            "seeds": {"fault": json.loads(json.dumps(schedule.to_spec()))},
        }
    )
    assert doc.seeds.fault == schedule.to_spec()

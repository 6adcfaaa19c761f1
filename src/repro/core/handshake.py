"""Component handshaking: the core algorithm of the paper (Section 6).

When an MPMD job starts, "all executables share the same MPI_Comm_World,
but with different logical processor IDs ... each processor does not know
which executables are loaded onto other processors."  The handshake turns
that anonymous world into a fully-mapped multi-component environment:

1. the root processor (world rank 0) reads the registration file and
   broadcasts it;
2. every processor contributes its executable's *declaration* — the
   component name-tags passed to ``MPH_components_setup`` or the instance
   prefix passed to ``MPH_multi_instance`` — via an allgather;
3. processors with identical declarations form an executable; each
   executable is matched against exactly one registry entry, giving every
   component a unique ``component_id`` (its position in the file);
4. communicators are derived from the session's named process sets
   (:mod:`repro.core.session`): each component / executable pset is turned
   into a communicator on demand by its members only, generalizing the
   paper's two ``Comm_split`` strategies.  :attr:`Session.strategy
   <repro.core.session.Session.strategy>` names which one the registry
   calls for — ``"world_split"`` when every entry is single-component (§6
   case 1; an :class:`~repro.core.mph.MPH` handle's executable
   communicator *is* its component communicator), ``"exe_then_comp"``
   otherwise (§6 case 2).

This module holds the declarations and step 3's resolution
(:func:`_resolve_executables`, :func:`_match_entry`); steps 1 and 2 run in
:meth:`Session.init <repro.core.session.Session.init>`, and step 4 in the
:class:`~repro.core.mph.MPH` handle and the session it views.

The handshake is deterministic: every process derives the identical
:class:`~repro.core.layout.Layout` from the broadcast registry and the
allgathered declarations, with no further communication.  Deterministic
against message *scheduling* too — bcast/allgather use specific-source
receives, so an armed :class:`~repro.mpi.sched.MatchSchedule` cannot
perturb the layout (asserted across seeds in
``tests/core/test_handshake_modes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.layout import ExecutableInfo
from repro.core.names import matches_prefix, validate_name
from repro.core.registry import MultiComponentEntry, MultiInstanceEntry, Registry
from repro.errors import HandshakeError


@dataclass(frozen=True)
class ComponentDecl:
    """What ``MPH_components_setup(name1=..., name2=..., ...)`` declares."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise HandshakeError("MPH_components_setup needs at least one component name")
        for n in self.names:
            validate_name(n)
        if len(set(self.names)) != len(self.names):
            raise HandshakeError(f"duplicate names in components_setup call: {self.names}")


@dataclass(frozen=True)
class InstanceDecl:
    """What ``MPH_multi_instance(prefix)`` declares."""

    prefix: str

    def __post_init__(self) -> None:
        validate_name(self.prefix)


Declaration = Union[ComponentDecl, InstanceDecl]


def _resolve_executables(
    registry: Registry, decls: list[Declaration]
) -> list[ExecutableInfo]:
    """Group world ranks by declaration, match groups to registry entries,
    and validate sizes."""
    groups: dict[Declaration, list[int]] = {}
    for rank, d in enumerate(decls):
        groups.setdefault(d, []).append(rank)

    # Deterministic executable ordering: ascending lowest world rank.
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])

    matched_entries: dict[int, Declaration] = {}
    exes: list[ExecutableInfo] = []
    for exe_id, (d, ranks) in enumerate(ordered):
        entry_index = _match_entry(registry, d)
        if entry_index in matched_entries:
            raise HandshakeError(
                f"two executables declared the same registration entry "
                f"({registry.entries[entry_index].component_names}); component names "
                "must identify executables uniquely"
            )
        matched_entries[entry_index] = d
        entry = registry.entries[entry_index]
        if isinstance(entry, (MultiComponentEntry, MultiInstanceEntry)):
            if entry.nprocs != len(ranks):
                raise HandshakeError(
                    f"executable declaring {entry.component_names} runs on "
                    f"{len(ranks)} processes but the registration file allocates local "
                    f"processors 0..{entry.nprocs - 1} ({entry.nprocs}); the launch "
                    "command and registration file disagree"
                )
        exes.append(
            ExecutableInfo(
                exe_id=exe_id,
                entry_index=entry_index,
                kind=entry.kind,
                world_ranks=tuple(ranks),
                component_names=entry.component_names,
                has_overlap=isinstance(entry, MultiComponentEntry) and entry.has_overlap,
                instance_prefix=d.prefix if isinstance(d, InstanceDecl) else None,
            )
        )

    unmatched = [
        e.component_names
        for i, e in enumerate(registry.entries)
        if i not in matched_entries
    ]
    if unmatched:
        raise HandshakeError(
            f"registration file registers components that no executable declared: "
            f"{unmatched} — is an executable missing from the launch command?"
        )
    return exes


def _match_entry(registry: Registry, decl: Declaration) -> int:
    """Find the unique registry entry matching a declaration."""
    if isinstance(decl, ComponentDecl):
        target = frozenset(decl.names)
        for i, entry in enumerate(registry.entries):
            if isinstance(entry, MultiInstanceEntry):
                continue
            if frozenset(entry.component_names) == target:
                return i
        # Help the user: are some names registered, but grouped differently?
        known = [n for n in decl.names if n in registry.component_names]
        unknown = [n for n in decl.names if n not in registry.component_names]
        if unknown:
            raise HandshakeError(
                f"component name-tags {unknown} do not appear in the registration file; "
                f"registered names: {list(registry.component_names)}"
            )
        raise HandshakeError(
            f"components {list(decl.names)} are registered, but not together as one "
            "executable — the registration file groups them differently"
        )
    # InstanceDecl
    candidates = [
        i
        for i, entry in enumerate(registry.entries)
        if isinstance(entry, MultiInstanceEntry)
        and all(matches_prefix(n, decl.prefix) for n in entry.component_names)
    ]
    if not candidates:
        raise HandshakeError(
            f"no Multi_Instance block whose instance names all use prefix "
            f"{decl.prefix!r}; check the registration file"
        )
    if len(candidates) > 1:
        raise HandshakeError(
            f"prefix {decl.prefix!r} matches {len(candidates)} Multi_Instance blocks; "
            "prefixes must identify the executable uniquely"
        )
    return candidates[0]

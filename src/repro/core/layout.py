"""The resolved processor layout of a running multi-component application.

A :class:`Layout` is what every process knows after the handshake: which
components exist, which executable each belongs to, and exactly which world
ranks every component occupies.  It is computed deterministically from the
broadcast registry plus the allgathered per-executable declarations, so all
processes hold identical copies without further communication.

All MPH inquiry functions (paper §5.3) and the inter-component messaging
address translation (§5.2) read from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.core.registry import (
    MultiComponentEntry,
    MultiInstanceEntry,
    Registry,
    RegistryEntry,
    SingleComponentEntry,
)
from repro.errors import HandshakeError
from repro.mpi.constants import UNDEFINED


@dataclass(frozen=True)
class ComponentInfo:
    """Everything known about one component after the handshake."""

    name: str
    #: Global component id == position in the registry (the split color).
    comp_id: int
    #: Index of the owning executable (by ascending lowest world rank).
    exe_id: int
    #: World ranks of the component, in component-local rank order.
    world_ranks: tuple[int, ...]
    #: Argument fields from the registration line (paper §4.4).
    fields: tuple[str, ...] = ()
    #: For instances of a multi-instance executable: the setup prefix.
    instance_prefix: Optional[str] = None

    @property
    def size(self) -> int:
        """Number of processes running this component."""
        return len(self.world_ranks)

    def local_rank_of(self, world_rank: int) -> int:
        """Component-local rank of *world_rank* (``UNDEFINED`` if absent)."""
        try:
            return self.world_ranks.index(world_rank)
        except ValueError:
            return UNDEFINED


@dataclass(frozen=True)
class ExecutableInfo:
    """Everything known about one executable after the handshake."""

    exe_id: int
    #: Index of the registry entry this executable matched.
    entry_index: int
    #: ``"single"`` / ``"multi_component"`` / ``"multi_instance"``.
    kind: str
    #: World ranks of the executable, ascending (local index order).
    world_ranks: tuple[int, ...]
    #: Names of the components it hosts (instances expanded).
    component_names: tuple[str, ...]
    #: Whether any two of its components overlap on processors.
    has_overlap: bool = False
    #: For multi-instance executables: the prefix passed to
    #: ``MPH_multi_instance`` by the running code.
    instance_prefix: Optional[str] = None

    @property
    def size(self) -> int:
        """Number of processes in the executable."""
        return len(self.world_ranks)

    @property
    def low_proc_limit(self) -> int:
        """Lowest world rank of the executable (``MPH_exe_low_proc_limit``)."""
        return self.world_ranks[0]

    @property
    def up_proc_limit(self) -> int:
        """Highest world rank of the executable (``MPH_exe_up_proc_limit``)."""
        return self.world_ranks[-1]


class Layout:
    """The global component/executable map shared by every process."""

    def __init__(self, registry: Registry, executables: list[ExecutableInfo]):
        self.registry = registry
        self.executables: tuple[ExecutableInfo, ...] = tuple(
            sorted(executables, key=lambda e: e.exe_id)
        )
        components: list[ComponentInfo] = []
        for exe in self.executables:
            entry = registry.entries[exe.entry_index]
            components.extend(_expand_components(registry, entry, exe))
        components.sort(key=lambda c: c.comp_id)
        self.components: tuple[ComponentInfo, ...] = tuple(components)
        self._by_name: dict[str, ComponentInfo] = {c.name: c for c in self.components}

    # -- degradation after process failure ------------------------------------

    @classmethod
    def degrade(
        cls, prev: "Layout", live_world_ids: Iterable[int]
    ) -> tuple["Layout", tuple[str, ...]]:
        """The layout that survives a process failure: *prev* with every
        dead world rank removed.

        World ids are **preserved** — a surviving process keeps its
        original global id, components keep their ``comp_id``, and
        executables keep their ``exe_id`` (an executable that lost every
        process stays in :attr:`executables` with no ranks, so positional
        ``exe_id`` indexing still works).  Components left with zero
        processes are dropped from :attr:`components`; their names are
        returned alongside the new layout so callers can report the
        degradation.

        Returns ``(layout, dead_component_names)``.  Deterministic: every
        survivor passing the same live set derives the identical layout,
        mirroring the original handshake's no-further-communication
        property.
        """
        live = frozenset(live_world_ids)
        lay = cls.__new__(cls)
        lay.registry = prev.registry
        lay.executables = tuple(
            replace(e, world_ranks=tuple(r for r in e.world_ranks if r in live))
            for e in prev.executables
        )
        survivors: list[ComponentInfo] = []
        dead: list[str] = []
        for comp in prev.components:
            ranks = tuple(r for r in comp.world_ranks if r in live)
            if ranks:
                survivors.append(replace(comp, world_ranks=ranks))
            else:
                dead.append(comp.name)
        lay.components = tuple(survivors)
        lay._by_name = {c.name: c for c in lay.components}
        return lay, tuple(dead)

    # -- lookups --------------------------------------------------------------

    def component(self, name: str) -> ComponentInfo:
        """Info for component *name* (raising a helpful error if unknown)."""
        info = self._by_name.get(name)
        if info is None:
            raise HandshakeError(
                f"unknown component {name!r}; active components: {sorted(self._by_name)}"
            )
        return info

    def has_component(self, name: str) -> bool:
        """Whether *name* is an active component."""
        return name in self._by_name

    @property
    def total_components(self) -> int:
        """Number of active components (``MPH_total_components``)."""
        return len(self.components)

    @property
    def num_executables(self) -> int:
        """Number of executables in the job."""
        return len(self.executables)

    def global_rank(self, name: str, local_rank: int) -> int:
        """World rank of component-local rank *local_rank* of *name* — the
        paper's ``MPH_global_id(name, local)`` address translation (§5.2)."""
        info = self.component(name)
        if not 0 <= local_rank < info.size:
            raise HandshakeError(
                f"component {name!r} has {info.size} processes; local rank "
                f"{local_rank} out of range"
            )
        return info.world_ranks[local_rank]

    def components_on(self, world_rank: int) -> tuple[ComponentInfo, ...]:
        """Components covering *world_rank* (several when overlapping)."""
        return tuple(c for c in self.components if world_rank in c.world_ranks)

    def executable_of(self, world_rank: int) -> ExecutableInfo:
        """The executable owning *world_rank*."""
        for exe in self.executables:
            if world_rank in exe.world_ranks:
                return exe
        raise HandshakeError(f"world rank {world_rank} belongs to no executable")

    def overlap(self, name_a: str, name_b: str) -> bool:
        """Whether two components share any world rank."""
        a = set(self.component(name_a).world_ranks)
        return bool(a.intersection(self.component(name_b).world_ranks))

    def world_size(self) -> int:
        """Total world ranks covered by the executables."""
        return sum(e.size for e in self.executables)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        comps = ", ".join(f"{c.name}({c.size})" for c in self.components)
        return f"<Layout {self.num_executables} executables: {comps}>"

    def describe(self) -> str:
        """A human-readable table of the resolved layout — what
        ``processors_map.in`` plus the launch command actually produced.

        >>> print(mph.layout.describe())  # doctest: +SKIP
        executables:
          exe 0  multi_component  world ranks 0..19   [atmosphere, land, chemistry]
          ...
        components:
          id 0  atmosphere  exe 0  16 procs  world ranks 0-15
          ...
        """
        lines = ["executables:"]
        for exe in self.executables:
            names = ", ".join(exe.component_names)
            span = (
                f"world ranks {exe.low_proc_limit}..{exe.up_proc_limit}"
                if exe.world_ranks
                else "no surviving ranks"
            )
            lines.append(
                f"  exe {exe.exe_id}  {exe.kind:<15s} {span}  [{names}]"
                + ("  (overlapping)" if exe.has_overlap else "")
            )
        lines.append("components:")
        for comp in self.components:
            lines.append(
                f"  id {comp.comp_id}  {comp.name:<16s} exe {comp.exe_id}  "
                f"{comp.size} procs  world ranks {_span(comp.world_ranks)}"
                + (f"  fields: {' '.join(comp.fields)}" if comp.fields else "")
            )
        return "\n".join(lines)


def _span(ranks: tuple[int, ...]) -> str:
    """Compact rendering of a rank list: contiguous runs as ``a-b``."""
    if not ranks:
        return "(none)"
    runs: list[str] = []
    start = prev = ranks[0]
    for r in ranks[1:]:
        if r == prev + 1:
            prev = r
            continue
        runs.append(f"{start}-{prev}" if prev > start else str(start))
        start = prev = r
    runs.append(f"{start}-{prev}" if prev > start else str(start))
    return ",".join(runs)


def _expand_components(
    registry: Registry, entry: RegistryEntry, exe: ExecutableInfo
) -> list[ComponentInfo]:
    """Resolve one executable's registry entry against its world ranks."""
    ranks = exe.world_ranks
    out: list[ComponentInfo] = []
    if isinstance(entry, SingleComponentEntry):
        spec = entry.component
        out.append(
            ComponentInfo(
                name=spec.name,
                comp_id=registry.component_id(spec.name),
                exe_id=exe.exe_id,
                world_ranks=ranks,
                fields=spec.fields,
            )
        )
        return out
    specs = entry.components if isinstance(entry, MultiComponentEntry) else entry.instances
    for spec in specs:
        if spec.high >= len(ranks):  # type: ignore[operator]
            raise HandshakeError(
                f"component {spec.name!r} registers local processors "
                f"{spec.low}..{spec.high} but its executable has only {len(ranks)} "
                "processes — the registration file disagrees with the launch command"
            )
        out.append(
            ComponentInfo(
                name=spec.name,
                comp_id=registry.component_id(spec.name),
                exe_id=exe.exe_id,
                world_ranks=tuple(ranks[i] for i in spec.local_indices()),
                fields=spec.fields,
                instance_prefix=exe.instance_prefix if isinstance(entry, MultiInstanceEntry) else None,
            )
        )
    return out

"""MPI-Sessions-style initialization: named process sets and on-demand
communicators.

The paper's §4 handshake bootstraps everything eagerly: one registry
broadcast, one declaration allgather, then every communicator is split from
``COMM_WORLD`` up front.  Following the MPI Sessions model ("Implementing
True MPI Sessions and Evaluating MPI Initialization Scalability",
PAPERS.md), this module inverts that: after the (unavoidable) init
exchange, a :class:`Session` only *names* process sets —

* ``mph://world`` — every live process;
* ``mph://self`` — this process alone;
* ``mph://exe/<k>`` — executable *k*'s processes;
* ``mph://component/<name>`` — one component (instances expanded, so MIME
  members get instance-scoped psets like ``mph://component/Ocean2``);
* ``mph://ensemble/<prefix>`` — all instances of a multi-instance
  executable together;
* ``mph://node/<k>`` — live processes on SMP node *k*, as the launcher
  placed them (the world's ``node_map``; node 0 holds every process of a
  job launched without a :class:`~repro.launcher.smp.Machine`).

Communicators are derived **lazily** from psets by their members only:
the member with the lowest world id allocates a fresh context pair and
distributes it point-to-point over MPH's private control communicator
(the same group-creation idiom ``MPH_comm_join`` already used, and what
MPI-3 standardizes as ``Comm_create_from_group``).  No world-wide splits,
no participation by processes outside the pset, and — because every
receive is specific-source, specific-tag — the derivation is deterministic
under an armed :class:`~repro.mpi.sched.MatchSchedule`.

**Epochs.**  Pset membership is versioned by an *epoch* counter, and one
transition advances it: :meth:`Session.shrink`, the revoke/shrink/agree
recovery plane after a process failure (``MPH.shrink_world`` routes
here).  Every survivor derives the same next layout from the shrunk
world's members alone, so all views agree with no further agreement
protocol, and a survivor keeps its original world id.  The paper's other
§9(b) answer — moving processors between a fixed world's components —
is a fresh init exchange against a new registration file
(:func:`repro.core.migration.migrate`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.handshake import (
    ComponentDecl,
    Declaration,
    InstanceDecl,
    _resolve_executables,
)
from repro.core.layout import Layout
from repro.core.registry import Registry, SingleComponentEntry
from repro.errors import HandshakeError, SessionError
from repro.mpi.comm import Comm
from repro.mpi.group import Group

#: Control-communicator tag namespace for pset-communicator derivation.
#: Far above the ``comm_join`` namespace (1_000_000 + comp_id * 4096) and
#: far below the recovery reservation (``1 << 31``); the control comm
#: carries both families, disambiguated by tag alone.
SESSION_TAG_BASE = 1 << 28

#: Epochs per pset slot in the derivation tag: one pset derived at two
#: different epochs uses two different tags (until the epoch counter wraps
#: this radix, at which point per-source ordering still disambiguates).
_PSET_TAG_RADIX = 4096

#: "Each executable could contain up to 10 components" (paper §4.3).
_MAX_COMPONENTS = 10


@dataclass(frozen=True)
class ProcessSet:
    """One named process set at one epoch — an immutable membership view."""

    name: str
    #: World ids of the members, in pset rank order.
    members: Tuple[int, ...]
    #: The epoch this view belongs to.
    epoch: int

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, world_id: int) -> bool:
        return world_id in self.members


@dataclass(frozen=True)
class PrecomputedLayout:
    """A handshake layout resolved ahead of time — the sessions layer's
    layout-cache seam.

    The init exchange (§6 steps 1–3: registry broadcast, declaration
    allgather, layout resolution) is a pure function of the registration
    file and the per-rank declarations.  A launcher that already knows
    both — the MPH service runtime, which derives them from a validated
    job document and caches the result keyed by the document's layout
    hash — can :meth:`build` this once and hand it to every rank as the
    ``registry`` input.  :meth:`Session.init` then skips the exchange:
    no broadcast, no allgather.  The live exchange builds one of these
    from what it gathered, so both paths run the same checks of this
    rank's declaration against the layout (a mismatch is a
    :class:`~repro.errors.HandshakeError`).

    Pure data (picklable), so the process backend can ship it to forked
    and exec'd children inside their launcher metadata.
    """

    #: The parsed registration file.
    registry: Registry
    #: Per-world-rank declarations, in rank order.
    decls: Tuple[Declaration, ...]
    #: Resolved executables (their ``world_ranks`` are ranks of the
    #: world the declarations came from).
    exes: Tuple[Any, ...]

    @classmethod
    def build(cls, registry_input: Any, decls: Sequence[Declaration]) -> "PrecomputedLayout":
        """Resolve the layout — the live init exchange's step 3 too:
        parse the registry, group *decls* into executables, match them
        against registry entries.  Raises
        :class:`~repro.errors.HandshakeError` /
        :class:`~repro.errors.RegistryError` when they disagree."""
        registry = Registry.load(registry_input)
        exes = _resolve_executables(registry, list(decls))
        return cls(registry=registry, decls=tuple(decls), exes=tuple(exes))

    def layout(self, world_ids: Sequence[int]) -> Layout:
        """The resolved component/executable map in world ids:
        *world_ids* gives each rank's (``Group.members`` of the world the
        exchange ran over — after a failure shrink, not the identity)."""
        exes = [
            replace(e, world_ranks=tuple(world_ids[r] for r in e.world_ranks))
            for e in self.exes
        ]
        return Layout(self.registry, exes)


class Session:
    """A process's handle on the sessions layer.

    Create one with :func:`components_session` or :func:`instance_session`;
    ``components_setup`` and ``multi_instance`` create one and return its
    :meth:`mph` handle.
    """

    def __init__(
        self,
        *,
        control: Comm,
        registry: Registry,
        decl: Declaration,
        layout: Layout,
        world: Comm,
    ):
        self._control = control
        self._registry = registry
        self._decl = decl
        self._my_id = control.group.world_id(control.rank)

        # The current epoch's membership; a shrink replaces all of it.
        self._epoch = 0
        self._layout = layout
        self._active = _active_ranks(layout)
        self._catalog_cache: Optional[Dict[str, Tuple[int, ...]]] = None
        self._pset_index: Dict[str, int] = {}
        #: Derived communicators of this epoch, by pset name.  The world
        #: pset's is always present: the launch world at epoch 0, the
        #: shrunk world after — what lets a failure shrink run at any epoch.
        self._comm_cache: Dict[str, Comm] = {"mph://world": world}

        #: Cumulative crashed components, absent from the layout.
        self._dead_components: list[str] = []

    # -- construction ----------------------------------------------------------

    @classmethod
    def init(cls, world: Comm, decl: Declaration, registry_input: Any) -> "Session":
        """Run the init exchange over *world* and return this process's
        session.

        Collective over every process of *world*.  The exchange is the
        paper's §6 steps 1–3 (registry broadcast, declaration allgather,
        deterministic layout resolution) plus one ``dup`` for the control
        communicator; **no** component communicators are built here —
        they are derived lazily from psets, and *world* itself is the
        ``mph://world`` communicator.
        """
        if isinstance(decl, ComponentDecl) and len(decl.names) > _MAX_COMPONENTS:
            raise HandshakeError(
                f"executable declares {len(decl.names)} components; the limit is "
                f"{_MAX_COMPONENTS} (paper §4.3)"
            )

        if isinstance(registry_input, PrecomputedLayout):
            # Layout-cache fast path: the launcher resolved the layout
            # ahead of time (service runtime, warm job) — no exchange.
            pre = registry_input
        else:
            # Step 1 — root reads the registration file and broadcasts it (§6).
            if world.rank == 0:
                registry = Registry.load(registry_input)
                world.bcast(registry)
            else:
                registry = world.bcast(None)
            # Step 2 — allgather declarations; step 3 — group them into
            # executables and match those against the registry.
            pre = PrecomputedLayout.build(registry, world.allgather(decl))

        if len(pre.decls) != world.size:
            raise HandshakeError(
                f"precomputed layout covers {len(pre.decls)} ranks but the "
                f"world has {world.size}"
            )
        if pre.decls[world.rank] != decl:
            raise HandshakeError(
                f"rank {world.rank} declared {decl!r} but the precomputed "
                f"layout expected {pre.decls[world.rank]!r}; the layout "
                "cache is stale for this job"
            )

        # The control communicator: MPH's private plane for pset-context
        # distribution and comm_join.  It spans all of *world* and is
        # never rebuilt, so world ids translate to its ranks through one
        # group for the session's lifetime.
        control = world.dup("MPH_service")
        return cls(
            control=control,
            registry=pre.registry,
            decl=decl,
            layout=pre.layout(world.group.members),
            world=world,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current pset epoch (0 after init, +1 per shrink)."""
        return self._epoch

    @property
    def layout(self) -> Layout:
        """The current epoch's component/executable map."""
        return self._layout

    @property
    def strategy(self) -> str:
        """The §6 split strategy the registry calls for:
        ``"world_split"`` when every entry is single-component,
        ``"exe_then_comp"`` otherwise."""
        if all(isinstance(e, SingleComponentEntry) for e in self._registry.entries):
            return "world_split"
        return "exe_then_comp"

    @property
    def registry(self) -> Registry:
        return self._registry

    @property
    def control_comm(self) -> Comm:
        """MPH's private control communicator (``MPH.service_comm``)."""
        return self._control

    @property
    def is_active(self) -> bool:
        """Whether this process is in the current layout's world."""
        return self._my_id in self._active

    @property
    def dead_components(self) -> Tuple[str, ...]:
        """Components that lost every process to failures."""
        return tuple(self._dead_components)

    def psets(self) -> Tuple[str, ...]:
        """Names of every process set at the current epoch."""
        return tuple(self._catalog())

    def pset(self, name: str) -> ProcessSet:
        """Look up a process set by name — a purely local operation.

        Accepts the full ``mph://`` URI or a shorthand: ``"world"`` for
        ``mph://world``, ``"component/ocean"`` for
        ``mph://component/ocean``, or a bare component name.
        """
        catalog = self._catalog()
        resolved = self._resolve_pset_name(name, catalog)
        if resolved is None:
            raise SessionError(
                f"unknown process set {name!r}; available: {sorted(catalog)}"
            )
        return ProcessSet(resolved, catalog[resolved], self._epoch)

    def _resolve_pset_name(
        self, name: str, catalog: Dict[str, Tuple[int, ...]]
    ) -> Optional[str]:
        for candidate in (name, f"mph://{name}", f"mph://component/{name}"):
            if candidate in catalog:
                return candidate
        return None

    # -- communicator derivation ------------------------------------------------

    def comm(self, name: str) -> Comm:
        """The communicator of process set *name*, derived on demand.

        Collective over the pset's members **only** — processes outside it
        neither participate nor may call this (that raises
        :class:`SessionError`).  The derived communicator is cached per
        ``(pset, epoch)``, so repeated calls are free and every member
        gets the same epoch's view.
        """
        ps = self.pset(name)
        comm = self._comm_cache.get(ps.name)
        if comm is None:
            comm = self._comm_cache[ps.name] = self._derive_comm(ps.name)
        return comm

    def _derive_comm(self, pset_name: str) -> Comm:
        """Group-creation from a pset: the lowest-world-id member allocates
        a context pair and distributes it p2p over the control comm at a
        tag every member computes locally (pset catalog index + epoch)."""
        members = self._catalog()[pset_name]
        me, epoch = self._my_id, self._epoch
        if me not in members:
            raise SessionError(
                f"process {me} is not a member of {pset_name!r} at epoch {epoch}; "
                "only members may derive its communicator"
            )
        control = self._control
        tag = (
            SESSION_TAG_BASE
            + self._pset_index[pset_name] * _PSET_TAG_RADIX
            + epoch % _PSET_TAG_RADIX
        )
        leader = min(members)
        if me == leader:
            ctxs = control.world.alloc_context_pair()
            for other in members:
                if other != leader:
                    control.send(ctxs, control.group.rank_of(other), tag)
        else:
            ctxs = control.recv(source=control.group.rank_of(leader), tag=tag)
        return Comm(
            control.world,
            Group(members),
            me,
            ctxs,
            name=_comm_name(pset_name),
        )

    def _catalog(self) -> Dict[str, Tuple[int, ...]]:
        """The current epoch's pset catalog: an ordered name -> members
        map, built identically by every process from the shared layout
        (the insertion order doubles as the derivation-tag index)."""
        if self._catalog_cache is not None:
            return self._catalog_cache
        lay = self._layout
        active = self._active
        cat: Dict[str, Tuple[int, ...]] = {}
        cat["mph://world"] = active
        cat["mph://self"] = (self._my_id,)
        for exe in lay.executables:
            cat[f"mph://exe/{exe.exe_id}"] = exe.world_ranks
        for comp in lay.components:
            cat[f"mph://component/{comp.name}"] = comp.world_ranks
        for exe in lay.executables:
            if exe.instance_prefix is not None:
                cat[f"mph://ensemble/{exe.instance_prefix}"] = exe.world_ranks
        node_map = self._control.world.node_map or (0,) * self._control.world.nprocs
        for node in sorted(set(node_map)):
            cat[f"mph://node/{node}"] = tuple(r for r in active if node_map[r] == node)
        self._catalog_cache = cat
        self._pset_index = {name: i for i, name in enumerate(cat)}
        return cat

    def mph(self, env: Any = None) -> "Any":
        """A fresh :class:`~repro.core.mph.MPH` handle at the current epoch.

        Collective over the world (every live process must call it at
        the same epoch): the handle derives the world, executable
        and covering-component communicators from their psets."""
        from repro.core.mph import MPH

        return MPH(self, env=env)

    # -- the failure transition ---------------------------------------------------

    def shrink(self) -> Tuple[str, ...]:
        """Rebuild over the survivors of a process failure (the
        ``MPH.shrink_world`` path) and advance the epoch.

        Collective over every live process.  ``Comm.shrink`` on the world
        pset's communicator gives the survivors; each derives the same
        degraded layout from them, keeping its original world id, and the
        shrunk communicator becomes the new epoch's ``mph://world``.
        Other pset communicators are derived afresh when next asked for.
        Returns the newly dead components.
        """
        new_world = self.comm("mph://world").shrink("MPH_world")
        self._layout, newly_dead = Layout.degrade(self._layout, new_world.group.members)
        self._dead_components.extend(newly_dead)
        self._epoch += 1
        self._active = _active_ranks(self._layout)
        self._catalog_cache = None
        self._comm_cache = {"mph://world": new_world}
        return newly_dead


def _active_ranks(layout: Layout) -> Tuple[int, ...]:
    ranks: set[int] = set()
    for exe in layout.executables:
        ranks.update(exe.world_ranks)
    return tuple(sorted(ranks))


def _comm_name(pset_name: str) -> str:
    if pset_name.startswith("mph://component/"):
        return f"MPH:{pset_name[len('mph://component/'):]}"
    if pset_name.startswith("mph://exe/"):
        return f"MPH:exe{pset_name[len('mph://exe/'):]}"
    return f"MPH:pset({pset_name})"


# -- entry points ---------------------------------------------------------------


def _registry_source(registry: Any, env: Any) -> Any:
    if registry is not None:
        return registry
    env_registry = getattr(env, "registry", None)
    if env_registry is not None:
        return env_registry
    raise SessionError(
        "no registration file: pass `registry=` to the setup or session call, "
        "or launch through mph_run(..., registry=...)"
    )


def components_session(
    world: Comm, *names: str, registry: Any = None, env: Any = None
) -> Session:
    """A session for an executable declaring component *names* — what
    ``MPH_components_setup`` runs before it returns the session's
    :meth:`~Session.mph` handle."""
    return Session.init(world, ComponentDecl(tuple(names)), _registry_source(registry, env))


def instance_session(
    world: Comm, prefix: str, *, registry: Any = None, env: Any = None
) -> Session:
    """A session for a multi-instance (MIME) executable — what
    ``MPH_multi_instance`` runs before it returns the session's
    :meth:`~Session.mph` handle."""
    return Session.init(world, InstanceDecl(prefix), _registry_source(registry, env))

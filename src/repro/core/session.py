"""MPI-Sessions-style initialization: named process sets, on-demand
communicators, and elastic membership.

The paper's §4 handshake bootstraps everything eagerly: one registry
broadcast, one declaration allgather, then every communicator is split from
``COMM_WORLD`` up front.  Following the MPI Sessions model ("Implementing
True MPI Sessions and Evaluating MPI Initialization Scalability",
PAPERS.md), this module inverts that: after the (unavoidable) init
exchange, a :class:`Session` only *names* process sets —

* ``mph://world`` — every active process;
* ``mph://self`` — this process alone;
* ``mph://pool`` — parked reserve processes (see below);
* ``mph://exe/<k>`` — executable *k*'s processes;
* ``mph://component/<name>`` — one component (instances expanded, so MIME
  members get instance-scoped psets like ``mph://component/Ocean2``);
* ``mph://ensemble/<prefix>`` — all instances of a multi-instance
  executable together;
* ``mph://node/<k>`` — active processes on SMP node *k*.

Communicators are derived **lazily** from psets by their members only:
the member with the lowest world id allocates a fresh context pair and
distributes it point-to-point over MPH's private control communicator
(the same group-creation idiom ``MPH_comm_join`` already used, and what
MPI-3 standardizes as ``Comm_create_from_group``).  No world-wide splits,
no participation by processes outside the pset, and — because every
receive is specific-source, specific-tag — the derivation is deterministic
under an armed :class:`~repro.mpi.sched.MatchSchedule`.

**Elastic membership.**  Pset membership is versioned by an *epoch*
counter.  Three planned transitions and one unplanned one advance it:

* :meth:`Session.grow` — admit reserve processes (parked via
  :func:`pool_session` + :meth:`Session.await_assignment`) into an
  existing component, a resurrected dead component, or a brand-new
  instance of a multi-instance executable;
* :meth:`Session.retire` — remove processes cleanly: psets shrink,
  emptied components leave the layout, and surviving transports drop the
  departed peers' cached connections and shared-memory rings;
* :meth:`Session.release_pool` — dismiss the remaining reserve;
* :meth:`Session.shrink` — the *unplanned* case: the PR-3
  revoke/shrink/agree recovery plane expressed as the same epoch
  transition (``MPH.shrink_world`` routes here).

Every transition is a deterministic, purely local state update computed
identically by all active processes from the transition record; parked
pool processes replay the records they receive from the lowest active
rank, so the whole application agrees on every epoch's membership without
any collective agreement protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.handshake import (
    ComponentDecl,
    Declaration,
    InstanceDecl,
    PoolDecl,
    _resolve_executables,
)
from repro.core.layout import ComponentInfo, Layout
from repro.core.registry import MultiComponentEntry, Registry, SingleComponentEntry
from repro.errors import HandshakeError, SessionError
from repro.mpi.comm import Comm
from repro.mpi.constants import ANY_SOURCE
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

#: Tags for epoch-transition records sent to parked pool processes
#: (``POOL_TAG_BASE + epoch``).  The sender varies by transition kind, so
#: the receive is any-source — but each epoch has exactly one notifier, so
#: the match is unique and schedule-independent.
POOL_TAG_BASE = SESSION_TAG_BASE - (1 << 16)

_EPOCH_TAG_MASK = 0xFFFF

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
    #: Resolved executables.
    exes: Tuple[Any, ...]
    #: World ranks of the reserve pool.
    pool: Tuple[int, ...]

    @classmethod
    def build(cls, registry_input: Any, decls: Sequence[Declaration]) -> "PrecomputedLayout":
        """Resolve the layout — the live init exchange's step 3 too:
        parse the registry, group *decls* into executables, match them
        against registry entries.  Raises
        :class:`~repro.errors.HandshakeError` /
        :class:`~repro.errors.RegistryError` when they disagree."""
        registry = Registry.load(registry_input)
        exes, pool = _resolve_executables(registry, list(decls))
        return cls(registry=registry, decls=tuple(decls), exes=tuple(exes), pool=pool)

    def layout(self) -> Layout:
        """The resolved component/executable map."""
        return Layout(self.registry, list(self.exes))


@dataclass(frozen=True)
class Assignment:
    """What :meth:`Session.await_assignment` returns to an admitted
    reserve process."""

    #: Names of the components now covering this process.
    components: Tuple[str, ...]
    #: Index of the executable it joined.
    exe_id: int
    #: The epoch at which it became active.
    epoch: int


class Session:
    """A process's handle on the sessions layer.

    Create one with :func:`components_session`, :func:`instance_session`,
    or :func:`pool_session`; ``components_setup`` and ``multi_instance``
    create one and return its :meth:`mph` handle.
    """

    def __init__(
        self,
        *,
        control: Comm,
        registry: Registry,
        decl: Declaration,
        layout: Layout,
        pool: Tuple[int, ...],
    ):
        self._control = control
        self._registry = registry
        self._decl = decl
        self._my_id = control.group.world_id(control.rank)

        self._epoch = 0
        self._layouts: Dict[int, Layout] = {0: layout}
        self._pools: Dict[int, Tuple[int, ...]] = {0: pool}
        self._actives: Dict[int, Tuple[int, ...]] = {0: _active_ranks(layout)}
        self._catalogs: Dict[int, Dict[str, Tuple[int, ...]]] = {}
        self._pset_index: Dict[int, Dict[str, int]] = {}
        self._comm_cache: Dict[Tuple[str, int], Comm] = {}

        #: Cumulative crashed components still absent from the layout
        #: (a ``grow`` that resurrects one removes it again).
        self._dead_components: list[str] = []
        #: Components removed by planned ``retire`` calls (kept separate
        #: from crash-induced ``dead_components`` on purpose).
        self._retired_components: list[str] = []
        self._departed_ranks: set[int] = set()
        self._pool_released = False

        # Monotonic counters for grown MIME instances: next local instance
        # number per prefix, and the next fresh component id beyond the
        # registry's (ids are never reused, so join tags stay unambiguous).
        self._instance_counts: Dict[str, int] = {}
        for exe in layout.executables:
            if exe.instance_prefix is not None:
                self._instance_counts[exe.instance_prefix] = len(exe.component_names)
        self._next_comp_id = len(tuple(registry.component_names))

    # -- construction ----------------------------------------------------------

    @classmethod
    def init(cls, world: Comm, decl: Declaration, registry_input: Any) -> "Session":
        """Run the init exchange over *world* and return this process's
        session.

        Collective over every process of *world* — including reserve
        processes, which declare :class:`PoolDecl` and then park.  The
        exchange is the paper's §6 steps 1–3 (registry broadcast,
        declaration allgather, deterministic layout resolution) plus one
        ``dup`` for the control communicator; **no** component
        communicators are built here — they are derived lazily from psets.
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
        # distribution, comm_join, and pool notifications.  It spans the
        # *full* original world (pool included) and is never rebuilt, so
        # world ids translate to its ranks as the identity for the whole
        # application lifetime.
        control = world.dup("MPH_service")

        session = cls(
            control=control,
            registry=pre.registry,
            decl=decl,
            layout=pre.layout(),
            pool=pre.pool,
        )
        if not pre.pool:
            # Without a reserve pool the active world *is* the launch
            # world: reuse the existing communicator instead of deriving
            # an identical one (no context distribution at init).
            session._comm_cache[("mph://world", 0)] = world
        return session

    # -- introspection ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current pset epoch (0 after init, +1 per transition)."""
        return self._epoch

    @property
    def layout(self) -> Layout:
        """The current epoch's component/executable map."""
        return self._layouts[self._epoch]

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
        """Whether this process is in the current active world."""
        return self._my_id in self._actives[self._epoch]

    @property
    def is_retired(self) -> bool:
        """Whether this process was removed by a :meth:`retire`."""
        return self._my_id in self._departed_ranks

    @property
    def dead_components(self) -> Tuple[str, ...]:
        """Components that lost every process to *failures* and have not
        been resurrected by a :meth:`grow`."""
        return tuple(self._dead_components)

    @property
    def retired_components(self) -> Tuple[str, ...]:
        """Components whose every process was *planned* out via
        :meth:`retire` (disjoint from :attr:`dead_components`)."""
        return tuple(self._retired_components)

    def psets(self) -> Tuple[str, ...]:
        """Names of every process set at the current epoch."""
        return tuple(self._catalog(self._epoch))

    def pset(self, name: str) -> ProcessSet:
        """Look up a process set by name — a purely local operation.

        Accepts the full ``mph://`` URI or a shorthand: ``"world"`` for
        ``mph://world``, ``"component/ocean"`` for
        ``mph://component/ocean``, or a bare component name.
        """
        catalog = self._catalog(self._epoch)
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
        key = (ps.name, self._epoch)
        cached = self._comm_cache.get(key)
        if cached is not None:
            return cached
        comm = self._derive_comm(ps.name, self._epoch)
        self._comm_cache[key] = comm
        return comm

    def _derive_comm(self, pset_name: str, epoch: int) -> Comm:
        """Group-creation from a pset: the lowest-world-id member allocates
        a context pair and distributes it p2p over the control comm at a
        tag every member computes locally (pset catalog index + epoch)."""
        catalog = self._catalog(epoch)
        members = catalog[pset_name]
        me = self._my_id
        if me not in members:
            raise SessionError(
                f"process {me} is not a member of {pset_name!r} at epoch {epoch}; "
                "only members may derive its communicator"
            )
        if not members:
            raise SessionError(f"process set {pset_name!r} is empty at epoch {epoch}")
        control = self._control
        tag = (
            SESSION_TAG_BASE
            + self._pset_index[epoch][pset_name] * _PSET_TAG_RADIX
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

    def _catalog(self, epoch: int) -> Dict[str, Tuple[int, ...]]:
        """The pset catalog of *epoch*: an ordered name -> members map,
        built identically by every process from the shared layout (the
        insertion order doubles as the derivation-tag index)."""
        cached = self._catalogs.get(epoch)
        if cached is not None:
            return cached
        lay = self._layouts[epoch]
        active = self._actives[epoch]
        cat: Dict[str, Tuple[int, ...]] = {}
        cat["mph://world"] = active
        cat["mph://self"] = (self._my_id,)
        cat["mph://pool"] = self._pools[epoch]
        for exe in lay.executables:
            cat[f"mph://exe/{exe.exe_id}"] = exe.world_ranks
        for comp in lay.components:
            cat[f"mph://component/{comp.name}"] = comp.world_ranks
        for exe in lay.executables:
            if exe.instance_prefix is not None:
                cat[f"mph://ensemble/{exe.instance_prefix}"] = exe.world_ranks
        topo = getattr(self._control.world, "topology", None)
        if topo is not None:
            for node in range(topo.nnodes):
                cat[f"mph://node/{node}"] = tuple(
                    r for r in active if topo.node_of(r) == node
                )
        self._catalogs[epoch] = cat
        self._pset_index[epoch] = {name: i for i, name in enumerate(cat)}
        return cat

    def mph(self, env: Any = None) -> "Any":
        """A fresh :class:`~repro.core.mph.MPH` handle at the current epoch.

        Collective over the active world (every active process must call
        it at the same epoch): the handle derives the world, executable
        and covering-component communicators from their psets."""
        from repro.core.mph import MPH

        return MPH(self, env=env)

    # -- elastic transitions -----------------------------------------------------

    def grow(self, component: str, n: int) -> Tuple[str, ...]:
        """Admit *n* reserve processes into *component*.

        Collective over every active process (all must call with the same
        arguments).  *component* may be:

        * an existing component — the processes append to it (their
          component-local ranks follow the current members');
        * the instance prefix of a multi-instance executable — a brand-new
          instance (``<prefix><k+1>``) is created on the new processes;
        * a registered component currently dead after a failure — it is
          resurrected with its original component id and drops out of
          :attr:`dead_components`.

        The assigned processes are the first *n* of the reserve pool in
        world-id order; their :meth:`await_assignment` returns.  Returns
        the grown/created component names.  Admitting processes into
        communicators stays lazy: derive what you need afterwards with
        :meth:`comm` or a fresh :meth:`mph` handle.
        """
        self._require_active("grow")
        record = ("grow", str(component), int(n))
        prev_pool = self._pools[self._epoch]
        notifier = min(self._actives[self._epoch])
        grown = self._apply(record)
        self._notify_pool(record, prev_pool, notifier)
        return grown

    def retire(self, ranks: Iterable[int]) -> Tuple[str, ...]:
        """Remove processes from the application cleanly.

        Collective over every active process *including the retiring ones*
        (they participate in this last collective, then should finish
        their program).  Components left with zero processes leave the
        layout and are recorded in :attr:`retired_components` — not
        :attr:`dead_components`; this is the planned flavour of the same
        epoch transition a failure-shrink performs.  Surviving processes
        drop the departed peers from their transports (cached connections,
        shared-memory rings and page holds).  Returns the names of
        components that retired entirely.
        """
        self._require_active("retire")
        ranks = tuple(sorted({int(r) for r in ranks}))
        record = ("retire", ranks)
        prev_pool = self._pools[self._epoch]
        notifier = min(self._actives[self._epoch])
        retired = self._apply(record)
        self._notify_pool(record, prev_pool, notifier)
        return retired

    def release_pool(self) -> None:
        """Dismiss the remaining reserve processes: their
        :meth:`await_assignment` returns ``None`` and the pool pset
        empties.  Collective over every active process; a no-op when the
        pool is already empty."""
        self._require_active("release_pool")
        prev_pool = self._pools[self._epoch]
        if not prev_pool:
            return
        record = ("release",)
        notifier = min(self._actives[self._epoch])
        self._apply(record)
        self._notify_pool(record, prev_pool, notifier)

    def await_assignment(self) -> Optional[Assignment]:
        """Park a reserve process until a :meth:`grow` admits it (returns
        its :class:`Assignment`) or :meth:`release_pool` dismisses it
        (returns ``None``).

        While parked, the process replays every epoch-transition record it
        receives, so its view of psets, layout, and epoch stays exactly in
        step with the active world's.
        """
        if self._my_id not in self._pools[self._epoch]:
            raise SessionError(
                f"process {self._my_id} is not in the reserve pool; "
                "await_assignment is for pool_session processes"
            )
        while True:
            record = self._control.recv(
                source=ANY_SOURCE,
                tag=POOL_TAG_BASE + ((self._epoch + 1) & _EPOCH_TAG_MASK),
            )
            self._apply(record)
            if self._pool_released and not self.is_active:
                return None
            if self.is_active:
                lay = self._layouts[self._epoch]
                comps = tuple(
                    c.name for c in lay.components if self._my_id in c.world_ranks
                )
                return Assignment(
                    components=comps,
                    exe_id=lay.executable_of(self._my_id).exe_id,
                    epoch=self._epoch,
                )

    def shrink(self) -> Tuple[str, ...]:
        """The unplanned epoch transition: rebuild over the survivors of a
        process failure (the ``MPH.shrink_world`` path).

        Collective over every *live* active process.  Internally this is
        ``Comm.shrink`` on the current world pset's communicator followed
        by the same deterministic record application as :meth:`grow` /
        :meth:`retire` — so original global proc ids stay stable and a
        later ``grow`` composes correctly (it can even resurrect a
        component the failure erased).  Returns the newly dead components.
        """
        self._require_active("shrink")
        current = self.comm("mph://world")
        new_world = current.shrink("MPH_world")
        live = tuple(new_world.group.members)
        record = ("shrink", live)
        prev_pool = self._pools[self._epoch]
        notifier = min(live)
        newly_dead = self._apply(record, shrunk_world=new_world)
        self._notify_pool(record, prev_pool, notifier)
        return newly_dead

    # -- transition machinery ----------------------------------------------------

    def _require_active(self, op: str) -> None:
        if not self.is_active:
            raise SessionError(
                f"Session.{op} is collective over active processes; process "
                f"{self._my_id} is "
                + ("retired" if self.is_retired else "parked in the reserve pool")
            )

    def _notify_pool(
        self, record: tuple, prev_pool: Tuple[int, ...], notifier: int
    ) -> None:
        """Forward a transition record to every process that was parked
        when it happened (including ones it just admitted).  Exactly one
        process — the transition's notifier — sends."""
        if self._my_id != notifier:
            return
        tag = POOL_TAG_BASE + (self._epoch & _EPOCH_TAG_MASK)
        for r in prev_pool:
            self._control.send(record, self._control.group.rank_of(r), tag)

    def _apply(self, record: tuple, shrunk_world: Optional[Comm] = None) -> Tuple[str, ...]:
        """Apply one epoch-transition record — the same pure function on
        every process (active, retiring, or parked), so all views agree.
        Returns the affected component names (grown / retired / newly
        dead, by kind)."""
        kind = record[0]
        epoch = self._epoch
        lay = self._layouts[epoch]
        pool = self._pools[epoch]
        new_epoch = epoch + 1
        affected: Tuple[str, ...] = ()

        if kind == "grow":
            _, component, n = record
            if n <= 0:
                raise SessionError(f"grow needs a positive count, got {n}")
            if n > len(pool):
                raise SessionError(
                    f"grow({component!r}, {n}): only {len(pool)} reserve "
                    f"process{'es' if len(pool) != 1 else ''} in the pool"
                )
            assigned = pool[:n]
            new_pool = pool[n:]
            new_layout, affected = self._grow_layout(lay, component, assigned)
        elif kind == "retire":
            _, ranks = record
            gone = frozenset(ranks)
            active = frozenset(self._actives[epoch])
            stray = sorted(gone - active)
            if stray:
                raise SessionError(f"cannot retire non-active ranks {stray}")
            if gone >= active:
                raise SessionError("cannot retire every active process")
            new_pool = pool
            new_layout, affected = self._retire_layout(lay, gone)
            self._departed_ranks |= gone
            self._retired_components.extend(affected)
        elif kind == "release":
            new_pool = ()
            new_layout = lay
            self._pool_released = True
        elif kind == "shrink":
            _, live = record
            liveset = frozenset(live)
            new_pool = pool
            new_layout, newly_dead = Layout.degrade(lay, liveset)
            self._dead_components.extend(newly_dead)
            affected = newly_dead
        else:  # pragma: no cover - defensive
            raise SessionError(f"unknown session transition record {record!r}")

        self._epoch = new_epoch
        self._layouts[new_epoch] = new_layout
        self._pools[new_epoch] = new_pool
        self._actives[new_epoch] = _active_ranks(new_layout)

        if kind == "retire" and self._my_id not in self._departed_ranks:
            # Survivors (active or parked) invalidate the departed peers'
            # transport state: cached connections, shm rings, page holds.
            transport = getattr(self._control.world, "transport", None)
            if transport is not None:
                for r in record[1]:
                    transport.forget_peer(r)

        # Keep the world pset's communicator materialized at every epoch:
        # transitions change its membership, and an always-live world comm
        # is what lets the unplanned shrink path run at any epoch.
        key = ("mph://world", new_epoch)
        if shrunk_world is not None:
            if self._my_id in self._actives[new_epoch]:
                self._comm_cache[key] = shrunk_world
        elif kind == "release":
            prev = self._comm_cache.get(("mph://world", epoch))
            if prev is not None:
                self._comm_cache[key] = prev
        elif self._my_id in self._actives[new_epoch]:
            self._comm_cache[key] = self._derive_comm("mph://world", new_epoch)
        return affected

    def _grow_layout(
        self, lay: Layout, component: str, assigned: Tuple[int, ...]
    ) -> Tuple[Layout, Tuple[str, ...]]:
        exes = {e.exe_id: e for e in lay.executables}
        comps = list(lay.components)

        if lay.has_component(component):
            # Extend an existing component: new processes rank after the
            # current members, and join the owning executable.
            info = lay.component(component)
            comps[comps.index(info)] = replace(
                info, world_ranks=info.world_ranks + assigned
            )
            exe = exes[info.exe_id]
            exes[info.exe_id] = replace(
                exe, world_ranks=tuple(sorted(exe.world_ranks + assigned))
            )
            grown = (component,)
        elif any(e.instance_prefix == component for e in lay.executables):
            # A new instance of a multi-instance executable: fresh name,
            # fresh component id beyond the registry's.
            exe = next(e for e in lay.executables if e.instance_prefix == component)
            index = self._instance_counts.get(component, 0) + 1
            taken = set(self._registry.component_names) | {c.name for c in comps}
            while f"{component}{index}" in taken:
                index += 1
            name = f"{component}{index}"
            self._instance_counts[component] = index
            comp_id = self._next_comp_id
            self._next_comp_id += 1
            comps.append(
                ComponentInfo(
                    name=name,
                    comp_id=comp_id,
                    exe_id=exe.exe_id,
                    world_ranks=assigned,
                    fields=(),
                    instance_prefix=component,
                )
            )
            exes[exe.exe_id] = replace(
                exe,
                world_ranks=tuple(sorted(exe.world_ranks + assigned)),
                component_names=exe.component_names + (name,),
            )
            grown = (name,)
        else:
            # A registered component with no live processes (erased by a
            # failure): resurrect it with its original component id.
            spec_info = _registry_spec(self._registry, component)
            if spec_info is None:
                raise SessionError(
                    f"cannot grow unknown component {component!r}; it is neither "
                    "an active component, a multi-instance prefix, nor a "
                    "registered component"
                )
            entry_index, spec = spec_info
            exe = next(
                (e for e in lay.executables if e.entry_index == entry_index), None
            )
            if exe is None:  # pragma: no cover - defensive
                raise SessionError(
                    f"component {component!r} has no executable in the layout"
                )
            comps.append(
                ComponentInfo(
                    name=component,
                    comp_id=self._registry.component_id(component),
                    exe_id=exe.exe_id,
                    world_ranks=assigned,
                    fields=tuple(spec.fields),
                    instance_prefix=exe.instance_prefix,
                )
            )
            exes[exe.exe_id] = replace(
                exe, world_ranks=tuple(sorted(exe.world_ranks + assigned))
            )
            if component in self._dead_components:
                self._dead_components.remove(component)
            grown = (component,)

        return Layout.rebuild(self._registry, exes.values(), comps), grown

    def _retire_layout(
        self, lay: Layout, gone: frozenset
    ) -> Tuple[Layout, Tuple[str, ...]]:
        exes = [
            replace(e, world_ranks=tuple(r for r in e.world_ranks if r not in gone))
            for e in lay.executables
        ]
        comps: list[ComponentInfo] = []
        fully_retired: list[str] = []
        for comp in lay.components:
            ranks = tuple(r for r in comp.world_ranks if r not in gone)
            if ranks:
                comps.append(replace(comp, world_ranks=ranks))
            else:
                fully_retired.append(comp.name)
        return Layout.rebuild(self._registry, exes, comps), tuple(fully_retired)


def _active_ranks(layout: Layout) -> Tuple[int, ...]:
    ranks: set[int] = set()
    for exe in layout.executables:
        ranks.update(exe.world_ranks)
    return tuple(sorted(ranks))


def _comm_name(pset_name: str) -> str:
    if pset_name == "mph://world":
        return "MPH_world"
    if pset_name.startswith("mph://component/"):
        return f"MPH:{pset_name[len('mph://component/'):]}"
    if pset_name.startswith("mph://exe/"):
        return f"MPH:exe{pset_name[len('mph://exe/'):]}"
    return f"MPH:pset({pset_name})"


def _registry_spec(registry: Registry, name: str):
    """Find ``(entry_index, component_spec)`` for a registered component."""
    for i, entry in enumerate(registry.entries):
        if isinstance(entry, SingleComponentEntry):
            if entry.component.name == name:
                return i, entry.component
        else:
            specs = (
                entry.components
                if isinstance(entry, MultiComponentEntry)
                else entry.instances
            )
            for spec in specs:
                if spec.name == name:
                    return i, spec
    return None


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


def pool_session(world: Comm, *, registry: Any = None, env: Any = None) -> Session:
    """A session for a reserve process: it joins the init exchange, runs no
    component, and parks in :meth:`Session.await_assignment` until an
    elastic :meth:`Session.grow` admits it::

        session = pool_session(world, registry=reg)
        assignment = session.await_assignment()
        if assignment is None:          # pool released, never needed
            return
        mph = session.mph(env=env)      # full MPH handle, current epoch
    """
    return Session.init(world, PoolDecl(), _registry_source(registry, env))

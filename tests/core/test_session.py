"""Sessions layer: pset lookup, lazy communicator derivation, and elastic
membership (grow / retire / pool release / shrink-then-resurrect).

The lifecycle cases run on both execution backends via the
``backend_config`` fixture — on the process backend a ``retire`` is a
real OS process leaving a live job, which is what exercises the
transport-side peer invalidation (cached sockets, shm rings, page
holds).  The fault-driven and schedule-sweep cases are thread-backend
only: the process backend rejects fault/match schedules by design.  So
are the layout-cache cases, which count the thread world's messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mph_run
from repro.core.ensemble import EnsembleCollector, EnsembleMember
from repro.core.handshake import ComponentDecl
from repro.core.session import (
    PrecomputedLayout,
    Session,
    components_session,
    instance_session,
    pool_session,
)
from repro.errors import HandshakeError, ProcessFailedError, RevokedError, SessionError
from repro.mpi import World
from repro.mpi.executor import run_world
from repro.mpi.faults import SimulatedCrash

REG = "BEGIN\natm\nocn\nEND"


class TestPsetCatalog:
    """Pset lookup and lazy derivation — collective only over members."""

    def test_catalog_lookup_and_lazy_comms(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            names = s.psets()
            assert "mph://world" in names
            assert "mph://component/atm" in names
            assert "mph://component/ocn" in names
            assert "mph://self" in names

            # Shorthand resolution: bare component name, component/ path,
            # and the full URI all land on the same pset.
            ps = s.pset("atm")
            assert ps.name == "mph://component/atm"
            assert s.pset("component/atm").members == ps.members
            assert s.pset("mph://component/atm").members == ps.members
            assert ps.size == 2 and ps.epoch == 0

            with pytest.raises(SessionError, match="unknown process set"):
                s.pset("mph://component/nope")
            # Members only: this process is not in ocn's pset.
            with pytest.raises(SessionError, match="not a member"):
                s.comm("ocn")

            # Lazy derivation + caching: same epoch, same object.
            comm = s.comm("atm")
            assert comm is s.comm("atm")
            assert comm.size == 2
            assert comm.name == "MPH:atm"
            me = s.comm("mph://self")
            assert me.size == 1
            return ("atm", comm.allreduce(1), tuple(sorted(names)))

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            comm = s.comm("ocn")
            return ("ocn", comm.size, s.pset("world").size)

        result = mph_run(
            [(atm, 2), (ocn, 2)], registry=REG, config=backend_config, timeout=120.0
        )
        atm_views = result.by_executable(0)
        assert atm_views[0][1] == 2
        assert atm_views[0][2] == atm_views[1][2]
        assert result.by_executable(1)[0] == ("ocn", 2, 4)

    def test_world_pset_is_active_world(self, backend_config):
        def solo(world, env):
            s = components_session(world, "atm", env=env)
            assert s.pset("world").members == tuple(range(world.size))
            assert s.epoch == 0 and s.is_active and not s.is_retired
            return s.comm("world").allreduce(world.rank)

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            return s.comm("world").allreduce(world.rank)

        result = mph_run(
            [(solo, 2), (ocn, 1)], registry=REG, config=backend_config, timeout=120.0
        )
        assert set(result.values()) == {0 + 1 + 2}


def _layout_registry(nprocs: int, multi: bool) -> str:
    """``atm`` on rank 0; the other ranks are one executable — ``ocn``
    alone (every entry single-component, so ``"world_split"``), or
    ``ocn`` over all of them with ``ice`` overlapping its first process
    (``"exe_then_comp"``)."""
    if not multi:
        return REG
    return (
        f"BEGIN\natm\nMulti_Component_Begin\nocn 0 {nprocs - 2}\nice 0 0\n"
        "Multi_Component_End\nEND"
    )


def _layout_decl(rank: int, multi: bool) -> ComponentDecl:
    if rank == 0:
        return ComponentDecl(("atm",))
    return ComponentDecl(("ocn", "ice") if multi else ("ocn",))


def _init_world(nprocs, registry_input, decl_of):
    """Init a session on every rank of a thread world and take an MPH
    view; returns each rank's view and the messages the world sent."""

    def main(comm):
        s = Session.init(comm, decl_of(comm.rank), registry_input)
        mph = s.mph()
        sizes = {name: mph.component_comm(name).size for name in mph.comp_names()}
        return (s.layout.executables, s.layout.components, s.strategy, sizes)

    world = World(nprocs)
    results = run_world(world, [main] * nprocs, timeout=60.0)
    return [r.value for r in results], world.traffic_snapshot().messages


class TestPrecomputedLayout:
    """The layout-cache path of ``Session.init``: a layout resolved ahead
    of time gives what the live exchange gives, without the exchange."""

    @pytest.mark.parametrize("multi", [False, True], ids=["single", "multi"])
    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_matches_live_exchange(self, nprocs, multi):
        registry = _layout_registry(nprocs, multi)
        decls = [_layout_decl(r, multi) for r in range(nprocs)]
        pre = PrecomputedLayout.build(registry, decls)

        def decl_of(rank):
            return decls[rank]

        live, live_msgs = _init_world(nprocs, registry, decl_of)
        cached, cached_msgs = _init_world(nprocs, pre, decl_of)
        assert cached == live
        assert live[0][2] == ("exe_then_comp" if multi else "world_split")
        assert live[-1][3]["ocn"] == nprocs - 1
        # The registry bcast (P-1) and the declaration allgather (2(P-1))
        # are the only messages the cache saves.
        assert live_msgs - cached_msgs == 3 * (nprocs - 1)

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_stale_declaration_fails_the_job(self, nprocs):
        pre = PrecomputedLayout.build(
            REG, [_layout_decl(r, False) for r in range(nprocs)]
        )

        def decl_of(rank):
            # The last rank declares what the cached layout did not expect.
            return ComponentDecl(("atm",) if rank in (0, nprocs - 1) else ("ocn",))

        with pytest.raises(HandshakeError, match="stale"):
            _init_world(nprocs, pre, decl_of)

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_layout_for_another_world_size_fails(self, nprocs):
        pre = PrecomputedLayout.build(
            REG, [_layout_decl(r, False) for r in range(nprocs + 1)]
        )
        with pytest.raises(HandshakeError, match=f"covers {nprocs + 1} ranks"):
            _init_world(nprocs, pre, lambda rank: _layout_decl(rank, False))


class TestElasticGrow:
    """grow(): reserve processes join a component; comms stay lazy."""

    def test_grow_then_comm_join(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            mph = s.mph(env=env)
            gid = mph.global_proc_id()
            assert s.pset("ocn").size == 1

            grown = s.grow("ocn", 1)
            assert grown == ("ocn",)
            assert s.epoch == 1
            assert s.pset("ocn").size == 2

            mph2 = s.mph(env=env)
            assert mph2.component_size("ocn") == 2
            assert mph2.global_proc_id() == gid  # ids stable across epochs
            if mph2.local_proc_id() == 0:
                mph2.send({"welcome": True}, "ocn", 1, tag=5)
            joined = mph2.comm_join("atm", "ocn")
            total = joined.allreduce(1)
            s.release_pool()
            return ("atm", total)

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            s.mph(env=env)
            s.grow("ocn", 1)
            mph2 = s.mph(env=env)
            joined = mph2.comm_join("atm", "ocn")
            total = joined.allreduce(1)
            s.release_pool()
            return ("ocn", total, mph2.local_proc_id())

        def spare(world, env):
            s = pool_session(world, env=env)
            assignment = s.await_assignment()
            if assignment is None:
                return ("released", s.epoch)
            assert assignment.components == ("ocn",)
            mph = s.mph(env=env)
            got = mph.recv("atm", 0, tag=5)
            joined = mph.comm_join("atm", "ocn")
            total = joined.allreduce(1)
            return ("joined", mph.comp_name(), mph.local_proc_id(), got, total)

        result = mph_run(
            [(atm, 2), (ocn, 1), (spare, 2)],
            registry=REG,
            config=backend_config,
            timeout=120.0,
        )
        assert result.by_executable(0)[0] == ("atm", 4)
        assert result.by_executable(1)[0] == ("ocn", 4, 0)
        spares = result.by_executable(2)
        # First pool process (lowest world id) is admitted; the other is
        # dismissed by release_pool after two transitions (grow, release).
        assert spares[0] == ("joined", "ocn", 1, {"welcome": True}, 4)
        assert spares[1] == ("released", 2)

    def test_grow_needs_pool(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            with pytest.raises(SessionError, match="reserve"):
                s.grow("atm", 1)
            with pytest.raises(SessionError, match="positive"):
                s.grow("atm", 0)
            return "ok"

        def ocn(world, env):
            components_session(world, "ocn", env=env)
            return "ok"

        result = mph_run(
            [(atm, 1), (ocn, 1)], registry=REG, config=backend_config, timeout=120.0
        )
        assert result.values() == ["ok", "ok"]


class TestElasticRetire:
    """retire(): processes leave cleanly; survivors' transports forget them."""

    def test_retire_then_collective(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            mph = s.mph(env=env)
            leaving = s.pset("ocn").members[-1]
            retired = s.retire([leaving])
            assert retired == ()  # ocn keeps one process
            assert s.epoch == 1
            assert s.pset("world").size == 3
            mph2 = s.mph(env=env)
            assert mph2.component_size("ocn") == 1
            total = mph2.global_world.allreduce(1)
            # messaging to the survivor still resolves by name
            if mph2.local_proc_id() == 0:
                mph2.send("post-retire", "ocn", 0, tag=11)
            return ("atm", total, mph.global_proc_id() == mph2.global_proc_id())

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            s.mph(env=env)
            leaving = s.pset("ocn").members[-1]
            s.retire([leaving])
            if s.is_retired:
                assert not s.is_active
                with pytest.raises(SessionError, match="retired"):
                    s.retire([0])
                return ("retired",)
            mph2 = s.mph(env=env)
            total = mph2.global_world.allreduce(1)
            got = mph2.recv("atm", 0, tag=11)
            return ("ocn", total, got)

        result = mph_run(
            [(atm, 2), (ocn, 2)], registry=REG, config=backend_config, timeout=120.0
        )
        assert result.by_executable(0)[0] == ("atm", 3, True)
        ocn_views = result.by_executable(1)
        assert ocn_views[0] == ("ocn", 3, "post-retire")
        assert ocn_views[1] == ("retired",)

    def test_retire_validations(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            with pytest.raises(SessionError, match="every active"):
                s.retire(range(world.size))
            with pytest.raises(SessionError, match="non-active"):
                s.retire([world.size + 7])
            return "ok"

        def ocn(world, env):
            components_session(world, "ocn", env=env)
            return "ok"

        result = mph_run(
            [(atm, 1), (ocn, 1)], registry=REG, config=backend_config, timeout=120.0
        )
        assert result.values() == ["ok", "ok"]


class TestPoolRelease:
    def test_release_dismisses_all_spares(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            assert s.pset("pool").size == 2
            s.release_pool()
            assert s.pset("pool").size == 0
            s.release_pool()  # idempotent no-op on an empty pool
            return "ok"

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            s.release_pool()
            s.release_pool()
            return "ok"

        def spare(world, env):
            s = pool_session(world, env=env)
            assert s.await_assignment() is None
            assert not s.is_active
            return ("released", s.epoch)

        result = mph_run(
            [(atm, 1), (ocn, 1), (spare, 2)],
            registry=REG,
            config=backend_config,
            timeout=120.0,
        )
        assert result.by_executable(2) == [("released", 1), ("released", 1)]


class TestShrinkThenGrow:
    """Satellite: epoch-aware rehandshake — an unplanned shrink followed by
    a grow() resurrects the dead component with stable original ids."""

    def test_resurrect_dead_component(self):
        reg = "BEGIN\natmosphere\nocean\nEND"

        def atm(world, env):
            s = components_session(world, "atmosphere", env=env)
            mph = s.mph(env=env)
            # The ocean dies only once every atmosphere rank has left the
            # handshake (its last collective is a fan-out: a leaf leaves
            # it before its siblings are served, and a rank still inside
            # when a sibling revokes the world could not recover).
            mph.send("ready", "ocean", 0, tag=6)
            original = mph.global_proc_id()
            try:
                while True:
                    mph.recv("ocean", 0, tag=7)
            except (ProcessFailedError, RevokedError):
                # Revoked: a sibling saw the failure first.
                mph.global_world.revoke()
            newly_dead = s.shrink()
            assert newly_dead == ("ocean",)
            assert s.dead_components == ("ocean",)
            mph2 = s.mph(env=env)
            assert mph2.dead_components == ("ocean",)
            assert mph2.global_proc_id() == original

            grown = s.grow("ocean", 1)
            assert grown == ("ocean",)
            assert s.dead_components == ()
            assert s.retired_components == ()
            mph3 = s.mph(env=env)
            assert mph3.dead_components == ()
            assert mph3.global_proc_id() == original
            assert mph3.component_size("ocean") == 1
            if mph3.local_proc_id() == 0:
                mph3.send({"hello": 1}, "ocean", 0, tag=9)
            total = mph3.global_world.allreduce(1)
            return ("ok", total)

        def ocn(world, env):
            mph = components_session(world, "ocean", env=env).mph(env=env)
            for rank in range(3):
                mph.recv("atmosphere", rank, tag=6)
            raise SimulatedCrash("ocean dies")

        def spare(world, env):
            s = pool_session(world, env=env)
            assignment = s.await_assignment()
            assert assignment is not None
            assert assignment.components == ("ocean",)
            mph = s.mph(env=env)
            assert mph.comp_name() == "ocean"
            got = mph.recv("atmosphere", 0, tag=9)
            total = mph.global_world.allreduce(1)
            return ("resurrected", got, total)

        result = mph_run([(atm, 3), (ocn, 1), (spare, 1)], registry=reg, timeout=90.0)
        for r in result.procs[:3]:
            assert r.exception is None, r.exception
            assert r.value == ("ok", 4)
        assert isinstance(result.procs[3].exception, SimulatedCrash)
        assert result.procs[4].value == ("resurrected", {"hello": 1}, 4)


class TestScheduleSweep:
    """grow/retire transitions are deterministic under an armed
    MatchSchedule: every seed produces the identical membership history."""

    def test_grow_retire_schedule_independent(self, sweep_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            s.mph(env=env)
            s.grow("ocn", 1)
            mph2 = s.mph(env=env)
            if mph2.local_proc_id() == 0:
                mph2.send(("gift", s.epoch), "ocn", 1, tag=13)
            leaving = s.pset("ocn").members[0]
            s.retire([leaving])
            mph3 = s.mph(env=env)
            history = (
                s.epoch,
                s.pset("world").members,
                s.pset("ocn").members,
            )
            return ("atm", mph3.global_world.allreduce(1), history)

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            s.mph(env=env)
            s.grow("ocn", 1)
            s.mph(env=env)
            leaving = s.pset("ocn").members[0]
            s.retire([leaving])
            if s.is_retired:
                return ("retired",)
            mph3 = s.mph(env=env)
            return ("ocn", mph3.global_world.allreduce(1))

        def spare(world, env):
            s = pool_session(world, env=env)
            assignment = s.await_assignment()
            assert assignment is not None
            mph = s.mph(env=env)
            got = mph.recv("atm", 0, tag=13)
            leaving = s.pset("ocn").members[0]
            s.retire([leaving])
            mph3 = s.mph(env=env)
            return ("grown", got, mph3.local_proc_id(), mph3.global_world.allreduce(1))

        result = mph_run(
            [(atm, 2), (ocn, 1), (spare, 1)],
            registry=REG,
            config=sweep_config(),
            timeout=90.0,
        )
        # Identical expected values for every swept seed = determinism.
        atm_views = result.by_executable(0)
        assert atm_views[0] == ("atm", 3, (2, (0, 1, 3), (3,)))
        assert atm_views[1][2] == atm_views[0][2]
        assert result.by_executable(1)[0] == ("retired",)
        assert result.by_executable(2)[0] == ("grown", ("gift", 1), 0, 3)


EREG = """
BEGIN
Multi_Instance_Begin
Run1 0 1
Run2 2 3
Multi_Instance_End
stats
END
"""


class TestElasticEnsemble:
    """MIME: add an instance mid-run, then retire one, with the collector's
    statistics staying correct throughout."""

    def test_add_and_retire_instance_mid_run(self):
        def member(world, env):
            s = instance_session(world, "Run", env=env)
            mph = s.mph(env=env)
            em = EnsembleMember(mph, "stats")
            name = mph.comp_name()
            scale = float(name[-1])
            for step in (0, 1):
                em.report(step, np.full(3, scale))

            s.grow("Run", 1)
            mph2 = s.mph(env=env)
            EnsembleMember(mph2, "stats").report(2, np.full(3, scale))

            doomed = s.pset("Run1").members
            retired = s.retire(doomed)
            if s.is_retired:
                return ("retired", name)
            assert retired == ("Run1",)
            assert s.retired_components == ("Run1",)
            assert s.dead_components == ()
            mph3 = s.mph(env=env)
            EnsembleMember(mph3, "stats").report(3, np.full(3, scale))
            return ("done", name)

        def spare(world, env):
            s = pool_session(world, env=env)
            assignment = s.await_assignment()
            assert assignment is not None
            mph = s.mph(env=env)
            name = mph.comp_name()
            assert name == "Run3"
            scale = float(name[-1])
            EnsembleMember(mph, "stats").report(2, np.full(3, scale))
            s.retire(s.pset("Run1").members)
            mph3 = s.mph(env=env)
            EnsembleMember(mph3, "stats").report(3, np.full(3, scale))
            return ("done", name)

        def stats(world, env):
            s = components_session(world, "stats", env=env)
            mph = s.mph(env=env)
            collector = EnsembleCollector.for_prefix(mph, "Run")
            assert collector.instance_names == ["Run1", "Run2"]
            means = [float(collector.collect(step).mean[0]) for step in (0, 1)]

            grown = s.grow("Run", 1)
            assert grown == ("Run3",)
            mph2 = s.mph(env=env)
            collector.add_instance("Run3", mph=mph2)
            assert collector.live_instance_names == ["Run1", "Run2", "Run3"]
            means.append(float(collector.collect(2).mean[0]))

            collector.retire_instance("Run1")
            s.retire(s.pset("Run1").members)
            collector.mph = s.mph(env=env)
            means.append(float(collector.collect(3).mean[0]))
            return (
                means,
                list(collector.degraded_instances),
                list(collector.retired_instances),
                collector.live_k,
                collector.k,
            )

        result = mph_run(
            [(member, 4), (stats, 1), (spare, 1)], registry=EREG, timeout=90.0
        )
        means, degraded, retired, live_k, k = result.by_executable(1)[0]
        # steps: {1,2} -> 1.5; {1,2} -> 1.5; {1,2,3} -> 2.0; {2,3} -> 2.5
        assert means == [1.5, 1.5, 2.0, 2.5]
        assert degraded == []  # a planned retire is NOT a degradation
        assert retired == ["Run1"]
        assert (live_k, k) == (2, 3)
        member_views = result.by_executable(0)
        assert member_views[0] == ("retired", "Run1")
        assert member_views[2] == ("done", "Run2")
        assert result.by_executable(2)[0] == ("done", "Run3")

    def test_add_instance_resurrects_retired_name(self):
        collector = EnsembleCollector.__new__(EnsembleCollector)
        collector.mph = None
        collector.instance_names = ["Run1", "Run2"]
        collector.degraded_instances = []
        collector.retired_instances = ["Run1"]
        assert collector.live_instance_names == ["Run2"]
        collector.add_instance("Run1")
        assert collector.retired_instances == []
        assert collector.live_instance_names == ["Run1", "Run2"]

    def test_retire_unknown_instance_rejected(self):
        collector = EnsembleCollector.__new__(EnsembleCollector)
        collector.mph = None
        collector.instance_names = ["Run1"]
        collector.degraded_instances = []
        collector.retired_instances = []
        from repro.errors import MPHError

        with pytest.raises(MPHError, match="unknown ensemble instance"):
            collector.retire_instance("Run9")


class TestSessionErrors:
    def test_pool_process_cannot_transition(self):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            s.release_pool()
            return "ok"

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            s.release_pool()
            return "ok"

        def spare(world, env):
            s = pool_session(world, env=env)
            with pytest.raises(SessionError, match="collective over active"):
                s.grow("atm", 1)
            with pytest.raises(SessionError, match="no component view"):
                s.mph(env=env)
            assert s.await_assignment() is None
            return "ok"

        result = mph_run([(atm, 1), (ocn, 1), (spare, 1)], registry=REG, timeout=60.0)
        assert result.values() == ["ok", "ok", "ok"]

    def test_await_assignment_needs_pool_process(self):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            with pytest.raises(SessionError, match="reserve pool"):
                s.await_assignment()
            return "ok"

        def ocn(world, env):
            components_session(world, "ocn", env=env)
            return "ok"

        result = mph_run([(atm, 1), (ocn, 1)], registry=REG, timeout=60.0)
        assert result.values() == ["ok", "ok"]

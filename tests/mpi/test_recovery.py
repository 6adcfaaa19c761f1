"""ULFM-style recovery: rank death, revoke/shrink/agree, MPH rehandshake.

A :class:`SimulatedCrash` kills one rank fail-stop; unlike a user
exception it must NOT abort the world.  Survivors see
:class:`ProcessFailedError` from operations involving the dead rank,
revoke the communicator, shrink it, and continue on the result — the
recovery sequence of MPI's User-Level Failure Mitigation proposal.
"""

import time

import pytest

from repro.errors import AbortError, DeadlockError, ProcessFailedError, RevokedError
from repro.mpi import FaultSchedule, SimulatedCrash, WorldConfig
from repro.mpi.executor import run_world
from repro.mpi.world import World


def _await_death(mph, component, local_rank=0):
    """Block on *component*'s process until it dies, then revoke the world
    (a sibling may have revoked it first)."""
    try:
        while True:
            mph.recv(component, local_rank, tag=7)
    except (ProcessFailedError, RevokedError):
        mph.global_world.revoke()


def _session_view(s):
    """What a survivor's session says about membership at its epoch."""
    comps = tuple(p for p in s.psets() if p.startswith("mph://component/"))
    return (s.epoch, s.dead_components, comps, s.pset("world").members)


#: Every survivor's view after the ocean (world rank 3) dies.
_EPOCH1_VIEW = (
    1,
    ("ocean",),
    ("mph://component/atmosphere", "mph://component/ice"),
    (0, 1, 2, 4),
)


class TestRankDeath:
    def test_crash_is_survivable_not_abort(self):
        """The whole point: one dead rank must not bring down the job."""

        def main(comm):
            if comm.rank == 1:
                raise SimulatedCrash("die")
            if comm.rank == 0:
                try:
                    comm.recv(source=1, tag=1)
                except ProcessFailedError:
                    pass
            return "survived"

        world = World(3, None)
        results = run_world(world, [main] * 3, timeout=30.0)
        assert isinstance(results[1].exception, SimulatedCrash)
        assert results[0].value == "survived"
        assert results[2].value == "survived"

    def test_recv_from_dead_rank_names_it(self, spmd):
        def main(comm):
            if comm.rank == 1:
                raise SimulatedCrash("die")
            try:
                comm.recv(source=1, tag=1)
            except ProcessFailedError as exc:
                return sorted(exc.failed_ranks)
            return None

        results = spmd(2, main)
        assert results[0] == [1]

    def test_posted_recv_fails_when_source_dies(self, spmd):
        """Death *after* the receive is already parked must still fail it
        (the watchdog failure pulse wakes the victim)."""

        def main(comm):
            if comm.rank == 1:
                time.sleep(0.3)  # let rank 0 park first
                raise SimulatedCrash("late death")
            with pytest.raises(ProcessFailedError):
                comm.recv(source=1, tag=1)
            return "ok"

        results = spmd(2, main)
        assert results[0] == "ok"

    def test_dead_rank_is_not_misdiagnosed_as_deadlock(self, fast_deadlock_config):
        """With an aggressive watchdog, a survivor blocked on a dead rank
        must get ProcessFailedError, never DeadlockError."""

        def main(comm):
            if comm.rank == 1:
                time.sleep(0.1)
                raise SimulatedCrash("die")
            try:
                comm.recv(source=1, tag=1)
            except DeadlockError:  # pragma: no cover - the regression
                return "deadlock"
            except ProcessFailedError:
                return "process-failed"

        def run(n, fn, config):
            world = World(n, config)
            return [r.value for r in run_world(world, [fn] * n, timeout=30.0)]

        assert run(2, main, fast_deadlock_config)[0] == "process-failed"

    def test_world_dies_when_nobody_survives(self):
        def main(comm):
            raise SimulatedCrash(f"rank {comm.rank} dies")

        world = World(2, None)
        with pytest.raises(SimulatedCrash):
            run_world(world, [main] * 2, timeout=30.0)

    def test_sibling_abort_preserves_root_cause(self, spmd):
        """Satellite: an AbortError seen by a sibling rank chains the
        originating rank's real exception via ``__cause__``."""
        captured = []

        def main(comm):
            if comm.rank == 0:
                raise ValueError("root boom")
            try:
                comm.recv(source=0, tag=1)
            except AbortError as exc:
                captured.append(exc.__cause__)
                raise

        with pytest.raises(ValueError, match="root boom"):
            spmd(2, main)
        assert captured and isinstance(captured[0], ValueError)


class TestRevoke:
    def test_revoke_poisons_pending_and_future_ops(self, spmd):
        def main(comm):
            if comm.rank == 1:
                time.sleep(0.2)
                comm.revoke()
                comm.revoke()  # idempotent
            else:
                with pytest.raises(RevokedError):
                    comm.recv(source=1, tag=1)  # parked, then poisoned
            with pytest.raises(RevokedError):
                comm.send("x", (comm.rank + 1) % 2, tag=2)  # future op
            return "reached-recovery-path"

        results = spmd(2, main)
        assert results == ["reached-recovery-path"] * 2

    def test_revoke_is_scoped_to_the_communicator(self, spmd):
        def main(comm):
            sub = comm.dup("side")
            if comm.rank == 0:
                sub.revoke()
            comm.barrier()  # the parent communicator still works
            with pytest.raises(RevokedError):
                sub.barrier()
            return comm.allreduce(1)

        assert spmd(2, main) == [2, 2]


class TestShrinkAgree:
    def test_revoke_shrink_continue(self, spmd):
        """The canonical ULFM recovery sequence after a crash."""

        def main(comm):
            if comm.rank == 2:
                raise SimulatedCrash("die")
            if comm.rank == 0:
                try:
                    comm.recv(source=2, tag=1)
                except ProcessFailedError:
                    comm.revoke()
            else:
                try:
                    comm.recv(source=0, tag=1)
                except RevokedError:
                    pass
            new = comm.shrink("survivors")
            assert new.size == 3
            # Survivors keep their relative rank order.
            assert new.rank == {0: 0, 1: 1, 3: 2}[comm.rank]
            return new.allreduce(comm.rank)

        results = spmd(4, main)
        assert [results[r] for r in (0, 1, 3)] == [4, 4, 4]

    def test_agree_over_dead_ranks(self, spmd):
        def main(comm):
            if comm.rank == 1:
                raise SimulatedCrash("die")
            if comm.rank == 0:
                try:
                    comm.recv(source=1, tag=1)
                except ProcessFailedError:
                    pass
            # Dead ranks simply stop contributing; survivors still agree.
            first = comm.agree(True)
            second = comm.agree(comm.rank != 2)  # one False => AND is False
            return (first, second)

        results = spmd(3, main)
        assert results[0] == (True, False)
        assert results[2] == (True, False)

    def test_schedule_driven_crash_then_shrink(self, spmd):
        """End-to-end with the injection substrate: a FaultSchedule kills
        a rank mid-run and the survivors shrink and finish."""
        sched = FaultSchedule(seed=11).crash_rank(1, at_op=4)

        def main(comm):
            try:
                for i in range(10):
                    comm.send(i, (comm.rank + 1) % comm.size, tag=3)
                    comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
            except (ProcessFailedError, RevokedError):
                comm.revoke()
            new = comm.shrink()
            return new.allreduce(1)

        results = spmd(
            4, main, config=WorldConfig(fault_schedule=sched), timeout=60.0
        )
        assert [results[r] for r in (0, 2, 3)] == [3, 3, 3]


class TestMphShrinkWorld:
    def test_rehandshake_over_survivors(self):
        """MPH-level recovery: a whole component dies; the survivors
        shrink the world, re-handshake, and keep using name-addressed
        messaging with their ORIGINAL global proc ids."""
        from repro import components_setup
        from repro.core.mph import HandshakeError
        from repro.launcher.job import mph_run

        reg = "BEGIN\natmosphere\nocean\nEND"

        def atm(world, env):
            mph = components_setup(world, "atmosphere", env=env)
            # The ocean dies only once every atmosphere rank has left the
            # handshake: its last collective is a fan-out, which a leaf
            # leaves before its siblings are served (as in real MPI, a
            # broadcast does not synchronise), and a rank still inside it
            # when a sibling revokes the world could not recover.
            mph.send("ready", "ocean", 0, tag=6)
            original_id = mph.global_proc_id()
            try:
                while True:
                    mph.recv("ocean", 0, tag=7)
            except (ProcessFailedError, RevokedError):
                # Revoked: a sibling saw the failure first.
                mph.global_world.revoke()
            mph2 = mph.shrink_world()
            assert mph2.dead_components == ("ocean",)
            assert mph2.global_proc_id() == original_id
            peers = mph2.component_comm("atmosphere")
            total = peers.allreduce(1)
            me = mph2.local_proc_id()
            if me == 0:
                mph2.send({"hello": 1}, "atmosphere", 1, tag=9)
            elif me == 1:
                assert mph2.recv("atmosphere", 0, tag=9) == {"hello": 1}
            with pytest.raises(HandshakeError):
                mph2.send("x", "ocean", 0)
            return ("ok", total)

        def ocn(world, env):
            mph = components_setup(world, "ocean", env=env)
            for rank in range(3):
                mph.recv("atmosphere", rank, tag=6)
            raise SimulatedCrash("ocean dies")

        result = mph_run([(atm, 3), (ocn, 1)], registry=reg, timeout=60.0)
        for r in result.procs[:3]:
            assert r.exception is None, r.exception
            assert r.value == ("ok", 3)
        assert isinstance(result.procs[3].exception, SimulatedCrash)

    def test_shrink_at_a_later_epoch(self):
        """Two components die one after the other: each ``shrink``
        advances the epoch, drops the dead component from the psets and
        the world, and leaves every survivor's global id where it was."""
        from repro.core.session import components_session
        from repro.launcher.job import mph_run

        reg = "BEGIN\natmosphere\nocean\nice\nEND"

        def atm(world, env):
            s = components_session(world, "atmosphere", env=env)
            mph = s.mph(env=env)
            original = mph.global_proc_id()
            mph.send("ready", "ocean", 0, tag=6)
            _await_death(mph, "ocean")
            assert s.shrink() == ("ocean",)
            views = [_session_view(s)]
            mph = s.mph(env=env)
            assert mph.global_proc_id() == original
            mph.send("ready", "ice", 0, tag=6)
            _await_death(mph, "ice")
            assert s.shrink() == ("ice",)
            views.append(_session_view(s))
            mph = s.mph(env=env)
            assert mph.global_proc_id() == original
            assert mph.dead_components == ("ocean", "ice")
            return (original, views, mph.global_world.allreduce(1))

        def ocn(world, env):
            mph = components_session(world, "ocean", env=env).mph(env=env)
            for rank in range(3):
                mph.recv("atmosphere", rank, tag=6)
            mph.recv("ice", 0, tag=6)
            raise SimulatedCrash("ocean dies")

        def ice(world, env):
            s = components_session(world, "ice", env=env)
            mph = s.mph(env=env)
            mph.send("ready", "ocean", 0, tag=6)
            _await_death(mph, "ocean")
            assert s.shrink() == ("ocean",)
            assert _session_view(s) == _EPOCH1_VIEW
            mph = s.mph(env=env)
            assert mph.global_proc_id() == 4
            for rank in range(3):
                mph.recv("atmosphere", rank, tag=6)
            raise SimulatedCrash("ice dies")

        result = mph_run([(atm, 3), (ocn, 1), (ice, 1)], registry=reg, timeout=60.0)
        for rank, r in enumerate(result.procs[:3]):
            assert r.exception is None, r.exception
            original, views, total = r.value
            assert original == rank
            assert views == [
                _EPOCH1_VIEW,
                (2, ("ocean", "ice"), ("mph://component/atmosphere",), (0, 1, 2)),
            ]
            assert total == 3
        assert isinstance(result.procs[3].exception, SimulatedCrash)
        assert isinstance(result.procs[4].exception, SimulatedCrash)

    def test_pset_comm_derived_after_shrink_carries_messages(self):
        """A communicator derived lazily from a pset at the post-shrink
        epoch spans the survivors only, and point-to-point and collective
        traffic flow over it."""
        from repro.core.session import components_session
        from repro.launcher.job import mph_run

        reg = "BEGIN\natmosphere\nocean\nice\nEND"

        def survivor(name):
            def main(world, env):
                s = components_session(world, name, env=env)
                mph = s.mph(env=env)
                before = s.comm(name)
                mph.send("ready", "ocean", 0, tag=6)
                _await_death(mph, "ocean")
                s.shrink()
                # Derived now, from the epoch-1 catalog, by members only.
                comp = s.comm(name)
                node = s.comm("mph://node/0")
                assert comp is not before and comp is s.comm(name)
                assert node.group.members == (0, 1, 3)
                nxt, prv = (node.rank + 1) % node.size, (node.rank - 1) % node.size
                node.send(("hop", s.control_comm.rank), nxt, tag=11)
                got = node.recv(source=prv, tag=11)
                return (
                    s.epoch,
                    comp.size,
                    comp.allreduce(1),
                    got,
                    node.allreduce(s.control_comm.rank),
                )

            return main

        def ocn(world, env):
            mph = components_session(world, "ocean", env=env).mph(env=env)
            for rank in range(2):
                mph.recv("atmosphere", rank, tag=6)
            mph.recv("ice", 0, tag=6)
            raise SimulatedCrash("ocean dies")

        result = mph_run(
            [(survivor("atmosphere"), 2), (ocn, 1), (survivor("ice"), 1)],
            registry=reg,
            timeout=60.0,
        )
        assert isinstance(result.procs[2].exception, SimulatedCrash)
        values = {r.rank: r.value for r in result.procs if r.exception is None}
        assert values == {
            0: (1, 2, 2, ("hop", 3), 4),
            1: (1, 2, 2, ("hop", 0), 4),
            3: (1, 1, 1, ("hop", 1), 4),
        }

    @pytest.mark.parametrize(
        "ocean_first", [False, True], ids=["dead-rank-mid", "dead-rank-last"]
    )
    def test_migrate_after_shrink_world(self, ocean_first):
        """``migrate`` on the world a failure shrink left: one land
        process dies, the survivors shrink, then re-handshake against a
        registration file that moves a processor from atm to lnd; global
        ids stay the original ones and block data follows the new layout.
        The dead process is the highest world rank, or one below a
        survivor (whose communicator rank then differs from its id)."""
        import numpy as np

        from repro import components_setup
        from repro.core.migration import migrate, redistribute_block
        from repro.launcher.job import mph_run

        old_reg = (
            "BEGIN\nMulti_Component_Begin\natm 0 1\nlnd 2 3\n"
            "Multi_Component_End\nocean\nEND"
        )
        new_reg = (
            "BEGIN\nMulti_Component_Begin\natm 0 0\nlnd 1 2\n"
            "Multi_Component_End\nocean\nEND"
        )
        everyone = (("atm", 0), ("atm", 1), ("lnd", 0), ("ocean", 0))

        def recover(mph):
            mph.send("ready", "lnd", 1, tag=6)
            _await_death(mph, "lnd", 1)
            mph2 = mph.shrink_world()
            return mph2, migrate(mph2, new_reg)

        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", env=env)
            if mph.comp_names() == ("lnd",) and mph.local_proc_id() == 1:
                for comp, rank in everyone:
                    mph.recv(comp, rank, tag=6)
                raise SimulatedCrash("one lnd process dies")
            original = mph.global_proc_id()
            mph2, new = recover(mph)
            assert new.global_proc_id() == original
            block = None
            if "atm" in mph2.comp_names():
                block = np.full((2, 3), float(mph2.local_proc_id("atm")))
            rows = redistribute_block(mph2, new, "atm", block, 4)
            got = None
            if new.comp_names() == ("lnd",) and new.local_proc_id() == 1:
                got = new.recv("ocean", 0, tag=12)
            total = new.component_comm(new.comp_names()[0]).allreduce(1)
            return (
                original,
                new.comp_names(),
                None if rows is None else rows[:, 0].tolist(),
                got,
                total,
            )

        def ocean(world, env):
            mph = components_setup(world, "ocean", env=env)
            _, new = recover(mph)
            new.send("to lnd 1", "lnd", 1, tag=12)
            return (
                new.global_proc_id(),
                new.component_size("atm"),
                new.component_size("lnd"),
                new.layout.component("lnd").world_ranks,
            )

        programs = [(multi, 4), (ocean, 1)]
        if ocean_first:
            programs.reverse()
        result = mph_run(programs, registry=old_reg, timeout=60.0)
        base, ocean_id = (1, 0) if ocean_first else (0, 4)
        multi_procs = result.procs[base : base + 4]
        assert isinstance(multi_procs[3].exception, SimulatedCrash)
        for r in multi_procs[:3] + [result.procs[ocean_id]]:
            assert r.exception is None, r.exception
        assert [r.value for r in multi_procs[:3]] == [
            (base, ("atm",), [0.0, 0.0, 1.0, 1.0], None, 1),
            (base + 1, ("lnd",), None, None, 2),
            (base + 2, ("lnd",), None, "to lnd 1", 2),
        ]
        assert result.procs[ocean_id].value == (ocean_id, 1, 2, (base + 1, base + 2))

    def test_messaging_to_dead_rank_of_live_component(self):
        """Partial component death: sends addressed to a dead local rank
        raise a clean ProcessFailedError naming the world rank."""
        from repro import components_setup
        from repro.launcher.job import mph_run

        reg = "BEGIN\natmosphere\nocean\nEND"

        def atm(world, env):
            mph = components_setup(world, "atmosphere", env=env)
            if mph.local_proc_id() == 0:
                raise SimulatedCrash("one atm rank dies")
            return "alive"

        def ocn(world, env):
            mph = components_setup(world, "ocean", env=env)
            with pytest.raises(ProcessFailedError):
                for _ in range(100):
                    mph.send("x", "atmosphere", 0, tag=4)
                    time.sleep(0.01)
            return "clean"

        result = mph_run([(atm, 2), (ocn, 1)], registry=reg, timeout=60.0)
        assert result.procs[1].value == "alive"
        assert result.procs[2].value == "clean"

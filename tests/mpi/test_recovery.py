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

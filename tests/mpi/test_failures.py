"""Failure handling: abort propagation, deadlock detection, timeouts.

These safety nets are what make a 400-test suite over a threads-as-ranks
substrate tractable: a bug that would hang real MPI fails here in under a
second with a diagnosis.
"""

import time

import pytest

from repro.errors import AbortError, DeadlockError, TimeoutError_
from repro.mpi import World, WorldConfig, run_spmd
from repro.mpi.executor import run_world


class TestAbortPropagation:
    def test_user_exception_is_root_cause(self, spmd):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(source=1)  # would block forever

        with pytest.raises(ValueError, match="boom"):
            spmd(4, main)

    def test_blocked_ranks_unwind_quickly(self, spmd):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("early failure")
            comm.barrier()

        start = time.monotonic()
        with pytest.raises(RuntimeError):
            spmd(6, main)
        assert time.monotonic() - start < 5.0

    def test_explicit_abort(self, spmd):
        def main(comm):
            if comm.rank == 2:
                comm.abort("operator request")
            comm.recv(source=2)

        with pytest.raises(AbortError, match="operator request"):
            spmd(3, main)

    def test_abort_records_origin_rank(self, spmd):
        def main(comm):
            if comm.rank == 1:
                comm.Abort(errorcode=3)
            comm.barrier()

        with pytest.raises(AbortError) as info:
            spmd(2, main)
        assert info.value.origin_rank == 1

    def test_exception_after_successful_collectives(self, spmd):
        def main(comm):
            comm.allreduce(1)
            comm.barrier()
            if comm.rank == 0:
                raise KeyError("late")
            comm.recv(source=0)

        with pytest.raises(KeyError):
            spmd(3, main)


class TestDeadlockDetection:
    def test_recv_cycle_detected(self, fast_deadlock_config):
        def main(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=1)

        with pytest.raises(DeadlockError) as info:
            run_spmd(3, main, config=fast_deadlock_config, timeout=20)
        # diagnosis names what each rank was blocked on
        assert "recv" in str(info.value)

    def test_blocked_on_finished_process(self, fast_deadlock_config):
        """Waiting for a message from a rank that already returned is a
        deadlock (alive count shrinks)."""

        def main(comm):
            if comm.rank == 0:
                return "done"
            comm.recv(source=0, tag=9)

        with pytest.raises(DeadlockError):
            run_spmd(2, main, config=fast_deadlock_config, timeout=20)

    def test_barrier_missing_participant(self, fast_deadlock_config):
        def main(comm):
            if comm.rank == 0:
                return "skipped the barrier"
            comm.barrier()

        with pytest.raises(DeadlockError):
            run_spmd(3, main, config=fast_deadlock_config, timeout=20)

    def test_no_false_positive_while_computing(self, fast_deadlock_config):
        """A rank busy computing (not blocked) must hold off the detector
        even while every other rank waits longer than the grace period."""

        def main(comm):
            if comm.rank == 0:
                time.sleep(1.0)  # well beyond deadlock_grace=0.3
                for d in range(1, comm.size):
                    comm.send("late but legal", d, tag=1)
                return "worker"
            return comm.recv(source=0, tag=1)

        values = run_spmd(3, main, config=fast_deadlock_config, timeout=20)
        assert values[1] == "late but legal"

    def test_detection_can_be_disabled(self):
        """With detection off, the wall-clock timeout is the backstop."""
        config = WorldConfig(deadlock_detection=False)

        def main(comm):
            comm.recv(source=comm.rank, tag=42)

        with pytest.raises(TimeoutError_):
            run_spmd(1, main, config=config, timeout=1.0)

    def test_ssend_without_receiver_deadlocks(self, fast_deadlock_config):
        def main(comm):
            if comm.rank == 0:
                comm.ssend("never matched", 1, tag=1)
            else:
                comm.recv(source=0, tag=2)  # wrong tag: no match

        with pytest.raises(DeadlockError):
            run_spmd(2, main, config=fast_deadlock_config, timeout=20)


class TestTimeouts:
    def test_wallclock_timeout(self):
        def main(comm):
            if comm.rank == 0:
                time.sleep(30)
            comm.barrier()

        with pytest.raises(TimeoutError_):
            run_spmd(2, main, timeout=1.0)


class TestRunWorld:
    def test_per_rank_functions(self):
        world = World(3)

        def a(comm):
            return "a" + str(comm.rank)

        def b(comm):
            return "b" + str(comm.rank)

        results = run_world(world, [a, b, a])
        assert [r.value for r in results] == ["a0", "b1", "a2"]

    def test_wrong_fn_count_rejected(self):
        world = World(2)
        with pytest.raises(ValueError):
            run_world(world, [lambda c: None])

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(0)

    def test_results_include_ranks(self):
        world = World(2)
        results = run_world(world, [lambda c: None] * 2)
        assert [r.rank for r in results] == [0, 1]

    def test_snapshot_diagnostics(self):
        world = World(2)
        snap = world.snapshot()
        assert snap["alive"] == [0, 1]
        assert snap["blocked"] == {}
        assert set(snap["queues"]) == {0, 1}

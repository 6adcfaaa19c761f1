"""The deterministic fault-injection substrate (`repro.mpi.faults`)."""

import pickle

import numpy as np
import pytest

from repro.errors import ProcessFailedError
from repro.mpi import (
    ANY_SOURCE,
    FaultSchedule,
    MatchSchedule,
    Request,
    SimulatedCrash,
    WorldConfig,
    random_schedule,
    run_spmd,
)
from repro.mpi.executor import run_world
from repro.mpi.world import World


def run_with_schedule(nprocs, fn, schedule, timeout=30.0):
    world = World(nprocs, WorldConfig(fault_schedule=schedule))
    return run_world(world, [fn] * nprocs, timeout=timeout)


class TestScheduleBuilders:
    def test_crash_needs_exactly_one_trigger(self):
        s = FaultSchedule()
        with pytest.raises(ValueError, match="exactly one"):
            s.crash_rank(0)
        with pytest.raises(ValueError, match="exactly one"):
            s.crash_rank(0, at_op=3, after_seconds=1.0)

    def test_crash_at_op_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSchedule().crash_rank(0, at_op=0)

    def test_spec_round_trip(self):
        s = FaultSchedule(seed=9)
        s.crash_rank(1, at_op=5)
        s.drop_message(2, 0)
        s.delay_message(0, 1, 0.01)
        s.duplicate_message(1, 2)
        s.corrupt_message(2, 3)
        s.slow_rank(0, 0.001)
        clone = FaultSchedule.from_spec(s.to_spec())
        assert clone.to_spec() == s.to_spec()

    def test_random_schedule_is_deterministic(self):
        a = random_schedule(42, 8, crashes=2)
        b = random_schedule(42, 8, crashes=2)
        assert a.to_spec() == b.to_spec()
        c = random_schedule(43, 8, crashes=2)
        assert c.to_spec() != a.to_spec()

    def test_random_schedule_spares_ranks(self):
        s = random_schedule(7, 4, crashes=3, spare=(0,))
        assert all(c["rank"] != 0 for c in s.to_spec()["crashes"])


class TestInjection:
    def test_crash_at_op_kills_only_that_rank(self):
        s = FaultSchedule()
        s.crash_rank(1, at_op=3)

        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(ProcessFailedError):
                    for _ in range(10):
                        comm.recv(source=1, tag=5)
            elif comm.rank == 1:
                for i in range(10):
                    comm.send(i, 0, tag=5)
            return "alive"

        results = run_with_schedule(3, fn, s)
        assert isinstance(results[1].exception, SimulatedCrash)
        assert results[0].value == "alive"
        assert results[2].value == "alive"
        assert [f for f in s.fired() if f.startswith("crash rank 1")]

    def test_drop_message_forces_timeout_style_loss(self):
        s = FaultSchedule()
        s.drop_message(dest=1, index=0)

        def fn(comm):
            if comm.rank == 0:
                comm.send("lost", 1, tag=1)
                comm.send("kept", 1, tag=1)
            elif comm.rank == 1:
                return comm.recv(source=0, tag=1)
            return None

        results = run_spmd(
            2, fn, config=WorldConfig(fault_schedule=s), timeout=30.0
        )
        assert results[1] == "kept"

    def test_duplicate_message_delivers_twice(self):
        s = FaultSchedule()
        s.duplicate_message(dest=1, index=0)

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=1)
            elif comm.rank == 1:
                return [comm.recv(source=0, tag=1), comm.recv(source=0, tag=1)]
            return None

        results = run_spmd(2, fn, config=WorldConfig(fault_schedule=s), timeout=30.0)
        assert results[1] == ["x", "x"]

    def test_corrupt_message_surfaces_as_decode_failure(self):
        s = FaultSchedule(seed=5)
        s.corrupt_message(dest=1, index=0)

        def fn(comm):
            if comm.rank == 0:
                comm.send({"payload": list(range(50))}, 1, tag=1)
            elif comm.rank == 1:
                return comm.recv(source=0, tag=1)
            return None

        with pytest.raises(pickle.UnpicklingError):
            run_spmd(2, fn, config=WorldConfig(fault_schedule=s), timeout=30.0)

    def test_corrupt_array_changes_data_not_shape(self):
        s = FaultSchedule(seed=5)
        s.corrupt_message(dest=1, index=0)
        original = np.arange(32, dtype=np.float64)

        def fn(comm):
            if comm.rank == 0:
                buf = np.array(original)
                comm.Send(buf, 1, tag=2)
            elif comm.rank == 1:
                out = np.zeros(32)
                comm.Recv(out, source=0, tag=2)
                return out
            return None

        results = run_spmd(2, fn, config=WorldConfig(fault_schedule=s), timeout=30.0)
        got = results[1]
        assert got.shape == original.shape
        assert not np.array_equal(got, original)

    def test_slow_rank_jitter_preserves_results(self):
        s = FaultSchedule(seed=2)
        s.slow_rank(1, max_jitter=0.002)

        def fn(comm):
            return comm.allreduce(comm.rank)

        assert run_spmd(3, fn, config=WorldConfig(fault_schedule=s), timeout=30.0) == [3, 3, 3]

    def test_reset_allows_replay(self):
        s = FaultSchedule()
        s.crash_rank(1, at_op=2)

        def fn(comm):
            if comm.rank == 1:
                comm.barrier()
            return "ok"

        def victim(comm):
            try:
                for _ in range(5):
                    comm.send(0, 0, tag=9)
            except ProcessFailedError:
                pass
            return "ok"

        def observer(comm):
            got = []
            try:
                while True:
                    got.append(comm.recv(source=1, tag=9))
            except ProcessFailedError:
                return got

        for _ in range(2):  # same schedule replays identically after reset
            s.reset()
            world = World(2, WorldConfig(fault_schedule=s))
            results = run_world(world, [observer, victim], timeout=30.0)
            assert isinstance(results[1].exception, SimulatedCrash)
            assert results[0].value == [0]


class TestDisabledOverhead:
    """With ``fault_schedule`` and ``match_schedule`` both ``None`` the
    substrate never calls into either: a disabled hook is its ``is None``
    branch and nothing else.  Every hook entry point is made to raise, and
    a world that touches each hook site (wildcard recv, probe,
    waitany/waitsome, collectives) must still finish with exact values."""

    HOOKS = (
        (FaultSchedule, "on_op"),
        (FaultSchedule, "on_deliver"),
        (MatchSchedule, "hold_ttl"),
        (MatchSchedule, "record_match"),
        (MatchSchedule, "choose_match"),
        (MatchSchedule, "next_post_seq"),
        (MatchSchedule, "choose_probe"),
        (MatchSchedule, "choose_wait"),
    )

    def test_no_schedule_means_no_hook_work(self, monkeypatch):
        def trap(name):
            def hook(*args, **kwargs):
                raise AssertionError(f"{name} called with its schedule unset")

            return hook

        for cls, name in self.HOOKS:
            monkeypatch.setattr(cls, name, trap(f"{cls.__name__}.{name}"))

        def fn(comm):
            peers = range(1, comm.size)
            if comm.rank == 0:
                probed = comm.probe(ANY_SOURCE, tag=1).source
                wildcard = sorted(comm.recv(ANY_SOURCE, tag=1) for _ in peers)
                reqs = [comm.irecv(src, tag=2) for src in peers]
                i, first = Request.waitany(reqs)
                rest = [r for j, r in enumerate(reqs) if j != i]
                some = Request.waitsome(rest)
                done = {j for j, _ in some}
                waited = [first] + [v for _, v in some]
                waited += Request.waitall([r for j, r in enumerate(rest) if j not in done])
                p2p = (probed in peers, wildcard, sorted(waited))
            else:
                comm.send(10 * comm.rank, 0, tag=1)
                comm.send(100 * comm.rank, 0, tag=2)
                p2p = None
            root = comm.bcast("root" if comm.rank == 0 else None, root=0)
            total = comm.allreduce(comm.rank)
            comm.barrier()
            return p2p, root, total

        config = WorldConfig(fault_schedule=None, match_schedule=None)
        out = run_spmd(4, fn, config=config, timeout=30.0)
        assert out[0] == ((True, [10, 20, 30], [100, 200, 300]), "root", 6)
        assert out[1:] == [(None, "root", 6)] * 3

"""The progress engine: completion tokens, waitsets, the lazy watchdog,
and the wakeup/blocked-time ledger (repro.mpi.progress).

The load-bearing claims under test:

* an idle blocked rank records **O(1) wakeups** (woken by delivery
  only), and the watchdog scans once per watchdog period, not once
  per park;
* abort propagation reaches ranks parked mid-``waitany`` and
  mid-collective;
* deadlock detection fires for every parked rank — including ranks
  parked in ``waitany``;
* misuse (duplicate handles in a wait list, waiting on a cancelled
  receive, a retired ``WorldConfig`` knob) raises instead of hanging.
"""

import dataclasses
import time

import pytest

from repro.errors import AbortError, CommError, DeadlockError
from repro.mpi import Completion, World, WorldConfig, run_spmd
from repro.mpi.executor import run_world
from repro.mpi.progress import _WATCHDOG_PERIOD, blocked_bucket
from repro.mpi.request import Request


class TestCompletion:
    def test_signal_is_idempotent(self):
        c = Completion()
        assert not c.done
        c.signal()
        c.signal()
        assert c.done and c.is_set()

    def test_event_style_aliases(self):
        c = Completion()
        assert not c.is_set()
        c.set()
        assert c.is_set() and c.done

    def test_engine_wait_returns_immediately_when_done(self):
        world = World(1)
        c = Completion()
        c.signal()
        fired = world.progress.wait((c,), 0, "pre-signalled")
        assert fired == [c]

    def test_engine_wait_rejects_empty_list(self):
        world = World(1)
        with pytest.raises(CommError):
            world.progress.wait((), 0, "nothing to wait on")


class TestConfigValidation:
    def test_config_has_exactly_the_surviving_knobs(self):
        """The ablation flags went with the paths they selected.  Any
        name outside this list — a retired flag included — is an
        unexpected keyword to the dataclass, so a stale config fails
        loudly instead of being silently ignored."""
        assert [f.name for f in dataclasses.fields(WorldConfig)] == [
            "deadlock_detection",
            "deadlock_grace",
            "fault_schedule",
            "match_schedule",
            "backend",
            "transport",
        ]

    def test_retired_knob_is_a_type_error(self):
        with pytest.raises(TypeError, match="nodes"):
            WorldConfig(nodes=2)
        with pytest.raises(TypeError, match="bootstrap"):
            WorldConfig(bootstrap="tree")
        with pytest.raises(TypeError, match="bcast_algorithm"):
            WorldConfig(bcast_algorithm="linear")
        with pytest.raises(TypeError, match="hierarchical_collectives"):
            WorldConfig(hierarchical_collectives=False)

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("shm_ring_bytes", 1 << 20),
            ("shm_pool_bytes", 1 << 26),
            ("shm_inline_max", 1 << 15),
            ("shm_spin_us", None),
            ("bootstrap_fanout", 8),
            ("watchdog_period", 0.05),
            ("max_components_per_executable", 10),
            ("validate_collectives", True),
        ],
    )
    def test_constant_is_no_longer_a_keyword(self, keyword, value):
        """What no caller set is a constant of the module that uses it;
        even its old default is an unexpected keyword."""
        with pytest.raises(TypeError, match=keyword):
            WorldConfig(**{keyword: value})

    def test_tcp_transport_rejected(self):
        with pytest.raises(ValueError, match="'auto', 'unix' or 'shm'"):
            WorldConfig(backend="process", transport="tcp")

    def test_thread_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            WorldConfig(transport="thread")


class TestBlockedBuckets:
    def test_bucket_edges(self):
        assert blocked_bucket(0.0001) == "<1ms"
        assert blocked_bucket(0.005) == "1-10ms"
        assert blocked_bucket(0.05) == "10-100ms"
        assert blocked_bucket(0.5) == "100ms-1s"
        assert blocked_bucket(5.0) == ">=1s"


class TestWakeupCeilings:
    """The measurable heart of the refactor: parked means *parked*."""

    def _blocked_recv_world(self, idle: float) -> World:
        world = World(2)

        def receiver(comm):
            return comm.recv(source=1, tag=1)

        def sender(comm):
            # Event hook, not a blind sleep: only start the idle window
            # once the receiver is *provably* parked, so the asserted
            # blocked time is a guaranteed floor, not a race against
            # thread startup.
            assert world.wait_until_blocked([0], timeout=10.0)
            time.sleep(idle)
            comm.send("late", 0, tag=1)

        run_world(world, [receiver, sender], timeout=20)
        return world

    def test_idle_rank_has_constant_wakeups(self):
        world = self._blocked_recv_world(idle=0.35)
        stats = world.progress_stats(0)
        assert stats.episodes >= 1
        assert stats.blocked_seconds > 0.3
        # Woken by the delivery (plus at most a spurious cond wakeup) —
        # never periodically.
        assert stats.wakeups <= 3

    def test_traffic_stats_carry_the_blocking_ledger(self):
        world = self._blocked_recv_world(idle=0.25)
        traffic = world.traffic_snapshot()
        assert traffic.blocked_seconds > 0.2
        assert sum(traffic.blocked_hist.values()) >= 1
        delta = world.traffic_snapshot().since(traffic)
        assert delta.blocked_seconds == 0.0 and delta.blocked_hist == {}

    def test_ssend_parks_once(self):
        world = World(2)

        def sender(comm):
            comm.ssend("sync", 1, tag=3)

        def receiver(comm):
            # Recv only once the ssend is provably parked (was a 0.3 s
            # sleep and a hope).
            assert world.wait_until_blocked([0], timeout=10.0)
            return comm.recv(source=0, tag=3)

        run_world(world, [sender, receiver], timeout=20)
        stats = world.progress_stats(0)
        assert stats.episodes >= 1
        assert stats.wakeups <= 3


class TestAbortMidWaitany:
    def test_abort_unwinds_parked_waitany(self):
        def main(comm):
            if comm.rank == 0:
                time.sleep(0.2)
                raise RuntimeError("mid-waitany abort")
            reqs = [comm.irecv(source=0, tag=t) for t in (1, 2, 3)]
            Request.waitany(reqs)

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="mid-waitany abort"):
            run_spmd(3, main, timeout=20)
        assert time.monotonic() - start < 5.0

    def test_abort_unwinds_waitsome_of_sends_and_recvs(self):
        """A mixed list whose only incomplete entries are receives must
        still observe the abort (and an all-send list completes eagerly)."""

        def main(comm):
            if comm.rank == 0:
                time.sleep(0.2)
                raise RuntimeError("mixed-list abort")
            reqs = [comm.isend("x", 0, tag=9), comm.irecv(source=0, tag=8)]
            while True:
                done = Request.waitsome(reqs)
                if len(done) == len(reqs):
                    return
                time.sleep(0.01)

        with pytest.raises(RuntimeError, match="mixed-list abort"):
            run_spmd(2, main, timeout=20)


class TestAbortMidCollective:
    def test_abort_during_collective_storm(self):
        """Stress: repeated collectives with one rank failing mid-stream;
        everyone must unwind with the user exception as root cause."""

        def main(comm):
            for i in range(5):
                comm.allreduce(comm.rank + i)
                comm.barrier()
            if comm.rank == 1:
                raise RuntimeError("died between collectives")
            comm.allreduce(0)
            comm.barrier()

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="died between collectives"):
            run_spmd(4, main, timeout=20)
        assert time.monotonic() - start < 10.0


class TestDeadlockThroughWaitsets:
    def test_waitany_cycle_detected(self):
        """Ranks parked in waitany count as blocked for the watchdog."""

        def main(comm):
            req = comm.irecv(source=(comm.rank + 1) % comm.size, tag=7)
            Request.waitany([req])

        config = WorldConfig(deadlock_grace=0.3)
        with pytest.raises(DeadlockError) as info:
            run_spmd(2, main, config=config, timeout=20)
        assert "waitany" in str(info.value)

    def test_watchdog_detects_recv_cycle_quickly(self):
        config = WorldConfig(deadlock_grace=0.3)

        def main(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=1)

        start = time.monotonic()
        with pytest.raises(DeadlockError):
            run_spmd(3, main, config=config, timeout=20)
        # grace 0.3 s + a few watchdog periods
        assert time.monotonic() - start < 5.0

    def test_watchdog_scans_per_period_not_per_park(self, monkeypatch):
        """A 200-message ping-pong parks ~400 times; the watchdog must
        still scan O(elapsed / period) times — a park leaves a flag for
        the retire check, it does not wake the watchdog."""
        period = _WATCHDOG_PERIOD
        world = World(2)
        scans = 0
        real_scan = world.scan_deadlock

        def counting_scan():
            nonlocal scans
            scans += 1
            return real_scan()

        monkeypatch.setattr(world, "scan_deadlock", counting_scan)

        def main(comm):
            peer = 1 - comm.rank
            for i in range(200):
                if comm.rank == 0:
                    comm.send(i, peer, tag=1)
                    comm.recv(source=peer, tag=2)
                else:
                    comm.recv(source=peer, tag=1)
                    comm.send(i, peer, tag=2)

        start = time.monotonic()
        run_world(world, [main, main], timeout=30)
        elapsed = time.monotonic() - start
        assert world.progress_stats(0).episodes + world.progress_stats(1).episodes >= 100
        assert scans <= elapsed / period + 2

    def test_watchdog_retires_after_the_job(self):
        world = World(2)

        def main(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=1)
            # Send only after rank 0 is parked, so the watchdog provably
            # started watching something before the job drains.
            assert world.wait_until_blocked([0], timeout=10.0)
            comm.send("x", 0, tag=1)

        run_world(world, [main, main], timeout=20)
        # Event hook instead of the old _wd_running poll loop.
        assert world.progress.join_watchdog(timeout=3.0)
        assert not world.progress._wd_running


class TestRequestMisuse:
    def test_duplicate_handle_in_waitany_raises(self):
        def main(comm):
            req = comm.irecv(source=0, tag=5)
            with pytest.raises(CommError, match="duplicate"):
                Request.waitany([req, req])
            assert req.cancel()
            return "ok"

        assert run_spmd(1, main) == ["ok"]

    def test_duplicate_handle_in_waitsome_raises(self):
        def main(comm):
            req = comm.irecv(source=0, tag=5)
            with pytest.raises(CommError, match="duplicate"):
                Request.waitsome([req, req])
            assert req.cancel()
            return "ok"

        assert run_spmd(1, main) == ["ok"]

    def test_wait_after_cancel_raises_instead_of_hanging(self):
        def main(comm):
            req = comm.irecv(source=0, tag=5)
            assert req.cancel()
            with pytest.raises(CommError, match="cancelled"):
                req.wait()
            with pytest.raises(CommError, match="cancelled"):
                req.test()
            return "ok"

        assert run_spmd(1, main) == ["ok"]

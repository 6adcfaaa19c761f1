"""World state machinery: context ids, activity, abort, config
(repro.mpi.world)."""

import pytest

from repro.errors import AbortError
from repro.mpi.world import World, WorldConfig


class TestContextAllocation:
    def test_pairs_distinct_and_above_reserved(self):
        world = World(2)
        seen = set()
        for _ in range(10):
            p2p, coll = world.alloc_context_pair()
            assert p2p >= 2 and coll == p2p + 1  # 0/1 reserved for COMM_WORLD
            assert p2p not in seen and coll not in seen
            seen.update((p2p, coll))


class TestLiveness:
    def test_block_enter_exit(self):
        world = World(3)
        world.block_enter(1, "recv")
        assert world.snapshot()["blocked"] == {1: "recv"}
        world.block_exit(1)
        assert world.snapshot()["blocked"] == {}

    def test_proc_done_removes_from_alive(self):
        world = World(2)
        world.proc_done(0)
        assert world.snapshot()["alive"] == [1]

    def test_proc_done_clears_blocked(self):
        world = World(2)
        world.block_enter(0, "x")
        world.proc_done(0)
        assert world.snapshot()["blocked"] == {}


class TestAbort:
    def test_first_abort_wins(self):
        world = World(2)
        world.abort(AbortError("first", origin_rank=0))
        world.abort(AbortError("second", origin_rank=1))
        with pytest.raises(AbortError, match="first") as info:
            world.check_abort()
        assert info.value.origin_rank == 0

    def test_check_abort_noop_before_abort(self):
        World(1).check_abort()  # must not raise

    def test_aborted_flag(self):
        world = World(1)
        assert not world.aborted
        world.abort(AbortError("x"))
        assert world.aborted


class TestWorldConfig:
    def test_defaults(self):
        cfg = WorldConfig()
        assert cfg.nodes is None
        assert cfg.deadlock_detection is True
        assert (cfg.backend, cfg.transport) == ("thread", "auto")

    def test_world_requires_positive_size(self):
        with pytest.raises(ValueError):
            World(-1)

    def test_one_mailbox_per_rank(self):
        world = World(5)
        assert len(world.mailboxes) == 5
        assert [mb.owner for mb in world.mailboxes] == list(range(5))


class TestDeadlockGuards:
    def test_no_detection_when_disabled(self):
        world = World(1, WorldConfig(deadlock_detection=False))
        world.block_enter(0, "stuck")
        assert world.scan_deadlock() is None

    def test_no_detection_while_someone_runs(self):
        world = World(2, WorldConfig(deadlock_grace=0.0))
        world.block_enter(0, "stuck")
        assert world.scan_deadlock() is None  # rank 1 is still running

"""Collective operations across sizes, on one node and over two."""

import time

import numpy as np
import pytest

from repro.errors import CollectiveMismatchError
from repro.mpi import MAX, MAXLOC, MIN, SUM, Op, WorldConfig

SIZES = [1, 2, 3, 4, 5, 8]

#: The two shapes the one schedule takes, picked from the node map, by
#: the node count the runner spreads the ranks over: the flat star of a
#: single node (root and every rank; ``None`` is the leg's own map) and
#: the two-deep star of two (root, one representative per node, its
#: node-mates).  The ids are the names the test floor knows the two legs
#: by.
STARS = [None, 2]
STAR_IDS = ["linear-family", "tree-family"]


@pytest.mark.parametrize("nodes", STARS, ids=STAR_IDS)
class TestBcast:
    @pytest.mark.parametrize("n", SIZES)
    def test_from_root_zero(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.bcast({"v": 42} if comm.rank == 0 else None)

        assert leg_spmd(n, main, nodes=nodes) == [{"v": 42}] * n

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_nonzero_root(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.bcast("payload" if comm.rank == n - 1 else None, root=n - 1)

        assert leg_spmd(n, main, nodes=nodes) == ["payload"] * n

    def test_every_root(self, leg_spmd, nodes):
        def main(comm):
            out = []
            for root in range(comm.size):
                out.append(comm.bcast(comm.rank if comm.rank == root else None, root=root))
            return out

        for values in leg_spmd(5, main, nodes=nodes):
            assert values == list(range(5))


@pytest.mark.parametrize("nodes", STARS, ids=STAR_IDS)
class TestGatherScatter:
    @pytest.mark.parametrize("n", SIZES)
    def test_gather(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.gather(comm.rank**2)

        values = leg_spmd(n, main, nodes=nodes)
        assert values[0] == [r**2 for r in range(n)]
        assert all(v is None for v in values[1:])

    def test_gather_nonzero_root(self, leg_spmd, nodes):
        def main(comm):
            return comm.gather(chr(ord("a") + comm.rank), root=2)

        values = leg_spmd(4, main, nodes=nodes)
        assert values[2] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("n", SIZES)
    def test_scatter(self, leg_spmd, nodes, n):
        def main(comm):
            objs = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs)

        assert leg_spmd(n, main, nodes=nodes) == [i * 10 for i in range(n)]

    def test_scatter_wrong_length(self, leg_spmd, nodes):
        def main(comm):
            comm.scatter([1] if comm.rank == 0 else None)

        with pytest.raises(CollectiveMismatchError):
            leg_spmd(3, main, nodes=nodes)

    def test_gather_variable_sizes(self, leg_spmd, nodes):
        """Object mode gathers heterogeneous payloads (the gatherv case)."""

        def main(comm):
            return comm.gather(list(range(comm.rank)))

        values = leg_spmd(4, main, nodes=nodes)
        assert values[0] == [[], [0], [0, 1], [0, 1, 2]]


@pytest.mark.parametrize("nodes", STARS, ids=STAR_IDS)
class TestAllgatherAlltoall:
    @pytest.mark.parametrize("n", SIZES)
    def test_allgather(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.allgather(comm.rank + 1)

        assert leg_spmd(n, main, nodes=nodes) == [[r + 1 for r in range(n)]] * n

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_alltoall(self, leg_spmd, nodes, n):
        def main(comm):
            objs = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(objs)

        values = leg_spmd(n, main, nodes=nodes)
        for r, got in enumerate(values):
            assert got == [f"{s}->{r}" for s in range(n)]

    def test_alltoall_wrong_length(self, leg_spmd, nodes):
        def main(comm):
            comm.alltoall([1, 2])

        with pytest.raises(CollectiveMismatchError):
            leg_spmd(3, main, nodes=nodes)


@pytest.mark.parametrize("nodes", STARS, ids=STAR_IDS)
class TestReductions:
    @pytest.mark.parametrize("n", SIZES)
    def test_reduce_sum(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.reduce(comm.rank + 1, op=SUM)

        values = leg_spmd(n, main, nodes=nodes)
        assert values[0] == n * (n + 1) // 2
        assert all(v is None for v in values[1:])

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_reduce_nonzero_root(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.reduce(comm.rank, op=MAX, root=1)

        values = leg_spmd(n, main, nodes=nodes)
        assert values[1] == n - 1

    @pytest.mark.parametrize("n", SIZES)
    def test_allreduce_sum(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.allreduce(comm.rank)

        assert leg_spmd(n, main, nodes=nodes) == [n * (n - 1) // 2] * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 8])
    def test_allreduce_nonpoweroftwo(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.allreduce(2**comm.rank)

        assert leg_spmd(n, main, nodes=nodes) == [2**n - 1] * n

    def test_allreduce_min_max(self, leg_spmd, nodes):
        def main(comm):
            return (comm.allreduce(comm.rank, op=MIN), comm.allreduce(comm.rank, op=MAX))

        assert leg_spmd(5, main, nodes=nodes) == [(0, 4)] * 5

    def test_allreduce_arrays(self, leg_spmd, nodes):
        def main(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=np.int64))

        for arr in leg_spmd(4, main, nodes=nodes):
            np.testing.assert_array_equal(arr, [6, 6, 6])

    def test_allreduce_maxloc(self, leg_spmd, nodes):
        def main(comm):
            value = [3.0, 9.0, 9.0, 1.0][comm.rank]
            return comm.allreduce((value, comm.rank), op=MAXLOC)

        # ties take the smaller rank
        assert leg_spmd(4, main, nodes=nodes) == [(9.0, 1)] * 4

    def test_reduce_noncommutative_rank_order(self, leg_spmd, nodes):
        concat = Op.create(lambda a, b: a + b, name="concat", commutative=False)

        def main(comm):
            return comm.reduce(chr(ord("a") + comm.rank), op=concat)

        assert leg_spmd(5, main, nodes=nodes)[0] == "abcde"

    def test_allreduce_noncommutative(self, leg_spmd, nodes):
        concat = Op.create(lambda a, b: a + b, name="concat", commutative=False)

        def main(comm):
            return comm.allreduce(str(comm.rank), op=concat)

        assert leg_spmd(4, main, nodes=nodes) == ["0123"] * 4


@pytest.mark.parametrize("nodes", STARS, ids=STAR_IDS)
class TestScan:
    @pytest.mark.parametrize("n", SIZES)
    def test_inclusive_scan(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.scan(comm.rank + 1)

        assert leg_spmd(n, main, nodes=nodes) == [sum(range(1, r + 2)) for r in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_exscan(self, leg_spmd, nodes, n):
        def main(comm):
            return comm.exscan(comm.rank + 1)

        values = leg_spmd(n, main, nodes=nodes)
        assert values[0] is None
        for r in range(1, n):
            assert values[r] == sum(range(1, r + 1))


@pytest.mark.parametrize("nodes", STARS, ids=STAR_IDS)
class TestReduceScatterBarrier:
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_reduce_scatter(self, leg_spmd, nodes, n):
        def main(comm):
            # rank r contributes [r*size + slot for slot]
            objs = [comm.rank * comm.size + slot for slot in range(comm.size)]
            return comm.reduce_scatter(objs)

        values = leg_spmd(n, main, nodes=nodes)
        for slot, got in enumerate(values):
            assert got == sum(r * n + slot for r in range(n))

    @pytest.mark.parametrize("n", SIZES)
    def test_barrier_orders_side_effects(self, leg_spmd, nodes, n):
        """No rank leaves the barrier before every rank has entered it.

        The stamps are ``CLOCK_MONOTONIC``, one clock system-wide, so they
        compare across forked ranks too.  A message sent before the barrier
        is received, not probed: MPI does not order a point-to-point
        message against a barrier's release, only its eventual delivery."""

        def main(comm):
            if comm.rank == 0:
                for d in range(1, comm.size):
                    comm.send("pre", d, tag=1)
            enter = time.monotonic_ns()
            comm.barrier()
            leave = time.monotonic_ns()
            got = comm.recv(source=0, tag=1) if comm.rank != 0 else "root"
            return enter, leave, got

        values = leg_spmd(n, main, nodes=nodes)
        enters, leaves, got = zip(*values)
        assert max(enters) <= min(leaves)
        assert got == ("root",) + ("pre",) * (n - 1)


class TestCollectiveSequencing:
    def test_many_collectives_back_to_back(self, leg_spmd):
        """Tag sequencing must isolate consecutive collectives."""

        def main(comm):
            acc = []
            for i in range(25):
                acc.append(comm.allreduce(i + comm.rank))
            return acc

        n = 4
        values = leg_spmd(n, main)
        expect = [i * n + sum(range(n)) for i in range(25)]
        assert values[0] == expect

    def test_collectives_do_not_eat_user_messages(self, leg_spmd):
        """User p2p with tag 0 must survive interleaved collectives
        (context isolation)."""

        def main(comm):
            if comm.rank == 0:
                comm.send("user", 1, tag=0)
            comm.barrier()
            comm.allreduce(1)
            if comm.rank == 1:
                return comm.recv(source=0, tag=0)
            return None

        assert leg_spmd(2, main)[1] == "user"

    def test_mismatched_collectives_detected(self, leg_spmd):
        """A rank receiving another collective's traffic gets a
        CollectiveMismatchError naming both operations."""

        def main(comm):
            if comm.rank == 0:
                comm.allreduce(1)  # sends to rank 1, then receives
            else:
                comm.bcast(None, root=0)  # receives — the wrong operation

        with pytest.raises(CollectiveMismatchError, match="mismatched collectives"):
            leg_spmd(2, main, config=WorldConfig(deadlock_grace=0.3))

    def test_sendonly_mismatch_deadlocks_and_is_reported(self, leg_spmd):
        """When both mismatched sides only wait, the deadlock detector is
        the reporting mechanism (as in real MPI, nothing errors eagerly)."""
        from repro.errors import DeadlockError

        def main(comm):
            if comm.rank == 0:
                comm.gather("x")  # root: waits for rank 1's contribution
            else:
                comm.bcast(None, root=1)  # waits for... nothing matching

        with pytest.raises((CollectiveMismatchError, DeadlockError)):
            leg_spmd(2, main, config=WorldConfig(deadlock_grace=0.3))


@pytest.mark.parametrize("nodes", STARS, ids=["linear", "binomial"])
class TestBcastMutationIsolation:
    """Pickle-once fan-out and a representative's verbatim forward must preserve the value
    semantics of distributed memory: every rank owns a private result."""

    def test_receiver_mutation_is_private(self, leg_spmd, nodes):
        def main(comm):
            got = comm.bcast(np.zeros(16) if comm.rank == 0 else None)
            got[:] = float(comm.rank)  # each rank scribbles on its copy
            comm.barrier()
            return got.tolist()

        values = leg_spmd(4, main, nodes=nodes)
        for rank, got in enumerate(values):
            assert got == [float(rank)] * 16

    def test_root_mutation_after_bcast_invisible(self, leg_spmd, nodes):
        def main(comm):
            arr = np.arange(6.0) if comm.rank == 0 else None
            got = comm.bcast(arr)
            if comm.rank == 0:
                arr[:] = -5.0
            comm.barrier()
            return got.tolist() if comm.rank != 0 else None

        values = leg_spmd(4, main, nodes=nodes)
        for got in values[1:]:
            assert got == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_buffer_bcast_receivers_private(self, leg_spmd, nodes):
        def main(comm):
            buf = np.full(8, float(comm.rank)) if comm.rank != 0 else np.arange(8.0)
            comm.Bcast(buf, root=0)
            buf += comm.rank  # mutate the received buffer
            comm.barrier()
            return buf.tolist()

        values = leg_spmd(4, main, nodes=nodes)
        for rank, got in enumerate(values):
            assert got == (np.arange(8.0) + rank).tolist()

    def test_nested_objects_stay_private(self, leg_spmd, nodes):
        def main(comm):
            payload = {"grid": [1, 2, 3]} if comm.rank == 0 else None
            got = comm.bcast(payload)
            got["grid"].append(comm.rank + 10)
            comm.barrier()
            return got["grid"]

        values = leg_spmd(3, main, nodes=nodes)
        for rank, grid in enumerate(values):
            assert grid == [1, 2, 3, rank + 10]

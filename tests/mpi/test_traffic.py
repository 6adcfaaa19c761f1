"""Traffic accounting: verifying each algorithm's exact message complexity.

These tests pin the textbook message counts — the strongest possible
check that the implemented algorithm is the claimed one (a linear bcast on
P ranks delivers exactly P-1 messages; a ring allgather exactly P(P-1)).
"""

import dataclasses

import numpy as np
import pytest

from repro.mpi import Op, World, WorldConfig
from repro.mpi.executor import run_world
from repro.mpi.world import TrafficStats


def traffic_of(nprocs, fn, config=None):
    """Run fn on a fresh world; return the traffic it generated."""
    world = World(nprocs, config)
    run_world(world, [fn] * nprocs)
    return world.traffic_snapshot()


def linear_family():
    return WorldConfig(
        bcast_algorithm="linear",
        reduce_algorithm="linear",
        allreduce_algorithm="reduce_bcast",
        allgather_algorithm="gather_bcast",
        barrier_algorithm="linear",
    )


def tree_family():
    return WorldConfig(
        bcast_algorithm="binomial",
        reduce_algorithm="binomial",
        allreduce_algorithm="recursive_doubling",
        allgather_algorithm="ring",
        barrier_algorithm="dissemination",
    )


class TestExactMessageCounts:
    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_linear_bcast_sends_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.bcast("x"), linear_family())
        assert stats.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_binomial_bcast_also_p_minus_1(self, n):
        # A tree moves the same number of messages; it wins on rounds.
        stats = traffic_of(n, lambda c: c.bcast("x"), tree_family())
        assert stats.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_gather_sends_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.gather(c.rank), linear_family())
        assert stats.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_ring_allgather_p_times_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.allgather(c.rank), tree_family())
        assert stats.messages == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_dissemination_barrier_p_log_p(self, n):
        import math

        stats = traffic_of(n, lambda c: c.barrier(), tree_family())
        assert stats.messages == n * math.ceil(math.log2(n))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_recursive_doubling_allreduce_power_of_two(self, n):
        import math

        stats = traffic_of(n, lambda c: c.allreduce(1), tree_family())
        assert stats.messages == n * int(math.log2(n))

    def test_alltoall_p_times_p_minus_1(self):
        n = 4
        stats = traffic_of(n, lambda c: c.alltoall(list(range(c.size))))
        assert stats.messages == n * (n - 1)

    def test_p2p_counts_each_send_once(self):
        def main(comm):
            if comm.rank == 0:
                for _ in range(5):
                    comm.send("x", 1)
            else:
                for _ in range(5):
                    comm.recv(source=0)

        stats = traffic_of(2, main)
        assert stats.messages == 5
        assert stats.by_kind == {"object": 5}


class TestByteAccounting:
    def test_buffer_bytes(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(100), 1)
            else:
                comm.Recv(np.zeros(100), source=0)

        stats = traffic_of(2, main)
        assert stats.payload_bytes == 800  # 100 float64
        assert stats.by_kind == {"buffer": 1}

    def test_bufcoll_kind_tracked(self):
        def main(comm):
            comm.Allreduce(np.ones(8))

        stats = traffic_of(2, main)
        assert stats.by_kind.get("bufcoll", 0) > 0

    def test_object_bytes_are_pickle_sizes(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("payload", 1)
            else:
                comm.recv(source=0)

        stats = traffic_of(2, main)
        assert stats.payload_bytes > len("payload")  # pickle framing included


class TestSnapshots:
    def test_since_subtracts(self):
        a = TrafficStats(10, 100, {"object": 10})
        b = TrafficStats(15, 180, {"object": 12, "buffer": 3})
        d = b.since(a)
        assert (d.messages, d.payload_bytes) == (5, 80)
        assert d.by_kind == {"object": 2, "buffer": 3}

    def test_snapshot_is_independent_copy(self):
        world = World(1)
        snap = world.traffic_snapshot()
        world.record_traffic("object", 4)
        assert snap.messages == 0
        assert world.traffic_snapshot().messages == 1


class TestHandshakeComplexity:
    """The handshake's communication volume vs world size — the cost model
    behind experiment E9."""

    def handshake_traffic(self, n_components, procs_each):
        from repro import components_setup, mph_run

        names = [f"c{i}" for i in range(n_components)]
        registry = "BEGIN\n" + "\n".join(names) + "\nEND"

        def make(name):
            def program(world, env):
                components_setup(world, name, env=env)
                return None

            program.__name__ = name
            return program

        # Every launch returns its traffic: on the thread backend each
        # rank carries the shared world's final snapshot.
        result = mph_run([(make(n), procs_each) for n in names], registry=registry)
        return result.procs[0].traffic

    def test_traffic_grows_with_world_size(self):
        small = self.handshake_traffic(2, 1).messages
        large = self.handshake_traffic(2, 4).messages
        assert large > small

    def test_traffic_grows_with_components(self):
        few = self.handshake_traffic(2, 2).messages
        many = self.handshake_traffic(6, 2).messages
        assert many > few

    def test_superlinear_from_declaration_allgather(self):
        """The declarations allgather is ring (O(P^2) messages), so the
        handshake total grows faster than linearly in P."""
        p4 = self.handshake_traffic(4, 1).messages
        p8 = self.handshake_traffic(8, 1).messages
        assert p8 > 2 * p4


# ---------------------------------------------------------------------------
# Golden traffic table
# ---------------------------------------------------------------------------

CONCAT = Op(lambda a, b: a + b, "concat", commutative=False)

#: float64 elements each rank contributes to the buffer verbs (72 bytes).
BLOCK = 9


def _block(c):
    return np.full(BLOCK, float(c.rank))


#: One call of every collective verb; rooted verbs use root 1 so the
#: two-level schedules run with a promoted (non-leader) root.
VERBS = {
    "bcast": lambda c: c.bcast(list(range(10)) if c.rank == 1 else None, root=1),
    "gather": lambda c: c.gather(c.rank, root=1),
    "scatter": lambda c: c.scatter(list(range(c.size)) if c.rank == 1 else None, root=1),
    "allgather": lambda c: c.allgather(c.rank),
    "alltoall": lambda c: c.alltoall(list(range(c.size))),
    "reduce": lambda c: c.reduce(c.rank, root=1),
    "allreduce": lambda c: c.allreduce(c.rank),
    "scan": lambda c: c.scan(c.rank),
    "exscan": lambda c: c.exscan(c.rank),
    "reduce_scatter": lambda c: c.reduce_scatter([c.rank] * c.size),
    "barrier": lambda c: c.barrier(),
    "reduce_nc": lambda c: c.reduce([c.rank], op=CONCAT, root=1),
    "allreduce_nc": lambda c: c.allreduce([c.rank], op=CONCAT),
    "Bcast": lambda c: c.Bcast(_block(c), root=1),
    "Gather": lambda c: c.Gather(_block(c), root=1),
    "Scatter": lambda c: c.Scatter(
        np.zeros((c.size, BLOCK)) if c.rank == 1 else None, np.empty(BLOCK), root=1
    ),
    "Allgather": lambda c: c.Allgather(_block(c)),
    "Gatherv": lambda c: c.Gatherv(np.zeros(c.rank + 1), root=1),
    "Scatterv": lambda c: c.Scatterv(
        np.zeros(c.size * (c.size + 1) // 2) if c.rank == 1 else None,
        range(1, c.size + 1) if c.rank == 1 else None,
        root=1,
    ),
    "Reduce": lambda c: c.Reduce(_block(c), root=1),
    "Allreduce": lambda c: c.Allreduce(_block(c)),
}

FAMILIES = {"tree": tree_family, "linear": linear_family}

#: ``(verb, family, nodes, P) -> (messages, payload_bytes,
#: copy_avoided_bytes, by_kind)`` of one call on a fresh world.  Buffer-mode
#: and two-level counts and every byte count are what a schedule change can
#: silently move, so every cell is a literal.  (The tree-family ``Allgather``
#: rows avoid P*(P-2)*72 bytes of copies because every ring hop after the
#: first forwards the block it received.)
GOLDEN = {
    ("bcast", "tree", None, 5): (4, 144, 108, {"object": 4}),
    ("bcast", "tree", None, 8): (7, 252, 216, {"object": 7}),
    ("bcast", "tree", 2, 5): (4, 144, 36, {"object": 4}),
    ("bcast", "tree", 2, 8): (7, 252, 144, {"object": 7}),
    ("bcast", "tree", 3, 5): (4, 144, 36, {"object": 4}),
    ("bcast", "tree", 3, 8): (7, 252, 108, {"object": 7}),
    ("bcast", "linear", None, 5): (4, 144, 108, {"object": 4}),
    ("bcast", "linear", None, 8): (7, 252, 216, {"object": 7}),
    ("bcast", "linear", 2, 5): (4, 144, 36, {"object": 4}),
    ("bcast", "linear", 2, 8): (7, 252, 144, {"object": 7}),
    ("bcast", "linear", 3, 5): (4, 144, 36, {"object": 4}),
    ("bcast", "linear", 3, 8): (7, 252, 108, {"object": 7}),
    ("gather", "tree", None, 5): (4, 20, 0, {"object": 4}),
    ("gather", "tree", None, 8): (7, 35, 0, {"object": 7}),
    ("gather", "tree", 2, 5): (4, 20, 0, {"object": 4}),
    ("gather", "tree", 2, 8): (7, 35, 0, {"object": 7}),
    ("gather", "tree", 3, 5): (4, 20, 0, {"object": 4}),
    ("gather", "tree", 3, 8): (7, 35, 0, {"object": 7}),
    ("gather", "linear", None, 5): (4, 20, 0, {"object": 4}),
    ("gather", "linear", None, 8): (7, 35, 0, {"object": 7}),
    ("gather", "linear", 2, 5): (4, 20, 0, {"object": 4}),
    ("gather", "linear", 2, 8): (7, 35, 0, {"object": 7}),
    ("gather", "linear", 3, 5): (4, 20, 0, {"object": 4}),
    ("gather", "linear", 3, 8): (7, 35, 0, {"object": 7}),
    ("scatter", "tree", None, 5): (4, 20, 0, {"object": 4}),
    ("scatter", "tree", None, 8): (7, 35, 0, {"object": 7}),
    ("scatter", "tree", 2, 5): (4, 20, 0, {"object": 4}),
    ("scatter", "tree", 2, 8): (7, 35, 0, {"object": 7}),
    ("scatter", "tree", 3, 5): (4, 20, 0, {"object": 4}),
    ("scatter", "tree", 3, 8): (7, 35, 0, {"object": 7}),
    ("scatter", "linear", None, 5): (4, 20, 0, {"object": 4}),
    ("scatter", "linear", None, 8): (7, 35, 0, {"object": 7}),
    ("scatter", "linear", 2, 5): (4, 20, 0, {"object": 4}),
    ("scatter", "linear", 2, 8): (7, 35, 0, {"object": 7}),
    ("scatter", "linear", 3, 5): (4, 20, 0, {"object": 4}),
    ("scatter", "linear", 3, 8): (7, 35, 0, {"object": 7}),
    ("allgather", "tree", None, 5): (20, 360, 270, {"object": 20}),
    ("allgather", "tree", None, 8): (56, 1008, 864, {"object": 56}),
    ("allgather", "tree", 2, 5): (20, 360, 270, {"object": 20}),
    ("allgather", "tree", 2, 8): (56, 1008, 864, {"object": 56}),
    ("allgather", "tree", 3, 5): (20, 360, 270, {"object": 20}),
    ("allgather", "tree", 3, 8): (56, 1008, 864, {"object": 56}),
    ("allgather", "linear", None, 5): (8, 124, 78, {"object": 8}),
    ("allgather", "linear", None, 8): (14, 259, 192, {"object": 14}),
    ("allgather", "linear", 2, 5): (8, 124, 26, {"object": 8}),
    ("allgather", "linear", 2, 8): (14, 259, 128, {"object": 14}),
    ("allgather", "linear", 3, 5): (8, 124, 26, {"object": 8}),
    ("allgather", "linear", 3, 8): (14, 259, 96, {"object": 14}),
    ("alltoall", "tree", None, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", "tree", None, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", "tree", 2, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", "tree", 2, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", "tree", 3, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", "tree", 3, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", "linear", None, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", "linear", None, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", "linear", 2, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", "linear", 2, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", "linear", 3, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", "linear", 3, 8): (56, 280, 0, {"object": 56}),
    ("reduce", "tree", None, 5): (4, 20, 0, {"object": 4}),
    ("reduce", "tree", None, 8): (7, 35, 0, {"object": 7}),
    ("reduce", "tree", 2, 5): (4, 20, 0, {"object": 4}),
    ("reduce", "tree", 2, 8): (7, 35, 0, {"object": 7}),
    ("reduce", "tree", 3, 5): (4, 20, 0, {"object": 4}),
    ("reduce", "tree", 3, 8): (7, 35, 0, {"object": 7}),
    ("reduce", "linear", None, 5): (4, 20, 0, {"object": 4}),
    ("reduce", "linear", None, 8): (7, 35, 0, {"object": 7}),
    ("reduce", "linear", 2, 5): (4, 20, 0, {"object": 4}),
    ("reduce", "linear", 2, 8): (7, 35, 0, {"object": 7}),
    ("reduce", "linear", 3, 5): (4, 20, 0, {"object": 4}),
    ("reduce", "linear", 3, 8): (7, 35, 0, {"object": 7}),
    ("allreduce", "tree", None, 5): (10, 50, 0, {"object": 10}),
    ("allreduce", "tree", None, 8): (24, 120, 0, {"object": 24}),
    ("allreduce", "tree", 2, 5): (8, 40, 5, {"object": 8}),
    ("allreduce", "tree", 2, 8): (14, 70, 20, {"object": 14}),
    ("allreduce", "tree", 3, 5): (8, 40, 0, {"object": 8}),
    ("allreduce", "tree", 3, 8): (14, 70, 10, {"object": 14}),
    ("allreduce", "linear", None, 5): (8, 40, 15, {"object": 8}),
    ("allreduce", "linear", None, 8): (14, 70, 30, {"object": 14}),
    ("allreduce", "linear", 2, 5): (8, 40, 5, {"object": 8}),
    ("allreduce", "linear", 2, 8): (14, 70, 20, {"object": 14}),
    ("allreduce", "linear", 3, 5): (8, 40, 5, {"object": 8}),
    ("allreduce", "linear", 3, 8): (14, 70, 15, {"object": 14}),
    ("scan", "tree", None, 5): (4, 20, 0, {"object": 4}),
    ("scan", "tree", None, 8): (7, 35, 0, {"object": 7}),
    ("scan", "tree", 2, 5): (4, 20, 0, {"object": 4}),
    ("scan", "tree", 2, 8): (7, 35, 0, {"object": 7}),
    ("scan", "tree", 3, 5): (4, 20, 0, {"object": 4}),
    ("scan", "tree", 3, 8): (7, 35, 0, {"object": 7}),
    ("scan", "linear", None, 5): (4, 20, 0, {"object": 4}),
    ("scan", "linear", None, 8): (7, 35, 0, {"object": 7}),
    ("scan", "linear", 2, 5): (4, 20, 0, {"object": 4}),
    ("scan", "linear", 2, 8): (7, 35, 0, {"object": 7}),
    ("scan", "linear", 3, 5): (4, 20, 0, {"object": 4}),
    ("scan", "linear", 3, 8): (7, 35, 0, {"object": 7}),
    ("exscan", "tree", None, 5): (4, 20, 0, {"object": 4}),
    ("exscan", "tree", None, 8): (7, 35, 0, {"object": 7}),
    ("exscan", "tree", 2, 5): (4, 20, 0, {"object": 4}),
    ("exscan", "tree", 2, 8): (7, 35, 0, {"object": 7}),
    ("exscan", "tree", 3, 5): (4, 20, 0, {"object": 4}),
    ("exscan", "tree", 3, 8): (7, 35, 0, {"object": 7}),
    ("exscan", "linear", None, 5): (4, 20, 0, {"object": 4}),
    ("exscan", "linear", None, 8): (7, 35, 0, {"object": 7}),
    ("exscan", "linear", 2, 5): (4, 20, 0, {"object": 4}),
    ("exscan", "linear", 2, 8): (7, 35, 0, {"object": 7}),
    ("exscan", "linear", 3, 5): (4, 20, 0, {"object": 4}),
    ("exscan", "linear", 3, 8): (7, 35, 0, {"object": 7}),
    ("reduce_scatter", "tree", None, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", "tree", None, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", "tree", 2, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", "tree", 2, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", "tree", 3, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", "tree", 3, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", "linear", None, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", "linear", None, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", "linear", 2, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", "linear", 2, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", "linear", 3, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", "linear", 3, 8): (14, 259, 0, {"object": 14}),
    ("barrier", "tree", None, 5): (15, 60, 0, {"object": 15}),
    ("barrier", "tree", None, 8): (24, 96, 0, {"object": 24}),
    ("barrier", "tree", 2, 5): (8, 32, 4, {"object": 8}),
    ("barrier", "tree", 2, 8): (14, 56, 16, {"object": 14}),
    ("barrier", "tree", 3, 5): (10, 40, 0, {"object": 10}),
    ("barrier", "tree", 3, 8): (16, 64, 8, {"object": 16}),
    ("barrier", "linear", None, 5): (8, 32, 12, {"object": 8}),
    ("barrier", "linear", None, 8): (14, 56, 24, {"object": 14}),
    ("barrier", "linear", 2, 5): (8, 32, 4, {"object": 8}),
    ("barrier", "linear", 2, 8): (14, 56, 16, {"object": 14}),
    ("barrier", "linear", 3, 5): (10, 40, 0, {"object": 10}),
    ("barrier", "linear", 3, 8): (16, 64, 8, {"object": 16}),
    ("reduce_nc", "tree", None, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", "tree", None, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", "tree", 2, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", "tree", 2, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", "tree", 3, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", "tree", 3, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", "linear", None, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", "linear", None, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", "linear", 2, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", "linear", 2, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", "linear", 3, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", "linear", 3, 8): (7, 119, 0, {"object": 7}),
    ("allreduce_nc", "tree", None, 5): (8, 172, 78, {"object": 8}),
    ("allreduce_nc", "tree", None, 8): (14, 343, 192, {"object": 14}),
    ("allreduce_nc", "tree", 2, 5): (8, 172, 26, {"object": 8}),
    ("allreduce_nc", "tree", 2, 8): (14, 343, 128, {"object": 14}),
    ("allreduce_nc", "tree", 3, 5): (8, 172, 26, {"object": 8}),
    ("allreduce_nc", "tree", 3, 8): (14, 343, 96, {"object": 14}),
    ("allreduce_nc", "linear", None, 5): (8, 172, 78, {"object": 8}),
    ("allreduce_nc", "linear", None, 8): (14, 343, 192, {"object": 14}),
    ("allreduce_nc", "linear", 2, 5): (8, 172, 26, {"object": 8}),
    ("allreduce_nc", "linear", 2, 8): (14, 343, 128, {"object": 14}),
    ("allreduce_nc", "linear", 3, 5): (8, 172, 26, {"object": 8}),
    ("allreduce_nc", "linear", 3, 8): (14, 343, 96, {"object": 14}),
    ("Bcast", "tree", None, 5): (4, 288, 216, {"bufcoll": 4}),
    ("Bcast", "tree", None, 8): (7, 504, 432, {"bufcoll": 7}),
    ("Bcast", "tree", 2, 5): (4, 288, 72, {"bufcoll": 4}),
    ("Bcast", "tree", 2, 8): (7, 504, 288, {"bufcoll": 7}),
    ("Bcast", "tree", 3, 5): (4, 288, 72, {"bufcoll": 4}),
    ("Bcast", "tree", 3, 8): (7, 504, 216, {"bufcoll": 7}),
    ("Bcast", "linear", None, 5): (4, 288, 216, {"bufcoll": 4}),
    ("Bcast", "linear", None, 8): (7, 504, 432, {"bufcoll": 7}),
    ("Bcast", "linear", 2, 5): (4, 288, 72, {"bufcoll": 4}),
    ("Bcast", "linear", 2, 8): (7, 504, 288, {"bufcoll": 7}),
    ("Bcast", "linear", 3, 5): (4, 288, 72, {"bufcoll": 4}),
    ("Bcast", "linear", 3, 8): (7, 504, 216, {"bufcoll": 7}),
    ("Gather", "tree", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", "tree", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", "tree", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", "tree", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", "tree", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", "tree", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", "linear", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", "linear", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", "linear", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", "linear", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", "linear", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", "linear", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", "tree", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", "tree", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", "tree", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", "tree", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", "tree", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", "tree", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", "linear", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", "linear", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", "linear", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", "linear", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", "linear", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", "linear", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Allgather", "tree", None, 5): (20, 1440, 1080, {"bufcoll": 20}),
    ("Allgather", "tree", None, 8): (56, 4032, 3456, {"bufcoll": 56}),
    ("Allgather", "tree", 2, 5): (20, 1440, 1080, {"bufcoll": 20}),
    ("Allgather", "tree", 2, 8): (56, 4032, 3456, {"bufcoll": 56}),
    ("Allgather", "tree", 3, 5): (20, 1440, 1080, {"bufcoll": 20}),
    ("Allgather", "tree", 3, 8): (56, 4032, 3456, {"bufcoll": 56}),
    ("Allgather", "linear", None, 5): (8, 1728, 1080, {"bufcoll": 8}),
    ("Allgather", "linear", None, 8): (14, 4536, 3456, {"bufcoll": 14}),
    ("Allgather", "linear", 2, 5): (8, 1728, 360, {"bufcoll": 8}),
    ("Allgather", "linear", 2, 8): (14, 4536, 2304, {"bufcoll": 14}),
    ("Allgather", "linear", 3, 5): (8, 1728, 360, {"bufcoll": 8}),
    ("Allgather", "linear", 3, 8): (14, 4536, 1728, {"bufcoll": 14}),
    ("Gatherv", "tree", None, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", "tree", None, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", "tree", 2, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", "tree", 2, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", "tree", 3, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", "tree", 3, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", "linear", None, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", "linear", None, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", "linear", 2, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", "linear", 2, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", "linear", 3, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", "linear", 3, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", "tree", None, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", "tree", None, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", "tree", 2, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", "tree", 2, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", "tree", 3, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", "tree", 3, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", "linear", None, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", "linear", None, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", "linear", 2, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", "linear", 2, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", "linear", 3, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", "linear", 3, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Reduce", "tree", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", "tree", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", "tree", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", "tree", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", "tree", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", "tree", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", "linear", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", "linear", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", "linear", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", "linear", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", "linear", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", "linear", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Allreduce", "tree", None, 5): (10, 720, 0, {"bufcoll": 10}),
    ("Allreduce", "tree", None, 8): (24, 1728, 0, {"bufcoll": 24}),
    ("Allreduce", "tree", 2, 5): (8, 576, 72, {"bufcoll": 8}),
    ("Allreduce", "tree", 2, 8): (14, 1008, 288, {"bufcoll": 14}),
    ("Allreduce", "tree", 3, 5): (8, 576, 0, {"bufcoll": 8}),
    ("Allreduce", "tree", 3, 8): (14, 1008, 144, {"bufcoll": 14}),
    ("Allreduce", "linear", None, 5): (8, 576, 216, {"bufcoll": 8}),
    ("Allreduce", "linear", None, 8): (14, 1008, 432, {"bufcoll": 14}),
    ("Allreduce", "linear", 2, 5): (8, 576, 72, {"bufcoll": 8}),
    ("Allreduce", "linear", 2, 8): (14, 1008, 288, {"bufcoll": 14}),
    ("Allreduce", "linear", 3, 5): (8, 576, 72, {"bufcoll": 8}),
    ("Allreduce", "linear", 3, 8): (14, 1008, 216, {"bufcoll": 14}),
}


@pytest.mark.parametrize("verb,family,nodes,n", list(GOLDEN))
def test_golden_traffic_table(verb, family, nodes, n):
    config = dataclasses.replace(FAMILIES[family](), nodes=nodes)
    stats = traffic_of(n, VERBS[verb], config)
    got = (stats.messages, stats.payload_bytes, stats.copy_avoided_bytes, stats.by_kind)
    assert got == GOLDEN[verb, family, nodes, n]

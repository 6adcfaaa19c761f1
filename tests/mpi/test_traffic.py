"""Traffic accounting: verifying each schedule's exact message complexity.

These tests pin the message counts — the strongest possible check that
the implemented schedule is the claimed one (a bcast on P ranks delivers
exactly P-1 messages; an allgather exactly 2(P-1)).
"""

import numpy as np
import pytest

from repro.mpi import Op, World
from repro.mpi.executor import run_world
from repro.mpi.world import TrafficStats
from tests.plugins.backend_select import block_node_map


def traffic_of(nprocs, fn, config=None, node_map=None):
    """Run fn on a fresh world; return the traffic it generated."""
    world = World(nprocs, config, node_map)
    run_world(world, [fn] * nprocs)
    return world.traffic_snapshot()


class TestExactMessageCounts:
    """One test per verb: the count its schedule must have.  A rooted
    verb is one message per non-root rank; a symmetric verb is a sweep in
    and a sweep out — and between two ranks the one exchange, which is
    the same two messages in one round trip instead of two."""

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_linear_bcast_sends_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.bcast("x"))
        assert stats.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_gather_sends_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.gather(c.rank))
        assert stats.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_allgather_sends_2_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.allgather(c.rank))
        assert stats.messages == 2 * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_barrier_sends_2_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.barrier())
        assert stats.messages == 2 * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_allreduce_sends_2_p_minus_1(self, n):
        stats = traffic_of(n, lambda c: c.allreduce(1))
        assert stats.messages == 2 * (n - 1)

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
    """The handshake's communication volume — the cost model behind
    experiment E9 (§6).

    On P processes the init exchange costs 4(P-1) messages, and each
    communicator the handshake derives costs one message per member
    besides its leader (size - 1).  A ``world_split`` executable's
    component communicator is its executable communicator; a
    ``Multi_Component`` executable derives its executable communicator,
    then one communicator per component, one at a time."""

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

    @pytest.mark.parametrize(
        "n_components, procs_each, messages",
        [(2, 1, 4), (2, 2, 14), (2, 4, 34), (4, 1, 12), (4, 2, 32), (6, 2, 50)],
    )
    def test_world_split_table(self, n_components, procs_each, messages):
        """SCME: 4(P-1) + n_components * (procs_each - 1)."""
        assert self.handshake_traffic(n_components, procs_each).messages == messages

    @pytest.mark.parametrize(
        "n_components, overlap, messages",
        [(1, True, 18), (2, True, 21), (4, True, 27), (8, True, 39), (4, False, 15)],
        ids=["overlap-1", "overlap-2", "overlap-4", "overlap-8", "disjoint-4"],
    )
    def test_multi_component_table(self, n_components, overlap, messages):
        """One 4-process ``Multi_Component`` executable: 12 for the init
        exchange and 3 for the executable's communicator.  K components
        that all span ranks 0-3 add 3 each, one derivation at a time
        (12 + 3 + 3K); four disjoint one-rank components add nothing."""
        from repro import components_setup, mph_run

        if overlap:
            lines = [f"c{i} 0 3" for i in range(n_components)]
        else:
            lines = [f"c{i} {i} {i}" for i in range(n_components)]
        registry = (
            "BEGIN\nMulti_Component_Begin\n"
            + "\n".join(lines)
            + "\nMulti_Component_End\nEND"
        )
        names = [f"c{i}" for i in range(n_components)]

        def program(world, env):
            return len(components_setup(world, *names, env=env).comp_names())

        result = mph_run([(program, 4)], registry=registry)
        assert result.procs[0].traffic.messages == messages
        assert result.values() == [n_components if overlap else 1] * 4

    def test_linear_in_world_size(self):
        """Every collective of the handshake is a sweep in and a sweep
        out, so with one rank a component each further rank costs the
        same four messages."""
        p4 = self.handshake_traffic(4, 1).messages
        p8 = self.handshake_traffic(8, 1).messages
        assert (p4, p8) == (4 * 3, 4 * 7)


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

#: ``(verb, nodes, P) -> (messages, payload_bytes, copy_avoided_bytes,
#: by_kind)`` of one call on a fresh world.  Buffer-mode and two-level
#: counts and every byte count are what a schedule change can silently
#: move, so every cell is a literal.
GOLDEN = {
    ("bcast", None, 2): (1, 36, 0, {"object": 1}),
    ("bcast", None, 3): (2, 72, 36, {"object": 2}),
    ("bcast", None, 5): (4, 144, 108, {"object": 4}),
    ("bcast", None, 8): (7, 252, 216, {"object": 7}),
    ("bcast", 2, 2): (1, 36, 0, {"object": 1}),
    ("bcast", 2, 3): (2, 72, 36, {"object": 2}),
    ("bcast", 2, 4): (3, 108, 72, {"object": 3}),
    ("bcast", 2, 5): (4, 144, 108, {"object": 4}),
    ("bcast", 2, 8): (7, 252, 216, {"object": 7}),
    ("bcast", 3, 2): (1, 36, 0, {"object": 1}),
    ("bcast", 3, 3): (2, 72, 36, {"object": 2}),
    ("bcast", 3, 5): (4, 144, 108, {"object": 4}),
    ("bcast", 3, 8): (7, 252, 216, {"object": 7}),
    ("gather", None, 2): (1, 5, 0, {"object": 1}),
    ("gather", None, 3): (2, 10, 0, {"object": 2}),
    ("gather", None, 5): (4, 20, 0, {"object": 4}),
    ("gather", None, 8): (7, 35, 0, {"object": 7}),
    ("gather", 2, 2): (1, 5, 0, {"object": 1}),
    ("gather", 2, 3): (2, 10, 0, {"object": 2}),
    ("gather", 2, 4): (3, 15, 0, {"object": 3}),
    ("gather", 2, 5): (4, 20, 0, {"object": 4}),
    ("gather", 2, 8): (7, 35, 0, {"object": 7}),
    ("gather", 3, 2): (1, 5, 0, {"object": 1}),
    ("gather", 3, 3): (2, 10, 0, {"object": 2}),
    ("gather", 3, 5): (4, 20, 0, {"object": 4}),
    ("gather", 3, 8): (7, 35, 0, {"object": 7}),
    ("scatter", None, 2): (1, 5, 0, {"object": 1}),
    ("scatter", None, 3): (2, 10, 0, {"object": 2}),
    ("scatter", None, 5): (4, 20, 0, {"object": 4}),
    ("scatter", None, 8): (7, 35, 0, {"object": 7}),
    ("scatter", 2, 2): (1, 5, 0, {"object": 1}),
    ("scatter", 2, 3): (2, 10, 0, {"object": 2}),
    ("scatter", 2, 4): (3, 15, 0, {"object": 3}),
    ("scatter", 2, 5): (4, 20, 0, {"object": 4}),
    ("scatter", 2, 8): (7, 35, 0, {"object": 7}),
    ("scatter", 3, 2): (1, 5, 0, {"object": 1}),
    ("scatter", 3, 3): (2, 10, 0, {"object": 2}),
    ("scatter", 3, 5): (4, 20, 0, {"object": 4}),
    ("scatter", 3, 8): (7, 35, 0, {"object": 7}),
    ("allgather", None, 2): (2, 10, 0, {"object": 2}),
    ("allgather", None, 3): (4, 54, 22, {"object": 4}),
    ("allgather", None, 5): (8, 124, 78, {"object": 8}),
    ("allgather", None, 8): (14, 259, 192, {"object": 14}),
    ("allgather", 2, 2): (2, 10, 0, {"object": 2}),
    ("allgather", 2, 3): (4, 54, 22, {"object": 4}),
    ("allgather", 2, 4): (6, 87, 48, {"object": 6}),
    ("allgather", 2, 5): (8, 124, 78, {"object": 8}),
    ("allgather", 2, 8): (14, 259, 192, {"object": 14}),
    ("allgather", 3, 2): (2, 10, 0, {"object": 2}),
    ("allgather", 3, 3): (4, 54, 22, {"object": 4}),
    ("allgather", 3, 5): (8, 124, 78, {"object": 8}),
    ("allgather", 3, 8): (14, 259, 192, {"object": 14}),
    ("alltoall", None, 2): (2, 10, 0, {"object": 2}),
    ("alltoall", None, 3): (6, 30, 0, {"object": 6}),
    ("alltoall", None, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", None, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", 2, 2): (2, 10, 0, {"object": 2}),
    ("alltoall", 2, 3): (6, 30, 0, {"object": 6}),
    ("alltoall", 2, 4): (12, 60, 0, {"object": 12}),
    ("alltoall", 2, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", 2, 8): (56, 280, 0, {"object": 56}),
    ("alltoall", 3, 2): (2, 10, 0, {"object": 2}),
    ("alltoall", 3, 3): (6, 30, 0, {"object": 6}),
    ("alltoall", 3, 5): (20, 100, 0, {"object": 20}),
    ("alltoall", 3, 8): (56, 280, 0, {"object": 56}),
    ("reduce", None, 2): (1, 5, 0, {"object": 1}),
    ("reduce", None, 3): (2, 10, 0, {"object": 2}),
    ("reduce", None, 5): (4, 20, 0, {"object": 4}),
    ("reduce", None, 8): (7, 35, 0, {"object": 7}),
    ("reduce", 2, 2): (1, 5, 0, {"object": 1}),
    ("reduce", 2, 3): (2, 10, 0, {"object": 2}),
    ("reduce", 2, 4): (3, 15, 0, {"object": 3}),
    ("reduce", 2, 5): (4, 20, 0, {"object": 4}),
    ("reduce", 2, 8): (7, 35, 0, {"object": 7}),
    ("reduce", 3, 2): (1, 5, 0, {"object": 1}),
    ("reduce", 3, 3): (2, 10, 0, {"object": 2}),
    ("reduce", 3, 5): (4, 20, 0, {"object": 4}),
    ("reduce", 3, 8): (7, 35, 0, {"object": 7}),
    ("allreduce", None, 2): (2, 10, 0, {"object": 2}),
    ("allreduce", None, 3): (4, 20, 5, {"object": 4}),
    ("allreduce", None, 5): (8, 40, 15, {"object": 8}),
    ("allreduce", None, 8): (14, 70, 30, {"object": 14}),
    ("allreduce", 2, 2): (2, 10, 0, {"object": 2}),
    ("allreduce", 2, 3): (4, 20, 0, {"object": 4}),
    ("allreduce", 2, 4): (6, 30, 0, {"object": 6}),
    ("allreduce", 2, 5): (8, 40, 5, {"object": 8}),
    ("allreduce", 2, 8): (14, 70, 20, {"object": 14}),
    ("allreduce", 3, 2): (2, 10, 0, {"object": 2}),
    ("allreduce", 3, 3): (4, 20, 5, {"object": 4}),
    ("allreduce", 3, 5): (8, 40, 15, {"object": 8}),
    ("allreduce", 3, 8): (14, 70, 30, {"object": 14}),
    ("scan", None, 2): (1, 5, 0, {"object": 1}),
    ("scan", None, 3): (2, 10, 0, {"object": 2}),
    ("scan", None, 5): (4, 20, 0, {"object": 4}),
    ("scan", None, 8): (7, 35, 0, {"object": 7}),
    ("scan", 2, 2): (1, 5, 0, {"object": 1}),
    ("scan", 2, 3): (2, 10, 0, {"object": 2}),
    ("scan", 2, 4): (3, 15, 0, {"object": 3}),
    ("scan", 2, 5): (4, 20, 0, {"object": 4}),
    ("scan", 2, 8): (7, 35, 0, {"object": 7}),
    ("scan", 3, 2): (1, 5, 0, {"object": 1}),
    ("scan", 3, 3): (2, 10, 0, {"object": 2}),
    ("scan", 3, 5): (4, 20, 0, {"object": 4}),
    ("scan", 3, 8): (7, 35, 0, {"object": 7}),
    ("exscan", None, 2): (1, 5, 0, {"object": 1}),
    ("exscan", None, 3): (2, 10, 0, {"object": 2}),
    ("exscan", None, 5): (4, 20, 0, {"object": 4}),
    ("exscan", None, 8): (7, 35, 0, {"object": 7}),
    ("exscan", 2, 2): (1, 5, 0, {"object": 1}),
    ("exscan", 2, 3): (2, 10, 0, {"object": 2}),
    ("exscan", 2, 4): (3, 15, 0, {"object": 3}),
    ("exscan", 2, 5): (4, 20, 0, {"object": 4}),
    ("exscan", 2, 8): (7, 35, 0, {"object": 7}),
    ("exscan", 3, 2): (1, 5, 0, {"object": 1}),
    ("exscan", 3, 3): (2, 10, 0, {"object": 2}),
    ("exscan", 3, 5): (4, 20, 0, {"object": 4}),
    ("exscan", 3, 8): (7, 35, 0, {"object": 7}),
    ("reduce_scatter", None, 2): (2, 25, 0, {"object": 2}),
    ("reduce_scatter", None, 3): (4, 54, 0, {"object": 4}),
    ("reduce_scatter", None, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", None, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", 2, 2): (2, 25, 0, {"object": 2}),
    ("reduce_scatter", 2, 3): (4, 54, 0, {"object": 4}),
    ("reduce_scatter", 2, 4): (6, 87, 0, {"object": 6}),
    ("reduce_scatter", 2, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", 2, 8): (14, 259, 0, {"object": 14}),
    ("reduce_scatter", 3, 2): (2, 25, 0, {"object": 2}),
    ("reduce_scatter", 3, 3): (4, 54, 0, {"object": 4}),
    ("reduce_scatter", 3, 5): (8, 124, 0, {"object": 8}),
    ("reduce_scatter", 3, 8): (14, 259, 0, {"object": 14}),
    ("barrier", None, 2): (2, 8, 0, {"object": 2}),
    ("barrier", None, 3): (4, 16, 4, {"object": 4}),
    ("barrier", None, 5): (8, 32, 12, {"object": 8}),
    ("barrier", None, 8): (14, 56, 24, {"object": 14}),
    ("barrier", 2, 2): (2, 8, 0, {"object": 2}),
    ("barrier", 2, 3): (4, 16, 0, {"object": 4}),
    ("barrier", 2, 4): (6, 24, 0, {"object": 6}),
    ("barrier", 2, 5): (8, 32, 4, {"object": 8}),
    ("barrier", 2, 8): (14, 56, 16, {"object": 14}),
    ("barrier", 3, 2): (2, 8, 0, {"object": 2}),
    ("barrier", 3, 3): (4, 16, 4, {"object": 4}),
    ("barrier", 3, 5): (8, 32, 12, {"object": 8}),
    ("barrier", 3, 8): (14, 56, 24, {"object": 14}),
    ("reduce_nc", None, 2): (1, 17, 0, {"object": 1}),
    ("reduce_nc", None, 3): (2, 34, 0, {"object": 2}),
    ("reduce_nc", None, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", None, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", 2, 2): (1, 17, 0, {"object": 1}),
    ("reduce_nc", 2, 3): (2, 34, 0, {"object": 2}),
    ("reduce_nc", 2, 4): (3, 51, 0, {"object": 3}),
    ("reduce_nc", 2, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", 2, 8): (7, 119, 0, {"object": 7}),
    ("reduce_nc", 3, 2): (1, 17, 0, {"object": 1}),
    ("reduce_nc", 3, 3): (2, 34, 0, {"object": 2}),
    ("reduce_nc", 3, 5): (4, 68, 0, {"object": 4}),
    ("reduce_nc", 3, 8): (7, 119, 0, {"object": 7}),
    ("allreduce_nc", None, 2): (2, 34, 0, {"object": 2}),
    ("allreduce_nc", None, 3): (4, 78, 22, {"object": 4}),
    ("allreduce_nc", None, 5): (8, 172, 78, {"object": 8}),
    ("allreduce_nc", None, 8): (14, 343, 192, {"object": 14}),
    ("allreduce_nc", 2, 2): (2, 34, 0, {"object": 2}),
    ("allreduce_nc", 2, 3): (4, 78, 22, {"object": 4}),
    ("allreduce_nc", 2, 4): (6, 123, 48, {"object": 6}),
    ("allreduce_nc", 2, 5): (8, 172, 78, {"object": 8}),
    ("allreduce_nc", 2, 8): (14, 343, 192, {"object": 14}),
    ("allreduce_nc", 3, 2): (2, 34, 0, {"object": 2}),
    ("allreduce_nc", 3, 3): (4, 78, 22, {"object": 4}),
    ("allreduce_nc", 3, 5): (8, 172, 78, {"object": 8}),
    ("allreduce_nc", 3, 8): (14, 343, 192, {"object": 14}),
    ("Bcast", None, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Bcast", None, 3): (2, 144, 72, {"bufcoll": 2}),
    ("Bcast", None, 5): (4, 288, 216, {"bufcoll": 4}),
    ("Bcast", None, 8): (7, 504, 432, {"bufcoll": 7}),
    ("Bcast", 2, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Bcast", 2, 3): (2, 144, 72, {"bufcoll": 2}),
    ("Bcast", 2, 4): (3, 216, 144, {"bufcoll": 3}),
    ("Bcast", 2, 5): (4, 288, 216, {"bufcoll": 4}),
    ("Bcast", 2, 8): (7, 504, 432, {"bufcoll": 7}),
    ("Bcast", 3, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Bcast", 3, 3): (2, 144, 72, {"bufcoll": 2}),
    ("Bcast", 3, 5): (4, 288, 216, {"bufcoll": 4}),
    ("Bcast", 3, 8): (7, 504, 432, {"bufcoll": 7}),
    ("Gather", None, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Gather", None, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Gather", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", 2, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Gather", 2, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Gather", 2, 4): (3, 216, 0, {"bufcoll": 3}),
    ("Gather", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Gather", 3, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Gather", 3, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Gather", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Gather", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", None, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Scatter", None, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Scatter", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", 2, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Scatter", 2, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Scatter", 2, 4): (3, 216, 0, {"bufcoll": 3}),
    ("Scatter", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Scatter", 3, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Scatter", 3, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Scatter", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Scatter", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Allgather", None, 2): (2, 144, 0, {"bufcoll": 2}),
    ("Allgather", None, 3): (4, 576, 216, {"bufcoll": 4}),
    ("Allgather", None, 5): (8, 1728, 1080, {"bufcoll": 8}),
    ("Allgather", None, 8): (14, 4536, 3456, {"bufcoll": 14}),
    ("Allgather", 2, 2): (2, 144, 0, {"bufcoll": 2}),
    ("Allgather", 2, 3): (4, 576, 216, {"bufcoll": 4}),
    ("Allgather", 2, 4): (6, 1080, 576, {"bufcoll": 6}),
    ("Allgather", 2, 5): (8, 1728, 1080, {"bufcoll": 8}),
    ("Allgather", 2, 8): (14, 4536, 3456, {"bufcoll": 14}),
    ("Allgather", 3, 2): (2, 144, 0, {"bufcoll": 2}),
    ("Allgather", 3, 3): (4, 576, 216, {"bufcoll": 4}),
    ("Allgather", 3, 5): (8, 1728, 1080, {"bufcoll": 8}),
    ("Allgather", 3, 8): (14, 4536, 3456, {"bufcoll": 14}),
    ("Gatherv", None, 2): (1, 8, 0, {"bufcoll": 1}),
    ("Gatherv", None, 3): (2, 32, 0, {"bufcoll": 2}),
    ("Gatherv", None, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", None, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", 2, 2): (1, 8, 0, {"bufcoll": 1}),
    ("Gatherv", 2, 3): (2, 32, 0, {"bufcoll": 2}),
    ("Gatherv", 2, 4): (3, 64, 0, {"bufcoll": 3}),
    ("Gatherv", 2, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", 2, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Gatherv", 3, 2): (1, 8, 0, {"bufcoll": 1}),
    ("Gatherv", 3, 3): (2, 32, 0, {"bufcoll": 2}),
    ("Gatherv", 3, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Gatherv", 3, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", None, 2): (1, 8, 0, {"bufcoll": 1}),
    ("Scatterv", None, 3): (2, 32, 0, {"bufcoll": 2}),
    ("Scatterv", None, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", None, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", 2, 2): (1, 8, 0, {"bufcoll": 1}),
    ("Scatterv", 2, 3): (2, 32, 0, {"bufcoll": 2}),
    ("Scatterv", 2, 4): (3, 64, 0, {"bufcoll": 3}),
    ("Scatterv", 2, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", 2, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Scatterv", 3, 2): (1, 8, 0, {"bufcoll": 1}),
    ("Scatterv", 3, 3): (2, 32, 0, {"bufcoll": 2}),
    ("Scatterv", 3, 5): (4, 104, 0, {"bufcoll": 4}),
    ("Scatterv", 3, 8): (7, 272, 0, {"bufcoll": 7}),
    ("Reduce", None, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Reduce", None, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Reduce", None, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", None, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", 2, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Reduce", 2, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Reduce", 2, 4): (3, 216, 0, {"bufcoll": 3}),
    ("Reduce", 2, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", 2, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Reduce", 3, 2): (1, 72, 0, {"bufcoll": 1}),
    ("Reduce", 3, 3): (2, 144, 0, {"bufcoll": 2}),
    ("Reduce", 3, 5): (4, 288, 0, {"bufcoll": 4}),
    ("Reduce", 3, 8): (7, 504, 0, {"bufcoll": 7}),
    ("Allreduce", None, 2): (2, 144, 0, {"bufcoll": 2}),
    ("Allreduce", None, 3): (4, 288, 72, {"bufcoll": 4}),
    ("Allreduce", None, 5): (8, 576, 216, {"bufcoll": 8}),
    ("Allreduce", None, 8): (14, 1008, 432, {"bufcoll": 14}),
    ("Allreduce", 2, 2): (2, 144, 0, {"bufcoll": 2}),
    ("Allreduce", 2, 3): (4, 288, 0, {"bufcoll": 4}),
    ("Allreduce", 2, 4): (6, 432, 0, {"bufcoll": 6}),
    ("Allreduce", 2, 5): (8, 576, 72, {"bufcoll": 8}),
    ("Allreduce", 2, 8): (14, 1008, 288, {"bufcoll": 14}),
    ("Allreduce", 3, 2): (2, 144, 0, {"bufcoll": 2}),
    ("Allreduce", 3, 3): (4, 288, 72, {"bufcoll": 4}),
    ("Allreduce", 3, 5): (8, 576, 216, {"bufcoll": 8}),
    ("Allreduce", 3, 8): (14, 1008, 432, {"bufcoll": 14}),
}


def _cells():
    """One param per cell — and, for the cells that were pinned once per
    algorithm family before there was one schedule, one under each of
    the two ids the test floor knows them by."""
    for verb, nodes, n in GOLDEN:
        labels = ["tree-", "linear-"] if n in (5, 8) else [""]
        for label in labels:
            yield pytest.param(verb, nodes, n, id=f"{verb}-{label}{nodes}-{n}")


@pytest.mark.parametrize("verb,nodes,n", _cells())
def test_golden_traffic_table(verb, nodes, n):
    stats = traffic_of(n, VERBS[verb], node_map=block_node_map(n, nodes))
    got = (stats.messages, stats.payload_bytes, stats.copy_avoided_bytes, stats.by_kind)
    assert got == GOLDEN[verb, nodes, n]

"""Property-based equivalence: buffer-mode collectives must agree with
their object-mode twins for arbitrary shapes, sizes and roots, on one node
and over two."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MAX, MIN, SUM, run_spmd
from tests.plugins.backend_select import block_node_map

PROP = dict(max_examples=20, deadline=None)

sizes = st.integers(1, 5)
shapes = st.sampled_from([(3,), (2, 2), (1, 4), (2, 3, 2)])
node_counts = st.sampled_from([None, 2])
ops = st.sampled_from([SUM, MAX, MIN])


def payload(rank: int, shape: tuple, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed * 100 + rank)
    return rng.integers(-50, 50, size=shape).astype(float)


class TestBufferObjectEquivalence:
    @given(n=sizes, shape=shapes, seed=st.integers(0, 999), nodes=node_counts)
    @settings(**PROP)
    def test_bcast(self, n, shape, seed, nodes):
        def main(comm):
            data = payload(0, shape, seed)
            obj = comm.bcast(data if comm.rank == 0 else None)
            buf = data.copy() if comm.rank == 0 else np.zeros(shape)
            comm.Bcast(buf)
            return np.array_equal(obj, buf)

        assert all(run_spmd(n, main, node_map=block_node_map(n, nodes)))

    @given(n=sizes, shape=shapes, seed=st.integers(0, 999), nodes=node_counts, op=ops)
    @settings(**PROP)
    def test_allreduce(self, n, shape, seed, nodes, op):
        def main(comm):
            data = payload(comm.rank, shape, seed)
            obj = comm.allreduce(data, op=op)
            buf = comm.Allreduce(data, op=op)
            return np.array_equal(obj, buf)

        assert all(run_spmd(n, main, node_map=block_node_map(n, nodes)))

    @given(n=sizes, shape=shapes, seed=st.integers(0, 999), nodes=node_counts)
    @settings(**PROP)
    def test_gather_matches_stack(self, n, shape, seed, nodes):
        def main(comm):
            data = payload(comm.rank, shape, seed)
            obj = comm.gather(data)
            buf = comm.Gather(data)
            if comm.rank != 0:
                return obj is None and buf is None
            return np.array_equal(np.stack(obj), buf)

        assert all(run_spmd(n, main, node_map=block_node_map(n, nodes)))

    @given(n=sizes, shape=shapes, seed=st.integers(0, 999), nodes=node_counts)
    @settings(**PROP)
    def test_allgather_matches_stack(self, n, shape, seed, nodes):
        def main(comm):
            data = payload(comm.rank, shape, seed)
            obj = np.stack(comm.allgather(data))
            buf = comm.Allgather(data)
            return np.array_equal(obj, buf)

        assert all(run_spmd(n, main, node_map=block_node_map(n, nodes)))

    @given(n=sizes, seed=st.integers(0, 999), nodes=node_counts)
    @settings(**PROP)
    def test_scatter_roundtrip(self, n, seed, nodes):
        def main(comm):
            stacked = None
            if comm.rank == 0:
                stacked = np.stack([payload(r, (4,), seed) for r in range(comm.size)])
            recv = np.zeros(4)
            comm.Scatter(stacked, recv)
            return np.array_equal(recv, payload(comm.rank, (4,), seed))

        assert all(run_spmd(n, main, node_map=block_node_map(n, nodes)))


class TestGridChannelProperties:
    @given(
        messages=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=20
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_per_destination_fifo(self, messages):
        """Messages to one (component, rank, tag) address always collect
        in posting order, whatever else is interleaved."""
        from repro.grid import GridChannel

        ch = GridChannel(["a", "b"])
        sent: dict[tuple, list[int]] = {}
        for i, (rank, tag) in enumerate(messages):
            ch.post("a", "b", "comp", rank, tag, i)
            sent.setdefault((rank, tag), []).append(i)
        for (rank, tag), expected in sent.items():
            got = [ch.collect("b", "comp", rank, tag=tag, timeout=1)[0] for _ in expected]
            assert got == expected

"""Property-based tests: collective results must equal their sequential
specification for arbitrary payloads, sizes and roots — and, below, a pure
model of the documented fold order, bit for bit."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MAX, MIN, SUM, Op, run_spmd
from tests.plugins.backend_select import block_node_map

# Keep worlds small: each example spins up real threads.
sizes = st.integers(min_value=1, max_value=6)
payload_lists = st.lists(st.integers(-1_000_000, 1_000_000), min_size=6, max_size=6)

PROP_SETTINGS = dict(max_examples=25, deadline=None)


class TestReductionProperties:
    @given(n=sizes, contributions=payload_lists)
    @settings(**PROP_SETTINGS)
    def test_allreduce_sum_equals_python_sum(self, n, contributions):
        def main(comm):
            return comm.allreduce(contributions[comm.rank])

        expected = sum(contributions[:n])
        assert run_spmd(n, main) == [expected] * n

    @given(n=sizes, contributions=payload_lists)
    @settings(**PROP_SETTINGS)
    def test_tree_and_linear_allreduce_agree(self, n, contributions):
        """The two shapes of the star — two-deep over two nodes, flat on
        one — fold to the same value (the model below pins the bits)."""

        def main(comm):
            return comm.allreduce(contributions[comm.rank])

        assert run_spmd(n, main, node_map=block_node_map(n, 2)) == run_spmd(n, main)

    @given(n=sizes, contributions=payload_lists, root_seed=st.integers(0, 100))
    @settings(**PROP_SETTINGS)
    def test_reduce_max_min_any_root(self, n, contributions, root_seed):
        root = root_seed % n

        def main(comm):
            return (
                comm.reduce(contributions[comm.rank], op=MAX, root=root),
                comm.reduce(contributions[comm.rank], op=MIN, root=root),
            )

        values = run_spmd(n, main)
        assert values[root] == (max(contributions[:n]), min(contributions[:n]))

    @given(n=sizes, contributions=payload_lists)
    @settings(**PROP_SETTINGS)
    def test_scan_prefix_property(self, n, contributions):
        def main(comm):
            return comm.scan(contributions[comm.rank], op=SUM)

        values = run_spmd(n, main)
        for r in range(n):
            assert values[r] == sum(contributions[: r + 1])


class TestDataMovementProperties:
    @given(n=sizes, contributions=payload_lists, root_seed=st.integers(0, 100))
    @settings(**PROP_SETTINGS)
    def test_bcast_delivers_root_value(self, n, contributions, root_seed):
        root = root_seed % n

        def main(comm):
            return comm.bcast(contributions[comm.rank] if comm.rank == root else None, root=root)

        assert run_spmd(n, main) == [contributions[root]] * n

    @given(n=sizes, contributions=payload_lists)
    @settings(**PROP_SETTINGS)
    def test_allgather_equals_contribution_list(self, n, contributions):
        def main(comm):
            return comm.allgather(contributions[comm.rank])

        assert run_spmd(n, main) == [contributions[:n]] * n

    @given(n=sizes, contributions=payload_lists)
    @settings(**PROP_SETTINGS)
    def test_gather_scatter_roundtrip(self, n, contributions):
        def main(comm):
            gathered = comm.gather(contributions[comm.rank])
            return comm.scatter(gathered)

        assert run_spmd(n, main) == contributions[:n]

    @given(n=st.integers(1, 5))
    @settings(**PROP_SETTINGS)
    def test_alltoall_is_transpose(self, n):
        def main(comm):
            matrix_row = [(comm.rank, d) for d in range(comm.size)]
            return comm.alltoall(matrix_row)

        values = run_spmd(n, main)
        for r in range(n):
            assert values[r] == [(s, r) for s in range(n)]


class TestArrayReductionProperties:
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_array_allreduce_matches_numpy(self, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-100, 100, size=(n, 5))

        def main(comm):
            return comm.allreduce(data[comm.rank])

        values = run_spmd(n, main)
        for got in values:
            np.testing.assert_array_equal(got, data[:n].sum(axis=0))


# ---------------------------------------------------------------------------
# The reference is a model, not another schedule
# ---------------------------------------------------------------------------

#: Neither commutative nor associative: only the exact left fold in rank
#: order produces the model's bits (or its list).
MINUS = Op(operator.sub, "minus", commutative=False)
CONCAT = Op(operator.add, "concat", commutative=False)


def _float(rank: int) -> float:
    """Magnitudes spread over sixteen decades, so a fold that associates
    differently from the model differs from it in the low bits."""
    return (-1.0) ** rank * 10.0 ** ((rank * 5) % 17 - 8) + rank / 7.0


def _array(rank: int) -> np.ndarray:
    return np.array([_float(rank), _float(rank + 3) * 3.0, -_float(rank)])


def _fold(op, values):
    return functools.reduce(op, values)


class TestSequentialModel:
    """Every reduction is ``functools.reduce(op, values_in_rank_order)``
    and every gather the plain list — on one node bit for bit, for every
    root, with an operator that punishes any other order."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_node_fold_is_the_rank_order_fold_bitwise(self, n):
        def main(comm):
            v, arr = _float(comm.rank), _array(comm.rank)
            roots = range(comm.size)
            return dict(
                reduce=[comm.reduce(v, op=SUM, root=r) for r in roots],
                reduce_nc=[comm.reduce(v, op=MINUS, root=r) for r in roots],
                Reduce=[comm.Reduce(arr, op=SUM, root=r) for r in roots],
                Reduce_nc=[comm.Reduce(arr, op=MINUS, root=r) for r in roots],
                allreduce=comm.allreduce(v),
                allreduce_nc=comm.allreduce(v, op=MINUS),
                Allreduce=comm.Allreduce(arr),
                Allreduce_nc=comm.Allreduce(arr, op=MINUS),
                scan=comm.scan(v),
                gather=[comm.gather(v, root=r) for r in roots],
                allgather=comm.allgather(v),
                Allgather=comm.Allgather(arr),
            )

        floats = [_float(r) for r in range(n)]
        arrays = [_array(r) for r in range(n)]
        total, total_nc = _fold(operator.add, floats), _fold(operator.sub, floats)
        Total, Total_nc = _fold(operator.add, arrays), _fold(operator.sub, arrays)
        for rank, got in enumerate(run_spmd(n, main)):
            for root in range(n):
                here = rank == root
                assert got["reduce"][root] == (total if here else None)
                assert got["reduce_nc"][root] == (total_nc if here else None)
                assert got["gather"][root] == (floats if here else None)
                for name, want in (("Reduce", Total), ("Reduce_nc", Total_nc)):
                    if here:
                        assert got[name][root].tobytes() == want.tobytes(), name
                    else:
                        assert got[name][root] is None
            assert got["allreduce"] == total
            assert got["allreduce_nc"] == total_nc
            assert got["Allreduce"].tobytes() == Total.tobytes()
            assert got["Allreduce_nc"].tobytes() == Total_nc.tobytes()
            assert got["scan"] == _fold(operator.add, floats[: rank + 1])
            assert got["allgather"] == floats
            assert got["Allgather"].tobytes() == np.stack(arrays).tobytes()

    @pytest.mark.parametrize("nodes", [2, 3])
    def test_subcommunicators_that_interleave_nodes(self, nodes):
        """Two sub-communicators of a 9-rank world whose rank order hops
        between the nodes.  Across nodes the documented order is: each
        node's members in ascending rank, then the node partials in node
        order — and plain rank order for a non-commutative operator."""
        n = 9
        node_map = block_node_map(n, nodes)

        def main(world):
            sub = world.split(world.rank % 2, key=(world.rank * 4) % n)
            v = _float(world.rank)
            roots = range(sub.size)
            out = dict(
                members=sub.allgather(world.rank),
                reduce=[sub.reduce(v, root=r) for r in roots],
                reduce_nc=[sub.reduce([world.rank], op=CONCAT, root=r) for r in roots],
                allreduce=sub.allreduce(v),
                allreduce_nc=sub.allreduce([world.rank], op=CONCAT),
                Allreduce=sub.Allreduce(_array(world.rank)),
                bcast=[sub.bcast(world.rank if sub.rank == r else None, root=r) for r in roots],
                gather=[sub.gather(world.rank, root=r) for r in roots],
                Allgather=sub.Allgather(_array(world.rank)),
            )
            sub.barrier()
            sub.free()
            return out

        results = run_spmd(n, main, node_map=node_map)
        for color in (0, 1):
            members = results[color]["members"]
            assert sorted(members) == list(range(color, n, 2))
            nodes_in_order = [node_map[w] for w in members]
            assert nodes_in_order != sorted(nodes_in_order), "members must interleave nodes"

            def model(value_of):
                partials = [
                    _fold(operator.add, [value_of(w) for w in members if node_map[w] == node])
                    for node in sorted(set(nodes_in_order))
                ]
                return _fold(operator.add, partials)

            total, Total = model(_float), model(_array)
            for sub_rank, world_rank in enumerate(members):
                got = results[world_rank]
                assert got["members"] == members
                for root in range(len(members)):
                    here = sub_rank == root
                    assert got["reduce"][root] == (total if here else None)
                    assert got["reduce_nc"][root] == (members if here else None)
                    assert got["gather"][root] == (members if here else None)
                assert got["allreduce"] == total
                assert got["allreduce_nc"] == members
                assert got["Allreduce"].tobytes() == Total.tobytes()
                assert got["bcast"] == members
                assert got["Allgather"].tobytes() == np.stack([_array(w) for w in members]).tobytes()

"""The node map and the node-aware shape of the collectives.

A world's ``node_map`` says which node each rank is on — where the
launcher placed it; ``CommHierarchy`` derives from it the leader
structure a communicator's star needs once it spans nodes (node-mates
talk to one representative, representatives to the root — the MPICH-G2
rule that a collective crosses a slow link once).

The correctness bar for the two-deep star is *bit-identical results to
the flat one* on every communicator shape: sizes that are prime, powers
of two, smaller than the node count; roots on and off the leader set;
subset communicators that land entirely on one node (where the hierarchy
must disable itself).  The sweep below checks a world over several nodes
against the same world on one node for every collective on both the
object and buffer paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import World, reduce_ops as ops
from repro.mpi.executor import run_spmd
from repro.mpi.reduce_ops import Op
from repro.mpi.topology import CommHierarchy
from tests.plugins.backend_select import block_node_map


# ---------------------------------------------------------------------------
# The node map: one node id per world rank, or None for one node
# ---------------------------------------------------------------------------


class TestNodeMap:
    def test_one_node_without_a_map(self):
        assert World(8).node_map is None

    def test_world_keeps_the_map_it_is_given(self):
        world = World(4, node_map=[3, 3, 7, 7])
        assert world.node_map == (3, 3, 7, 7)

    @pytest.mark.parametrize(
        "node_map",
        [(0, 0, 1), (0, 0, 1, 1, 1), 2, (0, 0, 1.0, 1), (0, True, 1, 1), "0011"],
        ids=["short", "long", "a-count", "float-id", "bool-id", "string"],
    )
    def test_unusable_map_refused(self, node_map):
        with pytest.raises(ValueError, match="node_map"):
            World(4, node_map=node_map)
        with pytest.raises(ValueError, match="node_map"):
            run_spmd(4, lambda comm: None, node_map=node_map, timeout=10)

    def test_node_ids_need_not_be_contiguous(self):
        """A machine names its nodes; the star asks only which ranks
        share one, and takes the leaders in node order."""

        def probe(comm):
            h = comm._hierarchy()
            return h.nnodes, h.leaders, comm.allreduce(comm.rank + 1)

        assert run_spmd(4, probe, node_map=(9, 9, 4, 4), timeout=30) == [(2, (2, 0), 10)] * 4


# ---------------------------------------------------------------------------
# CommHierarchy: leader structure over a member list
# ---------------------------------------------------------------------------


def _hierarchy(node_map, world_ranks):
    return CommHierarchy([node_map[w] for w in world_ranks])


class TestCommHierarchy:
    def test_leaders_are_lowest_rank_per_node(self):
        h = _hierarchy(block_node_map(8, 2), list(range(8)))
        assert h.leaders == (0, 4)
        assert h.members(6) == (4, 5, 6, 7)
        assert h.leader(6) == 4
        assert h.local(6) == 2

    def test_subset_comm(self):
        h = _hierarchy(block_node_map(8, 2), [0, 1, 4, 5])
        assert h.nnodes == 2
        assert h.leaders == (0, 2)  # comm-rank space
        assert h.members(3) == (2, 3)
        assert h.leader(3) == 2
        assert h.local(3) == 1

    def test_effective_leaders_promotes_root(self):
        h = _hierarchy(block_node_map(8, 2), [0, 1, 4, 5])
        # root already a leader: unchanged
        leaders, pos = h.effective_leaders(0)
        assert (leaders, pos) == ([0, 2], 0)
        # non-leader root replaces its node's leader
        leaders, pos = h.effective_leaders(3)
        assert (leaders, pos) == ([0, 3], 1)

    def test_single_node_comm(self):
        h = _hierarchy(block_node_map(8, 2), [4, 5, 6])
        assert h.nnodes == 1
        assert h.leaders == (0,)

    def test_same_node_query(self):
        h = _hierarchy(block_node_map(4, 2), list(range(4)))
        assert h.same_node(0, 1)
        assert not h.same_node(1, 2)


# ---------------------------------------------------------------------------
# Hierarchical vs flat: identical results on the thread backend
# ---------------------------------------------------------------------------


CONCAT = Op(lambda a, b: a + b, "concat", commutative=False)


def _collective_battery(comm):
    """Run every collective shape once; return a comparable result dict."""
    r, n = comm.rank, comm.size
    out = {}
    for root in (0, n - 1, n // 2):
        out[f"bcast_{root}"] = comm.bcast(
            {"root": root, "arr": np.arange(50) * root} if r == root else None,
            root=root,
        )
        out[f"reduce_{root}"] = comm.reduce((r + 1) ** 2, op=ops.SUM, root=root)
        out[f"reduce_max_{root}"] = comm.reduce(
            (r * 7) % n, op=ops.MAX, root=root
        )
        out[f"ncreduce_{root}"] = comm.reduce([r], op=CONCAT, root=root)
    out["allreduce"] = comm.allreduce(r + 1, op=ops.PROD)
    out["allreduce_min"] = comm.allreduce(n - r, op=ops.MIN)
    comm.barrier()
    # buffer path
    rb = np.empty(33)
    comm.Allreduce(np.full(33, float(r + 1)), rb, op=ops.SUM)
    out["Allreduce"] = rb.copy()
    for root in (0, n - 1):
        buf = (
            np.arange(17, dtype=np.int64) * 3
            if r == root
            else np.zeros(17, dtype=np.int64)
        )
        comm.Bcast(buf, root=root)
        out[f"Bcast_{root}"] = buf.copy()
        recv = np.empty(9) if r == root else None
        comm.Reduce(np.full(9, float(r)), recv, op=ops.SUM, root=root)
        out[f"Reduce_{root}"] = None if recv is None else recv.copy()
    comm.barrier()
    # split: a sub-communicator confined to "one node" must still work
    color = 0 if r < (n + 1) // 2 else 1
    sub = comm.split(color, key=r)
    out["sub_allreduce"] = sub.allreduce(r, op=ops.SUM)
    sub.free()
    return out


def _assert_same(flat, hier):
    assert flat.keys() == hier.keys()
    for k in flat:
        f, h = flat[k], hier[k]
        if isinstance(f, np.ndarray):
            np.testing.assert_array_equal(f, h, err_msg=k)
        elif isinstance(f, dict):
            assert f.keys() == h.keys(), k
            for kk in f:
                if isinstance(f[kk], np.ndarray):
                    np.testing.assert_array_equal(f[kk], h[kk], err_msg=k)
                else:
                    assert f[kk] == h[kk], k
        else:
            assert f == h, k


@pytest.mark.parametrize("size", [3, 4, 5, 7, 8])
@pytest.mark.parametrize("nodes", [2, 3])
def test_hierarchical_matches_flat(size, nodes):
    flat = run_spmd(size, _collective_battery, timeout=60)
    hier = run_spmd(size, _collective_battery, node_map=block_node_map(size, nodes), timeout=60)
    for f, h in zip(flat, hier):
        _assert_same(f, h)


def test_hierarchy_disabled_on_single_node():
    """One node (no node map, the default) must never engage the
    two-level paths."""

    def probe(comm):
        return comm._hierarchy()

    assert run_spmd(4, probe, timeout=30) == [None] * 4


def test_hierarchy_engages_with_nodes():
    def probe(comm):
        h = comm._hierarchy()
        return None if h is None else (h.nnodes, h.leaders)

    got = run_spmd(4, probe, node_map=block_node_map(4, 2), timeout=30)
    assert got == [(2, (0, 2))] * 4


def test_hierarchy_skips_tiny_comms():
    """size <= 2 gains nothing from two-level structure."""

    def probe(comm):
        return comm._hierarchy()

    assert run_spmd(2, probe, node_map=block_node_map(2, 2), timeout=30) == [
        None,
        None,
    ]


def test_single_node_subcomm_goes_flat():
    """A split communicator living on one simulated node must not build
    a hierarchy (its inter-node phase would be empty)."""

    def probe(comm):
        color = 0 if comm.rank < 4 else 1
        sub = comm.split(color, key=comm.rank)
        h = sub._hierarchy()
        result = h is None
        sub.free()
        return result

    got = run_spmd(8, probe, node_map=block_node_map(8, 2), timeout=30)
    assert got == [True] * 8

"""Topology model and the node-aware shape of the collectives.

``Topology`` maps ranks onto simulated nodes; ``CommHierarchy`` derives
the leader structure a communicator's star needs once it spans nodes
(node-mates talk to one representative, representatives to the root —
the MPICH-G2 rule that a collective crosses a slow link once).

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

from repro.mpi import WorldConfig, reduce_ops as ops
from repro.mpi.executor import run_spmd
from repro.mpi.reduce_ops import Op
from repro.mpi.topology import CommHierarchy, Topology


# ---------------------------------------------------------------------------
# Topology: rank → node mapping
# ---------------------------------------------------------------------------


class TestTopology:
    def test_single_node_default(self):
        topo = Topology(8)
        assert topo.nnodes == 1
        assert all(topo.node_of(r) == 0 for r in range(8))
        assert topo.same_node(0, 7)

    def test_block_distribution(self):
        topo = Topology(8, nnodes=2)
        assert [topo.node_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert topo.same_node(1, 3)
        assert not topo.same_node(3, 4)

    def test_uneven_blocks(self):
        topo = Topology(5, nnodes=2)
        nodes = [topo.node_of(r) for r in range(5)]
        assert nodes == sorted(nodes), "block distribution must be contiguous"
        assert set(nodes) == {0, 1}

    def test_nnodes_clamped_to_nprocs(self):
        topo = Topology(3, nnodes=8)
        assert topo.nnodes == 3
        assert [topo.node_of(r) for r in range(3)] == [0, 1, 2]

    def test_node_ranks_partition(self):
        topo = Topology(9, nnodes=3)
        all_ranks = []
        for n in range(topo.nnodes):
            all_ranks.extend(topo.node_ranks(n))
        assert sorted(all_ranks) == list(range(9))

    def test_from_config(self):
        topo = Topology.from_config(6, WorldConfig(nodes=3))
        assert topo.nnodes == 3
        flat = Topology.from_config(6, WorldConfig())
        assert flat.nnodes == 1


# ---------------------------------------------------------------------------
# CommHierarchy: leader structure over a member list
# ---------------------------------------------------------------------------


class TestCommHierarchy:
    def test_leaders_are_lowest_rank_per_node(self):
        topo = Topology(8, nnodes=2)
        h = CommHierarchy.from_topology(topo, list(range(8)))
        assert h.leaders == (0, 4)
        assert h.members(6) == (4, 5, 6, 7)
        assert h.leader(6) == 4
        assert h.local(6) == 2

    def test_subset_comm(self):
        topo = Topology(8, nnodes=2)
        h = CommHierarchy.from_topology(topo, [0, 1, 4, 5])
        assert h.nnodes == 2
        assert h.leaders == (0, 2)  # comm-rank space
        assert h.members(3) == (2, 3)
        assert h.leader(3) == 2
        assert h.local(3) == 1

    def test_effective_leaders_promotes_root(self):
        topo = Topology(8, nnodes=2)
        h = CommHierarchy.from_topology(topo, [0, 1, 4, 5])
        # root already a leader: unchanged
        leaders, pos = h.effective_leaders(0)
        assert (leaders, pos) == ([0, 2], 0)
        # non-leader root replaces its node's leader
        leaders, pos = h.effective_leaders(3)
        assert (leaders, pos) == ([0, 3], 1)

    def test_single_node_comm(self):
        topo = Topology(8, nnodes=2)
        h = CommHierarchy.from_topology(topo, [4, 5, 6])
        assert h.nnodes == 1
        assert h.leaders == (0,)

    def test_same_node_query(self):
        topo = Topology(4, nnodes=2)
        h = CommHierarchy.from_topology(topo, list(range(4)))
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
    flat = run_spmd(size, _collective_battery, config=WorldConfig(), timeout=60)
    hier = run_spmd(size, _collective_battery, config=WorldConfig(nodes=nodes), timeout=60)
    for f, h in zip(flat, hier):
        _assert_same(f, h)


def test_hierarchy_disabled_on_single_node():
    """nodes=1 (the default) must never engage the two-level paths."""

    def probe(comm):
        return comm._hierarchy()

    assert run_spmd(4, probe, config=WorldConfig(), timeout=30) == [None] * 4


def test_hierarchy_engages_with_nodes():
    def probe(comm):
        h = comm._hierarchy()
        return None if h is None else (h.nnodes, h.leaders)

    got = run_spmd(4, probe, config=WorldConfig(nodes=2), timeout=30)
    assert got == [(2, (0, 2))] * 4


def test_hierarchy_skips_tiny_comms():
    """size <= 2 gains nothing from two-level structure."""

    def probe(comm):
        return comm._hierarchy()

    assert run_spmd(2, probe, config=WorldConfig(nodes=2), timeout=30) == [
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

    got = run_spmd(8, probe, config=WorldConfig(nodes=2), timeout=30)
    assert got == [True] * 8

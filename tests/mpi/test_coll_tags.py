"""Collective tag arithmetic: no collisions between composed phases.

Composed collectives (allgather, allreduce, the barrier and
``reduce_scatter``) run a second phase on ``tag + 1``.  Base tags advance
in strides of ``_COLL_TAG_STRIDE`` per collective call, so back-to-back
collectives on one communicator stay disjoint as long as the largest
sub-tag offset any composition uses (``MAX_TAG_OFFSET``) is below the
stride.  These tests pin the inequality and exercise the interleavings
that would break first if it ever regressed.
"""

import numpy as np
import pytest

from repro.mpi import collectives
from repro.mpi.comm import _COLL_TAG_STRIDE
from tests.plugins.backend_select import block_node_map

#: Both shapes of the star must survive back-to-back composed
#: collectives: one node (a sweep is one hop) and two (a representative
#: relays on the same tag it received on).  The keys are the names the
#: test floor knows the two legs by; the values are node counts.
NODES = {"linear": None, "tree": 2}


def test_max_offset_below_stride():
    """The audited invariant: composed sub-tags can never reach the next
    collective's base tag."""
    assert collectives.MAX_TAG_OFFSET < _COLL_TAG_STRIDE


def test_source_audit_of_tag_offsets():
    """No composition in collectives.py uses an offset beyond the audited
    maximum (catches a future `tag + 2` slipping in unreviewed)."""
    import inspect
    import re

    src = inspect.getsource(collectives)
    offsets = [int(m) for m in re.findall(r"tag \+ (\d+)", src)]
    assert offsets, "expected composed collectives to use tag offsets"
    assert max(offsets) <= collectives.MAX_TAG_OFFSET


@pytest.mark.parametrize("name", list(NODES))
class TestBackToBackCollectives:
    """Interleave composed collectives so a tag collision would misroute
    a phase-two message into the next collective."""

    def test_allgather_then_allgather(self, spmd, name):
        def prog(comm):
            a = comm.allgather(("first", comm.rank))
            b = comm.allgather(("second", comm.rank * 10))
            return a, b

        for a, b in spmd(5, prog, node_map=block_node_map(5, NODES[name])):
            assert a == [("first", r) for r in range(5)]
            assert b == [("second", r * 10) for r in range(5)]

    def test_allreduce_then_allgather(self, spmd, name):
        def prog(comm):
            total = comm.allreduce(comm.rank + 1)
            gathered = comm.allgather(total)
            return total, gathered

        for total, gathered in spmd(4, prog, node_map=block_node_map(4, NODES[name])):
            assert total == 10
            assert gathered == [10, 10, 10, 10]

    def test_reduce_scatter_then_reduce_scatter(self, spmd, name):
        def prog(comm):
            first = comm.reduce_scatter([comm.rank] * comm.size)
            second = comm.reduce_scatter([1] * comm.size)
            return first, second

        for first, second in spmd(4, prog, node_map=block_node_map(4, NODES[name])):
            assert first == 6  # sum of ranks 0..3
            assert second == 4

    def test_barrier_sandwich(self, spmd, name):
        def prog(comm):
            comm.barrier()
            total = comm.allreduce(np.arange(3.0) * comm.rank)
            comm.barrier()
            return total.tolist()

        expected = (np.arange(3.0) * sum(range(4))).tolist()
        assert spmd(4, prog, node_map=block_node_map(4, NODES[name])) == [expected] * 4

    def test_rapid_mixed_sequence(self, spmd, name):
        """A dense burst of every composed collective back to back."""

        def prog(comm):
            out = []
            for step in range(3):
                out.append(comm.allgather((step, comm.rank)))
                out.append(comm.allreduce(step))
                comm.barrier()
                out.append(comm.reduce_scatter(list(range(comm.size))))
            return out

        results = spmd(3, prog, node_map=block_node_map(3, NODES[name]))
        for rank, out in enumerate(results):
            for step in range(3):
                assert out[3 * step] == [(step, r) for r in range(3)]
                assert out[3 * step + 1] == step * 3
                assert out[3 * step + 2] == rank * 3

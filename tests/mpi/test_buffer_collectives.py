"""Buffer-mode (numpy) collectives, on one node and over two."""

import numpy as np
import pytest

from repro.errors import CommError, TruncationError
from repro.mpi import MAX, SUM, Op, WorldConfig

#: Flat star and two-deep star (see test_collectives.py); the ids are the
#: names the test floor knows the two legs by.
STARS = [WorldConfig(), WorldConfig(nodes=2)]
STAR_IDS = ["linear-family", "tree-family"]
SIZES = [1, 2, 3, 4, 5, 8]


@pytest.mark.parametrize("config", STARS, ids=STAR_IDS)
class TestBcastBuffer:
    @pytest.mark.parametrize("n", SIZES)
    def test_in_place_broadcast(self, leg_spmd, config, n):
        def main(comm):
            buf = np.arange(6, dtype=float) if comm.rank == 0 else np.zeros(6)
            comm.Bcast(buf, root=0)
            return buf.tolist()

        assert leg_spmd(n, main, config=config) == [list(map(float, range(6)))] * n

    @pytest.mark.parametrize("n", [3, 5])
    def test_nonzero_root(self, leg_spmd, config, n):
        def main(comm):
            buf = np.full(4, 7.0) if comm.rank == n - 1 else np.zeros(4)
            comm.Bcast(buf, root=n - 1)
            return float(buf.sum())

        assert leg_spmd(n, main, config=config) == [28.0] * n

    def test_2d_buffers(self, leg_spmd, config):
        def main(comm):
            buf = np.eye(3) if comm.rank == 0 else np.zeros((3, 3))
            comm.Bcast(buf)
            return float(buf.trace())

        assert leg_spmd(4, main, config=config) == [3.0] * 4

    def test_shape_mismatch_detected(self, leg_spmd, config):
        def main(comm):
            buf = np.zeros(4) if comm.rank == 0 else np.zeros(2)
            comm.Bcast(buf)

        with pytest.raises(TruncationError):
            leg_spmd(2, main, config=config)

    def test_uncastable_dtype_detected(self, leg_spmd, config):
        def main(comm):
            buf = np.full(4, 1.5) if comm.rank == 0 else np.zeros(4, dtype=np.int32)
            comm.Bcast(buf)

        with pytest.raises(TruncationError, match="Bcast.*float64.*int32"):
            leg_spmd(3, main, config=config)

    def test_same_kind_cast_still_accepted(self, leg_spmd, config):
        """What ``np.copyto`` accepts (``same_kind``) is not an error."""

        def main(comm):
            if comm.rank == 0:
                buf = np.arange(4, dtype=np.int64)
            else:
                buf = np.zeros(4, dtype=np.float32)
            comm.Bcast(buf)
            return buf.tolist()

        assert leg_spmd(3, main, config=config) == [[0.0, 1.0, 2.0, 3.0]] * 3


@pytest.mark.parametrize("config", STARS, ids=STAR_IDS)
class TestGatherScatterBuffer:
    @pytest.mark.parametrize("n", SIZES)
    def test_gather_stacks_blocks(self, leg_spmd, config, n):
        def main(comm):
            block = np.full(3, float(comm.rank))
            out = comm.Gather(block)
            return None if out is None else out[:, 0].tolist()

        values = leg_spmd(n, main, config=config)
        assert values[0] == [float(r) for r in range(n)]
        assert all(v is None for v in values[1:])

    def test_gather_into_supplied_recvbuf(self, leg_spmd, config):
        def main(comm):
            block = np.array([comm.rank], dtype=float)
            recv = np.zeros((comm.size, 1)) if comm.rank == 0 else None
            out = comm.Gather(block, recv)
            return None if out is None else (out is recv, out.ravel().tolist())

        assert leg_spmd(3, main, config=config)[0] == (True, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("n", SIZES)
    def test_scatter(self, leg_spmd, config, n):
        def main(comm):
            send = None
            if comm.rank == 0:
                send = np.arange(comm.size * 2, dtype=float).reshape(comm.size, 2)
            recv = np.zeros(2)
            comm.Scatter(send, recv)
            return recv.tolist()

        values = leg_spmd(n, main, config=config)
        assert values == [[2.0 * r, 2.0 * r + 1] for r in range(n)]

    def test_scatter_requires_sendbuf_at_root(self, leg_spmd, config):
        def main(comm):
            comm.Scatter(None, np.zeros(2))

        with pytest.raises(CommError, match="sendbuf"):
            leg_spmd(2, main, config=config)

    @pytest.mark.parametrize("n", SIZES)
    def test_allgather(self, leg_spmd, config, n):
        def main(comm):
            out = comm.Allgather(np.full(2, float(comm.rank + 1)))
            return out[:, 0].tolist()

        expected = [float(r + 1) for r in range(n)]
        assert leg_spmd(n, main, config=config) == [expected] * n

    def test_gather_scatter_roundtrip(self, leg_spmd, config):
        def main(comm):
            block = np.array([float(comm.rank) * 10.0])
            stacked = comm.Gather(block)
            back = np.zeros(1)
            comm.Scatter(stacked, back)
            return back[0]

        assert leg_spmd(4, main, config=config) == [0.0, 10.0, 20.0, 30.0]

    def test_gather_never_truncates_silently(self, leg_spmd, config):
        """1.5 gathered into an int32 recvbuf used to arrive as 1."""

        def main(comm):
            recv = np.zeros((comm.size, 2), dtype=np.int32) if comm.rank == 0 else None
            comm.Gather(np.full(2, 1.5), recv)

        with pytest.raises(TruncationError, match="Gather.*float64.*int32"):
            leg_spmd(3, main, config=config)

    def test_gather_mixed_contributor_dtypes(self, leg_spmd, config):
        """The allocated recvbuf takes the root's dtype; a float64 block
        from another rank must not be cut down to it."""

        def main(comm):
            dtype = np.int64 if comm.rank == 0 else np.float64
            comm.Gather(np.full(2, 1.5 * comm.rank, dtype=dtype))

        with pytest.raises(TruncationError, match="Gather from rank 1"):
            leg_spmd(3, main, config=config)

    def test_allgather_never_truncates_silently(self, leg_spmd, config):
        def main(comm):
            comm.Allgather(np.full(2, 1.5), np.zeros((comm.size, 2), dtype=np.int32))

        with pytest.raises(TruncationError, match="Allgather.*float64.*int32"):
            leg_spmd(3, main, config=config)

    def test_scatter_uncastable_dtype_detected(self, leg_spmd, config):
        def main(comm):
            send = np.full((comm.size, 2), 1.5) if comm.rank == 0 else None
            comm.Scatter(send, np.zeros(2, dtype=np.int32))

        with pytest.raises(TruncationError, match="Scatter.*float64.*int32"):
            leg_spmd(3, main, config=config)

    def test_scatterv_rejects_negative_counts(self, leg_spmd, config):
        """[3, -1, 1, 1] sums to 4 but would hand rank 1 an empty block
        and overlap rank 2's block with rank 0's."""

        def main(comm):
            if comm.rank == 0:
                return comm.Scatterv(np.arange(4.0), [3, -1, 1, 1])
            return comm.Scatterv()

        with pytest.raises(CommError, match="non-negative"):
            leg_spmd(4, main, config=config)

    def test_gatherv_trailing_shape_mismatch_names_the_rank(self, leg_spmd, config):
        def main(comm):
            comm.Gatherv(np.zeros((2, 4 if comm.rank == 2 else 3)))

        with pytest.raises(TruncationError, match="Gatherv.*rank 2"):
            leg_spmd(3, main, config=config)


@pytest.mark.parametrize("config", STARS, ids=STAR_IDS)
class TestReductionBuffer:
    @pytest.mark.parametrize("n", SIZES)
    def test_reduce_sum(self, leg_spmd, config, n):
        def main(comm):
            out = comm.Reduce(np.full(3, float(comm.rank + 1)))
            return None if out is None else out.tolist()

        values = leg_spmd(n, main, config=config)
        total = float(n * (n + 1) // 2)
        assert values[0] == [total] * 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 8])
    def test_allreduce_nonpoweroftwo(self, leg_spmd, config, n):
        def main(comm):
            out = comm.Allreduce(np.array([2.0**comm.rank]))
            return out[0]

        assert leg_spmd(n, main, config=config) == [float(2**n - 1)] * n

    def test_allreduce_max(self, leg_spmd, config):
        def main(comm):
            out = comm.Allreduce(np.array([float(comm.rank), -float(comm.rank)]), op=MAX)
            return out.tolist()

        assert leg_spmd(5, main, config=config) == [[4.0, 0.0]] * 5

    def test_reduce_into_supplied_recvbuf(self, leg_spmd, config):
        def main(comm):
            recv = np.zeros(2) if comm.rank == 0 else None
            out = comm.Reduce(np.ones(2), recv, op=SUM, root=0)
            if comm.rank == 0:
                return (out is recv, recv.tolist())
            return out

        values = leg_spmd(3, main, config=config)
        assert values[0] == (True, [3.0, 3.0])
        assert values[1] is None

    def test_matches_object_mode(self, leg_spmd, config):
        """Buffer and object allreduce agree bitwise on float data."""

        def main(comm):
            data = np.linspace(0, 1, 16) * (comm.rank + 1)
            obj = comm.allreduce(data)
            buf = comm.Allreduce(data)
            return np.array_equal(obj, buf)

        assert all(leg_spmd(4, main, config=config))

    def test_sendbuf_unchanged(self, leg_spmd, config):
        def main(comm):
            send = np.full(4, float(comm.rank))
            comm.Allreduce(send)
            return send.tolist()

        values = leg_spmd(3, main, config=config)
        assert values == [[float(r)] * 4 for r in range(3)]

    def test_reduce_uncastable_dtype_detected(self, leg_spmd, config):
        def main(comm):
            recv = np.zeros(2, dtype=np.int32) if comm.rank == 0 else None
            comm.Reduce(np.full(2, 0.5), recv)

        with pytest.raises(TruncationError, match="Reduce.*float64.*int32"):
            leg_spmd(3, main, config=config)

    def test_allreduce_uncastable_dtype_detected(self, leg_spmd, config):
        def main(comm):
            comm.Allreduce(np.full(2, 0.5), np.zeros(2, dtype=np.int32))

        with pytest.raises(TruncationError, match="Allreduce.*float64.*int32"):
            leg_spmd(3, main, config=config)


def test_allgather_fans_out_the_joined_array_itself(monkeypatch):
    """The stack of gathered blocks is a fresh private array: rank 0
    seals it and sends *it* — no second snapshot — and since every
    receiver copies out of the shared wire, scribbling on one rank's
    result reaches nobody else's.  (Thread world: the spies see every
    rank.)"""
    from repro.mpi import collectives, run_spmd

    joined, fanned = [], []
    real_join, real_send = collectives._BUFFER.join, collectives._send

    def join(blocks):
        joined.append(real_join(blocks))
        return joined[-1]

    def send(comm, codec, dest, tag, wire, opname, reused=False):
        if comm.rank == 0 and codec is collectives._BUFFER:
            fanned.append(wire)
        real_send(comm, codec, dest, tag, wire, opname, reused)

    monkeypatch.setattr(collectives._BUFFER, "join", join)
    monkeypatch.setattr(collectives, "_send", send)

    def main(comm):
        out = comm.Allgather(np.full(3, float(comm.rank)))
        seen = out.copy()
        out[:] = -1.0 - comm.rank
        comm.barrier()
        return seen[:, 0].tolist(), out[0, 0]

    values = run_spmd(4, main)
    assert [seen for seen, _ in values] == [[0.0, 1.0, 2.0, 3.0]] * 4
    assert [mine for _, mine in values] == [-1.0, -2.0, -3.0, -4.0]
    (wire,) = joined
    assert len(fanned) == 3 and all(sent is wire for sent in fanned)
    assert wire.kind == "array" and wire.nbytes == wire.data.nbytes == 4 * 3 * 8
    assert wire.data.flags.owndata and not wire.data.flags.writeable

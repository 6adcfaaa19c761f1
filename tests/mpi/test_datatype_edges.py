"""Payload-type edge cases of the messaging layer."""

import numpy as np
import pytest

from repro.errors import HandshakeError, TruncationError


class TestBufferDtypes:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32, np.float64, np.complex128])
    def test_dtype_preserved_matching_buffers(self, leg_spmd, dtype):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(6).astype(dtype), 1)
                return None
            buf = np.zeros(6, dtype=dtype)
            comm.Recv(buf, source=0)
            return (buf.dtype == dtype, buf.tolist())

        ok, values = leg_spmd(2, main)[1]
        assert ok and values == list(range(6))

    def test_recv_casts_into_differently_typed_buffer(self, leg_spmd):
        """Like MPI with mismatched datatypes, the receive copies with a
        cast — numpy's assignment semantics, documented behaviour."""

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.9, 2.9]), 1)
                return None
            buf = np.zeros(2, dtype=np.int64)
            comm.Recv(buf, source=0)
            return buf.tolist()

        assert leg_spmd(2, main)[1] == [1, 2]

    def test_object_path_preserves_dtype_and_shape(self, leg_spmd):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.ones((2, 3, 4), dtype=np.float32), 1)
                return None
            got = comm.recv(source=0)
            return (got.dtype == np.float32, got.shape)

        assert leg_spmd(2, main)[1] == (True, (2, 3, 4))

    def test_noncontiguous_view_sent_correctly(self, leg_spmd):
        def main(comm):
            if comm.rank == 0:
                base = np.arange(12, dtype=float).reshape(3, 4)
                comm.Send(base[:, ::2], 1)  # strided view
                return None
            buf = np.zeros((3, 2))
            comm.Recv(buf, source=0)
            return buf.tolist()

        assert leg_spmd(2, main)[1] == [[0.0, 2.0], [4.0, 6.0], [8.0, 10.0]]

    def test_zero_length_array(self, leg_spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(0), 1)
                return None
            buf = np.zeros(0)
            comm.Recv(buf, source=0)
            return buf.size

        assert leg_spmd(2, main)[1] == 0

    def test_object_message_into_buffer_recv_must_be_array(self, leg_spmd):
        def main(comm):
            if comm.rank == 0:
                comm.send({"not": "an array"}, 1)
                return None
            comm.Recv(np.zeros(3), source=0)

        with pytest.raises(TruncationError, match="object-mode message"):
            leg_spmd(2, main)

    def test_buffer_send_into_object_recv_is_a_private_copy(self, leg_spmd):
        """An object-mode receive of a buffer-mode message owns what it
        gets — a small one and one large enough for the shm page pool."""

        def main(comm):
            sizes = (5, 8192)
            if comm.rank == 0:
                for n in sizes:
                    comm.Send(np.arange(float(n)), 1)
                return None
            out = []
            for n in sizes:
                got = comm.recv(source=0)
                got[0] = -1.0  # raises on a read-only view
                out.append((got.flags.owndata, got.shape, got[:3].tolist()))
            return out

        assert leg_spmd(2, main)[1] == [
            (True, (5,), [-1.0, 1.0, 2.0]),
            (True, (8192,), [-1.0, 1.0, 2.0]),
        ]

    def test_large_send_takes_the_page_path(self, leg_spmd, pytestconfig):
        """A Send and a send of 32 KiB or more from a Fortran-ordered
        array: the values arrive on every leg, and on the shm transport
        each message is mapped out of the sender's page pool, not copied
        into a ring frame (the snapshot is C-ordered, so the page write
        can take its bytes as they are).  Ranks 0 and 1 share a node on
        every leg (block placement), ranks 2 and 3 only make the nodes=2
        leg possible.  The world is fresh, so these are the only pages
        rank 1 ever maps."""
        field = np.arange(8192.0).reshape(64, 128)

        def main(comm):
            stats = getattr(comm.world.transport, "shm_stats", None)
            if comm.rank == 0:
                comm.Send(np.asfortranarray(field), 1)
                comm.send(np.asfortranarray(field), 1)
            elif comm.rank == 1:
                buf = np.empty((64, 128))
                comm.Recv(buf, source=0)
                got = comm.recv(source=0)
                mapped = stats().pages_mapped if stats else 0
                return np.array_equal(buf, field), np.array_equal(got, field), mapped
            return None

        on_shm = (
            pytestconfig.getoption("--mpi-backend") == "process"
            and pytestconfig.getoption("--mpi-transport") == "shm"
        )
        assert leg_spmd(4, main)[1] == (True, True, 2 if on_shm else 0)

    def test_scatterv_block_is_private_on_every_rank(self, leg_spmd):
        """Every rank's Scatterv block is writable and detached: scribbling
        on it reaches neither the root's sendbuf nor anyone else."""

        def main(comm):
            sendbuf = np.arange(6.0) if comm.rank == 0 else None
            mine = comm.Scatterv(sendbuf, [1, 2, 3] if comm.rank == 0 else None)
            got = mine.tolist()
            mine[:] = -1.0  # raises on a read-only view
            comm.barrier()
            return got, None if sendbuf is None else sendbuf.tolist()

        assert leg_spmd(3, main) == [
            ([0.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            ([1.0, 2.0], None),
            ([3.0, 4.0, 5.0], None),
        ]

    def test_object_dtype_arrays_through_buffer_verbs(self, leg_spmd):
        """An object-dtype array has no bytes to snapshot, so the buffer
        verbs pickle it — Allgather's stacked blocks too, here large
        enough (48 KB as pointers) for the shm page pool."""

        def main(comm):
            mine = np.array([f"r{comm.rank}-{i}" for i in range(2000)], dtype=object)
            rows = comm.Allgather(mine)
            buf = np.empty(2, dtype=object)
            if comm.rank == 0:
                comm.Send(np.array([{"k": 1}, None], dtype=object), 1)
            elif comm.rank == 1:
                comm.Recv(buf, source=0)
            return rows[:, 1999].tolist(), buf.tolist()

        values = leg_spmd(3, main)
        assert [rows for rows, _ in values] == [["r0-1999", "r1-1999", "r2-1999"]] * 3
        assert values[1][1] == [{"k": 1}, None]


class TestMimeAmbiguity:
    def test_two_executables_same_prefix_rejected(self):
        """Two multi-instance executables declaring the same prefix cannot
        be told apart: the handshake merges them into one declaration
        group and the size check rejects the launch (documented
        limitation — use distinct prefixes)."""
        from repro import mph_run, multi_instance

        registry = """
BEGIN
Multi_Instance_Begin
Run1 0 0
Multi_Instance_End
Multi_Instance_Begin
Run2 0 0
Multi_Instance_End
END
"""

        def ocean(world, env):
            multi_instance(world, "Run", env=env)

        with pytest.raises(HandshakeError):
            mph_run([(ocean, 1), (ocean, 1)], registry=registry)

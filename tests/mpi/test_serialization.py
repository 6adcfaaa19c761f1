"""The zero-copy serialization layer (repro.mpi.serialization)."""

import numpy as np
import pytest

from repro import mpi
from repro.mpi.serialization import Blob, payload_nbytes


class TaggedArray(np.ndarray):
    """An ndarray subclass (module-level so pickle can find it)."""


class TestBlobEncode:
    def test_pickle_roundtrip(self):
        blob = Blob.encode({"a": [1, 2], "b": "x"})
        assert blob.kind == "pickle"
        assert blob.nbytes == len(blob.data)
        assert blob.decode() == {"a": [1, 2], "b": "x"}

    def test_array_fast_path(self):
        arr = np.arange(12.0).reshape(3, 4)
        blob = Blob.encode(arr)
        assert blob.kind == "array"
        assert blob.nbytes == arr.nbytes
        np.testing.assert_array_equal(blob.decode(), arr)

    def test_array_path_disabled(self):
        arr = np.arange(4.0)
        blob = Blob.encode(arr, allow_array=False)
        assert blob.kind == "pickle"
        np.testing.assert_array_equal(blob.decode(), arr)

    def test_object_dtype_array_is_pickled(self):
        arr = np.array([{"x": 1}, None], dtype=object)
        blob = Blob.encode(arr)
        assert blob.kind == "pickle"

    def test_ndarray_subclass_is_pickled(self):
        # Subclasses may carry extra state; only plain ndarrays take the
        # snapshot path.
        arr = np.arange(4.0).view(TaggedArray)
        blob = Blob.encode(arr)
        assert blob.kind == "pickle"
        assert isinstance(blob.decode(), TaggedArray)

    def test_snapshot_is_immutable_and_detached(self):
        arr = np.zeros(5)
        blob = Blob.encode(arr)
        arr[:] = 99.0  # sender mutates after encode
        np.testing.assert_array_equal(blob.decode(), np.zeros(5))
        with pytest.raises((ValueError, RuntimeError)):
            blob.data[0] = 1.0

    def test_each_decode_is_private(self):
        blob = Blob.encode(np.ones(3))
        a, b = blob.decode(), blob.decode()
        a[0] = -1.0
        assert b[0] == 1.0
        assert a.flags.writeable and b.flags.writeable


class TestPayloadNbytes:
    def test_blob(self):
        assert payload_nbytes(Blob.encode(np.zeros(4))) == 32

    def test_ndarray(self):
        assert payload_nbytes(np.zeros((2, 2))) == 32

    def test_raw_bytes(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(3)) == 3

    def test_unknown_payload(self):
        assert payload_nbytes(("op", None)) == 0


class TestEncodeOnceTraffic:
    """Literal results and ledger of the encode-once paths."""

    def test_bcast_value(self):
        def prog(comm):
            return comm.bcast(np.arange(10.0) if comm.rank == 0 else None).tolist()

        assert mpi.run_spmd(4, prog) == [[float(i) for i in range(10)]] * 4

    def test_send_recv_value(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.full(6, 7.0), dest=1)
                return None
            return comm.recv(source=0).sum()

        assert mpi.run_spmd(2, prog) == [None, 42.0]

    def test_copy_avoided_ledger_counts_reused_encodings(self):
        def prog(comm):
            before = comm.world.traffic_snapshot()
            comm.bcast(np.arange(1024.0) if comm.rank == 0 else None)
            comm.barrier()
            return comm.world.traffic_snapshot().since(before).copy_avoided_bytes

        # Rank 0 snapshots before any traffic moves and after the barrier
        # has flushed it all, so its delta sees both fan-outs whole: the
        # root encodes once for its three children, so the second and
        # third send of the 8 KiB bcast reuse that encoding — and so do
        # the second and third of the barrier's 4-byte releases.
        assert mpi.run_spmd(4, prog)[0] == 2 * 8192 + 2 * 4


class TestObjectModeStatusCount:
    def test_count_is_encoded_bytes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([1, 2, 3], dest=1, tag=5)
                return comm.last_payload_bytes
            status = mpi.Status()
            comm.recv(source=0, tag=5, status=status)
            return status.count

        sent_bytes, recv_count = mpi.run_spmd(2, prog)
        assert sent_bytes == recv_count > 0

    def test_array_count_matches_nbytes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), dest=1)
                return None
            status = mpi.Status()
            comm.recv(source=0, status=status)
            return status.count

        assert mpi.run_spmd(2, prog)[1] == 800

"""The zero-copy serialization layer (repro.mpi.serialization)."""

import numpy as np
import pytest

from repro import mpi
from repro.mpi.serialization import Blob


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
        """The array path is for plain numeric ndarrays only: an
        object-dtype array and an ndarray subclass are pickled, and each
        decodes to its own type and values."""
        for arr in (
            np.array([{"x": 1}, None], dtype=object),
            np.arange(4.0).view(TaggedArray),
        ):
            blob = Blob.encode(arr)
            assert blob.kind == "pickle"
            got = blob.decode()
            assert type(got) is type(arr) and got.dtype == arr.dtype
            assert got.tolist() == arr.tolist()

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


def test_every_delivered_payload_is_a_blob(monkeypatch):
    """Structural: whatever verb sends it, an envelope carries a Blob.
    The spy sits on ``Mailbox.deliver`` and keeps the envelopes the armed
    fault schedule produced (``faults=False``): every delivery passes
    there once the schedule has been applied, so the duplicate and the
    corrupted copy it makes are seen too.  (Thread world: the spy sees
    every rank.)"""
    from repro.mpi.comm import _RECOVERY_TAG_BASE
    from repro.mpi.mailbox import Mailbox

    delivered = []
    real = Mailbox.deliver

    def spy(self, env, faults=True):
        if not faults:
            delivered.append(env)
        real(self, env, faults)

    monkeypatch.setattr(Mailbox, "deliver", spy)
    # Rank 1 hears only from rank 0 (every collective below is rooted
    # there), so its first two deliveries are rank 0's first two sends.
    faults = mpi.FaultSchedule(seed=3).duplicate_message(1, 0).corrupt_message(1, 1)

    def main(comm):
        r = comm.rank
        if r == 0:
            comm.send("twice", 1)
            comm.Send(np.arange(4.0), 1)
        elif r == 1:
            got = [comm.recv(source=0), comm.recv(source=0)]
            comm.Recv(np.empty(4), source=0)
        block = np.full(2, float(r))
        comm.Bcast(block)
        comm.Gather(block)
        comm.Scatter(np.zeros((comm.size, 2)) if r == 0 else None, block)
        comm.Allgather(block)
        comm.Gatherv(block)
        comm.Scatterv(np.zeros(comm.size) if r == 0 else None, [1] * comm.size)
        comm.Reduce(block)
        comm.Allreduce(block)
        comm.agree(True)
        return got if r == 1 else None

    assert mpi.run_spmd(4, main, config=mpi.WorldConfig(fault_schedule=faults))[1] == [
        "twice",
        "twice",
    ]
    assert sorted(f.split()[0] for f in faults.fired()) == ["corrupt", "duplicate"]
    assert all(type(env.payload) is Blob for env in delivered)
    assert {env.kind for env in delivered} == {"object", "buffer", "bufcoll"}
    assert {env.op for env in delivered if env.kind == "bufcoll"} == {
        "Bcast", "Gather", "Scatter", "Allgather", "Gatherv", "Scatterv", "Reduce", "Allreduce",
    }
    assert any(env.tag >= _RECOVERY_TAG_BASE for env in delivered)
    assert sum(env.kind == "buffer" for env in delivered) == 1  # the one `Send`

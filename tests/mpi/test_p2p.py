"""Point-to-point messaging semantics of the simulated MPI substrate."""

import numpy as np
import pytest

from repro.errors import CommError
from repro.mpi import ANY_SOURCE, ANY_TAG, PROC_NULL, Status


class TestBasicSendRecv:
    def test_simple_message(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        assert spmd(2, main)[1] == {"a": 7, "b": 3.14}

    def test_value_semantics_no_shared_state(self, spmd):
        """Mutating the sent object after send must not affect the receiver
        (pickling enforces distributed-memory copy semantics)."""

        def main(comm):
            if comm.rank == 0:
                data = [1, 2, 3]
                comm.send(data, 1)
                data.append(99)  # must not be visible remotely
                return None
            return comm.recv(source=0)

        assert spmd(2, main)[1] == [1, 2, 3]

    def test_receiver_mutation_does_not_leak_back(self, spmd):
        def main(comm):
            payload = {"x": [0]}
            if comm.rank == 0:
                comm.send(payload, 1)
                comm.barrier()
                return payload["x"]
            got = comm.recv(source=0)
            got["x"].append(42)
            comm.barrier()
            return got["x"]

        values = spmd(2, main)
        assert values[0] == [0]
        assert values[1] == [0, 42]

    def test_ring_exchange(self, spmd):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank * 100, right, tag=3)
            return comm.recv(source=left, tag=3)

        assert spmd(5, main) == [400, 0, 100, 200, 300]

    def test_self_send(self, spmd):
        def main(comm):
            comm.send("me", comm.rank, tag=1)
            return comm.recv(source=comm.rank, tag=1)

        assert spmd(3, main) == ["me"] * 3


class TestMatchingSemantics:
    """Wildcard matching: swept over match-schedule seeds (``mpi_world``)
    so any assertion that silently leaned on arrival order fails loudly
    under a permuting schedule."""

    def test_tag_selective_receive(self, mpi_world):
        def main(comm):
            if comm.rank == 0:
                comm.send("low", 1, tag=1)
                comm.send("high", 1, tag=2)
                return None
            high = comm.recv(source=0, tag=2)
            low = comm.recv(source=0, tag=1)
            return (high, low)

        assert mpi_world(2, main)[1] == ("high", "low")

    def test_any_source(self, mpi_world):
        def main(comm):
            if comm.rank == 2:
                got = sorted(comm.recv(source=ANY_SOURCE, tag=5) for _ in range(2))
                return got
            comm.send(f"from{comm.rank}", 2, tag=5)
            return None

        assert mpi_world(3, main)[2] == ["from0", "from1"]

    def test_any_tag(self, mpi_world):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=77)
                return None
            status = Status()
            obj = comm.recv(source=0, tag=ANY_TAG, status=status)
            return (obj, status.tag)

        assert mpi_world(2, main)[1] == ("x", 77)

    def test_non_overtaking_same_source_tag(self, mpi_world):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1, tag=4)
                return None
            return [comm.recv(source=0, tag=4) for _ in range(10)]

        assert mpi_world(2, main)[1] == list(range(10))

    def test_status_fields(self, mpi_world):
        def main(comm):
            if comm.rank == 1:
                comm.send([1, 2, 3], 0, tag=13)
                return None
            status = Status()
            comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            return (status.Get_source(), status.Get_tag(), status.Get_count() > 0)

        assert mpi_world(2, main)[0] == (1, 13, True)


class TestProcNull:
    def test_send_to_proc_null_vanishes(self, spmd):
        def main(comm):
            comm.send("gone", PROC_NULL)
            return "alive"

        assert spmd(1, main) == ["alive"]

    def test_recv_from_proc_null_immediate_none(self, spmd):
        def main(comm):
            status = Status()
            obj = comm.recv(source=PROC_NULL, status=status)
            return (obj, status.source)

        assert spmd(1, main)[0] == (None, PROC_NULL)


class TestSsend:
    def test_ssend_completes_when_matched(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.ssend("sync", 1, tag=8)
                return "sent"
            return comm.recv(source=0, tag=8)

        assert spmd(2, main) == ["sent", "sync"]

    def test_ssend_to_proc_null_returns(self, spmd):
        def main(comm):
            comm.ssend("x", PROC_NULL)
            return True

        assert spmd(1, main) == [True]


class TestProbe:
    def test_probe_does_not_consume(self, mpi_world):
        """Swept: a blocking probe must force-reveal held envelopes and
        its answer must stay claimable by the follow-up recv."""

        def main(comm):
            if comm.rank == 0:
                comm.send("keep", 1, tag=2)
                return None
            st = comm.probe(source=0, tag=2)
            obj = comm.recv(source=st.source, tag=st.tag)
            return (st.source, obj)

        assert mpi_world(2, main)[1] == (0, "keep")

    def test_iprobe_empty(self, spmd):
        def main(comm):
            return comm.iprobe(source=ANY_SOURCE, tag=ANY_TAG)

        assert spmd(1, main) == [None]

    def test_iprobe_sees_pending(self, spmd):
        # Deliberately unswept: a nonblocking iprobe is allowed to miss a
        # schedule-held message (holds model network delay), so this
        # visibility-after-barrier guarantee only exists disarmed.
        def main(comm):
            if comm.rank == 0:
                comm.send("here", 1, tag=6)
                comm.barrier()
                return None
            comm.barrier()  # guarantees the message arrived
            st = comm.iprobe(source=0, tag=6)
            assert st is not None and st.tag == 6
            return comm.recv(source=0, tag=6)

        assert spmd(2, main)[1] == "here"


class TestValidation:
    def test_send_bad_dest(self, spmd):
        def main(comm):
            comm.send("x", 5)

        with pytest.raises(CommError, match="destination rank"):
            spmd(2, main)

    def test_send_negative_tag(self, spmd):
        def main(comm):
            comm.send("x", 0, tag=-3)

        with pytest.raises(CommError, match="invalid send tag"):
            spmd(1, main)

    def test_recv_bad_source(self, spmd):
        def main(comm):
            comm.recv(source=9)

        with pytest.raises(CommError, match="source rank"):
            spmd(2, main)

    def test_wildcard_tag_invalid_for_send(self, spmd):
        def main(comm):
            comm.send("x", 0, tag=ANY_TAG)

        with pytest.raises(CommError, match="invalid send tag"):
            spmd(1, main)


class TestSendrecv:
    def test_pairwise_swap(self, spmd):
        def main(comm):
            partner = comm.rank ^ 1
            return comm.sendrecv(comm.rank, dest=partner, sendtag=1, source=partner, recvtag=1)

        assert spmd(4, main) == [1, 0, 3, 2]


class TestBufferMode:
    def test_send_recv_array(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), 1, tag=7)
                return None
            buf = np.empty(10)
            comm.Recv(buf, source=0, tag=7)
            return buf.tolist()

        assert spmd(2, main)[1] == list(map(float, range(10)))

    def test_sender_may_reuse_buffer(self, spmd):
        def main(comm):
            if comm.rank == 0:
                arr = np.ones(4)
                comm.Send(arr, 1)
                arr[:] = -1  # must not corrupt the in-flight message
                comm.barrier()
                return None
            comm.barrier()
            buf = np.zeros(4)
            comm.Recv(buf, source=0)
            return buf.tolist()

        assert spmd(2, main)[1] == [1.0] * 4

    def test_truncation_error(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(10), 1)
                return None
            comm.Recv(np.zeros(4), source=0)

        from repro.errors import TruncationError

        with pytest.raises(TruncationError):
            spmd(2, main)

    def test_smaller_message_into_larger_buffer(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.0, 2.0]), 1)
                return None
            buf = np.full(5, -1.0)
            st = Status()
            comm.Recv(buf, source=0, status=st)
            return (buf.tolist(), st.count)

        values = spmd(2, main)
        assert values[1] == ([1.0, 2.0, -1.0, -1.0, -1.0], 2)

    def test_2d_array_through_buffer_path(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(6, dtype=float).reshape(2, 3), 1)
                return None
            buf = np.zeros((2, 3))
            comm.Recv(buf, source=0)
            return buf.sum()

        assert spmd(2, main)[1] == 15.0

    def test_object_recv_of_buffer_message(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([5.0, 6.0]), 1)
                return None
            got = comm.recv(source=0)
            return isinstance(got, np.ndarray) and got.tolist() == [5.0, 6.0]

        assert spmd(2, main)[1] is True


class TestZeroCopyMutationIsolation:
    """Value semantics survive the zero-copy array path: mutations on one
    side are never visible on the other."""

    def test_sender_mutation_after_isend_invisible(self, spmd):
        def main(comm):
            if comm.rank == 0:
                arr = np.arange(8.0)
                req = comm.isend(arr, dest=1, tag=3)
                arr[:] = -1.0  # mutate immediately after the send
                req.wait()
                comm.barrier()
                return None
            got = comm.recv(source=0, tag=3)
            comm.barrier()
            return got.tolist()

        values = spmd(2, main)
        assert values[1] == list(range(8))

    def test_receiver_mutation_invisible_to_sender(self, spmd):
        def main(comm):
            if comm.rank == 0:
                arr = np.zeros(4)
                comm.send(arr, dest=1)
                comm.barrier()  # rank 1 mutates its copy before this
                return arr.tolist()
            got = comm.recv(source=0)
            got[:] = 9.0
            comm.barrier()
            return got.tolist()

        values = spmd(2, main)
        assert values[0] == [0.0, 0.0, 0.0, 0.0]
        assert values[1] == [9.0, 9.0, 9.0, 9.0]

    def test_received_array_is_writable(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.ones(3), dest=1)
                return None
            got = comm.recv(source=0)
            got += 1.0  # must not raise: receivers own their data
            return got.flags.writeable

        assert spmd(2, main)[1] is True

    def test_noncontiguous_send(self, spmd):
        def main(comm):
            if comm.rank == 0:
                base = np.arange(12.0).reshape(3, 4)
                comm.send(base[:, ::2], dest=1)  # a strided view
                return None
            return comm.recv(source=0).tolist()

        values = spmd(2, main)
        assert values[1] == [[0.0, 2.0], [4.0, 6.0], [8.0, 10.0]]

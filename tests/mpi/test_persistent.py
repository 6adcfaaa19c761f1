"""Persistent communication requests (repro.mpi.persistent)."""

import numpy as np
import pytest

from repro.errors import CommError, TruncationError
from repro.mpi import PROC_NULL
from repro.mpi.persistent import Prequest


class TestCycle:
    def test_repeated_start_wait(self, spmd):
        """The canonical pattern: bind once, cycle many times."""

        def main(comm):
            out = []
            if comm.rank == 0:
                buf = np.zeros(3)
                send = comm.Send_init(buf, dest=1, tag=4)
                for i in range(5):
                    buf[:] = i  # contents snapshotted at start
                    send.start()
                    send.wait()
                return None
            buf = np.zeros(3)
            recv = comm.Recv_init(buf, source=0, tag=4)
            for i in range(5):
                recv.start()
                recv.wait()
                out.append(float(buf[0]))
            return out

        assert spmd(2, main)[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_matches_plain_halo_exchange(self, spmd):
        """A persistent-request halo exchange produces the same halos as
        the plain Send/Recv version."""

        def main(comm):
            data = np.full(4, float(comm.rank))
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            halo = np.zeros(4)
            send = comm.Send_init(data, right, tag=9)
            recv = comm.Recv_init(halo, left, tag=9)
            results = []
            for step in range(3):
                data[:] = comm.rank * 10 + step
                Prequest.startall([send, recv])
                send.wait()
                recv.wait()
                results.append(float(halo[0]))
            expected = [((comm.rank - 1) % comm.size) * 10 + s for s in range(3)]
            return results == [float(e) for e in expected]

        assert all(spmd(4, main))

    def test_status_filled(self, spmd):
        from repro.mpi import Status

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.ones(2), 1, tag=7)
                return None
            buf = np.zeros(2)
            recv = comm.Recv_init(buf, source=0, tag=7).start()
            st = Status()
            recv.wait(st)
            return (st.source, st.tag, st.count)

        assert spmd(2, main)[1] == (0, 7, 2)

    def test_test_method(self, spmd):
        def main(comm):
            if comm.rank == 1:
                buf = np.zeros(1)
                recv = comm.Recv_init(buf, source=0, tag=2).start()
                early, _ = recv.test()
                comm.send(early, 0, tag=3)  # tell sender we probed too early
                done = False
                while not done:
                    done, _ = recv.test()
                return (early, float(buf[0]))
            comm.recv(source=1, tag=3)
            comm.Send(np.array([5.0]), 1, tag=2)
            return None

        early, value = spmd(2, main)[1]
        assert early is False and value == 5.0


class TestMisuse:
    def test_double_start_rejected(self, spmd):
        def main(comm):
            recv = comm.Recv_init(np.zeros(1), source=0, tag=1).start()
            recv.start()

        with pytest.raises(CommError, match="already active"):
            spmd(1, main)

    def test_wait_before_start_rejected(self, spmd):
        def main(comm):
            comm.Recv_init(np.zeros(1), source=0, tag=1).wait()

        with pytest.raises(CommError, match="inactive"):
            spmd(1, main)

    def test_truncation_checked(self, spmd):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(9), 1, tag=1)
                return None
            comm.Recv_init(np.zeros(2), source=0, tag=1).start().wait()

        with pytest.raises(TruncationError):
            spmd(2, main)

    def test_send_to_proc_null_cycles(self, spmd):
        def main(comm):
            send = comm.Send_init(np.zeros(2), PROC_NULL, tag=1)
            for _ in range(3):
                send.start()
                send.wait()
            return True

        assert spmd(1, main) == [True]

    def test_bad_tag_rejected_at_init(self, spmd):
        def main(comm):
            comm.Recv_init(np.zeros(1), source=0, tag=-5)

        with pytest.raises(CommError, match="invalid receive tag"):
            spmd(1, main)


class TestStartallRollback:
    def test_partial_startall_rolls_back(self, spmd):
        """When startall fails partway, already-started requests are
        deactivated again — none is left half-armed."""

        def main(comm):
            first = comm.Recv_init(np.zeros(1), source=0, tag=1)
            second = comm.Recv_init(np.zeros(1), source=0, tag=2).start()
            with pytest.raises(CommError, match="already active"):
                Prequest.startall([first, second])
            # ``first`` was started then rolled back; ``second`` was the
            # culprit and keeps its original active cycle.
            assert not first._active and second._active
            assert second.cancel()
            return "rolled back"

        assert spmd(1, main) == ["rolled back"]

    def test_rollback_does_not_swallow_messages(self, spmd):
        """A posted receive cancelled by the rollback must not consume a
        message sent later — a fresh start() still matches it."""

        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=3)  # wait until rollback happened
                comm.Send(np.array([7.0]), 1, tag=1)
                return None
            buf = np.zeros(1)
            recv = comm.Recv_init(buf, source=0, tag=1)
            bad = comm.Recv_init(np.zeros(1), source=0, tag=2).start()
            with pytest.raises(CommError, match="already active"):
                Prequest.startall([recv, bad])
            comm.send("rolled back", 0, tag=3)
            recv.start().wait()  # the re-armed cycle gets the message
            assert bad.cancel()
            return float(buf[0])

        assert spmd(2, main)[1] == 7.0


class TestDeadSender:
    """A persistent receive names its sender, so the sender's fail-stop
    death fails it the way it fails ``Recv`` — directly, not through the
    stall detector (switched off here: a receive that did not learn of
    the death would hang to the job timeout)."""

    CONFIG = dict(deadlock_detection=False)

    def test_wait_and_test_raise_and_the_request_can_cycle_again(self, spmd):
        from repro.errors import ProcessFailedError
        from repro.mpi import SimulatedCrash, WorldConfig

        def main(comm):
            if comm.rank == 1:
                raise SimulatedCrash("dies without sending")
            buf = np.zeros(2)
            recv = comm.Recv_init(buf, source=1, tag=9).start()
            with pytest.raises(ProcessFailedError):
                recv.wait()
            assert not recv.active
            recv.start()
            with pytest.raises(ProcessFailedError):
                while not recv.test()[0]:
                    pass
            assert not recv.active
            # A live sender still completes the same request.
            live = comm.Recv_init(buf, source=2, tag=9).start()
            live.wait()
            return buf.tolist()

        def with_sender(comm):
            if comm.rank == 2:
                comm.Send(np.array([4.0, 5.0]), 0, tag=9)
                return None
            return main(comm)

        out = spmd(3, with_sender, config=WorldConfig(**self.CONFIG))
        assert out[0] == [4.0, 5.0] and out[1] is None

    def test_waitsome_over_persistent_receives_sees_the_death(self, spmd):
        from repro.errors import ProcessFailedError
        from repro.mpi import SimulatedCrash, WorldConfig
        from repro.mpi.request import Request

        def main(comm):
            if comm.rank == 1:
                raise SimulatedCrash("dies without sending")
            if comm.rank == 2:
                comm.Send(np.array([1.0]), 0, tag=3)
                return None
            alive = comm.Recv_init(np.zeros(1), source=2, tag=3).start()
            dead = comm.Recv_init(np.zeros(1), source=1, tag=3).start()
            with pytest.raises(ProcessFailedError):
                pending = [alive, dead]
                while pending:
                    done = {i for i, _ in Request.waitsome(pending)}
                    pending = [r for i, r in enumerate(pending) if i not in done]
            return "raised"

        assert spmd(3, main, config=WorldConfig(**self.CONFIG))[0] == "raised"

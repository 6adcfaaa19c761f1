"""Backend-parametrized MPI conformance suite.

Every case in this file runs twice: once on the thread backend (ranks as
threads of one interpreter, direct mailbox delivery) and once on the
process backend (ranks as forked OS processes over the socket
transport).  The cases are the representative core of the tier-1 MPI
semantics tests — p2p ordering and wildcards, the collective suite,
communicator management, value semantics — so the
two backends are held to *identical* observable behaviour.  A semantics divergence between substrates fails here by
construction, which is what makes the transport layer trustworthy
(MPICH-G2's multi-protocol argument depends on exactly this property).

Select one backend with ``--mpi-backend=thread|process`` (CI runs a
matrix job per backend); default is both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AbortError, CommError, TruncationError
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MAX,
    PROC_NULL,
    SUM,
    Group,
    Status,
)
from repro.mpi.request import Request


# ---------------------------------------------------------------------------
# Point-to-point: ordering, wildcards, modes
# ---------------------------------------------------------------------------


class TestPointToPoint:
    def test_send_recv_roundtrip(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"payload": [1, 2, 3]}, 1, tag=7)
                return None
            if comm.rank == 1:
                return comm.recv(source=0, tag=7)

        values = backend_spmd(2, fn)
        assert values[1] == {"payload": [1, 2, 3]}

    def test_non_overtaking_same_source(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(10)]

        assert backend_spmd(2, fn)[1] == list(range(10))

    def test_tag_selective_matching(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert backend_spmd(2, fn)[1] == ("a", "b")

    def test_any_source_wildcard(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                got = sorted(comm.recv(source=ANY_SOURCE, tag=4) for _ in range(3))
                return got
            comm.send(comm.rank * 10, 0, tag=4)

        assert backend_spmd(4, fn)[0] == [10, 20, 30]

    def test_any_tag_wildcard_reports_status(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=17)
                return None
            status = Status()
            value = comm.recv(source=0, tag=ANY_TAG, status=status)
            return (value, status.source, status.tag)

        assert backend_spmd(2, fn)[1] == ("x", 0, 17)

    def test_ssend_blocks_until_matched(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.ssend("sync", 1, tag=5)
                return "sent"
            return comm.recv(source=0, tag=5)

        assert backend_spmd(2, fn) == ["sent", "sync"]

    def test_sendrecv_exchange(self, backend_spmd):
        def fn(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(comm.rank, peer, sendtag=2, source=peer, recvtag=2)

        assert backend_spmd(2, fn) == [1, 0]

    def test_isend_irecv_overlap(self, backend_spmd):
        def fn(comm):
            peer = 1 - comm.rank
            req = comm.irecv(source=peer, tag=9)
            comm.isend(f"from-{comm.rank}", peer, tag=9)
            return req.wait()

        assert backend_spmd(2, fn) == ["from-1", "from-0"]

    def test_probe_then_recv(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.send([7] * 3, 1, tag=11)
                return None
            status = comm.probe(source=ANY_SOURCE, tag=11)
            value = comm.recv(source=status.source, tag=status.tag)
            return (status.source, value)

        assert backend_spmd(2, fn)[1] == (0, [7, 7, 7])

    def test_proc_null_send_recv(self, backend_spmd):
        def fn(comm):
            comm.send("void", PROC_NULL)
            return comm.recv(source=PROC_NULL)

        assert backend_spmd(2, fn) == [None, None]

    def test_waitall_mixed_requests(self, backend_spmd):
        def fn(comm):
            peer = 1 - comm.rank
            recvs = [comm.irecv(source=peer, tag=t) for t in (1, 2)]
            for t in (1, 2):
                comm.isend(t * 100 + comm.rank, peer, tag=t)
            return Request.waitall(recvs)

        values = backend_spmd(2, fn)
        assert values[0] == [101, 201]
        assert values[1] == [100, 200]


# ---------------------------------------------------------------------------
# Buffer mode
# ---------------------------------------------------------------------------


class TestBufferMode:
    def test_send_recv_array(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.arange(6, dtype=np.float64), 1, tag=3)
                return None
            buf = np.zeros(6)
            comm.Recv(buf, source=0, tag=3)
            return buf.tolist()

        assert backend_spmd(2, fn)[1] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_truncation_raises(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(8), 1, tag=1)
                return None
            try:
                comm.Recv(np.zeros(4), source=0, tag=1)
            except TruncationError:
                return "truncated"

        assert backend_spmd(2, fn)[1] == "truncated"

    def test_sender_reuse_after_send(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                arr = np.ones(4)
                comm.Send(arr, 1, tag=2)
                arr[:] = 99.0  # must not be visible to the receiver
                return None
            buf = np.zeros(4)
            comm.Recv(buf, source=0, tag=2)
            return buf.tolist()

        assert backend_spmd(2, fn)[1] == [1.0, 1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


class TestCollectives:
    NPROCS = 4

    def test_barrier_completes(self, backend_spmd):
        assert backend_spmd(self.NPROCS, lambda comm: comm.barrier() or "ok") == [
            "ok"
        ] * self.NPROCS

    def test_bcast_object(self, backend_spmd):
        def fn(comm):
            return comm.bcast({"k": 42} if comm.rank == 0 else None, root=0)

        assert backend_spmd(self.NPROCS, fn) == [{"k": 42}] * self.NPROCS

    def test_bcast_nonzero_root(self, backend_spmd):
        def fn(comm):
            return comm.bcast("payload" if comm.rank == 2 else None, root=2)

        assert backend_spmd(self.NPROCS, fn) == ["payload"] * self.NPROCS

    def test_gather(self, backend_spmd):
        def fn(comm):
            return comm.gather(comm.rank ** 2, root=0)

        values = backend_spmd(self.NPROCS, fn)
        assert values[0] == [0, 1, 4, 9]
        assert values[1:] == [None] * (self.NPROCS - 1)

    def test_scatter(self, backend_spmd):
        def fn(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert backend_spmd(self.NPROCS, fn) == [f"item{i}" for i in range(self.NPROCS)]

    def test_allgather(self, backend_spmd):
        def fn(comm):
            return comm.allgather(comm.rank * 2)

        assert backend_spmd(self.NPROCS, fn) == [[0, 2, 4, 6]] * self.NPROCS

    def test_alltoall(self, backend_spmd):
        def fn(comm):
            return comm.alltoall([(comm.rank, dest) for dest in range(comm.size)])

        values = backend_spmd(self.NPROCS, fn)
        for r, row in enumerate(values):
            assert row == [(src, r) for src in range(self.NPROCS)]

    def test_reduce_sum(self, backend_spmd):
        def fn(comm):
            return comm.reduce(comm.rank + 1, op=SUM, root=0)

        assert backend_spmd(self.NPROCS, fn)[0] == 10

    def test_allreduce_max(self, backend_spmd):
        def fn(comm):
            return comm.allreduce((comm.rank * 7) % 5, op=MAX)

        expected = max((r * 7) % 5 for r in range(self.NPROCS))
        assert backend_spmd(self.NPROCS, fn) == [expected] * self.NPROCS

    def test_scan(self, backend_spmd):
        def fn(comm):
            return comm.scan(comm.rank + 1, op=SUM)

        assert backend_spmd(self.NPROCS, fn) == [1, 3, 6, 10]

    def test_reduce_scatter(self, backend_spmd):
        def fn(comm):
            return comm.reduce_scatter([comm.rank] * comm.size, op=SUM)

        total = sum(range(self.NPROCS))
        assert backend_spmd(self.NPROCS, fn) == [total] * self.NPROCS

    def test_buffer_bcast(self, backend_spmd):
        def fn(comm):
            buf = np.arange(5, dtype=np.float64) if comm.rank == 0 else np.zeros(5)
            comm.Bcast(buf, root=0)
            return buf.tolist()

        assert backend_spmd(self.NPROCS, fn) == [[0.0, 1.0, 2.0, 3.0, 4.0]] * self.NPROCS

    def test_buffer_allreduce(self, backend_spmd):
        def fn(comm):
            out = comm.Allreduce(np.full(3, float(comm.rank)))
            return out.tolist()

        total = float(sum(range(self.NPROCS)))
        assert backend_spmd(self.NPROCS, fn) == [[total] * 3] * self.NPROCS

    def test_buffer_gather(self, backend_spmd):
        def fn(comm):
            out = comm.Gather(np.full(3, float(comm.rank)), root=1)
            return None if out is None else out.tolist()

        values = backend_spmd(self.NPROCS, fn)
        assert values[1] == [[float(r)] * 3 for r in range(self.NPROCS)]
        assert [v for r, v in enumerate(values) if r != 1] == [None] * (self.NPROCS - 1)

    def test_buffer_scatter(self, backend_spmd):
        def fn(comm):
            send = None
            if comm.rank == 0:
                send = np.arange(comm.size * 2, dtype=np.float64).reshape(comm.size, 2)
            recv = np.zeros(2)
            comm.Scatter(send, recv, root=0)
            return recv.tolist()

        assert backend_spmd(self.NPROCS, fn) == [
            [2.0 * r, 2.0 * r + 1] for r in range(self.NPROCS)
        ]

    def test_buffer_allgather(self, backend_spmd):
        def fn(comm):
            return comm.Allgather(np.full(2, float(comm.rank + 1))).tolist()

        expected = [[float(r + 1)] * 2 for r in range(self.NPROCS)]
        assert backend_spmd(self.NPROCS, fn) == [expected] * self.NPROCS

    def test_buffer_gatherv(self, backend_spmd):
        def fn(comm):
            out = comm.Gatherv(np.full(comm.rank + 1, float(comm.rank)), root=0)
            return None if out is None else (out[0].tolist(), out[1])

        full = [float(r) for r in range(self.NPROCS) for _ in range(r + 1)]
        assert backend_spmd(self.NPROCS, fn)[0] == (full, [1, 2, 3, 4])

    def test_buffer_scatterv(self, backend_spmd):
        """Every rank owns a writable block — also the one large enough
        for the shm transport to map it out of a page instead of copying."""
        counts = [1, 2, 3, 5000]

        def fn(comm):
            if comm.rank == 0:
                block = comm.Scatterv(np.arange(float(sum(counts))), counts)
            else:
                block = comm.Scatterv()
            block += 100.0
            return (len(block), block[0], block[-1])

        assert backend_spmd(self.NPROCS, fn) == [
            (1, 100.0, 100.0),
            (2, 101.0, 102.0),
            (3, 103.0, 105.0),
            (5000, 106.0, 5105.0),
        ]

    def test_buffer_reduce(self, backend_spmd):
        def fn(comm):
            out = comm.Reduce(np.full(3, float(comm.rank + 1)), op=MAX, root=2)
            return None if out is None else out.tolist()

        values = backend_spmd(self.NPROCS, fn)
        assert values[2] == [float(self.NPROCS)] * 3
        assert values[0] is None

    def test_collectives_back_to_back(self, backend_spmd):
        """Tag discipline survives many collectives on one communicator."""

        def fn(comm):
            acc = []
            for i in range(5):
                acc.append(comm.allreduce(comm.rank + i))
                comm.barrier()
            return acc

        n = self.NPROCS
        base = sum(range(n))
        assert backend_spmd(n, fn) == [[base + n * i for i in range(5)]] * n


# ---------------------------------------------------------------------------
# Communicator management
# ---------------------------------------------------------------------------


class TestCommManagement:
    def test_split_disjoint_worlds(self, backend_spmd):
        def fn(comm):
            color = comm.rank % 2
            sub = comm.split(color, key=comm.rank)
            value = sub.allreduce(comm.rank)
            out = (sub.rank, sub.size, value)
            sub.free()
            return out

        values = backend_spmd(4, fn)
        assert values[0] == (0, 2, 2)  # evens: 0 + 2
        assert values[1] == (0, 2, 4)  # odds: 1 + 3
        assert values[2] == (1, 2, 2)
        assert values[3] == (1, 2, 4)

    def test_split_key_reorders(self, backend_spmd):
        def fn(comm):
            sub = comm.split(0, key=-comm.rank)
            return sub.rank

        assert backend_spmd(3, fn) == [2, 1, 0]

    def test_split_undefined_excludes(self, backend_spmd):
        from repro.mpi import UNDEFINED

        def fn(comm):
            sub = comm.split(UNDEFINED if comm.rank == 0 else 1, key=comm.rank)
            if sub is None:
                return "excluded"
            return sub.allreduce(1)

        assert backend_spmd(3, fn) == ["excluded", 2, 2]

    def test_dup_isolates_traffic(self, backend_spmd):
        def fn(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("on-comm", 1, tag=1)
                dup.send("on-dup", 1, tag=1)
                return None
            first = dup.recv(source=0, tag=1)
            second = comm.recv(source=0, tag=1)
            return (first, second)

        assert backend_spmd(2, fn)[1] == ("on-dup", "on-comm")

    def test_create_subgroup(self, backend_spmd):
        def fn(comm):
            sub = comm.create(Group([0, 2]))
            if sub is None:
                return "out"
            return (sub.rank, sub.allreduce(comm.rank))

        assert backend_spmd(3, fn) == [(0, 2), "out", (1, 2)]

    def test_nested_splits(self, backend_spmd):
        """Context ids stay consistent through split-of-split (the process
        backend allocates them from disjoint per-rank subspaces)."""

        def fn(comm):
            half = comm.split(comm.rank // 2, key=comm.rank)
            pair_sum = half.allreduce(comm.rank)
            solo = half.split(half.rank, key=0)
            return (pair_sum, solo.size, solo.allreduce(comm.rank))

        values = backend_spmd(4, fn)
        assert values == [(1, 1, 0), (1, 1, 1), (5, 1, 2), (5, 1, 3)]

    def test_freed_comm_rejects_ops(self, backend_spmd):
        def fn(comm):
            sub = comm.split(0, key=comm.rank)
            sub.free()
            try:
                sub.allreduce(1)
            except CommError:
                return "rejected"

        assert backend_spmd(2, fn) == ["rejected"] * 2


# ---------------------------------------------------------------------------
# Value semantics & failure propagation
# ---------------------------------------------------------------------------


class TestSemantics:
    def test_object_send_is_by_value(self, backend_spmd):
        """Sender-side mutation after isend is never observed (the
        distributed-memory discipline both backends must enforce)."""

        def fn(comm):
            if comm.rank == 0:
                obj = {"v": [1, 2]}
                comm.isend(obj, 1, tag=6)
                obj["v"].append(999)  # after-send mutation
                return None
            return comm.recv(source=0, tag=6)

        assert backend_spmd(2, fn)[1] == {"v": [1, 2]}

    def test_receiver_owns_its_copy(self, backend_spmd):
        def fn(comm):
            if comm.rank == 0:
                payload = [0] * 4
                comm.bcast(payload, root=0)
                return payload
            got = comm.bcast(None, root=0)
            got.append(comm.rank)  # private copy: siblings must not see it
            return got

        values = backend_spmd(3, fn)
        assert values[0] == [0, 0, 0, 0]
        assert values[1] == [0, 0, 0, 0, 1]
        assert values[2] == [0, 0, 0, 0, 2]

    def test_rank_exception_propagates(self, backend_spmd):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("component blew up")
            comm.barrier()

        with pytest.raises((ValueError, AbortError)) as excinfo:
            backend_spmd(3, fn)
        assert "blew up" in str(excinfo.value) or isinstance(
            excinfo.value, AbortError
        )

    def test_invalid_rank_rejected(self, backend_spmd):
        def fn(comm):
            try:
                comm.send("x", comm.size + 5)
            except CommError:
                return "rejected"

        assert backend_spmd(2, fn) == ["rejected"] * 2

    def test_large_payload_roundtrip(self, backend_spmd):
        """Multi-megabyte payloads cross the (framed) transport intact."""

        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.arange(300_000, dtype=np.float64), 1, tag=8)
                return None
            buf = np.zeros(300_000)
            comm.Recv(buf, source=0, tag=8)
            return float(buf.sum())

        expected = float(np.arange(300_000, dtype=np.float64).sum())
        assert backend_spmd(2, fn)[1] == expected

    def test_large_payload_mutation_isolated(self, backend_spmd):
        """Receiver mutations of a large payload never reach the sender
        or later receives — even when the transport maps the payload
        zero-copy out of a shared page (shm), the received value must
        behave like a private copy."""

        def fn(comm):
            src = np.arange(100_000, dtype=np.float64)
            if comm.rank == 0:
                comm.send(src, 1, tag=3)
                comm.send(src, 1, tag=4)  # same logical payload again
                comm.barrier()
                return float(src.sum())  # sender's array untouched
            first = comm.recv(source=0, tag=3)
            first[:] = -1.0  # clobber the first delivery in place
            second = comm.recv(source=0, tag=4)
            comm.barrier()
            return float(second.sum())  # must be pristine

        expected = float(np.arange(100_000, dtype=np.float64).sum())
        assert backend_spmd(2, fn) == [expected, expected]

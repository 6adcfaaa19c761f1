"""Buffer-mode collectives: the numpy fast path (uppercase verbs).

Same algorithms as :mod:`repro.mpi.collectives` (selected by the same
:class:`~repro.mpi.world.WorldConfig` switches), but payloads travel as
private array copies instead of pickles — the throughput path for the
large fields climate components exchange.  Semantics follow mpi4py's
uppercase methods: callers pass numpy buffers, roots provide/receive
stacked arrays with a leading rank axis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import CommError, TruncationError
from repro.mpi.reduce_ops import Op


def _like(arr: np.ndarray) -> np.ndarray:
    return np.empty_like(np.asarray(arr))


def _check_shape(got: np.ndarray, want_shape: tuple, what: str) -> None:
    if got.shape != want_shape:
        raise TruncationError(f"{what}: buffer shape {got.shape} != expected {want_shape}")


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


def Bcast(comm, buf: np.ndarray, root: int, tag: int) -> np.ndarray:
    """In-place broadcast of *buf* from *root* (every rank passes a buffer
    of identical shape/dtype)."""
    buf = np.asarray(buf)
    size, rank = comm.size, comm.rank
    if size == 1:
        return buf
    hier = comm._hierarchy()
    if hier is not None:
        return _Bcast_hierarchical(comm, buf, root, tag, hier)
    algo = comm._world.config.bcast_algorithm
    if algo == "linear":
        if rank == root:
            dests = [d for d in range(size) if d != root]
            # Snapshot-once fan-out: one read-only copy shared by every
            # destination (receivers copy out of it).
            comm._coll_fanout_buffer(dests, tag, buf, "Bcast")
        else:
            _recv_into(comm, buf, root, tag, "Bcast")
        return buf
    return _members_Bcast(comm, range(size), root, buf, tag)


def _members_Bcast(comm, members, vroot: int, buf: np.ndarray, tag: int) -> np.ndarray:
    """Binomial buffer bcast over *members* rooted at virtual rank
    *vroot*.  A relay forwards the array it *received* verbatim to its
    children (the transport already owns a private snapshot, so no
    per-child copy is needed) and copies into its own buffer only for
    final delivery."""
    n = len(members)
    if n == 1:
        return buf
    vrank = members.index(comm.rank)
    relative = (vrank - vroot) % n
    inbound = None
    mask = 1
    while mask < n:
        if relative & mask:
            inbound = comm._coll_recv_buffer(
                members[(vrank - mask) % n], tag, "Bcast"
            )
            _check_shape(inbound, buf.shape, "Bcast")
            np.copyto(buf, inbound)
            break
        mask <<= 1
    mask >>= 1
    children = []
    while mask > 0:
        if relative + mask < n:
            children.append(members[(vrank + mask) % n])
        mask >>= 1
    if children:
        if inbound is not None:
            for dst in children:
                comm._coll_forward_buffer(dst, tag, inbound, "Bcast")
        else:
            comm._coll_fanout_buffer(children, tag, buf, "Bcast")
    return buf


def _Bcast_hierarchical(comm, buf: np.ndarray, root: int, tag: int, hier) -> np.ndarray:
    """Two-level buffer broadcast: binomial tree among node leaders
    (root promoted for its node), then a binomial tree within each node."""
    rank = comm.rank
    leaders, root_pos = hier.effective_leaders(root)
    if rank in leaders:
        _members_Bcast(comm, leaders, root_pos, buf, tag)
    members = list(hier.members(rank))
    if len(members) > 1:
        rep = root if hier.same_node(rank, root) else hier.leader(rank)
        _members_Bcast(comm, members, members.index(rep), buf, tag + 1)
    return buf


def _recv_into(comm, buf: np.ndarray, source: int, tag: int, opname: str) -> None:
    arr = comm._coll_recv_buffer(source, tag, opname)
    _check_shape(arr, buf.shape, opname)
    np.copyto(buf, arr)


# ---------------------------------------------------------------------------
# gather / scatter / allgather
# ---------------------------------------------------------------------------


def Gather(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int, tag: int) -> Optional[np.ndarray]:
    """Gather equal-shaped blocks to *root*; returns the stacked array
    (leading rank axis) at the root, ``None`` elsewhere."""
    sendbuf = np.asarray(sendbuf)
    if comm.rank == root:
        if recvbuf is None:
            recvbuf = np.empty((comm.size,) + sendbuf.shape, dtype=sendbuf.dtype)
        _check_shape(recvbuf, (comm.size,) + sendbuf.shape, "Gather recvbuf")
        recvbuf[root] = sendbuf
        for src in range(comm.size):
            if src != root:
                arr = comm._coll_recv_buffer(src, tag, "Gather")
                _check_shape(arr, sendbuf.shape, "Gather")
                recvbuf[src] = arr
        return recvbuf
    comm._coll_send_buffer(root, tag, sendbuf, "Gather")
    return None


def Scatter(comm, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int, tag: int) -> np.ndarray:
    """Scatter the root's stacked array (leading rank axis) into each
    rank's *recvbuf*."""
    recvbuf = np.asarray(recvbuf)
    if comm.rank == root:
        if sendbuf is None:
            raise CommError("Scatter: root must supply sendbuf")
        sendbuf = np.asarray(sendbuf)
        _check_shape(sendbuf, (comm.size,) + recvbuf.shape, "Scatter sendbuf")
        for dest in range(comm.size):
            if dest != root:
                comm._coll_send_buffer(dest, tag, sendbuf[dest], "Scatter")
        np.copyto(recvbuf, sendbuf[root])
        return recvbuf
    _recv_into(comm, recvbuf, root, tag, "Scatter")
    return recvbuf


def Allgather(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], tag: int) -> np.ndarray:
    """Gather equal-shaped blocks onto every rank (leading rank axis)."""
    sendbuf = np.asarray(sendbuf)
    size, rank = comm.size, comm.rank
    if recvbuf is None:
        recvbuf = np.empty((size,) + sendbuf.shape, dtype=sendbuf.dtype)
    _check_shape(recvbuf, (size,) + sendbuf.shape, "Allgather recvbuf")
    recvbuf[rank] = sendbuf
    if size == 1:
        return recvbuf
    algo = comm._world.config.allgather_algorithm
    if algo == "gather_bcast":
        Gather(comm, sendbuf, recvbuf if rank == 0 else None, 0, tag)
        Bcast(comm, recvbuf, 0, tag + 1)
        return recvbuf
    # ring: forward the piece received last step; slot by source rank.
    # Each step pre-posts the inbound receive before sending, so the
    # rendezvous parks at most once on the progress engine.
    right, left = (rank + 1) % size, (rank - 1) % size
    piece_src = rank
    for _ in range(size - 1):
        inbound_src = (piece_src - 1) % size
        posted = comm._coll_post(left, tag)
        comm._coll_send_buffer(right, tag, recvbuf[piece_src], f"Allgather:{piece_src}")
        arr = comm._coll_complete_buffer(posted, left, f"Allgather:{inbound_src}")
        _check_shape(arr, sendbuf.shape, "Allgather")
        piece_src = inbound_src
        recvbuf[piece_src] = arr
    return recvbuf


def Gatherv(comm, sendbuf: np.ndarray, root: int, tag: int) -> Optional[tuple[np.ndarray, list[int]]]:
    """Variable-size gather: blocks (differing along axis 0) concatenate
    at *root*; returns ``(full, counts)`` there, ``None`` elsewhere.

    Unlike MPI's ``Gatherv``, counts need not be pre-agreed — each block
    carries its own shape, and the per-rank counts come back alongside the
    assembled array (the pythonic contract).
    """
    sendbuf = np.asarray(sendbuf)
    if comm.rank == root:
        blocks: list[np.ndarray] = [None] * comm.size  # type: ignore[list-item]
        blocks[root] = sendbuf
        for src in range(comm.size):
            if src != root:
                blocks[src] = comm._coll_recv_buffer(src, tag, "Gatherv")
        counts = [b.shape[0] for b in blocks]
        return np.concatenate(blocks, axis=0), counts
    comm._coll_send_buffer(root, tag, sendbuf, "Gatherv")
    return None


def Scatterv(
    comm,
    sendbuf: Optional[np.ndarray],
    counts: Optional[list[int]],
    root: int,
    tag: int,
) -> np.ndarray:
    """Variable-size scatter: the root splits *sendbuf* along axis 0 into
    ``counts[r]``-row blocks; every rank returns its block."""
    if comm.rank == root:
        if sendbuf is None or counts is None:
            raise CommError("Scatterv: root must supply sendbuf and counts")
        sendbuf = np.asarray(sendbuf)
        if len(counts) != comm.size:
            raise CommError(f"Scatterv needs {comm.size} counts, got {len(counts)}")
        if sum(counts) != sendbuf.shape[0]:
            raise CommError(
                f"Scatterv counts sum to {sum(counts)} but sendbuf has "
                f"{sendbuf.shape[0]} rows"
            )
        offsets = np.concatenate([[0], np.cumsum(counts)])
        mine: Optional[np.ndarray] = None
        for dest in range(comm.size):
            block = sendbuf[offsets[dest] : offsets[dest + 1]]
            if dest == root:
                mine = np.array(block, copy=True)
            else:
                comm._coll_send_buffer(dest, tag, block, "Scatterv")
        assert mine is not None
        return mine
    return comm._coll_recv_buffer(root, tag, "Scatterv")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def Reduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, root: int, tag: int) -> Optional[np.ndarray]:
    """Elementwise reduction to *root* (rank-ordered combination)."""
    sendbuf = np.asarray(sendbuf)
    size, rank = comm.size, comm.rank
    if rank == root:
        if recvbuf is None:
            recvbuf = np.array(sendbuf, copy=True)
        else:
            _check_shape(np.asarray(recvbuf), sendbuf.shape, "Reduce recvbuf")
            np.copyto(recvbuf, sendbuf)
    if size == 1:
        return recvbuf if rank == root else None

    algo = comm._world.config.reduce_algorithm
    if algo == "linear" or not op.commutative:
        stacked = Gather(comm, sendbuf, None, root, tag)
        if rank != root:
            return None
        acc = np.array(stacked[0], copy=True)
        for i in range(1, size):
            acc = op(acc, stacked[i])
        np.copyto(recvbuf, acc)
        return recvbuf
    hier = comm._hierarchy()
    if hier is not None:
        return _Reduce_hierarchical(comm, sendbuf, recvbuf, op, root, tag, hier)
    acc = _members_Reduce_binomial(comm, range(size), root, sendbuf, op, tag)
    if acc is None:
        return None
    np.copyto(recvbuf, acc)
    return recvbuf


def _members_Reduce_binomial(comm, members, vroot: int, sendbuf: np.ndarray, op: Op, tag: int) -> Optional[np.ndarray]:
    """Binomial buffer reduce over *members* to virtual rank *vroot*;
    returns the accumulated (private) array there, ``None`` elsewhere."""
    n = len(members)
    acc = np.array(sendbuf, copy=True)
    if n == 1:
        return acc
    vrank = members.index(comm.rank)
    relative = (vrank - vroot) % n
    mask = 1
    while mask < n:
        if relative & mask:
            comm._coll_send_buffer(members[(vrank - mask) % n], tag, acc, "Reduce")
            return None
        src_rel = relative | mask
        if src_rel < n:
            partial = comm._coll_recv_buffer(
                members[(src_rel + vroot) % n], tag, "Reduce"
            )
            acc = op(acc, partial)
        mask <<= 1
    return acc


def _Reduce_hierarchical(
    comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, root: int, tag: int, hier
) -> Optional[np.ndarray]:
    """Two-level buffer reduce (commutative operators only): fold within
    each node to its representative, then across the node leaders to
    *root*."""
    rank = comm.rank
    members = list(hier.members(rank))
    if len(members) > 1:
        rep = root if hier.same_node(rank, root) else hier.leader(rank)
        acc = _members_Reduce_binomial(
            comm, members, members.index(rep), sendbuf, op, tag
        )
    else:
        acc = np.array(sendbuf, copy=True)
    leaders, root_pos = hier.effective_leaders(root)
    if acc is not None and rank in leaders:
        acc = _members_Reduce_binomial(comm, leaders, root_pos, acc, op, tag + 1)
    if rank != root or acc is None:
        return None
    np.copyto(recvbuf, acc)
    return recvbuf


def Allreduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, tag: int) -> np.ndarray:
    """Elementwise reduction delivered to every rank."""
    sendbuf = np.asarray(sendbuf)
    if recvbuf is None:
        recvbuf = np.array(sendbuf, copy=True)
    else:
        recvbuf = np.asarray(recvbuf)
        _check_shape(recvbuf, sendbuf.shape, "Allreduce recvbuf")
        np.copyto(recvbuf, sendbuf)
    if comm.size == 1:
        return recvbuf
    algo = comm._world.config.allreduce_algorithm
    if algo == "reduce_bcast" or not op.commutative:
        Reduce(comm, sendbuf, recvbuf if comm.rank == 0 else None, op, 0, tag)
        # tag + 2: a hierarchical Reduce occupies tag .. tag + 1 (see
        # collectives.MAX_TAG_OFFSET).
        Bcast(comm, recvbuf, 0, tag + 2)
        return recvbuf
    hier = comm._hierarchy()
    if hier is not None:
        return _Allreduce_hierarchical(comm, sendbuf, recvbuf, op, tag, hier)
    acc = _members_Allreduce_rd(comm, range(comm.size), sendbuf, op, tag)
    np.copyto(recvbuf, acc)
    return recvbuf


def _members_Allreduce_rd(comm, members, sendbuf: np.ndarray, op: Op, tag: int) -> np.ndarray:
    """Recursive-doubling buffer allreduce over *members* with the
    non-power-of-two fold-in (see the object-mode twin for the
    derivation); returns the accumulated private array."""
    n = len(members)
    acc = np.array(sendbuf, copy=True)
    if n == 1:
        return acc
    vrank = members.index(comm.rank)
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2
    if vrank < 2 * rem:
        if vrank % 2 == 0:
            comm._coll_send_buffer(members[vrank + 1], tag, acc, "Allreduce")
            newrank = -1
        else:
            partial = comm._coll_recv_buffer(members[vrank - 1], tag, "Allreduce")
            acc = op(partial, acc)
            newrank = vrank // 2
    else:
        newrank = vrank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner_v = partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            partner = members[partner_v]
            posted = comm._coll_post(partner, tag)
            comm._coll_send_buffer(partner, tag, acc, "Allreduce")
            other = comm._coll_complete_buffer(posted, partner, "Allreduce")
            acc = op(acc, other) if partner_new > newrank else op(other, acc)
            mask <<= 1
    if vrank < 2 * rem:
        if vrank % 2 == 1:
            comm._coll_send_buffer(members[vrank - 1], tag, acc, "Allreduce")
        else:
            acc = comm._coll_recv_buffer(members[vrank + 1], tag, "Allreduce")
    return acc


def _Allreduce_hierarchical(
    comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op, tag: int, hier
) -> np.ndarray:
    """Two-level buffer allreduce: reduce to each node leader, recursive
    doubling among the leaders (the only cross-node phase), broadcast
    back down within each node."""
    rank = comm.rank
    members = list(hier.members(rank))
    leader = hier.leader(rank)
    if len(members) > 1:
        acc = _members_Reduce_binomial(comm, members, 0, sendbuf, op, tag)
    else:
        acc = np.array(sendbuf, copy=True)
    if rank == leader:
        leaders = list(hier.leaders)
        if len(leaders) > 1:
            acc = _members_Allreduce_rd(comm, leaders, acc, op, tag + 1)
        np.copyto(recvbuf, acc)
    if len(members) > 1:
        _members_Bcast(comm, members, 0, recvbuf, tag + 2)
    return recvbuf

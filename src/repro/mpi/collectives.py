"""Collective-communication algorithms over the point-to-point layer.

Every algorithm here is the textbook version used by production MPI
libraries (MPICH nomenclature):

* broadcast — ``linear`` (root sends to every rank) or ``binomial`` tree
  (O(log P) rounds);
* reduce — ``linear`` (gather-and-fold at root, exact rank order, required
  for non-commutative operators) or ``binomial`` tree;
* allreduce — ``reduce_bcast`` composition or ``recursive_doubling`` with
  the non-power-of-two fold-in pre/post phases;
* allgather — ``gather_bcast`` composition or ``ring`` (P-1 neighbour
  steps);
* barrier — ``linear`` (gather + release through rank 0) or
  ``dissemination`` (O(log P) rounds).

The choice is taken from :class:`repro.mpi.world.WorldConfig`, which the
benchmark suite ablates (experiment E9 companion: substrate ablation).

All functions receive the calling process's communicator handle and use its
private collective context and per-call tag, so user point-to-point traffic
can never interfere.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import CollectiveMismatchError
from repro.mpi.reduce_ops import Op

#: Largest sub-tag offset (``tag + k``) any composed collective in this
#: module uses.  Two-level (hierarchical) collectives consume up to three
#: sub-tags (intra-node, inter-node, intra-node release), and the
#: ``reduce_bcast`` allreduce composition must start its broadcast at
#: ``tag + 2`` because a hierarchical reduce already occupies ``tag`` and
#: ``tag + 1`` — so the deepest consumer is that composition's
#: hierarchical broadcast at ``tag + 2 .. tag + 3``.
#: :meth:`repro.mpi.comm.Comm._next_coll_tag` advances base tags in
#: strides of :data:`repro.mpi.comm._COLL_TAG_STRIDE`, so back-to-back
#: collectives on one communicator cannot collide as long as
#: ``MAX_TAG_OFFSET`` stays below the stride — a regression test pins
#: both the inequality and the interleaving behaviour.
MAX_TAG_OFFSET = 3


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


def bcast(comm, obj: Any, root: int, tag: int) -> Any:
    """Broadcast *obj* from *root* to every rank of *comm*."""
    algo = comm._world.config.bcast_algorithm
    if comm.size == 1:
        return obj
    hier = comm._hierarchy()
    if hier is not None:
        return _bcast_hierarchical(comm, obj, root, tag, hier)
    if algo == "linear":
        return _bcast_linear(comm, obj, root, tag)
    if algo == "binomial":
        return _bcast_binomial(comm, obj, root, tag)
    raise ValueError(f"unknown bcast algorithm {algo!r}")


def _bcast_linear(comm, obj: Any, root: int, tag: int) -> Any:
    if comm.rank == root:
        dests = [d for d in range(comm.size) if d != root]
        # Pickle-once fan-out: one encoding shared by every destination.
        comm._coll_fanout(dests, tag, obj, "bcast")
        return obj
    return comm._coll_recv(root, tag, "bcast")


def _bcast_binomial(comm, obj: Any, root: int, tag: int) -> Any:
    return _members_bcast(comm, range(comm.size), root, obj, tag)


# The tree algorithms below are *member-list generalised*: they run over
# an arbitrary ordered subset of communicator ranks (``members``), with
# every tree position computed in the virtual rank space 0..len-1 and
# mapped back through the list for the actual sends.  The flat
# algorithms pass ``range(size)``; the two-level algorithms pass a
# node's member list or the per-node leader list.


def _members_bcast(comm, members, vroot: int, obj: Any, tag: int) -> Any:
    """Binomial broadcast over *members* rooted at virtual rank *vroot*:
    relays forward the *received* blob verbatim to their children (no
    unpickle→repickle per hop) and decode it lazily, only for their own
    final delivery."""
    n = len(members)
    if n == 1:
        return obj
    vrank = members.index(comm.rank)
    relative = (vrank - vroot) % n
    blob = None
    mask = 1
    while mask < n:
        if relative & mask:
            src = members[(vrank - mask) % n]
            blob = comm._coll_recv_blob(src, tag, "bcast")
            break
        mask <<= 1
    received = blob is not None
    if blob is None:
        blob = comm._coll_encode(obj)  # root encodes exactly once
    mask >>= 1
    fresh = not received  # the root's first child send pays the encoding
    while mask > 0:
        if relative + mask < n:
            dst = members[(vrank + mask) % n]
            comm._coll_send_blob(dst, tag, blob, "bcast", reused=not fresh)
            fresh = False
        mask >>= 1
    return blob.decode() if received else obj


def _bcast_hierarchical(comm, obj: Any, root: int, tag: int, hier) -> Any:
    """Two-level broadcast: inter-node binomial tree among the node
    leaders (with *root* promoted to represent its node), then an
    intra-node binomial tree on every node — the MPICH-G2 pattern where
    the wide fan-out happens over the fast local substrate."""
    rank = comm.rank
    leaders, root_pos = hier.effective_leaders(root)
    if rank in leaders:
        obj = _members_bcast(comm, leaders, root_pos, obj, tag)
    members = list(hier.members(rank))
    if len(members) > 1:
        rep = root if hier.same_node(rank, root) else hier.leader(rank)
        obj = _members_bcast(comm, members, members.index(rep), obj, tag + 1)
    return obj


# ---------------------------------------------------------------------------
# gather / scatter (linear; object mode makes the "v" variants identical)
# ---------------------------------------------------------------------------


def gather(comm, obj: Any, root: int, tag: int) -> Optional[list]:
    """Gather one object per rank into a rank-ordered list at *root*."""
    if comm.size == 1:
        return [obj]
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = obj
        for src in range(comm.size):
            if src != root:
                out[src] = comm._coll_recv(src, tag, "gather")
        return out
    comm._coll_send(root, tag, obj, "gather")
    return None


def scatter(comm, objs: Optional[Sequence[Any]], root: int, tag: int) -> Any:
    """Scatter one object per rank from *root*'s sequence."""
    if comm.size == 1:
        assert objs is not None
        return objs[0]
    if comm.rank == root:
        if objs is None or len(objs) != comm.size:
            got = "None" if objs is None else str(len(objs))
            raise CollectiveMismatchError(
                f"scatter at root needs exactly {comm.size} items, got {got}"
            )
        for dest in range(comm.size):
            if dest != root:
                comm._coll_send(dest, tag, objs[dest], "scatter")
        return objs[root]
    return comm._coll_recv(root, tag, "scatter")


# ---------------------------------------------------------------------------
# allgather
# ---------------------------------------------------------------------------


def allgather(comm, obj: Any, tag: int) -> list:
    """Gather one object per rank into a rank-ordered list on every rank."""
    if comm.size == 1:
        return [obj]
    algo = comm._world.config.allgather_algorithm
    if algo == "gather_bcast":
        gathered = gather(comm, obj, 0, tag)
        return bcast(comm, gathered, 0, tag + 1)
    if algo == "ring":
        return _allgather_ring(comm, obj, tag)
    raise ValueError(f"unknown allgather algorithm {algo!r}")


def _allgather_ring(comm, obj: Any, tag: int) -> list:
    size, rank = comm.size, comm.rank
    out: list[Any] = [None] * size
    out[rank] = obj
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Each step pre-posts the inbound receive before sending, so the
    # neighbour's envelope lands on a posted receive and the completion
    # wakes this rank exactly once.  Relay-without-reencode: each hop
    # decodes the inbound piece for its own result but forwards the
    # received blob verbatim.
    piece_blob = comm._coll_encode((rank, obj))
    fresh = True
    for _ in range(size - 1):
        posted = comm._coll_post(left, tag)
        comm._coll_send_blob(right, tag, piece_blob, "allgather", reused=not fresh)
        fresh = False
        piece_blob = comm._coll_complete(posted, left, "allgather").payload
        piece_src, piece = piece_blob.decode()
        out[piece_src] = piece
    return out


# ---------------------------------------------------------------------------
# alltoall
# ---------------------------------------------------------------------------


def alltoall(comm, objs: Sequence[Any], tag: int) -> list:
    """Personalised exchange: rank *i* receives ``objs[i]`` from every rank.

    Eager sends make the send-all-then-receive-all schedule deadlock-free.
    """
    if len(objs) != comm.size:
        raise CollectiveMismatchError(
            f"alltoall needs exactly {comm.size} items, got {len(objs)}"
        )
    if comm.size == 1:
        return [objs[0]]
    out: list[Any] = [None] * comm.size
    out[comm.rank] = objs[comm.rank]
    # Pre-post every inbound receive, then send: arriving envelopes match
    # posted receives directly instead of queueing as pending, and the
    # completion wait below parks at most once per missing peer.
    posted = {
        src: comm._coll_post(src, tag) for src in range(comm.size) if src != comm.rank
    }
    for dest in range(comm.size):
        if dest != comm.rank:
            comm._coll_send(dest, tag, objs[dest], "alltoall")
    for src, pr in posted.items():
        out[src] = comm._coll_complete(pr, src, "alltoall").payload.decode()
    return out


# ---------------------------------------------------------------------------
# reduce / allreduce / scan
# ---------------------------------------------------------------------------


def reduce(comm, obj: Any, op: Op, root: int, tag: int) -> Any:
    """Reduce contributions in rank order to *root* (None elsewhere)."""
    if comm.size == 1:
        return obj
    algo = comm._world.config.reduce_algorithm
    # Binomial combination reorders only across aligned contiguous blocks,
    # which is safe for associative operators; strict rank order for
    # non-commutative user operators additionally requires root rotation to
    # be avoided, so fall back to the linear algorithm for those.
    if algo == "linear" or not op.commutative:
        return _reduce_linear(comm, obj, op, root, tag)
    hier = comm._hierarchy()
    if hier is not None:
        return _reduce_hierarchical(comm, obj, op, root, tag, hier)
    if algo == "binomial":
        return _reduce_binomial(comm, obj, op, root, tag)
    raise ValueError(f"unknown reduce algorithm {algo!r}")


def _reduce_linear(comm, obj: Any, op: Op, root: int, tag: int) -> Any:
    gathered = gather(comm, obj, root, tag)
    if comm.rank != root:
        return None
    assert gathered is not None
    return op.reduce(gathered)


def _reduce_binomial(comm, obj: Any, op: Op, root: int, tag: int) -> Any:
    return _members_reduce_binomial(
        comm, range(comm.size), root, obj, op, tag
    )


def _members_reduce_binomial(
    comm, members, vroot: int, obj: Any, op: Op, tag: int
) -> Any:
    """Binomial reduce over *members* to virtual rank *vroot* (returns
    the result there, ``None`` elsewhere)."""
    n = len(members)
    if n == 1:
        return obj
    vrank = members.index(comm.rank)
    relative = (vrank - vroot) % n
    acc = obj
    mask = 1
    while mask < n:
        if relative & mask:
            dst = members[(vrank - mask) % n]
            comm._coll_send(dst, tag, acc, "reduce")
            return None
        src_rel = relative | mask
        if src_rel < n:
            src = members[(src_rel + vroot) % n]
            partial = comm._coll_recv(src, tag, "reduce")
            # acc covers relative block [relative, relative+mask); partial
            # covers the adjacent higher block — combine in that order.
            acc = op(acc, partial)
        mask <<= 1
    return acc


def _reduce_hierarchical(comm, obj: Any, op: Op, root: int, tag: int, hier) -> Any:
    """Two-level reduce (commutative operators only — the entry point
    falls back to linear otherwise): fold within each node to its
    representative, then fold the per-node partials to *root* over the
    inter-node tree."""
    rank = comm.rank
    members = list(hier.members(rank))
    acc = obj
    if len(members) > 1:
        rep = root if hier.same_node(rank, root) else hier.leader(rank)
        acc = _members_reduce_binomial(
            comm, members, members.index(rep), acc, op, tag
        )
    leaders, root_pos = hier.effective_leaders(root)
    if rank in leaders:
        acc = _members_reduce_binomial(
            comm, leaders, root_pos, acc, op, tag + 1
        )
    return acc if rank == root else None


def allreduce(comm, obj: Any, op: Op, tag: int) -> Any:
    """Reduce contributions and deliver the result to every rank."""
    if comm.size == 1:
        return obj
    algo = comm._world.config.allreduce_algorithm
    if algo == "reduce_bcast" or not op.commutative:
        result = reduce(comm, obj, op, 0, tag)
        # tag + 2: a hierarchical reduce occupies tag .. tag + 1, so the
        # broadcast half must start beyond it (see MAX_TAG_OFFSET).
        return bcast(comm, result, 0, tag + 2)
    hier = comm._hierarchy()
    if hier is not None:
        return _allreduce_hierarchical(comm, obj, op, tag, hier)
    if algo == "recursive_doubling":
        return _allreduce_recursive_doubling(comm, obj, op, tag)
    raise ValueError(f"unknown allreduce algorithm {algo!r}")


def _allreduce_recursive_doubling(comm, obj: Any, op: Op, tag: int) -> Any:
    return _members_allreduce_rd(comm, range(comm.size), obj, op, tag)


def _members_allreduce_rd(comm, members, obj: Any, op: Op, tag: int) -> Any:
    """Recursive-doubling allreduce over *members* with the MPICH
    non-power-of-two fold-in pre/post phases, in virtual rank space."""
    n = len(members)
    if n == 1:
        return obj
    vrank = members.index(comm.rank)
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2
    acc = obj
    # Fold the surplus ranks into their even neighbours so a power-of-two
    # set remains (MPICH pre-phase).
    if vrank < 2 * rem:
        if vrank % 2 == 0:
            comm._coll_send(members[vrank + 1], tag, acc, "allreduce")
            newrank = -1
        else:
            partial = comm._coll_recv(members[vrank - 1], tag, "allreduce")
            acc = op(partial, acc)  # lower rank's contribution on the left
            newrank = vrank // 2
    else:
        newrank = vrank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner_v = partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            partner = members[partner_v]
            # Pairwise exchange: pre-post the inbound half before sending.
            posted = comm._coll_post(partner, tag)
            comm._coll_send(partner, tag, acc, "allreduce")
            other = comm._coll_complete(posted, partner, "allreduce").payload.decode()
            acc = op(acc, other) if partner_new > newrank else op(other, acc)
            mask <<= 1
    # Post-phase: hand results back to the folded-out even ranks.
    if vrank < 2 * rem:
        if vrank % 2 == 1:
            comm._coll_send(members[vrank - 1], tag, acc, "allreduce")
        else:
            acc = comm._coll_recv(members[vrank + 1], tag, "allreduce")
    return acc


def _allreduce_hierarchical(comm, obj: Any, op: Op, tag: int, hier) -> Any:
    """Two-level allreduce: reduce to each node's leader, recursive
    doubling among the leaders (the only phase that crosses node
    boundaries), then broadcast back down within each node."""
    rank = comm.rank
    members = list(hier.members(rank))
    acc = obj
    if len(members) > 1:
        acc = _members_reduce_binomial(comm, members, 0, acc, op, tag)
    if rank == hier.leader(rank):
        leaders = list(hier.leaders)
        if len(leaders) > 1:
            acc = _members_allreduce_rd(comm, leaders, acc, op, tag + 1)
    if len(members) > 1:
        acc = _members_bcast(comm, members, 0, acc, tag + 2)
    return acc


def scan(comm, obj: Any, op: Op, tag: int) -> Any:
    """Inclusive prefix reduction: rank *r* gets the fold of ranks 0..r."""
    if comm.size == 1:
        return obj
    acc = obj
    if comm.rank > 0:
        partial = comm._coll_recv(comm.rank - 1, tag, "scan")
        acc = op(partial, acc)
    if comm.rank < comm.size - 1:
        comm._coll_send(comm.rank + 1, tag, acc, "scan")
    return acc


def exscan(comm, obj: Any, op: Op, tag: int) -> Any:
    """Exclusive prefix reduction: rank *r* gets the fold of ranks 0..r-1
    (``None`` on rank 0, matching MPI's undefined value there)."""
    if comm.rank == 0:
        if comm.size > 1:
            comm._coll_send(1, tag, obj, "exscan")
        return None
    below = comm._coll_recv(comm.rank - 1, tag, "exscan")
    if comm.rank < comm.size - 1:
        comm._coll_send(comm.rank + 1, tag, op(below, obj), "exscan")
    return below


def reduce_scatter(comm, objs: Sequence[Any], op: Op, tag: int) -> Any:
    """Reduce per-slot across ranks, then deliver slot *r* to rank *r*.

    Each rank contributes a sequence of ``comm.size`` items.
    """
    if len(objs) != comm.size:
        raise CollectiveMismatchError(
            f"reduce_scatter needs exactly {comm.size} items, got {len(objs)}"
        )
    if comm.size == 1:
        return objs[0]
    gathered = gather(comm, list(objs), 0, tag)
    slots = None
    if comm.rank == 0:
        assert gathered is not None
        slots = [op.reduce([contrib[slot] for contrib in gathered]) for slot in range(comm.size)]
    return scatter(comm, slots, 0, tag + 1)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def barrier(comm, tag: int) -> None:
    """Block until every rank of *comm* has entered the barrier."""
    if comm.size == 1:
        return
    hier = comm._hierarchy()
    if hier is not None:
        _barrier_hierarchical(comm, tag, hier)
        return
    algo = comm._world.config.barrier_algorithm
    if algo == "linear":
        gather(comm, None, 0, tag)
        bcast(comm, None, 0, tag + 1)
        return
    if algo == "dissemination":
        _members_barrier_dissemination(comm, range(comm.size), tag)
        return
    raise ValueError(f"unknown barrier algorithm {algo!r}")


def _members_barrier_dissemination(comm, members, tag: int) -> None:
    n = len(members)
    vrank = members.index(comm.rank)
    step = 1
    while step < n:
        # Pre-post the inbound notification before sending ours, so
        # each round's rendezvous costs at most one park.
        src = members[(vrank - step) % n]
        posted = comm._coll_post(src, tag)
        comm._coll_send(members[(vrank + step) % n], tag, None, "barrier")
        comm._coll_complete(posted, src, "barrier")
        step <<= 1


def _barrier_hierarchical(comm, tag: int, hier) -> None:
    """Two-level barrier: members report to their node leader, the
    leaders run a dissemination barrier among themselves (the only
    cross-node traffic), then each leader releases its node."""
    rank = comm.rank
    members = list(hier.members(rank))
    leader = hier.leader(rank)
    if len(members) > 1:
        if rank != leader:
            comm._coll_send(leader, tag, None, "barrier")
        else:
            for src in members:
                if src != leader:
                    comm._coll_recv(src, tag, "barrier")
    leaders = list(hier.leaders)
    if rank == leader and len(leaders) > 1:
        _members_barrier_dissemination(comm, leaders, tag + 1)
    if len(members) > 1:
        _members_bcast(comm, members, 0, None, tag + 2)

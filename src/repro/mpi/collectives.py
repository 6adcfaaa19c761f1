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

Each schedule is written once and moves its values through a *payload
codec*: the schedule owns who talks to whom, in which order and on which
sub-tag; the codec — one for the lowercase verbs (pickled objects), one
for the uppercase verbs (numpy buffers, the throughput path for the large
fields climate components exchange) — owns what goes on the wire, what a
relay forwards, how a ring piece carries its origin, how a received
payload is opened, and the names in the envelope's ``op`` slot.  The
public verbs are thin entry points: argument validation and, for the
buffer verbs, mpi4py's uppercase contract (callers pass numpy buffers,
roots provide/receive stacked arrays with a leading rank axis).

All functions receive the calling process's communicator handle and use its
private collective context and per-call tag, so user point-to-point traffic
can never interfere.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import CollectiveMismatchError, CommError, TruncationError
from repro.mpi.mailbox import Envelope
from repro.mpi.reduce_ops import Op
from repro.mpi.serialization import Blob

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
# payload codecs
# ---------------------------------------------------------------------------


class _ObjectCodec:
    """Lowercase verbs: any picklable value, encoded once per logical
    message into a :class:`~repro.mpi.serialization.Blob`.  Fan-out
    siblings share the blob, relays forward the received blob verbatim
    (no unpickle→repickle per hop) and decode it — a private copy — only
    for their own delivery.  Envelopes are ``kind="object"`` with
    ``count`` in bytes; a reduction accumulates in the value itself."""

    kind = "object"
    bcast, gather, allgather = "bcast", "gather", "allgather"
    reduce, allreduce = "reduce", "allreduce"
    #: Wire payload for one destination (``pack``) or several
    #: (``shared``): a blob is immutable, so one encoding serves both.
    pack = shared = staticmethod(Blob.encode)
    count = attrgetter("nbytes")

    def open(self, env: Envelope, opname: str) -> Any:
        return env.payload.decode()

    def acc(self, value: Any) -> Any:
        return value

    def join(self, gathered: list) -> list:
        """A gathered rank-ordered list as one broadcastable value."""
        return gathered

    def pack_piece(self, source: int, value: Any) -> Blob:
        """A ring piece carries its origin inside the payload (and in
        the op slot, see :func:`_allgather_ring`)."""
        return Blob.encode((source, value))

    def open_piece(self, env: Envelope, opname: str, source: int) -> tuple:
        return env.payload.decode()


class _BufferCodec:
    """Uppercase verbs: a numpy array travels as a private snapshot —
    read-only when a fan-out shares it between destinations, writable when
    it has exactly one (``Scatterv`` hands the received array to the
    caller).  Relays forward the received array verbatim (the transport
    already owns that snapshot); receivers copy out of it.  Envelopes are
    ``kind="bufcoll"`` with ``count`` in elements; a reduction
    accumulates in a private copy, never in the caller's sendbuf."""

    kind = "bufcoll"
    bcast, gather, allgather = "Bcast", "Gather", "Allgather"
    reduce, allreduce = "Reduce", "Allreduce"
    count = attrgetter("size")

    def pack(self, arr: np.ndarray) -> np.ndarray:
        return np.array(arr, copy=True)

    acc = pack

    def shared(self, arr: np.ndarray) -> np.ndarray:
        snap = np.array(arr, copy=True)
        snap.flags.writeable = False
        return snap

    def open(self, env: Envelope, opname: str) -> np.ndarray:
        payload = env.payload
        if isinstance(payload, Blob):
            payload = payload.decode()
            if not isinstance(payload, np.ndarray):
                raise TruncationError(
                    f"buffer-mode collective {opname!r} received an object-mode "
                    f"payload of type {type(payload).__name__}"
                )
        return payload

    def join(self, blocks: list) -> np.ndarray:
        """Equal-shaped gathered blocks stacked along a leading rank axis."""
        for src, block in enumerate(blocks):
            _check_shape(block, blocks[0].shape, f"Allgather block from rank {src}")
        return np.stack(blocks)

    def pack_piece(self, source: int, arr: np.ndarray) -> np.ndarray:
        """A ring piece's origin travels in the op slot alone: the
        receiver knows which source each step must deliver."""
        return self.shared(arr)

    def open_piece(self, env: Envelope, opname: str, source: int) -> tuple:
        return source, self.open(env, opname)


_OBJECT = _ObjectCodec()
_BUFFER = _BufferCodec()


def _send(comm, codec, dest: int, tag: int, wire, opname: str, reused: bool = False) -> None:
    """Send an already-packed payload.  The operation name travels in the
    envelope's ``op`` slot (not inside the payload), so validation never
    forces a decode and relays can forward received payloads verbatim.
    *reused* marks envelopes whose payload was shared from an earlier
    send (fan-out siblings, relay forwards) for the
    ``copy_avoided_bytes`` ledger."""
    env = Envelope(
        comm._coll_ctx,
        comm._rank,
        tag,
        wire,
        codec.kind,
        codec.count(wire),
        op=opname,
        copy_avoided=wire.nbytes if reused else 0,
    )
    comm._deliver(dest, env)


def _recv(comm, codec, source: int, tag: int, opname: str) -> Any:
    return codec.open(comm._coll_complete(comm._coll_post(source, tag), source, opname), opname)


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


def _bcast(comm, codec, value: Any, root: int, tag: int) -> Any:
    """Broadcast *value* from *root*; returns it there and the opened
    payload on every other rank."""
    if comm.size == 1:
        return value
    hier = comm._hierarchy()
    if hier is not None:
        return _bcast_hierarchical(comm, codec, value, root, tag, hier)
    algo = comm._world.config.bcast_algorithm
    if algo == "binomial":
        return _members_bcast(comm, codec, range(comm.size), root, value, tag)
    if algo != "linear":
        raise ValueError(f"unknown bcast algorithm {algo!r}")
    if comm.rank != root:
        return _recv(comm, codec, root, tag, codec.bcast)
    # Encode-once fan-out: one payload shared by every destination.
    wire = codec.shared(value)
    reused = False
    for dest in range(comm.size):
        if dest != root:
            _send(comm, codec, dest, tag, wire, codec.bcast, reused)
            reused = True
    return value


# The tree algorithms below are *member-list generalised*: they run over
# an arbitrary ordered subset of communicator ranks (``members``), with
# every tree position computed in the virtual rank space 0..len-1 and
# mapped back through the list for the actual sends.  The flat
# algorithms pass ``range(size)``; the two-level algorithms pass a
# node's member list or the per-node leader list (always two or more
# members: single-member phases are skipped by the callers).


def _members_bcast(comm, codec, members, vroot: int, value: Any, tag: int) -> Any:
    """Binomial broadcast over *members* rooted at virtual rank *vroot*:
    relays forward the *received* payload verbatim to their children and
    open it lazily, only for their own final delivery."""
    n = len(members)
    op = codec.bcast
    vrank = members.index(comm.rank)
    relative = (vrank - vroot) % n
    env = None
    mask = 1
    while mask < n:
        if relative & mask:
            src = members[(vrank - mask) % n]
            env = comm._coll_complete(comm._coll_post(src, tag), src, op)
            break
        mask <<= 1
    # The root encodes exactly once; a relay forwards what it received.
    wire = codec.shared(value) if env is None else env.payload
    mask >>= 1
    reused = env is not None  # the root's first child send pays the encoding
    while mask > 0:
        if relative + mask < n:
            _send(comm, codec, members[(vrank + mask) % n], tag, wire, op, reused)
            reused = True
        mask >>= 1
    return value if env is None else codec.open(env, op)


def _bcast_hierarchical(comm, codec, value: Any, root: int, tag: int, hier) -> Any:
    """Two-level broadcast: inter-node binomial tree among the node
    leaders (with *root* promoted to represent its node), then an
    intra-node binomial tree on every node — the MPICH-G2 pattern where
    the wide fan-out happens over the fast local substrate."""
    rank = comm.rank
    leaders, root_pos = hier.effective_leaders(root)
    if rank in leaders:
        value = _members_bcast(comm, codec, leaders, root_pos, value, tag)
    members = list(hier.members(rank))
    if len(members) > 1:
        rep = root if hier.same_node(rank, root) else hier.leader(rank)
        value = _members_bcast(comm, codec, members, members.index(rep), value, tag + 1)
    return value


# ---------------------------------------------------------------------------
# gather / scatter (linear) / allgather
# ---------------------------------------------------------------------------


def _gather(comm, codec, value: Any, root: int, tag: int, opname: str) -> Optional[list]:
    """Rank-ordered list of every rank's opened contribution at *root*
    (its own slot holds *value* itself), ``None`` elsewhere."""
    if comm.rank != root:
        _send(comm, codec, root, tag, codec.pack(value), opname)
        return None
    out: list[Any] = [None] * comm.size
    out[root] = value
    for src in range(comm.size):
        if src != root:
            out[src] = _recv(comm, codec, src, tag, opname)
    return out


def _scatter(comm, codec, values: Optional[Sequence[Any]], root: int, tag: int, opname: str) -> Any:
    """Send ``values[r]`` to each rank *r*; returns ``values[root]``
    itself at *root* and the opened payload elsewhere."""
    if comm.rank != root:
        return _recv(comm, codec, root, tag, opname)
    for dest in range(comm.size):
        if dest != root:
            _send(comm, codec, dest, tag, codec.pack(values[dest]), opname)
    return values[root]


def _allgather(comm, codec, value: Any, tag: int) -> Iterable[tuple]:
    """``(source, contribution)`` pairs for every rank of *comm*, own
    included.  The ring yields each piece as it arrives, so a buffer-mode
    caller copies it out and drops it before the next step."""
    if comm.size == 1:
        return [(0, value)]
    algo = comm._world.config.allgather_algorithm
    if algo == "gather_bcast":
        gathered = _gather(comm, codec, value, 0, tag, codec.gather)
        if gathered is not None:
            gathered = codec.join(gathered)
        return enumerate(_bcast(comm, codec, gathered, 0, tag + 1))
    if algo == "ring":
        return _allgather_ring(comm, codec, value, tag)
    raise ValueError(f"unknown allgather algorithm {algo!r}")


def _allgather_ring(comm, codec, value: Any, tag: int) -> Iterable[tuple]:
    size, rank = comm.size, comm.rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    yield rank, value
    # Each step pre-posts the inbound receive before sending, so the
    # neighbour's envelope lands on a posted receive and the completion
    # wakes this rank exactly once.  Relay-without-reencode: each hop
    # opens the inbound piece for its own result but forwards the
    # received payload verbatim.  The op slot names the piece's origin
    # (``Allgather:<source>``; step k must deliver what started k ranks
    # to the left), so a ring message duplicated or dropped by a fault
    # schedule is a collective mismatch, not a silently misplaced block.
    wire = codec.pack_piece(rank, value)
    piece_src, reused = rank, False
    for _ in range(size - 1):
        inbound_src = (piece_src - 1) % size
        posted = comm._coll_post(left, tag)
        _send(comm, codec, right, tag, wire, f"{codec.allgather}:{piece_src}", reused)
        reused = True
        opname = f"{codec.allgather}:{inbound_src}"
        env = comm._coll_complete(posted, left, opname)
        wire = env.payload
        piece_src, piece = codec.open_piece(env, opname, inbound_src)
        yield piece_src, piece


# ---------------------------------------------------------------------------
# reduce / allreduce
# ---------------------------------------------------------------------------


def _reduce(comm, codec, value: Any, op: Op, root: int, tag: int) -> Any:
    """Reduce contributions in rank order to *root* (``None`` elsewhere)."""
    if comm.size == 1:
        return value
    algo = comm._world.config.reduce_algorithm
    # Binomial combination reorders only across aligned contiguous blocks,
    # which is safe for associative operators; strict rank order for
    # non-commutative user operators additionally requires root rotation to
    # be avoided, so fall back to the linear algorithm for those.
    if algo == "linear" or not op.commutative:
        gathered = _gather(comm, codec, value, root, tag, codec.gather)
        if gathered is None:
            return None
        gathered[0] = codec.acc(gathered[0])
        return op.reduce(gathered)
    hier = comm._hierarchy()
    if hier is not None:
        return _reduce_hierarchical(comm, codec, value, op, root, tag, hier)
    if algo == "binomial":
        return _members_reduce(comm, codec, range(comm.size), root, value, op, tag)
    raise ValueError(f"unknown reduce algorithm {algo!r}")


def _members_reduce(comm, codec, members, vroot: int, value: Any, op: Op, tag: int) -> Any:
    """Binomial reduce over *members* to virtual rank *vroot* (returns
    the accumulated result there, ``None`` elsewhere)."""
    n = len(members)
    acc = codec.acc(value)
    vrank = members.index(comm.rank)
    relative = (vrank - vroot) % n
    mask = 1
    while mask < n:
        if relative & mask:
            dst = members[(vrank - mask) % n]
            _send(comm, codec, dst, tag, codec.pack(acc), codec.reduce)
            return None
        src_rel = relative | mask
        if src_rel < n:
            src = members[(src_rel + vroot) % n]
            partial = _recv(comm, codec, src, tag, codec.reduce)
            # acc covers relative block [relative, relative+mask); partial
            # covers the adjacent higher block — combine in that order.
            acc = op(acc, partial)
        mask <<= 1
    return acc


def _reduce_hierarchical(comm, codec, value: Any, op: Op, root: int, tag: int, hier) -> Any:
    """Two-level reduce (commutative operators only — the entry point
    falls back to linear otherwise): fold within each node to its
    representative, then fold the per-node partials to *root* over the
    inter-node tree."""
    rank = comm.rank
    members = list(hier.members(rank))
    acc = value
    if len(members) > 1:
        rep = root if hier.same_node(rank, root) else hier.leader(rank)
        acc = _members_reduce(comm, codec, members, members.index(rep), acc, op, tag)
    leaders, root_pos = hier.effective_leaders(root)
    if rank in leaders:
        acc = _members_reduce(comm, codec, leaders, root_pos, acc, op, tag + 1)
    return acc if rank == root else None


def _allreduce(comm, codec, value: Any, op: Op, tag: int) -> Any:
    """Reduce contributions and deliver the result to every rank."""
    if comm.size == 1:
        return value
    algo = comm._world.config.allreduce_algorithm
    if algo == "reduce_bcast" or not op.commutative:
        result = _reduce(comm, codec, value, op, 0, tag)
        # tag + 2: a hierarchical reduce occupies tag .. tag + 1, so the
        # broadcast half must start beyond it (see MAX_TAG_OFFSET).
        return _bcast(comm, codec, result, 0, tag + 2)
    hier = comm._hierarchy()
    if hier is not None:
        return _allreduce_hierarchical(comm, codec, value, op, tag, hier)
    if algo == "recursive_doubling":
        return _members_allreduce_rd(comm, codec, range(comm.size), value, op, tag)
    raise ValueError(f"unknown allreduce algorithm {algo!r}")


def _members_allreduce_rd(comm, codec, members, value: Any, op: Op, tag: int) -> Any:
    """Recursive-doubling allreduce over *members* with the MPICH
    non-power-of-two fold-in pre/post phases, in virtual rank space."""
    n = len(members)
    acc = codec.acc(value)
    name = codec.allreduce
    vrank = members.index(comm.rank)
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2
    # Fold the surplus ranks into their even neighbours so a power-of-two
    # set remains (MPICH pre-phase).
    if vrank < 2 * rem:
        if vrank % 2 == 0:
            _send(comm, codec, members[vrank + 1], tag, codec.pack(acc), name)
            newrank = -1
        else:
            partial = _recv(comm, codec, members[vrank - 1], tag, name)
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
            _send(comm, codec, partner, tag, codec.pack(acc), name)
            other = codec.open(comm._coll_complete(posted, partner, name), name)
            acc = op(acc, other) if partner_new > newrank else op(other, acc)
            mask <<= 1
    # Post-phase: hand results back to the folded-out even ranks.
    if vrank < 2 * rem:
        if vrank % 2 == 1:
            _send(comm, codec, members[vrank - 1], tag, codec.pack(acc), name)
        else:
            acc = _recv(comm, codec, members[vrank + 1], tag, name)
    return acc


def _allreduce_hierarchical(comm, codec, value: Any, op: Op, tag: int, hier) -> Any:
    """Two-level allreduce: reduce to each node's leader, recursive
    doubling among the leaders (the only phase that crosses node
    boundaries), then broadcast back down within each node."""
    rank = comm.rank
    members = list(hier.members(rank))
    acc = value
    if len(members) > 1:
        acc = _members_reduce(comm, codec, members, 0, acc, op, tag)
    if rank == hier.leader(rank):
        acc = _members_allreduce_rd(comm, codec, list(hier.leaders), acc, op, tag + 1)
    if len(members) > 1:
        acc = _members_bcast(comm, codec, members, 0, acc, tag + 2)
    return acc


# ---------------------------------------------------------------------------
# object-mode verbs (lowercase)
# ---------------------------------------------------------------------------


def bcast(comm, obj: Any, root: int, tag: int) -> Any:
    """Broadcast *obj* from *root* to every rank of *comm*."""
    return _bcast(comm, _OBJECT, obj, root, tag)


def gather(comm, obj: Any, root: int, tag: int) -> Optional[list]:
    """Gather one object per rank into a rank-ordered list at *root*."""
    return _gather(comm, _OBJECT, obj, root, tag, "gather")


def scatter(comm, objs: Optional[Sequence[Any]], root: int, tag: int) -> Any:
    """Scatter one object per rank from *root*'s sequence."""
    if comm.size == 1:
        assert objs is not None
        return objs[0]
    if comm.rank == root and (objs is None or len(objs) != comm.size):
        got = "None" if objs is None else str(len(objs))
        raise CollectiveMismatchError(
            f"scatter at root needs exactly {comm.size} items, got {got}"
        )
    return _scatter(comm, _OBJECT, objs, root, tag, "scatter")


def allgather(comm, obj: Any, tag: int) -> list:
    """Gather one object per rank into a rank-ordered list on every rank."""
    out: list[Any] = [None] * comm.size
    for src, piece in _allgather(comm, _OBJECT, obj, tag):
        out[src] = piece
    return out


def alltoall(comm, objs: Sequence[Any], tag: int) -> list:
    """Personalised exchange: rank *i* receives ``objs[i]`` from every rank.

    Eager sends make the send-all-then-receive-all schedule deadlock-free.
    """
    if len(objs) != comm.size:
        raise CollectiveMismatchError(
            f"alltoall needs exactly {comm.size} items, got {len(objs)}"
        )
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
            _send(comm, _OBJECT, dest, tag, Blob.encode(objs[dest]), "alltoall")
    for src, pr in posted.items():
        out[src] = comm._coll_complete(pr, src, "alltoall").payload.decode()
    return out


def reduce(comm, obj: Any, op: Op, root: int, tag: int) -> Any:
    """Reduce contributions in rank order to *root* (None elsewhere)."""
    return _reduce(comm, _OBJECT, obj, op, root, tag)


def allreduce(comm, obj: Any, op: Op, tag: int) -> Any:
    """Reduce contributions and deliver the result to every rank."""
    return _allreduce(comm, _OBJECT, obj, op, tag)


def scan(comm, obj: Any, op: Op, tag: int) -> Any:
    """Inclusive prefix reduction: rank *r* gets the fold of ranks 0..r."""
    acc = obj
    if comm.rank > 0:
        partial = _recv(comm, _OBJECT, comm.rank - 1, tag, "scan")
        acc = op(partial, acc)
    if comm.rank < comm.size - 1:
        _send(comm, _OBJECT, comm.rank + 1, tag, Blob.encode(acc), "scan")
    return acc


def exscan(comm, obj: Any, op: Op, tag: int) -> Any:
    """Exclusive prefix reduction: rank *r* gets the fold of ranks 0..r-1
    (``None`` on rank 0, matching MPI's undefined value there)."""
    if comm.rank == 0:
        if comm.size > 1:
            _send(comm, _OBJECT, 1, tag, Blob.encode(obj), "exscan")
        return None
    below = _recv(comm, _OBJECT, comm.rank - 1, tag, "exscan")
    if comm.rank < comm.size - 1:
        _send(comm, _OBJECT, comm.rank + 1, tag, Blob.encode(op(below, obj)), "exscan")
    return below


def reduce_scatter(comm, objs: Sequence[Any], op: Op, tag: int) -> Any:
    """Reduce per-slot across ranks, then deliver slot *r* to rank *r*.

    Each rank contributes a sequence of ``comm.size`` items.
    """
    if len(objs) != comm.size:
        raise CollectiveMismatchError(
            f"reduce_scatter needs exactly {comm.size} items, got {len(objs)}"
        )
    gathered = gather(comm, list(objs), 0, tag)
    slots = None
    if gathered is not None:
        slots = [op.reduce([contrib[slot] for contrib in gathered]) for slot in range(comm.size)]
    return scatter(comm, slots, 0, tag + 1)


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
        _send(comm, _OBJECT, members[(vrank + step) % n], tag, Blob.encode(None), "barrier")
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
            _send(comm, _OBJECT, leader, tag, Blob.encode(None), "barrier")
        else:
            for src in members:
                if src != leader:
                    _recv(comm, _OBJECT, src, tag, "barrier")
    if rank == leader:
        _members_barrier_dissemination(comm, list(hier.leaders), tag + 1)
    if len(members) > 1:
        _members_bcast(comm, _OBJECT, members, 0, None, tag + 2)


# ---------------------------------------------------------------------------
# buffer-mode verbs (uppercase)
# ---------------------------------------------------------------------------


def _check_shape(got: np.ndarray, want_shape: tuple, what: str) -> None:
    if got.shape != want_shape:
        raise TruncationError(f"{what}: buffer shape {got.shape} != expected {want_shape}")


def _deliver_into(buf: np.ndarray, arr: Any, what: str) -> None:
    """The one place a received block lands in a caller's buffer: shapes
    must agree and the dtype must cast under numpy's ``same_kind`` rule —
    anything else would truncate silently."""
    arr = np.asarray(arr)
    _check_shape(arr, buf.shape, what)
    if not np.can_cast(arr.dtype, buf.dtype, casting="same_kind"):
        raise TruncationError(
            f"{what}: cannot deliver {arr.dtype} data into a {buf.dtype} buffer"
        )
    np.copyto(buf, arr)


def Bcast(comm, buf: np.ndarray, root: int, tag: int) -> np.ndarray:
    """In-place broadcast of *buf* from *root* (every rank passes a buffer
    of identical shape/dtype)."""
    buf = np.asarray(buf)
    arr = _bcast(comm, _BUFFER, buf, root, tag)
    if comm.rank != root:
        _deliver_into(buf, arr, "Bcast")
    return buf


def Gather(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int, tag: int) -> Optional[np.ndarray]:
    """Gather equal-shaped blocks to *root*; returns the stacked array
    (leading rank axis) at the root, ``None`` elsewhere."""
    sendbuf = np.asarray(sendbuf)
    if comm.rank == root:
        if recvbuf is None:
            recvbuf = np.empty((comm.size,) + sendbuf.shape, dtype=sendbuf.dtype)
        _check_shape(recvbuf, (comm.size,) + sendbuf.shape, "Gather recvbuf")
    blocks = _gather(comm, _BUFFER, sendbuf, root, tag, "Gather")
    if blocks is None:
        return None
    for src, block in enumerate(blocks):
        _deliver_into(recvbuf[src, ...], block, f"Gather from rank {src}")
    return recvbuf


def Scatter(comm, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int, tag: int) -> np.ndarray:
    """Scatter the root's stacked array (leading rank axis) into each
    rank's *recvbuf*."""
    recvbuf = np.asarray(recvbuf)
    if comm.rank == root:
        if sendbuf is None:
            raise CommError("Scatter: root must supply sendbuf")
        sendbuf = np.asarray(sendbuf)
        _check_shape(sendbuf, (comm.size,) + recvbuf.shape, "Scatter sendbuf")
    _deliver_into(recvbuf, _scatter(comm, _BUFFER, sendbuf, root, tag, "Scatter"), "Scatter")
    return recvbuf


def Allgather(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], tag: int) -> np.ndarray:
    """Gather equal-shaped blocks onto every rank (leading rank axis)."""
    sendbuf = np.asarray(sendbuf)
    if recvbuf is None:
        recvbuf = np.empty((comm.size,) + sendbuf.shape, dtype=sendbuf.dtype)
    _check_shape(recvbuf, (comm.size,) + sendbuf.shape, "Allgather recvbuf")
    for src, block in _allgather(comm, _BUFFER, sendbuf, tag):
        _deliver_into(recvbuf[src, ...], block, f"Allgather from rank {src}")
    return recvbuf


def Gatherv(comm, sendbuf: np.ndarray, root: int, tag: int) -> Optional[tuple[np.ndarray, list[int]]]:
    """Variable-size gather: blocks (differing along axis 0) concatenate
    at *root*; returns ``(full, counts)`` there, ``None`` elsewhere.

    Unlike MPI's ``Gatherv``, counts need not be pre-agreed — each block
    carries its own shape, and the per-rank counts come back alongside the
    assembled array (the pythonic contract).
    """
    sendbuf = np.asarray(sendbuf)
    blocks = _gather(comm, _BUFFER, sendbuf, root, tag, "Gatherv")
    if blocks is None:
        return None
    for src, block in enumerate(blocks):
        if block.shape[1:] != sendbuf.shape[1:]:
            raise TruncationError(
                f"Gatherv: block from rank {src} has trailing shape "
                f"{block.shape[1:]} != root's {sendbuf.shape[1:]}"
            )
    return np.concatenate(blocks, axis=0), [b.shape[0] for b in blocks]


def Scatterv(
    comm,
    sendbuf: Optional[np.ndarray],
    counts: Optional[list[int]],
    root: int,
    tag: int,
) -> np.ndarray:
    """Variable-size scatter: the root splits *sendbuf* along axis 0 into
    ``counts[r]``-row blocks; every rank returns its block."""
    blocks = None
    if comm.rank == root:
        if sendbuf is None or counts is None:
            raise CommError("Scatterv: root must supply sendbuf and counts")
        sendbuf = np.asarray(sendbuf)
        if len(counts) != comm.size:
            raise CommError(f"Scatterv needs {comm.size} counts, got {len(counts)}")
        if min(counts) < 0:
            raise CommError(f"Scatterv counts must be non-negative, got {counts}")
        if sum(counts) != sendbuf.shape[0]:
            raise CommError(
                f"Scatterv counts sum to {sum(counts)} but sendbuf has "
                f"{sendbuf.shape[0]} rows"
            )
        offsets = np.concatenate([[0], np.cumsum(counts)])
        blocks = [sendbuf[offsets[r] : offsets[r + 1]] for r in range(comm.size)]
    mine = _scatter(comm, _BUFFER, blocks, root, tag, "Scatterv")
    # Callers own their block: the root's is a view of its sendbuf, and one
    # mapped zero-copy out of a shm page arrives read-only — copy those.
    return mine if comm.rank != root and mine.flags.writeable else np.array(mine, copy=True)


def Reduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, root: int, tag: int) -> Optional[np.ndarray]:
    """Elementwise reduction to *root* (rank-ordered combination)."""
    sendbuf = np.asarray(sendbuf)
    if comm.rank == root:
        recvbuf = np.empty_like(sendbuf) if recvbuf is None else np.asarray(recvbuf)
        _check_shape(recvbuf, sendbuf.shape, "Reduce recvbuf")
    result = _reduce(comm, _BUFFER, sendbuf, op, root, tag)
    if comm.rank != root:
        return None
    _deliver_into(recvbuf, result, "Reduce")
    return recvbuf


def Allreduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, tag: int) -> np.ndarray:
    """Elementwise reduction delivered to every rank."""
    sendbuf = np.asarray(sendbuf)
    recvbuf = np.empty_like(sendbuf) if recvbuf is None else np.asarray(recvbuf)
    _check_shape(recvbuf, sendbuf.shape, "Allreduce recvbuf")
    _deliver_into(recvbuf, _allreduce(comm, _BUFFER, sendbuf, op, tag), "Allreduce")
    return recvbuf

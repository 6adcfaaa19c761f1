"""Collective communication over the point-to-point layer.

There is one schedule per verb, and the code picks its shape from the two
things it can observe: the communicator's size and its node map
(:meth:`repro.mpi.comm.Comm._hierarchy`).  The shape is a *star*
(:func:`_star`): on one node the root talks to every rank directly; over
several nodes the root talks to one representative per other node (it
stands for its own), and each representative talks to its node-mates —
so a cross-node link carries one message per collective and a
representative forwards what it received verbatim.  Two sweeps run over
it:

* fan-in (:func:`_fan_in`) folds contributions towards the root — in
  ascending rank order on one node, node partials in node order across
  nodes, and in plain rank order over the flat star for a non-commutative
  operator;
* fan-out (:func:`_fan_out`) encodes once at the root and shares that one
  payload with every destination.

``bcast`` is a fan-out and ``reduce`` a fan-in; ``allreduce`` is a fan-in
to rank 0 and a fan-out of the result, ``barrier`` an allreduce of
nothing, ``allgather`` a gather to rank 0 whose joined result fans out.
The one size rule: between exactly two participants a symmetric verb is
a single pairwise exchange (:func:`_exchange`) — both post, both send —
instead of a trip into one of them and back.  The participants are the
ranks of a two-rank communicator (``allreduce``, ``barrier``,
``allgather``: half of all small jobs live there) or the leaders of a
communicator spanning two nodes, each folding and releasing its own node
(``allreduce``, ``barrier``).  ``gather`` and ``scatter`` are direct
(root and every rank), ``scan`` a chain, ``alltoall`` personalised
sends.  On this substrate the cost of a collective is the number of
messages it sends, not the depth of its tree (EXPERIMENTS.md, "One
collective schedule"), which is why nothing here is logarithmic.

Each schedule is written once and moves its values through a *payload
codec*: the schedule owns who talks to whom, in which order and on which
sub-tag; the codec — one for the lowercase verbs (pickled objects), one
for the uppercase verbs (numpy buffers, the throughput path for the large
fields climate components exchange) — owns what goes on the wire, what a
relay forwards, how a gathered list becomes one payload and how a
received payload is opened.  The public verbs are thin entry points:
argument validation, the name in the envelope's ``op`` slot and, for the
buffer verbs, mpi4py's uppercase contract (callers pass numpy buffers,
roots provide/receive stacked arrays with a leading rank axis).

All functions receive the calling process's communicator handle and use its
private collective context and per-call tag, so user point-to-point traffic
can never interfere.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import CollectiveMismatchError, CommError, TruncationError
from repro.mpi.mailbox import Envelope
from repro.mpi.reduce_ops import Op
from repro.mpi.serialization import Blob, buffer_array

#: Largest sub-tag offset (``tag + k``) any composed collective in this
#: module uses.  A sweep over the star needs one tag however many levels
#: it has (a rank hears from each child once and from its parent once,
#: and a leader's exchange partner is neither), so every composition —
#: allreduce and barrier (fan-in with the exchange, fan-out), allgather
#: (gather, fan-out), ``reduce_scatter`` (gather, scatter) — is a first
#: phase on ``tag`` and a second on ``tag + 1``.
#: :meth:`repro.mpi.comm.Comm._next_coll_tag` advances base tags in
#: strides of :data:`repro.mpi.comm._COLL_TAG_STRIDE`, so back-to-back
#: collectives on one communicator cannot collide as long as
#: ``MAX_TAG_OFFSET`` stays below the stride — a regression test pins
#: both the inequality and the interleaving behaviour.
MAX_TAG_OFFSET = 1


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------


class _ObjectCodec:
    """Lowercase verbs: any picklable value, encoded once per logical
    message into a :class:`~repro.mpi.serialization.Blob`.  Fan-out
    siblings share the blob, relays forward the received blob verbatim
    (no unpickle→repickle per hop) and decode it — a private copy — only
    for their own delivery.  Envelopes are ``kind="object"`` with
    ``count`` in bytes."""

    kind = "object"
    #: Wire payload for one destination (``pack``), for several
    #: (``shared``), or of a gathered rank-ordered list (``join``): a
    #: blob is immutable, so one encoding serves all three.
    pack = shared = join = staticmethod(Blob.encode)
    count = attrgetter("nbytes")

    def open(self, env: Envelope, opname: str) -> Any:
        return env.payload.decode()


class _BufferCodec:
    """Uppercase verbs: a numpy array travels as an array blob — one
    private read-only snapshot, shared by every destination of a fan-out.
    Relays forward the received blob verbatim; receivers open it without
    a copy (:func:`~repro.mpi.serialization.buffer_array`) and copy out of
    it into the caller's buffer.  Envelopes are ``kind="bufcoll"`` with
    ``count`` in elements."""

    kind = "bufcoll"

    @staticmethod
    def pack(arr) -> Blob:
        return Blob.encode(np.asarray(arr))

    shared = pack

    def count(self, blob: Blob) -> int:
        return buffer_array(blob, "buffer-mode collective").size

    def open(self, env: Envelope, opname: str) -> np.ndarray:
        return buffer_array(env.payload, f"buffer-mode collective {opname!r}")

    def join(self, blocks: list) -> Blob:
        """Equal-shaped gathered blocks stacked along a leading rank axis.
        The stack is a fresh private array, so it is the fan-out's wire
        as it stands: sealed read-only, not snapshotted a second time."""
        for src, block in enumerate(blocks):
            _check_shape(block, blocks[0].shape, f"Allgather block from rank {src}")
        joined = np.stack(blocks)
        if joined.dtype.hasobject:
            return Blob.encode(joined)
        joined.flags.writeable = False
        return Blob("array", joined, joined.nbytes)


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
# the star and its two sweeps
# ---------------------------------------------------------------------------


def _star(comm, root: int, hier, within_node: bool = False) -> tuple:
    """This rank's ``(parent, children)`` in the star rooted at *root*.

    Without a node hierarchy the root is everyone's parent.  With one,
    every node has a representative — its leader, or *root* on root's own
    node — that is the parent of its node-mates and a child of *root*;
    *within_node* stops the star at the boundary of root's node.  The
    root's children list the representatives first: what they are sent
    has a second hop to make."""
    rank = comm.rank
    if hier is None:
        if rank != root:
            return root, ()
        return None, [r for r in range(comm.size) if r != root]
    reps, _ = hier.effective_leaders(root)
    rep = reps[hier.leader_index(rank)]
    if rank != rep:
        return rep, ()
    mates = [m for m in hier.members(rank) if m != rank]
    if rank != root:
        return root, mates
    return None, mates if within_node else [r for r in reps if r != root] + mates


def _fan_in(
    comm, codec, value: Any, op: Op, root: int, tag: int, opname: str, within_node: bool = False
) -> Any:
    """Fold every rank's *value* towards *root*; returns the result there
    and ``None`` elsewhere.

    Each rank folds what its children send with its own contribution —
    ascending rank order within a node, then the node partials in node
    order — and passes the partial on.  A non-commutative operator runs
    over the flat star, where that is the exact rank-order fold."""
    hier = comm._hierarchy() if op.commutative else None
    parent, children = _star(comm, root, hier, within_node)
    acc = value
    if children:
        parts = {comm.rank: value}
        for child in children:
            parts[child] = _recv(comm, codec, child, tag, opname)
        partials: dict = {}
        for rank in sorted(parts):
            node = hier.node(rank) if hier is not None else 0
            partials[node] = op(partials[node], parts[rank]) if node in partials else parts[rank]
        acc = op.reduce([partials[node] for node in sorted(partials)])
    if parent is None:
        return acc
    _send(comm, codec, parent, tag, codec.pack(acc), opname)
    return None


def _fan_out(
    comm, codec, value: Any, root: int, tag: int, opname: str, wire=None, within_node: bool = False
) -> Any:
    """Deliver *root*'s *value* to every rank; returns it there and the
    opened payload elsewhere.  The root encodes exactly once (or is handed
    the ready *wire*) and every destination shares that payload; a
    representative forwards the payload it *received* verbatim and opens
    it lazily, only for its own delivery."""
    parent, children = _star(comm, root, comm._hierarchy(), within_node)
    env = None
    if parent is not None:
        env = comm._coll_complete(comm._coll_post(parent, tag), parent, opname)
        wire = env.payload
    elif wire is None and children:
        wire = codec.shared(value)
    reused = env is not None  # the root's first send pays the encoding
    for child in children:
        _send(comm, codec, child, tag, wire, opname, reused)
        reused = True
    return value if env is None else codec.open(env, opname)


def _exchange(comm, codec, peer: int, value: Any, tag: int, opname: str) -> Any:
    """Swap *value* with *peer*: both pre-post the inbound half, then
    send, so the two meet in one message latency where a fan-in and a
    fan-out through one of them cost two."""
    posted = comm._coll_post(peer, tag)
    _send(comm, codec, peer, tag, codec.pack(value), opname)
    return codec.open(comm._coll_complete(posted, peer, opname), opname)


# ---------------------------------------------------------------------------
# the schedules
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


def _allgather(comm, codec, value: Any, tag: int, opname: str) -> Sequence[Any]:
    """Every rank's contribution, rank-ordered, on every rank."""
    if comm.size == 1:
        return [value]
    if comm.size == 2:
        other = _exchange(comm, codec, 1 - comm.rank, value, tag, opname)
        return [value, other] if comm.rank == 0 else [other, value]
    gathered = _gather(comm, codec, value, 0, tag, opname)
    wire = None if gathered is None else codec.join(gathered)
    return _fan_out(comm, codec, gathered, 0, tag + 1, opname, wire)


def _allreduce(comm, codec, value: Any, op: Op, tag: int, opname: str) -> Any:
    """Reduce contributions and deliver the result to every rank."""
    if comm.size == 2:
        other = _exchange(comm, codec, 1 - comm.rank, value, tag, opname)
        return op(value, other) if comm.rank == 0 else op(other, value)
    hier = comm._hierarchy()
    if hier is None or hier.nnodes != 2 or not op.commutative:
        acc = _fan_in(comm, codec, value, op, 0, tag, opname)
        return _fan_out(comm, codec, acc, 0, tag + 1, opname)
    # Two nodes are two participants as well: each leader folds its own
    # node, the leaders swap partials (lower node on the left, as the
    # star would fold them) and each releases its own node.
    lead = hier.leader(comm.rank)
    acc = _fan_in(comm, codec, value, op, lead, tag, opname, within_node=True)
    if comm.rank == lead:
        first, second = hier.leaders
        other = _exchange(comm, codec, second if lead == first else first, acc, tag, opname)
        acc = op(acc, other) if lead == first else op(other, acc)
    return _fan_out(comm, codec, acc, lead, tag + 1, opname, within_node=True)


# ---------------------------------------------------------------------------
# object-mode verbs (lowercase)
# ---------------------------------------------------------------------------


def bcast(comm, obj: Any, root: int, tag: int) -> Any:
    """Broadcast *obj* from *root* to every rank of *comm*."""
    return _fan_out(comm, _OBJECT, obj, root, tag, "bcast")


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
    return _allgather(comm, _OBJECT, obj, tag, "allgather")


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
    return _fan_in(comm, _OBJECT, obj, op, root, tag, "reduce")


def allreduce(comm, obj: Any, op: Op, tag: int) -> Any:
    """Reduce contributions and deliver the result to every rank."""
    return _allreduce(comm, _OBJECT, obj, op, tag, "allreduce")


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


#: The barrier's "operator": there is nothing to fold but the arrival.
_ARRIVED = Op(lambda a, b: None, "arrived")


def barrier(comm, tag: int) -> None:
    """Block until every rank of *comm* has entered the barrier."""
    _allreduce(comm, _OBJECT, None, _ARRIVED, tag, "barrier")


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
    arr = _fan_out(comm, _BUFFER, buf, root, tag, "Bcast")
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
    for src, block in enumerate(_allgather(comm, _BUFFER, sendbuf, tag, "Allgather")):
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
    # Callers own their block: the root's is a view of its sendbuf, every
    # other rank's a view of the received snapshot — copy either.
    return np.array(_scatter(comm, _BUFFER, blocks, root, tag, "Scatterv"), copy=True)


def Reduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, root: int, tag: int) -> Optional[np.ndarray]:
    """Elementwise reduction to *root* (rank-ordered combination)."""
    sendbuf = np.asarray(sendbuf)
    if comm.rank == root:
        recvbuf = np.empty_like(sendbuf) if recvbuf is None else np.asarray(recvbuf)
        _check_shape(recvbuf, sendbuf.shape, "Reduce recvbuf")
    result = _fan_in(comm, _BUFFER, sendbuf, op, root, tag, "Reduce")
    if comm.rank != root:
        return None
    _deliver_into(recvbuf, result, "Reduce")
    return recvbuf


def Allreduce(comm, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], op: Op, tag: int) -> np.ndarray:
    """Elementwise reduction delivered to every rank."""
    sendbuf = np.asarray(sendbuf)
    recvbuf = np.empty_like(sendbuf) if recvbuf is None else np.asarray(recvbuf)
    _check_shape(recvbuf, sendbuf.shape, "Allreduce recvbuf")
    _deliver_into(recvbuf, _allreduce(comm, _BUFFER, sendbuf, op, tag, "Allreduce"), "Allreduce")
    return recvbuf

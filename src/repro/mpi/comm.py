"""Communicators: the user-facing API of the simulated MPI substrate.

A :class:`Comm` is a *per-process handle*: every simulated process holds its
own ``Comm`` object for each communicator it belongs to, carrying its rank
within that communicator and the communicator's context ids.  The API
follows the mpi4py conventions taught by the hpc-parallel guides:

* **lowercase methods** (``send`` / ``recv`` / ``bcast`` / ...) communicate
  arbitrary Python objects through pickling — which, as a pleasant side
  effect, enforces the value semantics of distributed memory: no mutable
  state is ever shared between "processes";
* **uppercase methods** (``Send`` / ``Recv``) communicate numpy arrays
  through explicit buffer copies, the fast path for numerical data.

Communicator-creating operations (``split``, ``dup``, ``create``) are
collective and implemented with the same agreement protocol a real MPI uses:
the root gathers the inputs, computes the new groups, allocates fresh
context ids, and scatters each member its assignment.

Wildcard receives (``ANY_SOURCE``/``ANY_TAG``) and probes are the points
where MPI semantics permit several outcomes; under an armed
:class:`~repro.mpi.sched.MatchSchedule`
(:attr:`~repro.mpi.world.WorldConfig.match_schedule`) those choices are
made by the schedule — seeded, recorded, and replayable — instead of by
arrival timing.  Specific-source operations are unaffected.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import (
    AbortError,
    CollectiveMismatchError,
    CommError,
    ProcessFailedError,
    RevokedError,
    TruncationError,
)
from repro.mpi import collectives
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    TAG_UB,
    UNDEFINED,
)
from repro.mpi.group import Group
from repro.mpi.mailbox import Envelope, PostedRecv
from repro.mpi.progress import Completion
from repro.mpi.reduce_ops import SUM, Op
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.serialization import Blob, buffer_array
from repro.mpi.status import Status
from repro.mpi.topology import CommHierarchy
from repro.mpi.world import World

#: Collective tags advance in strides of this much per collective call
#: (see :meth:`Comm._next_coll_tag`); composed collectives may use
#: sub-tags ``tag + k`` for ``k < _COLL_TAG_STRIDE`` without colliding
#: with the next collective on the same communicator.  The audit constant
#: :data:`repro.mpi.collectives.MAX_TAG_OFFSET` records the largest ``k``
#: actually used and a regression test pins ``MAX_TAG_OFFSET < stride``.
_COLL_TAG_STRIDE = 64

#: Tag space reserved for the ULFM-style recovery operations
#: (``shrink``/``agree``), far above the collective tag sequence
#: (collective tags stay below ``(1 << 24) * _COLL_TAG_STRIDE``).
#: Recovery operations run on the *collective* context with raw
#: envelopes, bypassing the revocation poisoning on purpose — they are
#: exactly the operations that must still work on a revoked communicator.
_RECOVERY_TAG_BASE = 1 << 31
#: Sub-tags per recovery operation (shrink assignment, agree gather,
#: agree result).
_RECOVERY_TAG_STRIDE = 4


class Comm:
    """A per-process handle on one communicator.

    Construct communicators through :func:`make_world_comm` (for
    ``COMM_WORLD``) and the collective methods ``split`` / ``dup`` /
    ``create`` — never directly.
    """

    def __init__(self, world: World, group: Group, my_world_id: int, ctx_pair: tuple[int, int], name: str = "comm"):
        rank = group.rank_of(my_world_id)
        if rank == UNDEFINED:
            raise CommError(f"process {my_world_id} is not a member of {group}")
        self._world = world
        self._group = group
        # A communicator's group never changes (shrink builds a new
        # handle), so a message's address translation reads these.
        self._members = group.members
        self._size = len(self._members)
        self._my_world_id = my_world_id
        self._mailbox = world.mailboxes[my_world_id]
        self._rank = rank
        self._p2p_ctx, self._coll_ctx = ctx_pair
        self._coll_seq = 0
        self._recovery_seq = 0
        self._freed = False
        #: Human-readable communicator name (diagnostics only).
        self.name = name
        #: Encoded size (bytes) of the last payload this handle sent —
        #: diagnostic, read by the MPH layer for byte-level profiling.
        self.last_payload_bytes = 0
        # Lazily computed CommHierarchy (False = not yet computed;
        # None = flat: single node or trivial size).
        self._hier = False

    def _hierarchy(self):
        """The communicator's node hierarchy, or ``None`` when flat.

        ``None`` means a collective has no node boundary to respect: the
        world has no node map (one node), the communicator has at most
        two ranks, or every member of *this* communicator shares one
        node.
        """
        if self._hier is False:
            self._hier = None
            node_map = self._world.node_map
            if node_map is not None and self._size > 2:
                h = CommHierarchy([node_map[w] for w in self._members])
                if h.nnodes > 1:
                    self._hier = h
        return self._hier

    # -- introspection -------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the communicator."""
        return self._size

    @property
    def group(self) -> Group:
        """The communicator's process group."""
        return self._group

    @property
    def world(self) -> World:
        """The world this communicator lives in."""
        return self._world

    def Get_rank(self) -> int:
        """mpi4py-style alias of :attr:`rank`."""
        return self._rank

    def Get_size(self) -> int:
        """mpi4py-style alias of :attr:`size`."""
        return self._size

    def Get_group(self) -> Group:
        """mpi4py-style alias of :attr:`group`."""
        return self._group

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Comm {self.name!r} rank {self._rank}/{self._size}>"

    # -- internal helpers ------------------------------------------------------

    def _check(self) -> None:
        """Raise if an operation may not run on this handle: it was
        freed, its communicator revoked, or the world aborted; and count
        the operation for an armed fault schedule.  Two attribute reads
        while the world has none of these (``World.op_checks``); the hot
        point-to-point verbs test them inline."""
        if self._freed or self._world.op_checks:
            self._full_check()

    def _full_check(self) -> None:
        if self._freed:
            raise CommError(f"communicator {self.name!r} has been freed")
        world = self._world
        if world.ctx_revoked(self._p2p_ctx):
            raise RevokedError(
                f"communicator {self.name!r} has been revoked", comm_name=self.name
            )
        world.check_abort()
        schedule = world.config.fault_schedule
        if schedule is not None:
            schedule.on_op(self._my_world_id)

    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self._size:
            raise self._rank_error(rank, role)

    def _rank_error(self, rank: int, role: str) -> CommError:
        return CommError(f"{role} {rank} out of range for {self.name!r} of size {self._size}")

    def _deliver(self, dest: int, env: Envelope) -> None:
        self._world.deliver(self._members[dest], env)

    def _world_source(self, source: int) -> Optional[int]:
        """World rank of a comm-local receive source (``None`` for
        wildcards) — lets the mailbox fail the receive the moment that
        rank dies instead of blocking until the watchdog notices."""
        return None if source == ANY_SOURCE else self._members[source]

    # -- point-to-point: object mode ------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a pickled copy of *obj* to rank *dest* (eager: returns as
        soon as the message is buffered at the destination)."""
        self._isend_common(obj, dest, tag, sync=False)

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: blocks until the matching receive is posted."""
        self._isend_common(obj, dest, tag, sync=True)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; the returned request is already complete."""
        self._isend_common(obj, dest, tag, sync=False)
        return SendRequest()

    def _isend_common(self, obj: Any, dest: int, tag: int, sync: bool) -> None:
        if self._freed or self._world.op_checks:
            self._full_check()
        if dest == PROC_NULL:
            return
        if not 0 <= dest < self._size:
            raise self._rank_error(dest, "destination rank")
        if not 0 <= tag <= TAG_UB:
            raise CommError(f"invalid send tag {tag}")
        blob = Blob.encode(obj)
        self.last_payload_bytes = blob.nbytes
        # Synchronous sends park on a progress-engine Completion: the
        # matching receive signals it, so the blocked sender wakes once
        # (or on abort/watchdog).
        event = Completion() if sync else None
        env = Envelope(self._p2p_ctx, self._rank, tag, blob, "object", blob.nbytes, event)
        self._world.deliver(self._members[dest], env)
        if event is not None:
            self._world.progress.wait(
                (event,), self._my_world_id, f"ssend(dest={dest}, tag={tag}) on {self.name}"
            )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive; returns the sent object (a private copy)."""
        if source == PROC_NULL:
            return self.irecv(source, tag).wait(status)
        posted = self._post_p2p(source, tag)
        env = posted.envelope
        if env is None:
            env = self._mailbox.wait(posted, f"recv(source={source}, tag={tag}) on {self.name}")
        if status is not None:
            status.source, status.tag, status.count = env.source, env.tag, env.count
        return env.payload.decode()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; posted immediately (MPI matching order)."""
        if source == PROC_NULL:
            self._check()
            return _ProcNullRecvRequest()
        posted = self._post_p2p(source, tag)
        what = f"recv(source={source}, tag={tag}) on {self.name}"
        return RecvRequest(self._mailbox, posted, _decode_object, what)

    def _post_p2p(self, source: int, tag: int) -> PostedRecv:
        """Check and post a point-to-point receive (*source* is not
        ``PROC_NULL``)."""
        if self._freed or self._world.op_checks:
            self._full_check()
        if source == ANY_SOURCE:
            world_source = None
        elif 0 <= source < self._size:
            world_source = self._members[source]
        else:
            raise self._rank_error(source, "source rank")
        if not (0 <= tag <= TAG_UB or tag == ANY_TAG):
            raise CommError(f"invalid receive tag {tag}")
        return self._mailbox.post_recv(self._p2p_ctx, source, tag, world_source)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send and receive (deadlock-free under eager sends)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag, status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; return its status
        without receiving it."""
        self._check()
        what = f"probe(source={source}, tag={tag}) on {self.name}"
        env = self._mailbox.probe(self._p2p_ctx, source, tag, block=True, what=what)
        assert env is not None
        return Status(source=env.source, tag=env.tag, count=env.count)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe: status of a matching pending message, else
        ``None``."""
        self._check()
        env = self._mailbox.probe(self._p2p_ctx, source, tag, block=False, what="iprobe")
        if env is None:
            return None
        return Status(source=env.source, tag=env.tag, count=env.count)

    # -- point-to-point: buffer mode --------------------------------------------

    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer-mode send of a numpy array (a private snapshot is taken,
        so the caller may immediately reuse the array)."""
        self._check()
        if dest == PROC_NULL:
            return
        self._check_rank(dest, "destination rank")
        if not 0 <= tag <= TAG_UB:
            raise CommError(f"invalid send tag {tag}")
        arr = np.asarray(array)
        blob = Blob.encode(arr)
        self.last_payload_bytes = blob.nbytes
        env = Envelope(self._p2p_ctx, self._rank, tag, blob, "buffer", arr.size)
        self._deliver(dest, env)

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> np.ndarray:
        """Buffer-mode receive into *buf* (which must be large enough);
        returns *buf* for convenience."""
        if source == PROC_NULL:
            self._check()
            if status is not None:
                status.source, status.tag, status.count = PROC_NULL, ANY_TAG, 0
            return buf
        posted = self._post_p2p(source, tag)
        env = posted.envelope
        if env is None:
            env = self._mailbox.wait(posted, f"Recv(source={source}, tag={tag}) on {self.name}")
        arr = buffer_array(env.payload, "buffer-mode receive")
        if arr.size > buf.size:
            raise TruncationError(
                f"message of {arr.size} elements truncates receive buffer of {buf.size}"
            )
        flat = buf.reshape(-1)
        flat[: arr.size] = arr.reshape(-1)
        if status is not None:
            status.source, status.tag, status.count = env.source, env.tag, arr.size
        return buf

    def Isend(self, array: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer-mode send (eager, already complete)."""
        self.Send(array, dest, tag)
        return SendRequest()

    # -- collectives -------------------------------------------------------------

    def _next_coll_tag(self) -> int:
        seq = self._coll_seq
        self._coll_seq += 1
        return (seq % (1 << 24)) * _COLL_TAG_STRIDE

    def _coll_post(self, source: int, tag: int) -> PostedRecv:
        """Pre-post a collective receive (no blocking).  Collectives that
        both send and receive in one phase — a pairwise exchange,
        ``alltoall`` — post their receives *before* sending, so the
        matching envelope lands directly on the posted receive and the
        subsequent :meth:`_coll_complete` parks at most once."""
        return self._mailbox.post_recv(
            self._coll_ctx, source, tag, world_source=self._world_source(source)
        )

    def _coll_complete(self, posted: PostedRecv, source: int, opname: str) -> Envelope:
        """Wait on a pre-posted collective receive and validate the
        operation name (aborting the world on a collective mismatch)."""
        env = self._mailbox.wait(posted, f"{opname}(source={source}) on {self.name}")
        if env.op != opname:
            exc = CollectiveMismatchError(
                f"rank {self._rank} of {self.name!r} executing {opname!r} received a "
                f"message belonging to {env.op!r}: ranks called mismatched collectives"
            )
            self._world.abort(AbortError(str(exc), origin_rank=self._my_world_id))
            raise exc
        return env

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self._check()
        collectives.barrier(self, self._next_coll_tag())

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast *obj* from *root*; every rank returns the object."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.bcast(self, obj, root, self._next_coll_tag())

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Gather one object per rank to *root* (list in rank order there,
        ``None`` elsewhere)."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.gather(self, obj, root, self._next_coll_tag())

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter one object per rank from *root*'s sequence."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.scatter(self, objs, root, self._next_coll_tag())

    def allgather(self, obj: Any) -> list:
        """Gather one object per rank onto every rank."""
        self._check()
        return collectives.allgather(self, obj, self._next_coll_tag())

    def alltoall(self, objs: Sequence[Any]) -> list:
        """Personalised all-to-all exchange."""
        self._check()
        return collectives.alltoall(self, objs, self._next_coll_tag())

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0) -> Any:
        """Reduce contributions in rank order to *root* (``None`` elsewhere)."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.reduce(self, obj, op, root, self._next_coll_tag())

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        """Reduce contributions; every rank gets the result."""
        self._check()
        return collectives.allreduce(self, obj, op, self._next_coll_tag())

    def scan(self, obj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction."""
        self._check()
        return collectives.scan(self, obj, op, self._next_coll_tag())

    def exscan(self, obj: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction (``None`` on rank 0)."""
        self._check()
        return collectives.exscan(self, obj, op, self._next_coll_tag())

    def reduce_scatter(self, objs: Sequence[Any], op: Op = SUM) -> Any:
        """Per-slot reduction followed by a scatter of the slots."""
        self._check()
        return collectives.reduce_scatter(self, objs, op, self._next_coll_tag())

    # -- buffer-mode collectives (numpy fast path, mpi4py uppercase) ---------------

    def Bcast(self, buf: np.ndarray, root: int = 0) -> np.ndarray:
        """In-place buffer broadcast from *root* (every rank passes an
        identically-shaped array)."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.Bcast(self, buf, root, self._next_coll_tag())

    def Gather(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None, root: int = 0
    ) -> Optional[np.ndarray]:
        """Buffer gather: root receives the blocks stacked along a leading
        rank axis (allocated when *recvbuf* is None)."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.Gather(self, sendbuf, recvbuf, root, self._next_coll_tag())

    def Scatter(
        self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray, root: int = 0
    ) -> np.ndarray:
        """Buffer scatter from the root's stacked array into *recvbuf*."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.Scatter(self, sendbuf, recvbuf, root, self._next_coll_tag())

    def Allgather(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Buffer allgather (leading rank axis on every rank)."""
        self._check()
        return collectives.Allgather(self, sendbuf, recvbuf, self._next_coll_tag())

    def Gatherv(self, sendbuf: np.ndarray, root: int = 0):
        """Variable-size buffer gather: root gets ``(concatenated array,
        per-rank counts)``, others ``None`` — counts are discovered, not
        pre-agreed."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.Gatherv(self, sendbuf, root, self._next_coll_tag())

    def Scatterv(
        self,
        sendbuf: Optional[np.ndarray] = None,
        counts: Optional[Sequence[int]] = None,
        root: int = 0,
    ) -> np.ndarray:
        """Variable-size buffer scatter: the root splits *sendbuf* along
        axis 0 by *counts*; every rank returns its block."""
        self._check()
        self._check_rank(root, "root rank")
        counts_list = list(counts) if counts is not None else None
        return collectives.Scatterv(self, sendbuf, counts_list, root, self._next_coll_tag())

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        op: Op = SUM,
        root: int = 0,
    ) -> Optional[np.ndarray]:
        """Elementwise buffer reduction to *root* (result there, None
        elsewhere)."""
        self._check()
        self._check_rank(root, "root rank")
        return collectives.Reduce(self, sendbuf, recvbuf, op, root, self._next_coll_tag())

    def Allreduce(
        self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray] = None, op: Op = SUM
    ) -> np.ndarray:
        """Elementwise buffer reduction delivered to every rank."""
        self._check()
        return collectives.Allreduce(self, sendbuf, recvbuf, op, self._next_coll_tag())

    # -- communicator management ---------------------------------------------------

    def split(self, color: int, key: int = 0) -> Optional["Comm"]:
        """Collectively split into one new communicator per *color*.

        Ranks passing the same color form a new communicator, ordered by
        ``(key, old rank)``.  Passing ``UNDEFINED`` opts out (returns
        ``None``).  This is the workhorse of MPH's handshake (paper §6).
        """
        self._check()
        if color != UNDEFINED and color < 0:
            raise CommError(f"split color must be non-negative or UNDEFINED, got {color}")
        data = self.gather((color, key))
        assignments: Optional[list] = None
        if self._rank == 0:
            assert data is not None
            by_color: dict[int, list[tuple[int, int]]] = {}
            for old_rank, (c, k) in enumerate(data):
                if c != UNDEFINED:
                    by_color.setdefault(c, []).append((k, old_rank))
            assignments = [None] * self._size
            for c in sorted(by_color):
                members = sorted(by_color[c])
                ctxs = self._world.alloc_context_pair()
                world_ids = tuple(self._members[r] for _, r in members)
                for _, old_rank in members:
                    assignments[old_rank] = (ctxs, world_ids, c)
        mine = self.scatter(assignments)
        if mine is None:
            return None
        ctxs, world_ids, my_color = mine
        return Comm(
            self._world,
            Group(world_ids),
            self._my_world_id,
            ctxs,
            name=f"{self.name}.split({my_color})",
        )

    def dup(self, name: Optional[str] = None) -> "Comm":
        """Collective duplicate: same group, fresh contexts (isolated
        traffic)."""
        self._check()
        ctxs = self.bcast(self._world.alloc_context_pair() if self._rank == 0 else None)
        return Comm(
            self._world, self._group, self._my_world_id, ctxs, name=name or f"{self.name}.dup"
        )

    def create(self, group: Group) -> Optional["Comm"]:
        """Collective creation of a communicator over a subgroup.

        Every rank of this communicator must call it with the same *group*;
        non-members receive ``None``.
        """
        self._check()
        for wid in group.members:
            if self._group.rank_of(wid) == UNDEFINED:
                raise CommError(f"group member {wid} is not part of {self.name!r}")
        ctxs = self.bcast(self._world.alloc_context_pair() if self._rank == 0 else None)
        if self._my_world_id not in group:
            return None
        return Comm(self._world, group, self._my_world_id, ctxs, name=f"{self.name}.create")

    # -- ULFM-style fault tolerance ------------------------------------------

    @property
    def revoked(self) -> bool:
        """Whether this communicator has been revoked."""
        return self._world.ctx_revoked(self._p2p_ctx)

    def revoke(self) -> None:
        """Revoke the communicator (the ``MPIX_Comm_revoke`` analogue).

        Non-collective: any member may call it after observing a failure.
        Every pending receive and probe on the communicator fails with
        :class:`~repro.errors.RevokedError`, and so does every future
        operation on any member's handle — which is the point: all
        surviving members are knocked out of whatever communication
        pattern they were in and reach the recovery path
        (:meth:`shrink` / :meth:`agree`) together.  Idempotent.

        A synchronous send already parked on a matched-but-unclaimed
        message is *not* poisoned (its completion can still arrive);
        revocation targets receives, probes, and future operations.
        """
        if self._freed:
            raise CommError(f"communicator {self.name!r} has been freed")
        self._world.revoke_contexts((self._p2p_ctx, self._coll_ctx), self.name)

    def _live_members(self) -> tuple[list[int], list[int]]:
        """``(comm ranks, world ids)`` of members not known dead, in rank
        order.  The simulated substrate has a perfect failure detector
        (the executor records fail-stop deaths synchronously), so every
        member computes the same answer as long as failures are quiescent
        during recovery — the standard ULFM assumption."""
        failed = self._world.failed_ranks
        live_ranks = [r for r in range(self._size) if self._members[r] not in failed]
        return live_ranks, [self._members[r] for r in live_ranks]

    def _next_recovery_tag(self) -> int:
        """Reserved tag for the next recovery operation.  Recovery calls
        are collective over the live members, so the per-handle sequence
        stays agreed across ranks."""
        tag = _RECOVERY_TAG_BASE + self._recovery_seq * _RECOVERY_TAG_STRIDE
        self._recovery_seq += 1
        return tag

    def _recovery_send(self, dest: int, tag: int, value: Any) -> None:
        """Raw recovery-plane send to comm rank *dest* (collective
        context, reserved tag) — works on a revoked communicator."""
        blob = Blob.encode(value)
        env = Envelope(self._coll_ctx, self._rank, tag, blob, "object", blob.nbytes)
        self._deliver(dest, env)

    def _recovery_recv(self, source: int, tag: int, what: str) -> Any:
        """Raw recovery-plane receive from comm rank *source* — fails
        fast with :class:`ProcessFailedError` if *source* dies."""
        posted = self._mailbox.post_recv(
            self._coll_ctx, source, tag, world_source=self._members[source]
        )
        env = self._mailbox.wait(posted, what)
        return env.payload.decode()

    def shrink(self, name: Optional[str] = None) -> "Comm":
        """Build a new communicator over the surviving members (the
        ``MPIX_Comm_shrink`` analogue).

        Collective over every *live* member of this communicator — dead
        ranks are excluded by construction.  Works on a revoked
        communicator (that is its main use: revoke, then shrink, then
        continue on the result).  The lowest-ranked survivor allocates
        the new context ids and distributes the membership; survivors
        keep their relative rank order.
        """
        if self._freed:
            raise CommError(f"communicator {self.name!r} has been freed")
        self._world.check_abort()
        new_name = name or f"{self.name}.shrink"
        tag = self._next_recovery_tag()
        live_ranks, live_wids = self._live_members()
        coordinator = live_ranks[0]
        if self._rank == coordinator:
            ctxs = self._world.alloc_context_pair()
            for r in live_ranks[1:]:
                try:
                    self._recovery_send(r, tag, (ctxs, live_wids))
                except ProcessFailedError:
                    continue  # died since the liveness snapshot; shrink goes on
        else:
            ctxs, live_wids = self._recovery_recv(
                coordinator, tag, f"shrink(coordinator={coordinator}) on {self.name}"
            )
        return Comm(self._world, Group(live_wids), self._my_world_id, ctxs, name=new_name)

    def agree(self, flag: bool) -> bool:
        """Fault-tolerant agreement on a boolean (the ``MPIX_Comm_agree``
        analogue): returns the logical AND of the *flag* values of the
        members that could contribute.

        Collective over the live members; works on a revoked communicator
        and in the presence of dead ranks.  A member that dies during the
        agreement simply stops contributing — the survivors still all
        return the same value, which is the property recovery protocols
        need ("did everyone checkpoint step N?").
        """
        if self._freed:
            raise CommError(f"communicator {self.name!r} has been freed")
        self._world.check_abort()
        tag = self._next_recovery_tag()
        live_ranks, _ = self._live_members()
        coordinator = live_ranks[0]
        if self._rank == coordinator:
            result = bool(flag)
            for r in live_ranks[1:]:
                try:
                    result = result and bool(
                        self._recovery_recv(
                            r, tag, f"agree(gather from {r}) on {self.name}"
                        )
                    )
                except ProcessFailedError:
                    continue
            for r in live_ranks[1:]:
                try:
                    self._recovery_send(r, tag + 1, result)
                except ProcessFailedError:
                    continue
            return result
        self._recovery_send(coordinator, tag, bool(flag))
        return bool(
            self._recovery_recv(
                coordinator, tag + 1, f"agree(result from {coordinator}) on {self.name}"
            )
        )

    def free(self) -> None:
        """Mark the handle freed; subsequent use raises ``CommError``."""
        self._freed = True

    def abort(self, reason: str = "Comm.Abort called") -> None:
        """Abort the whole world (``MPI_Abort``): wake and fail every
        process."""
        exc = AbortError(
            f"abort from world rank {self._my_world_id} on {self.name!r}: {reason}",
            origin_rank=self._my_world_id,
        )
        self._world.abort(exc)
        raise exc

    # mpi4py-style aliases for the collective/management verbs ---------------

    def Barrier(self) -> None:
        """Alias of :meth:`barrier`."""
        self.barrier()

    def Split(self, color: int, key: int = 0) -> Optional["Comm"]:
        """Alias of :meth:`split`."""
        return self.split(color, key)

    def Dup(self) -> "Comm":
        """Alias of :meth:`dup`."""
        return self.dup()

    def Create(self, group: Group) -> Optional["Comm"]:
        """Alias of :meth:`create`."""
        return self.create(group)

    def Free(self) -> None:
        """Alias of :meth:`free`."""
        self.free()

    def Abort(self, errorcode: int = 1) -> None:
        """Alias of :meth:`abort`."""
        self.abort(f"errorcode {errorcode}")


class _ProcNullRecvRequest(Request):
    """Receive from ``PROC_NULL``: completes immediately with no data."""

    def wait(self, status: Optional[Status] = None) -> None:
        if status is not None:
            status.source, status.tag, status.count = PROC_NULL, ANY_TAG, 0
        return None

    def test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        return True, self.wait(status)


def _decode_object(env: Envelope) -> Any:
    """Decode an envelope for an object-mode receive: a private value,
    whichever verb sent it."""
    return env.payload.decode()


def make_world_comm(world: World, global_rank: int) -> Comm:
    """Build the ``COMM_WORLD`` handle for one process of *world*."""
    return Comm(
        world,
        Group(range(world.nprocs)),
        global_rank,
        (0, 1),
        name="COMM_WORLD",
    )

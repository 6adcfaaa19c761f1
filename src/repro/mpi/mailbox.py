"""Per-process message queues with MPI matching semantics.

Each simulated process owns one :class:`Mailbox`.  A mailbox holds two
queues:

* ``pending`` — envelopes that have arrived but matched no receive yet;
* ``posted`` — receives that have been posted but matched no envelope yet.

Matching follows the MPI rules: a receive selects the *earliest-arrived*
pending envelope whose ``(context, source, tag)`` it accepts (wildcards
``ANY_SOURCE`` / ``ANY_TAG`` allowed on the receive side only), and an
arriving envelope is handed to the *earliest-posted* receive that accepts
it.  Because arrival order is preserved per source, the MPI non-overtaking
guarantee holds.

The context id — one per communicator per traffic class (point-to-point vs
collective) — isolates communicators from each other exactly as real MPI
contexts do, so a stray ``tag=0`` user message can never be swallowed by a
collective in flight.

Blocking receives and probes run on the world's progress engine
(:mod:`repro.mpi.progress`): each :class:`PostedRecv` carries a
:class:`~repro.mpi.progress.Completion` signalled at match time, so a
blocked waiter parks once and is woken exactly once — by delivery,
abort, or the deadlock watchdog.

When a :class:`~repro.mpi.sched.MatchSchedule` is armed
(``WorldConfig.match_schedule``), the two nondeterministic choice points
of this layer are delegated to it: a wildcard receive chooses among its
*candidate frontier* (the first matching envelope per source — per-source
order is the non-overtaking guarantee and is never up for choice), and an
arriving envelope that matches no posted receive may be *held* invisible
for a bounded number of visibility events, permuting cross-source
delivery order and probe visibility.  Holds are deadlock-free by
construction: posting a matching receive or scanning in a blocking probe
force-reveals them (so no program ever blocks on a hidden message), while
nonblocking probes only age them — exactly the "sent but not yet visible
to iprobe" window real MPI permits.  With the schedule off, every path
here is the historical earliest-first behaviour behind one ``is None``
branch.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import AbortError, CommError, ProcessFailedError, RevokedError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.progress import Completion

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.serialization import Blob
    from repro.mpi.world import World


class Envelope:
    """A message in flight: routing metadata plus an opaque payload.

    ``payload`` is always a :class:`~repro.mpi.serialization.Blob`, in
    object mode and buffer mode alike: transports carry it as encoded,
    and :mod:`repro.mpi.serialization` owns how it is encoded and opened.
    ``kind`` names the verb family that sent it (``"object"``,
    ``"buffer"`` for point-to-point ``Send``, ``"bufcoll"`` for a
    buffer-mode collective).  ``count`` is the payload size for
    ``Status``: bytes in object mode, elements in buffer mode.  ``op``
    carries the collective operation name for collective-context
    messages (``None`` for point-to-point traffic), so mismatched
    collectives are detected without decoding the payload.  ``copy_avoided`` is the number of
    payload bytes this delivery *reused* from an existing encoding (the
    zero-copy fast path's savings ledger; see
    :mod:`repro.mpi.serialization`).
    """

    __slots__ = (
        "context",
        "source",
        "tag",
        "payload",
        "kind",
        "count",
        "sync_event",
        "op",
        "copy_avoided",
    )

    def __init__(
        self,
        context: int,
        source: int,
        tag: int,
        payload: "Blob",
        kind: str,
        count: int,
        sync_event: Optional[Completion] = None,
        op: Optional[str] = None,
        copy_avoided: int = 0,
    ):
        self.context = context
        self.source = source
        self.tag = tag
        self.payload = payload
        self.kind = kind
        self.count = count
        #: Signalled when a matching receive claims this envelope; used by
        #: synchronous sends (``ssend``) to block until matched.  A
        #: :class:`~repro.mpi.progress.Completion` (or anything with an
        #: Event-style ``set()``).
        self.sync_event = sync_event
        self.op = op
        self.copy_avoided = copy_avoided

    def matches(self, context: int, source: int, tag: int) -> bool:
        """Whether this envelope satisfies a receive pattern."""
        return (
            self.context == context
            and (source == ANY_SOURCE or source == self.source)
            and (tag == ANY_TAG or tag == self.tag)
        )


class PostedRecv:
    """A posted receive awaiting a matching envelope."""

    __slots__ = (
        "context",
        "source",
        "tag",
        "envelope",
        "completion",
        "cancelled",
        "world_source",
        "failed_rank",
        "revoked",
        "post_seq",
    )

    def __init__(
        self, context: int, source: int, tag: int, world_source: Optional[int] = None
    ):
        self.context = context
        self.source = source
        self.tag = tag
        #: Filled in (under the mailbox lock) when a match is made.
        self.envelope: Optional[Envelope] = None
        #: Signalled (after the lock is released) when a match is made —
        #: what the progress engine's waitsets park on.
        self.completion = Completion()
        #: Set by a successful :meth:`Mailbox.cancel`; waiting on a
        #: cancelled receive raises instead of blocking forever.
        self.cancelled = False
        #: *World* rank of the expected sender (``None`` for wildcard
        #: receives) — lets :meth:`Mailbox.fail_posted_from` fail this
        #: receive the moment that rank dies.
        self.world_source = world_source
        #: World rank whose fail-stop death doomed this receive (waiting
        #: on it raises :class:`~repro.errors.ProcessFailedError`).
        self.failed_rank: Optional[int] = None
        #: Set when the owning communicator was revoked (waiting raises
        #: :class:`~repro.errors.RevokedError`).
        self.revoked = False
        #: Per-rank post index under an armed
        #: :class:`~repro.mpi.sched.MatchSchedule` (the receive's trace
        #: key; -1 when no schedule is armed).
        self.post_seq = -1

    def accepts(self, env: Envelope) -> bool:
        """Whether this posted receive accepts *env*."""
        return env.matches(self.context, self.source, self.tag)

    @property
    def done(self) -> bool:
        """Whether a matching envelope has been attached."""
        return self.envelope is not None


class Mailbox:
    """The incoming-message endpoint of one simulated process."""

    def __init__(self, world: "World", owner_rank: int):
        self._world = world
        #: World rank of the owning process.
        self.owner = owner_rank
        self._lock = threading.Lock()
        self._pending: deque[Envelope] = deque()
        self._posted: deque[PostedRecv] = deque()
        #: Envelopes held invisible by an armed MatchSchedule, as mutable
        #: ``[ttl, env]`` entries in arrival order.  Invariant: a held
        #: envelope matches nothing in ``_posted`` (delivery matches
        #: first, and posting a receive force-reveals its matches), so a
        #: reveal only ever appends to ``_pending``.
        self._held: deque[list] = deque()
        #: Blocked probes: ``(completion, (ctx, src, tag))``
        #: pairs signalled when a matching envelope lands in ``pending``.
        self._probe_watchers: list[tuple[Completion, tuple[int, int, int]]] = []

    @property
    def world(self) -> "World":
        """The world this mailbox belongs to."""
        return self._world

    # -- delivery (called from the *sender's* thread) ----------------------

    def deliver(self, env: Envelope) -> None:
        """Hand an envelope to this mailbox, matching a posted receive if
        one accepts it, else queueing it as pending.

        Fails fast with :class:`~repro.errors.ProcessFailedError` when
        the owner is dead (a send to a failed rank must error, not
        vanish), and applies the world's armed
        :class:`~repro.mpi.faults.FaultSchedule` — drop, delay,
        duplication, corruption — on the sender's thread.
        """
        world = self._world
        if world.rank_failed(self.owner):
            raise ProcessFailedError(
                f"delivery to failed world rank {self.owner} "
                f"(source rank {env.source}, tag {env.tag})",
                failed_ranks=(self.owner,),
            )
        schedule = world.config.fault_schedule
        if schedule is not None:
            envs = schedule.on_deliver(self.owner, env)
            if not envs:
                return  # dropped: the message silently never arrives
            for extra in envs[:-1]:
                self._deliver_one(extra)
            env = envs[-1]
        self._deliver_one(env)

    def _deliver_one(self, env: Envelope) -> None:
        self._world.record_traffic(env.kind, env.payload.nbytes, env.copy_avoided)
        sched = self._world.config.match_schedule
        matched: Optional[PostedRecv] = None
        probe_hits: list[Completion] = []
        with self._lock:
            if sched is not None:
                # Every delivery is a visibility event for already-held
                # envelopes, and every delivery consumes one per-stream
                # hold decision (consumed whether or not it applies, so
                # the decision stream follows the sender's program order,
                # not match timing).
                if self._held:
                    self._age_held(probe_hits)
                ttl = sched.hold_ttl(self.owner, env.source)
            else:
                ttl = 0
            for pr in self._posted:
                if pr.accepts(env):
                    self._posted.remove(pr)
                    pr.envelope = env
                    matched = pr
                    if sched is not None:
                        sched.record_match(
                            self.owner, pr.post_seq, env.source, env.tag
                        )
                    break
            else:
                if sched is not None and self._maybe_hold(env, ttl, probe_hits):
                    pass  # held: invisible until aged out or force-revealed
                else:
                    self._to_pending(env, probe_hits)
        self._world.note_activity()
        # Signal completions with no mailbox lock held (a waitset notify
        # takes the waiter's lock; keeping the order one-directional rules
        # out inversions against World.abort's wake path).
        if matched is not None:
            matched.completion.signal()
            if env.sync_event is not None:
                # Matched immediately by a posted receive: release a
                # blocked synchronous sender.
                env.sync_event.set()
        for completion in probe_hits:
            completion.signal()

    # -- schedule holds (all helpers run under self._lock) ------------------

    def _to_pending(self, env: Envelope, probe_hits: list[Completion]) -> None:
        """Append *env* to pending and collect matching probe watchers
        (signalled by the caller outside the lock)."""
        self._pending.append(env)
        if self._probe_watchers:
            keep = []
            for watcher in self._probe_watchers:
                if env.matches(*watcher[1]):
                    probe_hits.append(watcher[0])
                else:
                    keep.append(watcher)
            self._probe_watchers = keep

    def _maybe_hold(
        self, env: Envelope, ttl: int, probe_hits: list[Completion]
    ) -> bool:
        """Hold *env* invisible if the schedule decided a delay (or a
        same-stream predecessor is still held — per-stream FIFO means an
        envelope can never overtake a held one from its own sender).
        Never holds an envelope a parked blocking probe is waiting for:
        that watcher was armed because nothing matched, and hiding its
        match would turn a legal delay into a missed wakeup."""
        stream_blocked = any(
            h[1].context == env.context and h[1].source == env.source
            for h in self._held
        )
        if ttl <= 0 and not stream_blocked:
            return False
        if self._probe_watchers and any(
            env.matches(*w[1]) for w in self._probe_watchers
        ):
            self._reveal_stream(env.context, env.source, probe_hits)
            return False
        self._held.append([ttl, env])
        return True

    def _age_held(self, probe_hits: list[Completion]) -> None:
        """One visibility event: decrement every hold and reveal expired
        envelopes, keeping per-stream order (an expired envelope stays
        held while an earlier envelope of its stream is held)."""
        released: list[Envelope] = []
        blocked: set[tuple[int, int]] = set()
        keep: deque[list] = deque()
        for item in self._held:
            item[0] -= 1
            env = item[1]
            stream = (env.context, env.source)
            if item[0] <= 0 and stream not in blocked:
                released.append(env)
            else:
                keep.append(item)
                blocked.add(stream)
        self._held = keep
        for env in released:
            self._to_pending(env, probe_hits)

    def _reveal_matching(
        self, context: int, source: int, tag: int, probe_hits: list[Completion]
    ) -> None:
        """Force-reveal every held envelope matching the receive/probe
        pattern — plus each one's held same-stream predecessors, so the
        pending queue stays FIFO per stream.  Called before a posted
        receive scans and inside blocking-probe scans: a blocked caller
        must see everything that has been *sent*, holds only delay
        visibility to nonblocking observers."""
        last: dict[tuple[int, int], int] = {}
        for i, item in enumerate(self._held):
            env = item[1]
            if env.matches(context, source, tag):
                last[(env.context, env.source)] = i
        if not last:
            return
        keep: deque[list] = deque()
        for i, item in enumerate(self._held):
            env = item[1]
            stream = (env.context, env.source)
            if stream in last and i <= last[stream]:
                self._to_pending(env, probe_hits)
            else:
                keep.append(item)
        self._held = keep

    def _reveal_stream(
        self, context: int, source: int, probe_hits: list[Completion]
    ) -> None:
        """Force-reveal every held envelope of one stream, in order."""
        keep: deque[list] = deque()
        for item in self._held:
            env = item[1]
            if env.context == context and env.source == source:
                self._to_pending(env, probe_hits)
            else:
                keep.append(item)
        self._held = keep

    def _claim_scheduled(self, sched, pr: PostedRecv) -> Optional[Envelope]:
        """Scheduled wildcard matching: build the candidate frontier (the
        first pending envelope *pr* accepts from each source — per-source
        order is non-overtaking and never up for choice), sort it by
        ``(source, tag)`` so the choice is independent of arrival order,
        and let the schedule pick."""
        cands: list[Envelope] = []
        seen: set[int] = set()
        for env in self._pending:
            if env.source not in seen and pr.accepts(env):
                seen.add(env.source)
                cands.append(env)
        if not cands:
            return None
        cands.sort(key=lambda e: (e.source, e.tag))
        idx = sched.choose_match(
            self.owner, pr.post_seq, tuple((e.source, e.tag) for e in cands)
        )
        env = cands[idx]
        self._pending.remove(env)
        pr.envelope = env
        return env

    # -- receiving (called from the *owner's* thread) ----------------------

    def post_recv(
        self,
        context: int,
        source: int,
        tag: int,
        world_source: Optional[int] = None,
    ) -> PostedRecv:
        """Post a receive; match immediately against pending envelopes.

        *world_source* is the expected sender's world rank (``None`` for
        wildcards).  Eager delivery means everything a rank sent before
        dying is already pending, so a receive posted against an
        already-dead rank with no pending match can never complete — it
        is failed at post time (the waiter raises
        :class:`~repro.errors.ProcessFailedError`).
        """
        pr = PostedRecv(context, source, tag, world_source)
        sched = self._world.config.match_schedule
        claimed: Optional[Envelope] = None
        probe_hits: list[Completion] = []
        with self._lock:
            if sched is not None:
                # A posted receive must see everything already *sent* to
                # it: force-reveal matching held envelopes (liveness),
                # then let the schedule choose among the candidate
                # frontier.  The post index is allocated for every
                # receive — matched here or later at delivery — so the
                # rank's decision keys follow its own program order.
                pr.post_seq = sched.next_post_seq(self.owner)
                if self._held:
                    self._reveal_matching(context, source, tag, probe_hits)
                claimed = self._claim_scheduled(sched, pr)
            else:
                for env in self._pending:
                    if pr.accepts(env):
                        self._pending.remove(env)
                        pr.envelope = env
                        claimed = env
                        break
            if claimed is None:
                if world_source is not None and self._world.rank_failed(world_source):
                    pr.failed_rank = world_source
                else:
                    self._posted.append(pr)
        for completion in probe_hits:
            completion.signal()
        if claimed is not None:
            pr.completion.signal()
            self._world.note_activity()
            if claimed.sync_event is not None:
                claimed.sync_event.set()
        elif pr.failed_rank is not None:
            pr.completion.signal()
        return pr

    def cancel(self, pr: PostedRecv) -> bool:
        """Remove a not-yet-matched posted receive.  Returns True if it was
        still unmatched (and is now cancelled)."""
        with self._lock:
            if pr in self._posted:
                self._posted.remove(pr)
                pr.cancelled = True
                return True
            return False

    def wait(self, pr: PostedRecv, what: str) -> Envelope:
        """Block until *pr* is matched; abort-aware and deadlock-detecting.

        Parameters
        ----------
        pr :
            The posted receive to wait on.
        what :
            Human-readable description of the blocking call, shown in
            deadlock diagnostics (e.g. ``"recv(source=2, tag=7)"``).

        Raises
        ------
        CommError
            If *pr* was cancelled — its message can never arrive.
        ProcessFailedError
            If the expected sender died — its message can never arrive.
        RevokedError
            If the communicator was revoked while the receive was pending.
        """
        if pr.envelope is not None:
            return pr.envelope
        if pr.cancelled:
            raise CommError(f"wait on a cancelled receive: {what}")
        self._check_doomed(pr, what)
        self._world.progress.wait((pr.completion,), self.owner, what)
        self._check_doomed(pr, what)
        assert pr.envelope is not None
        return pr.envelope

    @staticmethod
    def _check_doomed(pr: PostedRecv, what: str) -> None:
        """Raise if *pr* can never complete (dead sender / revoked comm)."""
        if pr.failed_rank is not None and pr.envelope is None:
            raise ProcessFailedError(
                f"receive from failed world rank {pr.failed_rank}: {what}",
                failed_ranks=(pr.failed_rank,),
            )
        if pr.revoked and pr.envelope is None:
            raise RevokedError(f"communicator revoked while blocked in {what}")

    # -- probing -----------------------------------------------------------

    def probe(self, context: int, source: int, tag: int, block: bool, what: str) -> Optional[Envelope]:
        """Peek at the earliest pending envelope matching the pattern.

        With ``block=True``, waits (abort-aware) until one arrives.  The
        envelope is *not* removed.  Returns ``None`` only when non-blocking
        and nothing matches.

        Under an armed :class:`~repro.mpi.sched.MatchSchedule` the probe
        reports a schedule-chosen envelope from the candidate frontier
        (still the earliest per source, so a follow-up receive addressed
        by the reported ``(source, tag)`` claims the probed message).  A
        *blocking* probe force-reveals matching held envelopes — it must
        see everything sent; a nonblocking probe only ages holds, which
        is the "sent but not yet visible" window real MPI permits.
        """
        world = self._world
        sched = world.config.match_schedule

        def scan() -> Optional[Envelope]:
            if sched is None:
                for env in self._pending:
                    if env.matches(context, source, tag):
                        return env
                return None
            if block and self._held:
                hits: list[Completion] = []
                self._reveal_matching(context, source, tag, hits)
                # Owner-thread probes can have no parked watcher of
                # their own mailbox; any hits here are defensive.
                for completion in hits:
                    completion.signal()
            cands: list[Envelope] = []
            seen: set[int] = set()
            for env in self._pending:
                if env.source not in seen and env.matches(context, source, tag):
                    seen.add(env.source)
                    cands.append(env)
            if not cands:
                return None
            cands.sort(key=lambda e: (e.source, e.tag))
            return cands[
                sched.choose_probe(
                    self.owner, tuple((e.source, e.tag) for e in cands)
                )
            ]

        if not block:
            world.progress.poll()
        with self._lock:
            if sched is not None and not block and self._held:
                hits: list[Completion] = []
                self._age_held(hits)
                for completion in hits:
                    completion.signal()
            env = scan()
            if env is not None or not block:
                return env
        # Arm a fresh one-shot watcher per park: deliver() signals it
        # when a matching envelope lands in pending.  Only the owner
        # consumes this mailbox's pending queue, and the owner is the
        # thread parked here, so a signalled match cannot vanish before
        # the re-scan.
        while True:
            if world.ctx_revoked(context):
                raise RevokedError(f"communicator revoked while blocked in {what}")
            watcher = Completion()
            with self._lock:
                env = scan()
                if env is not None:
                    return env
                self._probe_watchers.append((watcher, (context, source, tag)))
            try:
                world.progress.wait((watcher,), self.owner, what)
            finally:
                with self._lock:
                    self._probe_watchers = [
                        w for w in self._probe_watchers if w[0] is not watcher
                    ]

    # -- maintenance --------------------------------------------------------

    def wake(self) -> None:
        """Flush any schedule-held envelopes into pending, waking the
        probes they satisfy (used by :meth:`World.abort`): during abort,
        revoke, or failure recovery nothing may stay hidden —
        diagnostics and the ULFM recovery plane must see the full
        mailbox state.  Parked waiters themselves are woken by
        :meth:`ProgressEngine.wake_all
        <repro.mpi.progress.ProgressEngine.wake_all>`."""
        probe_hits: list[Completion] = []
        with self._lock:
            if self._held:
                released = [item[1] for item in self._held]
                self._held = deque()
                for env in released:
                    self._to_pending(env, probe_hits)
        for completion in probe_hits:
            completion.signal()

    def fail_posted_from(self, world_rank: int) -> None:
        """Fail every unmatched posted receive that can only be satisfied
        by *world_rank* (called by :meth:`World.proc_failed` when that
        rank dies).  Wildcard receives are untouched — another sender may
        still satisfy them; a global stall is caught by the watchdog's
        failure pulse instead."""
        doomed: list[PostedRecv] = []
        with self._lock:
            keep: deque[PostedRecv] = deque()
            for pr in self._posted:
                if pr.world_source == world_rank and pr.envelope is None:
                    pr.failed_rank = world_rank
                    doomed.append(pr)
                else:
                    keep.append(pr)
            self._posted = keep
        for pr in doomed:
            pr.completion.signal()

    def revoke_ctxs(self, ctxs: set, comm_name: str) -> None:
        """Fail every unmatched posted receive and wake every probe on the
        given context ids (called by :meth:`World.revoke_contexts`)."""
        doomed: list[PostedRecv] = []
        probe_hits: list[Completion] = []
        with self._lock:
            keep: deque[PostedRecv] = deque()
            for pr in self._posted:
                if pr.context in ctxs and pr.envelope is None:
                    pr.revoked = True
                    doomed.append(pr)
                else:
                    keep.append(pr)
            self._posted = keep
            watchers = []
            for watcher in self._probe_watchers:
                if watcher[1][0] in ctxs:
                    probe_hits.append(watcher[0])
                else:
                    watchers.append(watcher)
            self._probe_watchers = watchers
        for pr in doomed:
            pr.completion.signal()
        for completion in probe_hits:
            completion.signal()

    def stats(self) -> tuple[int, int]:
        """Return ``(pending, posted)`` queue depths (diagnostics only).
        Schedule-held envelopes count as pending — they have been
        delivered, the schedule is merely delaying their visibility."""
        with self._lock:
            return len(self._pending) + len(self._held), len(self._posted)

    def check_abort(self) -> None:
        """Raise :class:`AbortError` if the world has aborted."""
        self._world.check_abort()

"""The shared state of one simulated MPI job: the *world*.

A :class:`World` owns the mailboxes of all processes, allocates communicator
context ids, records per-process liveness and blocking state, and implements
the two safety nets real MPI lacks:

* **abort propagation** — when any process raises, every blocked sibling is
  woken with :class:`~repro.errors.AbortError` instead of hanging the job;
* **deadlock detection** — when every live process is blocked and no message
  has moved for a grace period, the world declares deadlock and reports what
  each rank was blocked on.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import AbortError, DeadlockError, ProcessFailedError
from repro.mpi.mailbox import Mailbox
from repro.mpi.progress import ProgressEngine, RankProgress, blocked_bucket

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.faults import FaultSchedule
    from repro.mpi.sched import MatchSchedule


@dataclass
class TrafficStats:
    """Aggregate message-traffic counters of one world.

    ``messages``/``payload_bytes`` count every delivered envelope, bytes
    being the encoded size of its :class:`~repro.mpi.serialization.Blob`
    (the pickle's length, or an array's ``nbytes``); ``by_kind`` splits
    by the verb family that sent it ("object" = lowercase verbs,
    "buffer" = point-to-point ``Send``, "bufcoll" = buffer-mode
    collective).  ``copy_avoided_bytes`` counts payload bytes delivered
    by *reusing* an existing encoding instead of producing a fresh one —
    fan-out siblings sharing the root's blob and node representatives
    forwarding the blob they received (see
    :mod:`repro.mpi.serialization`).  The counters make message
    complexity *testable* — e.g. a broadcast on P ranks delivers exactly
    P-1 messages, however many nodes they span.

    ``wakeups``/``blocked_seconds``/``blocked_hist`` aggregate the
    blocking ledger from :meth:`World.block_exit`: how many
    times blocked waiters woke, how long they were parked, and a
    log-bucket histogram of episode durations.  They make the progress
    engine's claim testable — an idle blocked rank records O(1) wakeups,
    however long it stays parked.
    """

    messages: int = 0
    payload_bytes: int = 0
    by_kind: dict = field(default_factory=dict)
    copy_avoided_bytes: int = 0
    wakeups: int = 0
    blocked_seconds: float = 0.0
    blocked_hist: dict = field(default_factory=dict)
    #: Transport wire bytes (framing + encoded envelope, control frames
    #: included) this world's rank pushed onto / pulled off its peer
    #: connections and rings, read from the transport's own counters.
    #: Zero on the thread backend, where no wire exists.
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0

    def snapshot(self) -> "TrafficStats":
        """A copy safe to compare against later counts."""
        return TrafficStats(
            self.messages,
            self.payload_bytes,
            dict(self.by_kind),
            self.copy_avoided_bytes,
            self.wakeups,
            self.blocked_seconds,
            dict(self.blocked_hist),
            self.wire_bytes_sent,
            self.wire_bytes_received,
        )

    def since(self, earlier: "TrafficStats") -> "TrafficStats":
        """Traffic recorded after *earlier* was snapshotted."""
        kinds = {
            k: self.by_kind.get(k, 0) - earlier.by_kind.get(k, 0)
            for k in set(self.by_kind) | set(earlier.by_kind)
        }
        hist = {
            k: self.blocked_hist.get(k, 0) - earlier.blocked_hist.get(k, 0)
            for k in set(self.blocked_hist) | set(earlier.blocked_hist)
        }
        return TrafficStats(
            self.messages - earlier.messages,
            self.payload_bytes - earlier.payload_bytes,
            {k: v for k, v in kinds.items() if v},
            self.copy_avoided_bytes - earlier.copy_avoided_bytes,
            self.wakeups - earlier.wakeups,
            self.blocked_seconds - earlier.blocked_seconds,
            {k: v for k, v in hist.items() if v},
            self.wire_bytes_sent - earlier.wire_bytes_sent,
            self.wire_bytes_received - earlier.wire_bytes_received,
        )


@dataclass
class WorldConfig:
    """What a caller decides about a world; everything else the code
    decides from what it can observe, or is a constant of the module
    that uses it.

    Attributes
    ----------
    deadlock_detection :
        Enable the all-blocked watchdog.
    deadlock_grace :
        Seconds of global inactivity with every process blocked before
        deadlock is declared.
    fault_schedule :
        A :class:`repro.mpi.faults.FaultSchedule` of injected failures
        (rank crashes, message drop/delay/duplication/corruption,
        slow-rank jitter), or ``None`` (the default) for a fault-free
        world.  When ``None`` the hooks cost one ``is None`` branch per
        operation and per delivery and never call into a schedule
        (``tests/mpi/test_faults.py::TestDisabledOverhead``).
    match_schedule :
        A :class:`repro.mpi.sched.MatchSchedule` deciding every legal
        nondeterministic choice of the substrate — wildcard match order,
        probe visibility, ``waitany``/``waitsome`` completion order, and
        bounded delivery holds — from a seed, so schedule-dependent bugs
        become replayable.  ``None`` (the default) keeps the historical
        earliest-first behaviour; the hooks then cost one ``is None``
        branch per choice point and never call into a schedule
        (``tests/mpi/test_faults.py::TestDisabledOverhead``).
    backend :
        Execution substrate of the job.  ``"thread"`` (default) runs each
        rank as a thread in this process sharing one :class:`World` — the
        historical simulator.  ``"process"`` spawns each rank as a real
        OS process (:mod:`repro.mpi.procbackend`) with its own world
        replica, wired together over a :class:`~repro.mpi.transport.SocketTransport`
        by a rank-bootstrap handshake — the paper's genuine
        multi-executable setting.
    transport :
        Which :class:`~repro.mpi.transport.Transport` moves envelopes
        between the ranks of the process backend (the thread backend
        delivers straight into the destination mailbox and accepts only
        ``"auto"``).  ``"auto"`` (default) and ``"unix"`` are the socket
        transport: each rank dials its own Unix-domain connection to
        every peer it sends to, on first send, so a pair that talks
        both ways holds one connection per direction — the path
        the end-to-end workloads measure fastest (EXPERIMENTS.md, "One
        default data plane").  ``"shm"`` asks for the shared-memory
        transport (:class:`~repro.mpi.shm.ShmTransport`) by name: rings
        and a page pool between same-node peers, sockets across nodes.

    Which ranks share a node is not configured here: it is where the
    launcher placed them, a world's :attr:`World.node_map`.
    """

    deadlock_detection: bool = True
    deadlock_grace: float = 1.0
    fault_schedule: Optional["FaultSchedule"] = None
    match_schedule: Optional["MatchSchedule"] = None
    backend: str = "thread"
    transport: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        if self.transport not in ("auto", "unix", "shm"):
            raise ValueError(
                f"transport must be 'auto', 'unix' or 'shm', got {self.transport!r}"
            )
        if self.backend == "thread" and self.transport != "auto":
            raise ValueError(
                f"transport {self.transport!r} requires backend='process'"
            )
        if not (
            isinstance(self.deadlock_grace, numbers.Real)
            and math.isfinite(self.deadlock_grace)
            and self.deadlock_grace >= 0
        ):
            raise ValueError(
                f"deadlock_grace must be finite and >= 0, got {self.deadlock_grace!r}"
            )


def check_node_map(nprocs: int, node_map: Optional[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """*node_map* as a world holds it: ``None`` (one node), or a tuple of
    one int node id per world rank — a launch plan's
    ``placement.node_of_rank`` (paper §2: executables may share an SMP
    node, never a CPU).  Anything else is refused with ``ValueError``."""
    if node_map is None:
        return None
    try:
        nodes = tuple(node_map)
    except TypeError:
        nodes = ()
    if len(nodes) != nprocs or not all(
        isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in nodes
    ):
        raise ValueError(
            f"node_map must hold one int node id per world rank ({nprocs}), got {node_map!r}"
        )
    return tuple(int(n) for n in nodes)


class World:
    """Shared infrastructure for ``nprocs`` simulated MPI processes."""

    def __init__(
        self,
        nprocs: int,
        config: WorldConfig | None = None,
        node_map: Optional[Sequence[int]] = None,
    ):
        if nprocs < 1:
            raise ValueError(f"world size must be >= 1, got {nprocs}")
        #: Number of processes in the world (never changes).
        self.nprocs = nprocs
        #: Behaviour knobs shared by every communicator of this world.
        self.config = config or WorldConfig()
        #: The node id of each world rank — where the launcher placed it
        #: (:func:`check_node_map`) — or ``None``: every rank on node 0.
        #: The collectives' two-level stars, the ``mph://node/<k>``
        #: psets and the shm transport's ring pairs all read it.
        self.node_map = check_node_map(nprocs, node_map)
        #: One mailbox per process, indexed by world rank.
        self.mailboxes = [Mailbox(self, r) for r in range(nprocs)]
        #: The :class:`~repro.mpi.transport.Transport` carrying remote
        #: deliveries (bound by the process backend), or ``None`` for the
        #: thread backend's direct-mailbox path.  Every remote send
        #: funnels through :meth:`deliver`, which dispatches on this
        #: attribute.
        self.transport = None

        # Context ids: 0/1 are reserved for COMM_WORLD's p2p/collective
        # traffic; communicator-creating operations allocate pairs above.
        self._ctx_lock = threading.Lock()
        self._next_ctx = 2

        #: Guards liveness, blocking and traffic state alike: a delivery
        #: or a blocked episode is one update under it.
        self._state_lock = threading.Lock()
        #: Notified on block_enter while a test waits for a rank to park
        #: (:meth:`wait_until_blocked`) instead of sleeping wall-clock.
        self._state_cond = threading.Condition(self._state_lock)
        self._block_watchers = 0
        self._alive: set[int] = set(range(nprocs))
        self._blocked: dict[int, str] = {}
        self._last_activity = time.monotonic()

        # ULFM-style failure state: ranks dead by fail-stop crash (the
        # world keeps running), a monotonic pulse bumped whenever the
        # failure detector finds survivors stalled on a dead rank, and
        # the context ids of revoked communicators.
        self._failed: set[int] = set()
        self._failure_pulse = 0
        self._revoked_ctxs: set[int] = set()

        self._abort_lock = threading.Lock()
        self._abort_exc: AbortError | None = None
        self._deadlock_exc: DeadlockError | None = None
        #: Whether every communicator operation must run its full check
        #: (``Comm._check``): set once the world aborts or revokes a
        #: communicator, and for the whole life of a world with a fault
        #: schedule (which counts operations).  While it is false an
        #: operation's check is two attribute reads.
        self.op_checks = self.config.fault_schedule is not None

        #: Aggregate traffic counters (read via :meth:`traffic_snapshot`).
        self.traffic = TrafficStats()
        self._rank_progress: dict[int, RankProgress] = {}

        #: The completion/waitset layer every blocking path parks on
        #: (and the owner of the deadlock watchdog thread).
        self.progress = ProgressEngine(self)

    # -- context ids --------------------------------------------------------

    def alloc_context_pair(self) -> tuple[int, int]:
        """Allocate a fresh ``(p2p, collective)`` context-id pair.

        Allocation is done by a single agreeing process (e.g. the root of a
        ``Split``) and distributed to the members, so ids are consistent
        across a new communicator by construction.
        """
        with self._ctx_lock:
            pair = (self._next_ctx, self._next_ctx + 1)
            self._next_ctx += 2
            return pair

    # -- envelope delivery ---------------------------------------------------

    def deliver(self, dest: int, env) -> None:
        """Deliver *env* to world rank *dest* — the single seam every
        remote send crosses.

        On the thread backend (no transport) this is a direct call into
        the destination mailbox; on the process backend the envelope
        goes to the world's :class:`~repro.mpi.transport.Transport`
        (framed socket or shm-ring I/O to another OS process).
        """
        transport = self.transport
        if transport is None:
            self.mailboxes[dest].deliver(env)
        else:
            transport.send_envelope(dest, env)

    # -- traffic accounting ---------------------------------------------------

    def record_traffic(self, kind: str, nbytes: int, copy_avoided: int = 0) -> None:
        """Count one delivered envelope and note the message movement for
        the watchdog — a delivery's whole bookkeeping, one update (called
        by the mailboxes).

        *copy_avoided* is the number of payload bytes this delivery reused
        from an already-existing encoding (zero-copy fast path).
        """
        traffic = self.traffic
        with self._state_lock:
            traffic.messages += 1
            traffic.payload_bytes += nbytes
            traffic.by_kind[kind] = traffic.by_kind.get(kind, 0) + 1
            traffic.copy_avoided_bytes += copy_avoided
            self._last_activity = time.monotonic()

    def traffic_snapshot(self) -> TrafficStats:
        """A consistent copy of the traffic counters (the wire bytes are
        the bound transport's own)."""
        with self._state_lock:
            snap = self.traffic.snapshot()
        transport = self.transport
        if transport is not None:
            snap.wire_bytes_sent, snap.wire_bytes_received = transport.wire_bytes()
        return snap

    def progress_stats(self, rank: int | None = None) -> RankProgress | dict[int, RankProgress]:
        """Per-rank blocking statistics: episodes, wakeups, blocked time.

        With *rank*, that rank's :class:`RankProgress` (zeros if it never
        blocked); without, a copy of the whole ledger.
        """
        with self._state_lock:
            if rank is not None:
                rp = self._rank_progress.get(rank, RankProgress())
                return RankProgress(rp.episodes, rp.wakeups, rp.blocked_seconds)
            return {
                r: RankProgress(rp.episodes, rp.wakeups, rp.blocked_seconds)
                for r, rp in self._rank_progress.items()
            }

    # -- activity / liveness tracking ----------------------------------------

    def note_activity(self) -> None:
        """Record message movement (delivery or match) for the watchdog."""
        with self._state_lock:
            self._last_activity = time.monotonic()

    def block_enter(self, rank: int, what: str) -> None:
        """Mark *rank* as blocked in the call described by *what*."""
        with self._state_lock:
            self._blocked[rank] = what
            if self._block_watchers:
                self._state_cond.notify_all()

    def block_exit(
        self, rank: int, seconds: Optional[float] = None, wakeups: int = 0
    ) -> None:
        """Mark *rank* as running again.  With *seconds*, account the
        blocked episode that ends here in the same update: *seconds*
        parked, woken *wakeups* times — what every blocking path of the
        progress engine reports, feeding :class:`TrafficStats` and the
        per-rank ledger read by :meth:`progress_stats`."""
        with self._state_lock:
            self._blocked.pop(rank, None)
            if seconds is None:
                return
            traffic = self.traffic
            traffic.wakeups += wakeups
            traffic.blocked_seconds += seconds
            bucket = blocked_bucket(seconds)
            traffic.blocked_hist[bucket] = traffic.blocked_hist.get(bucket, 0) + 1
            rp = self._rank_progress.get(rank)
            if rp is None:
                rp = self._rank_progress[rank] = RankProgress()
            rp.episodes += 1
            rp.wakeups += wakeups
            rp.blocked_seconds += seconds

    def proc_done(self, rank: int) -> None:
        """Mark *rank* as finished (returned or raised)."""
        with self._state_lock:
            self._alive.discard(rank)
            self._blocked.pop(rank, None)
            self._state_cond.notify_all()

    def wait_until_blocked(
        self, ranks=None, timeout: float = 5.0
    ) -> bool:
        """Testing hook: block until every rank in *ranks* (default: all
        currently-alive ranks) sits inside a blocking call.

        Replaces the "sleep long enough and hope the peer has parked"
        idiom in timing-sensitive tests with an event: returns ``True``
        as soon as the ranks are blocked, ``False`` on timeout (e.g. a
        rank finished instead of blocking).  Purely observational — it
        takes no locks a blocked rank holds and never wakes anyone.
        """
        deadline = time.monotonic() + timeout
        with self._state_cond:
            self._block_watchers += 1
            try:
                while True:
                    want = set(ranks) if ranks is not None else set(self._alive)
                    if want and want <= set(self._blocked):
                        return True
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._state_cond.wait(remaining)
            finally:
                self._block_watchers -= 1

    # -- process failure (ULFM semantics) -----------------------------------

    def proc_failed(self, rank: int) -> None:
        """Record the fail-stop death of *rank*.

        Unlike :meth:`abort` the world keeps running: survivors proceed,
        and only operations that involve the dead rank raise
        :class:`~repro.errors.ProcessFailedError` — receives posted
        against it fail immediately, deliveries into its mailbox fail the
        sender, and survivors stalled *indirectly* are released by the
        watchdog's failure pulse (see :meth:`scan_deadlock`).
        """
        with self._state_lock:
            if rank in self._failed:
                return
            self._failed.add(rank)
            self._alive.discard(rank)
            self._blocked.pop(rank, None)
        for mb in self.mailboxes:
            mb.fail_posted_from(rank)
        for mb in self.mailboxes:
            mb.wake()
        self.progress.wake_all()

    def rank_failed(self, rank: int) -> bool:
        """Whether *rank* died by fail-stop failure."""
        return bool(self._failed) and rank in self._failed

    @property
    def failed_ranks(self) -> frozenset[int]:
        """World ranks dead by fail-stop failure."""
        with self._state_lock:
            return frozenset(self._failed)

    @property
    def failure_pulse(self) -> int:
        """Monotonic counter bumped each time the failure detector finds
        every survivor blocked with dead ranks present; parked waiters
        compare it against their entry value to learn of the stall."""
        return self._failure_pulse

    # -- communicator revocation (ULFM semantics) ---------------------------

    def revoke_contexts(self, ctxs, comm_name: str) -> None:
        """Revoke the communicator owning context ids *ctxs*: pending
        receives and probes on those contexts fail with
        :class:`~repro.errors.RevokedError`, and ``Comm._check`` fails
        all future operations.  Idempotent."""
        ctxs = tuple(ctxs)
        with self._state_lock:
            if all(c in self._revoked_ctxs for c in ctxs):
                return
            self._revoked_ctxs.update(ctxs)
            self.op_checks = True
        ctx_set = set(ctxs)
        for mb in self.mailboxes:
            mb.revoke_ctxs(ctx_set, comm_name)
        for mb in self.mailboxes:
            mb.wake()
        self.progress.wake_all()

    def ctx_revoked(self, ctx: int) -> bool:
        """Whether context id *ctx* belongs to a revoked communicator."""
        return bool(self._revoked_ctxs) and ctx in self._revoked_ctxs

    def blocked_count(self) -> int:
        """Number of ranks currently inside a blocking call (watchdog
        arming / diagnostics)."""
        with self._state_lock:
            return len(self._blocked)

    # -- abort handling -------------------------------------------------------

    def abort(self, exc: AbortError) -> None:
        """Abort the world: record *exc* (first abort wins) and wake every
        blocked process so it can observe the abort and unwind."""
        with self._abort_lock:
            if self._abort_exc is None:
                self._abort_exc = exc
            self.op_checks = True
        for mb in self.mailboxes:
            mb.wake()
        self.progress.wake_all()

    @property
    def aborted(self) -> bool:
        """Whether the world has been aborted."""
        return self._abort_exc is not None

    @property
    def deadlock_exc(self) -> DeadlockError | None:
        """The declared deadlock, if the watchdog found one — parked
        waiters re-raise it as the root cause instead of a secondary
        :class:`AbortError`."""
        return self._deadlock_exc

    def check_abort(self) -> None:
        """Raise the recorded :class:`AbortError` if the world aborted.

        Each raising rank gets its own exception instance (a shared one
        would interleave tracebacks across threads), chained to the
        originating rank's real exception via ``__cause__`` so failure
        diagnostics survive propagation to sibling ranks.
        """
        exc = self._abort_exc
        if exc is not None:
            sibling = AbortError(str(exc), origin_rank=exc.origin_rank)
            sibling.__cause__ = exc.__cause__
            raise sibling

    # -- deadlock detection ----------------------------------------------------

    def scan_deadlock(self) -> DeadlockError | ProcessFailedError | None:
        """Run the all-blocked-and-idle check once; on detection record
        the :class:`DeadlockError`, abort the world, and return the error
        (without raising — the caller decides who surfaces it).

        When dead ranks are present the same stall is a *process-failure*
        stall, not a deadlock: survivors are waiting (directly or
        transitively) on ranks that can never answer.  The scan then
        bumps the failure pulse and wakes everyone — each parked waiter
        raises :class:`~repro.errors.ProcessFailedError` for itself — and
        the world is **not** aborted, so survivors that handle the error
        keep running (ULFM semantics).

        Called by the progress engine's watchdog thread.  Safe against
        false positives: a waiter whose wake condition became true exits
        its wait (and the blocked set) promptly, and any message
        movement refreshes the activity clock.
        """
        if not self.config.deadlock_detection or self.aborted:
            return None
        with self._state_lock:
            alive = len(self._alive)
            failed = frozenset(self._failed)
            if alive == 0 or len(self._blocked) < alive:
                return None
            if time.monotonic() - self._last_activity < self.config.deadlock_grace:
                return None
            blocked = dict(self._blocked)
        detail = "; ".join(f"rank {r}: {w}" for r, w in sorted(blocked.items()))
        if failed:
            err: DeadlockError | ProcessFailedError = ProcessFailedError(
                f"process failure stalled the job: rank(s) {sorted(failed)} dead, "
                f"all {alive} survivors blocked ({detail})",
                failed_ranks=failed,
            )
            with self._state_lock:
                self._failure_pulse += 1
                self._last_activity = time.monotonic()
            for mb in self.mailboxes:
                mb.wake()
            self.progress.wake_all()
            return err
        err = DeadlockError(
            f"deadlock detected: all {alive} live processes blocked ({detail})",
            blocked_on=blocked,
        )
        with self._abort_lock:
            if self._deadlock_exc is None:
                self._deadlock_exc = err
        self.abort(AbortError(str(err)))
        return err

    # -- diagnostics -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A diagnostic snapshot of liveness, blocking and queue depths."""
        with self._state_lock:
            alive = sorted(self._alive)
            blocked = dict(self._blocked)
            failed = sorted(self._failed)
        return {
            "alive": alive,
            "blocked": blocked,
            "failed": failed,
            "queues": {r: mb.stats() for r, mb in enumerate(self.mailboxes)},
        }

"""The event-driven progress engine: one completion layer for every
blocking path of the simulated substrate.

MPICH-G2 showed that a *single unified progress engine* under
heterogeneous communication methods is what makes a multi-method MPI
both fast and correct; this module is that layer for the simulated
substrate.  Three pieces:

* :class:`Completion` — a one-shot token signalled exactly once when an
  operation finishes (a receive matches, a synchronous send is claimed,
  a probe pattern becomes satisfiable).  Signallers never block.
* :class:`Waitset` — where one blocked thread of a *thread world* parks.
  It subscribes to many completions at once (``waitany``/``waitsome``
  over mixed request lists) and is woken exactly once per relevant
  event: a completion signal, a world abort, or the watchdog declaring
  deadlock.
* :class:`ProgressEngine` — the per-:class:`~repro.mpi.world.World`
  owner of the blocking paths and of the **deadlock watchdog thread**.
  The watchdog is started lazily on the first blocked waiter, runs only
  while someone is blocked, and exits on abort or after a quiet period,
  so idle worlds carry no thread and blocked ranks pay zero periodic
  wakeups.

A thread world's rank parks on a waitset's condition.  A process rank's
world has a transport, and there the blocked rank *is* the network
poller: it turns the transport's progress loop
(:meth:`SocketTransport.progress
<repro.mpi.transport.SocketTransport.progress>`), which reads, decodes
and dispatches on this thread, and re-tests :attr:`Completion.done`
after each turn — no waitset, no subscription.  A delivery on that
thread completes the rank's own receive with nothing in between.  What
is signalled from any *other* thread reaches the waiting thread through
the transport's wake socket: a completion signalled by a second thread
of the rank (a send to its own rank, say) writes it itself, and the
watchdog's abort or failure pulse writes it through :meth:`wake_all`.

Every blocked episode records its wakeup count and duration through
:meth:`World.block_exit <repro.mpi.world.World.block_exit>`, so
"parked means parked" is measurable rather than asserted.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World

#: Blocked-episode duration histogram buckets: ``(upper bound seconds,
#: label)``; durations past the last bound fall into ``_HIST_OVERFLOW``.
_HIST_BUCKETS = (
    (0.001, "<1ms"),
    (0.01, "1-10ms"),
    (0.1, "10-100ms"),
    (1.0, "100ms-1s"),
)
_HIST_OVERFLOW = ">=1s"

#: How often (seconds) the watchdog thread runs the all-blocked-and-idle
#: deadlock scan while someone is blocked.  Bounds deadlock-detection and
#: thereby abort-propagation latency.
_WATCHDOG_PERIOD = 0.05


def blocked_bucket(seconds: float) -> str:
    """The histogram bucket label for a blocked episode of *seconds*."""
    for bound, label in _HIST_BUCKETS:
        if seconds < bound:
            return label
    return _HIST_OVERFLOW


class Completion:
    """A one-shot completion token.

    ``signal()`` flips it done (idempotently) and wakes whoever waits on
    it: every thread-world :class:`Waitset` subscribed to it, and — when
    the waiter is a thread turning a transport's progress loop and the
    signal comes from another thread — that transport's wake socket.
    ``set()`` is a :class:`threading.Event`-compatible alias so the token
    can ride in an :class:`~repro.mpi.mailbox.Envelope`'s ``sync_event``
    slot.

    A subclass that is constructed per message (the posted receive)
    initialises the five slots itself, as :meth:`__init__` does.
    """

    __slots__ = ("_lock", "_done", "_waitsets", "_driver", "_wake")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._done = False
        #: Thread-world waitsets parked on this token (``None``: none).
        self._waitsets: Optional[list["Waitset"]] = None
        #: Ident of the thread waiting on this token by turning a
        #: transport's loop (0: none), and that transport's ``wake``.
        self._driver = 0
        self._wake = None

    @property
    def done(self) -> bool:
        """Whether the token has been signalled."""
        return self._done

    def is_set(self) -> bool:
        """Event-style alias of :attr:`done`."""
        return self._done

    def signal(self) -> None:
        """Mark complete and wake its waiter (first call wins; later
        calls are no-ops).  Never blocks on a waiter's lock while holding
        its own, so signallers cannot deadlock against waiters.  A waiter
        turning a transport loop on this very thread re-tests after the
        turn and needs no wake."""
        with self._lock:
            if self._done:
                return
            self._done = True
            waitsets = self._waitsets
            self._waitsets = None
            driver = self._driver
            wake = self._wake
        if waitsets:
            for ws in waitsets:
                ws._notify(self)
        if driver and driver != threading.get_ident():
            wake()

    #: Event-compatible alias (``Envelope.sync_event.set()``).
    set = signal

    def _subscribe(self, ws: "Waitset") -> bool:
        """Attach *ws* for a wakeup on signal.  Returns False — and does
        not attach — when already signalled (the caller is done)."""
        with self._lock:
            if self._done:
                return False
            if self._waitsets is None:
                self._waitsets = []
            self._waitsets.append(ws)
            return True

    def _unsubscribe(self, ws: "Waitset") -> None:
        with self._lock:
            if self._waitsets and ws in self._waitsets:
                self._waitsets.remove(ws)


class Waitset:
    """Where one blocked thread of a thread world parks while waiting on
    completions.

    A waitset is woken by (a) any subscribed completion signalling, or
    (b) a :meth:`poke` from the engine (abort or deadlock declared).  It
    counts its wakeups so tests and benchmarks can pin the O(1)-wakeups
    property of the event engine.  A rank of a world with a transport
    never builds one: it re-tests its completions between turns of the
    transport's loop instead (:meth:`ProgressEngine.wait`).
    """

    __slots__ = ("_cond", "_fired", "wakeups")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: Completions that signalled while we were subscribed.
        self._fired: list[Completion] = []
        #: Times the parked thread was woken (delivery, abort, watchdog).
        self.wakeups = 0

    def _notify(self, completion: Completion) -> None:
        with self._cond:
            self._fired.append(completion)
            self._cond.notify_all()

    def poke(self) -> None:
        """Wake the parked thread without completing anything (abort and
        deadlock propagation)."""
        with self._cond:
            self._cond.notify_all()


@dataclass
class RankProgress:
    """Per-rank blocking statistics."""

    #: Number of completed blocked episodes.
    episodes: int = 0
    #: Total wakeups across all episodes.
    wakeups: int = 0
    #: Total seconds spent blocked.
    blocked_seconds: float = 0.0


class ProgressEngine:
    """Per-world blocking paths plus the lazy watchdog.

    One engine per :class:`~repro.mpi.world.World`.  Blocking paths call
    :meth:`wait`; delivery paths signal :class:`Completion` tokens;
    :meth:`wake_all` (from ``World.abort``, a process failure, or the
    watchdog's failure pulse) pokes every parked waitset and writes the
    transport's wake socket, so abort propagation is bounded by lock
    handoff or one ``select`` return, not by poll slices.
    """

    #: Seconds of continuous blocked-free time after which the watchdog
    #: thread retires (it restarts lazily on the next blocked waiter).
    _IDLE_EXIT = 1.0

    def __init__(self, world: "World"):
        self._world = world
        self._reg_lock = threading.Lock()
        #: Thread-world waitsets currently parked (what wake_all pokes).
        self._active: set[Waitset] = set()
        self._wd_cond = threading.Condition()
        self._wd_running = False
        self._wd_kick = False
        self._wd_shutdown = False

    # -- waiting -------------------------------------------------------------

    def wait(
        self, completions: Sequence[Completion], rank: int, what: str
    ) -> list[Completion]:
        """Block *rank* until at least one of *completions* signals.

        Returns the completions known to have fired (callers re-test their
        requests — more may fire after return).  Raises
        :class:`~repro.errors.DeadlockError` when the watchdog declared
        deadlock while we were parked,
        :class:`~repro.errors.ProcessFailedError` when the failure
        detector found the survivors stalled on dead ranks, or
        :class:`~repro.errors.AbortError` on any other world abort.  The
        episode (duration + wakeup count) is recorded on the world either
        way.

        On a world with a transport the calling thread turns the
        transport's loop and re-tests the completions after each turn;
        it first publishes itself on each completion (under the token's
        lock, before the first test), so a signal from any other thread
        knows to write the wake socket.  On a thread world it parks on a
        :class:`Waitset`.
        """
        from repro.errors import CommError

        if not completions:
            raise CommError(f"progress wait with no completions: {what}")
        world = self._world
        start = time.monotonic()
        pulse0 = world._failure_pulse
        world.block_enter(rank, what)
        # A plain store, then the test: the watchdog's retire re-reads the
        # kick after clearing its running flag (see _watchdog_loop).
        self._wd_kick = True
        if not self._wd_running:
            self._arm_watchdog()
        transport = world.transport
        wakeups = 0
        try:
            if transport is None:
                ws = Waitset()
                try:
                    return self._park(ws, completions, pulse0)
                finally:
                    wakeups = ws.wakeups
            me = threading.get_ident()
            wake = transport.wake
            for c in completions:
                with c._lock:
                    c._driver = me
                    c._wake = wake
            window = transport.progress_poll_s
            if window > 0.0 and not _any_done(completions):
                # A transport with a poll window (the shm rings) is turned
                # without blocking for that long first — in steady-state
                # exchange the awaited frame lands inside it, so no
                # doorbell round trip is paid.
                end = start + window
                while time.monotonic() < end:
                    transport.progress(0)
                    if _any_done(completions):
                        break
                    self._check_failure(pulse0)
                    time.sleep(0)  # yield: reply production needs the GIL
            while not _any_done(completions):
                if world._abort_exc is not None or world._failure_pulse != pulse0:
                    self._check_failure(pulse0)
                transport.progress(None)
                wakeups += 1
            fired = []
            for c in completions:
                if c._done:
                    fired.append(c)
                else:
                    with c._lock:
                        c._driver = 0
            return fired
        finally:
            world.block_exit(rank, time.monotonic() - start, wakeups)

    def _park(
        self, ws: Waitset, completions: Sequence[Completion], pulse0: int
    ) -> list[Completion]:
        """Thread world: park on *ws*, subscribed to every completion,
        until one fires."""
        with self._reg_lock:
            self._active.add(ws)
        subscribed: list[Completion] = []
        try:
            fired: list[Completion] = []
            for c in completions:
                if c._subscribe(ws):
                    subscribed.append(c)
                else:
                    fired.append(c)  # signalled before we could park
            if fired:
                return fired
            with ws._cond:
                while not ws._fired:
                    self._check_failure(pulse0)
                    ws._cond.wait()
                    ws.wakeups += 1
                return list(ws._fired)
        finally:
            for c in subscribed:
                c._unsubscribe(ws)
            with self._reg_lock:
                self._active.discard(ws)

    def poll(self) -> None:
        """One turn of the transport's loop that does not wait, so a
        nonblocking call (``test``, ``iprobe``) sees what has arrived.
        No-op on a world without a transport."""
        transport = self._world.transport
        if transport is not None:
            transport.progress(0)

    def _check_failure(self, pulse0: int = -1) -> None:
        """Raise the world's failure for a parked waiter: a
        :class:`ProcessFailedError` when the failure detector pulsed while
        we were parked (dead ranks stalled the survivors — the world is
        *not* aborted), the declared :class:`DeadlockError` when one
        exists (so the root cause survives to the driver), otherwise the
        recorded abort."""
        from repro.errors import DeadlockError, ProcessFailedError

        world = self._world
        if pulse0 >= 0 and world.failure_pulse != pulse0:
            failed = world.failed_ranks
            if failed:
                raise ProcessFailedError(
                    f"process failure: world rank(s) {sorted(failed)} died while "
                    f"this rank was blocked",
                    failed_ranks=failed,
                )
        if not world.aborted:
            return
        dl = world.deadlock_exc
        if dl is not None:
            raise DeadlockError(str(dl), blocked_on=dl.blocked_on)
        world.check_abort()

    # -- abort propagation ---------------------------------------------------

    def wake_all(self) -> None:
        """Wake every blocked thread (abort / deadlock / failure pulse):
        poke every parked waitset, and write the transport's wake socket
        for the thread turning its loop."""
        with self._reg_lock:
            waitsets = list(self._active)
        for ws in waitsets:
            ws.poke()
        transport = self._world.transport
        if transport is not None:
            transport.wake()

    # -- watchdog ------------------------------------------------------------

    def _arm_watchdog(self) -> None:
        """Start the watchdog thread if none runs: the slow path of a
        blocked waiter that found no watchdog running."""
        with self._wd_cond:
            self._wd_kick = True
            if not self._wd_running:
                self._wd_running = True
                self._wd_shutdown = False
                threading.Thread(
                    target=self._watchdog_loop, name="mpi-watchdog", daemon=True
                ).start()

    def shutdown(self) -> None:
        """Ask the watchdog to retire now (the job is over); it restarts
        lazily if the world blocks again."""
        with self._wd_cond:
            self._wd_shutdown = True
            self._wd_cond.notify_all()

    def join_watchdog(self, timeout: float = 5.0) -> bool:
        """Testing hook: block until the watchdog thread has retired.

        Returns ``True`` once no watchdog is running (immediately if one
        never started), ``False`` on timeout.  Replaces the "poll
        ``_wd_running`` with short sleeps" idiom in lifecycle tests — the
        watchdog notifies this waiter the moment it retires.
        """
        deadline = time.monotonic() + timeout
        with self._wd_cond:
            while self._wd_running:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wd_cond.wait(remaining)
            return True

    def _watchdog_loop(self) -> None:
        """Periodically run the all-blocked-and-idle deadlock scan while
        anyone is blocked; retire on abort, shutdown, or a quiet period.

        Detection latency is bounded by :data:`_WATCHDOG_PERIOD`:
        blocked ranks park unconditionally and this single thread owns
        the safety net.
        """
        world = self._world
        idle_since: Optional[float] = None
        while True:
            with self._wd_cond:
                # Only shutdown() wakes this early: parks leave a kick
                # for the retire check below but never cut the period
                # short, so scans run O(elapsed / period), not O(parks).
                if not self._wd_shutdown:
                    self._wd_cond.wait(timeout=_WATCHDOG_PERIOD)
                self._wd_kick = False
                if self._wd_shutdown:
                    self._wd_running = False
                    self._wd_shutdown = False
                    self._wd_cond.notify_all()
                    return
            if world.aborted:
                with self._wd_cond:
                    self._wd_running = False
                    self._wd_cond.notify_all()
                    return
            if world.blocked_count() == 0:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= self._IDLE_EXIT:
                    with self._wd_cond:
                        # Clear the running flag *before* reading the
                        # kick: a waiter stores its kick and then reads
                        # the flag without this lock, so it either sees
                        # us running (and its kick is read here) or
                        # sees us gone and starts a new watchdog.
                        self._wd_running = False
                        if self._wd_kick:
                            self._wd_running = True
                            idle_since = None
                            continue
                        self._wd_cond.notify_all()
                        return
                continue
            idle_since = None
            world.scan_deadlock()


def _any_done(completions: Sequence[Completion]) -> bool:
    for c in completions:
        if c._done:
            return True
    return False

"""Nonblocking communication requests (the ``MPI_Request`` analogue).

``isend`` in this substrate is *eager*: the message is delivered into the
destination mailbox before the call returns, so send requests are born
complete (real MPI behaves this way for small messages).  ``irecv`` posts a
receive immediately — matching order is the MPI posted-receive order — and
the request completes when a matching envelope arrives.

``waitany``/``waitsome`` aggregate mixed request lists through the world's
:class:`~repro.mpi.progress.ProgressEngine`: the caller parks on one
waitset subscribed to every incomplete request's completion token and is
woken exactly once per relevant event (completion, abort, deadlock).
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import CommError
from repro.mpi.mailbox import Envelope, Mailbox, PostedRecv
from repro.mpi.progress import Completion
from repro.mpi.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World

#: Retry sleep of ``waitany``/``waitsome`` when no incomplete request
#: offers a completion to park on (seconds).
_POLL_BACKOFF = 0.0005


def _check_no_duplicates(requests: Sequence["Request"], what: str) -> None:
    """The same request handle twice in one wait list would hand out the
    same completion twice; MPI calls this erroneous, we raise."""
    seen: set[int] = set()
    for req in requests:
        if id(req) in seen:
            raise CommError(f"duplicate request handle in {what} list")
        seen.add(id(req))


def _progress_site(requests: Sequence["Request"]):
    """The ``(world, rank)`` to block on, from the first request that has
    one (``None`` for lists of detached/complete requests)."""
    for req in requests:
        site = req._site()
        if site is not None:
            return site
    return None


def _sched_site(requests: Sequence["Request"]):
    """``(match_schedule, rank)`` when the requests' world has one armed,
    else ``None`` (the disabled hook is this one lookup + branch)."""
    site = _progress_site(requests)
    if site is None:
        return None
    world, rank = site
    sched = world.config.match_schedule
    if sched is None:
        return None
    return sched, rank


def _park_any(requests: Sequence["Request"], what: str) -> bool:
    """Block until some incomplete request *may* have completed.

    Returns True when the caller should re-test (parked and woken),
    False when it should sleep-and-retry (no world found, or no
    incomplete request can signal a completion).  Raises on abort or
    deadlock either way when a world is known.
    """
    site = _progress_site(requests)
    if site is None:
        return False
    world, rank = site
    completions = []
    for req in requests:
        token = req.completion()
        if token is not None:
            completions.append(token)
    if not completions:
        world.check_abort()
        return False
    world.progress.wait(completions, rank, what)
    return True


class Request:
    """Base class for nonblocking-operation handles."""

    def wait(self, status: Optional[Status] = None) -> Any:
        """Block until the operation completes; return its value (the
        received object for receives, ``None`` for sends)."""
        raise NotImplementedError

    def test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        """Nonblocking completion check: ``(done, value)``.  ``value`` is
        meaningful only when ``done`` is true."""
        raise NotImplementedError

    def cancel(self) -> bool:
        """Attempt to cancel; returns True on success.  Only unmatched
        receives can be cancelled."""
        return False

    def completion(self) -> Optional[Completion]:
        """The token signalled when this request completes, or ``None``
        when the request has no pending completion to park on (eager
        sends)."""
        return None

    def _site(self) -> Optional[tuple["World", int]]:
        """The ``(world, rank)`` this request blocks on, if any."""
        return None

    # mpi4py-style aliases -------------------------------------------------

    def Wait(self, status: Optional[Status] = None) -> Any:
        """Alias of :meth:`wait` (mpi4py naming)."""
        return self.wait(status)

    def Test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        """Alias of :meth:`test` (mpi4py naming)."""
        return self.test(status)

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> list[Any]:
        """Wait for every request; return their values in order."""
        return [req.wait() for req in requests]

    @staticmethod
    def testall(requests: Sequence["Request"]) -> tuple[bool, list[Any]]:
        """Test all requests; ``(all_done, values)`` with values meaningful
        only when ``all_done``.  Does not consume incomplete requests."""
        results = [req.test() for req in requests]
        done = all(flag for flag, _ in results)
        return done, ([value for _, value in results] if done else [])

    @staticmethod
    def waitany(requests: Sequence["Request"]) -> tuple[int, Any]:
        """Block until any request completes; ``(index, value)``
        (``MPI_Waitany``), parking on one waitset over every incomplete
        request.
        Under an armed :class:`~repro.mpi.sched.MatchSchedule` the
        returned request is schedule-chosen among everything already
        complete (the index MPI leaves unspecified when several are).
        Raises :class:`CommError` on duplicate handles in the list."""
        if not requests:
            raise ValueError("waitany needs at least one request")
        _check_no_duplicates(requests, "waitany")
        sched_site = _sched_site(requests)
        if sched_site is not None:
            done = Request._await_some(requests, "waitany")
            if len(done) == 1:
                return done[0]
            sched, rank = sched_site
            idx = sched.choose_wait("waitany", rank, tuple(i for i, _ in done))
            return done[idx]
        while True:
            for i, req in enumerate(requests):
                done, value = req.test()
                if done:
                    return i, value
            if not _park_any(requests, f"waitany({len(requests)} requests)"):
                _time.sleep(_POLL_BACKOFF)

    @staticmethod
    def waitsome(requests: Sequence["Request"]) -> list[tuple[int, Any]]:
        """Block until at least one request completes; return every
        completed ``(index, value)`` (``MPI_Waitsome``).  Under an armed
        :class:`~repro.mpi.sched.MatchSchedule` the returned list is
        rotated to a schedule-chosen head — the completion *order* is
        exactly what MPI leaves unspecified.  Raises :class:`CommError`
        on duplicate handles in the list."""
        if not requests:
            raise ValueError("waitsome needs at least one request")
        _check_no_duplicates(requests, "waitsome")
        sched_site = _sched_site(requests)
        if sched_site is not None:
            done = Request._await_some(requests, "waitsome")
            if len(done) == 1:
                return done
            sched, rank = sched_site
            idx = sched.choose_wait("waitsome", rank, tuple(i for i, _ in done))
            return done[idx:] + done[:idx]
        while True:
            done = [
                (i, value)
                for i, (flag, value) in enumerate(req.test() for req in requests)
                if flag
            ]
            if done:
                return done
            if not _park_any(requests, f"waitsome({len(requests)} requests)"):
                _time.sleep(_POLL_BACKOFF)

    @staticmethod
    def _await_some(
        requests: Sequence["Request"], what: str
    ) -> list[tuple[int, Any]]:
        """Scheduled-mode helper: block until at least one request is
        complete, then return *every* completed ``(index, value)`` —
        the full choice set the schedule picks from."""
        while True:
            done = [
                (i, value)
                for i, (flag, value) in enumerate(req.test() for req in requests)
                if flag
            ]
            if done:
                return done
            if not _park_any(requests, f"{what}({len(requests)} requests)"):
                _time.sleep(_POLL_BACKOFF)


class SendRequest(Request):
    """A completed (eager) send."""

    __slots__ = ()

    def wait(self, status: Optional[Status] = None) -> None:
        return None

    def test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        return True, None


class RecvRequest(Request):
    """A posted receive awaiting its match."""

    __slots__ = ("_mailbox", "_posted", "_finish", "_what", "_value", "_done")

    def __init__(
        self,
        mailbox: Mailbox,
        posted: PostedRecv,
        finish: Callable[[Envelope], Any],
        what: str,
    ):
        self._mailbox = mailbox
        self._posted = posted
        #: Decodes the envelope into the user-visible value (unpickle for
        #: object mode, buffer copy for buffer mode).
        self._finish = finish
        self._what = what
        self._value: Any = None
        self._done = False

    def _complete(self, env: Envelope, status: Optional[Status]) -> Any:
        if not self._done:
            self._value = self._finish(env)
            self._done = True
        if status is not None:
            status.source = env.source
            status.tag = env.tag
            status.count = env.count
        return self._value

    def _check_cancelled(self) -> None:
        if self._posted.cancelled:
            raise CommError(
                f"request was cancelled, its message can never arrive: {self._what}"
            )

    def wait(self, status: Optional[Status] = None) -> Any:
        if self._done:
            env = self._posted.envelope
            assert env is not None
            return self._complete(env, status)
        self._check_cancelled()
        env = self._mailbox.wait(self._posted, self._what)
        return self._complete(env, status)

    def test(self, status: Optional[Status] = None) -> tuple[bool, Any]:
        self._mailbox.check_abort()
        self._check_cancelled()
        env = self._posted.envelope
        if env is None:
            self._mailbox.world.progress.poll()
            env = self._posted.envelope
        if env is None:
            # A receive doomed by a dead sender or a revoked communicator
            # must raise here, not report "incomplete" forever.
            Mailbox._check_doomed(self._posted, self._what)
            return False, None
        return True, self._complete(env, status)

    def cancel(self) -> bool:
        return self._mailbox.cancel(self._posted)

    def completion(self) -> Optional[Completion]:
        return self._posted.completion

    def _site(self) -> Optional[tuple["World", int]]:
        return self._mailbox.world, self._mailbox.owner

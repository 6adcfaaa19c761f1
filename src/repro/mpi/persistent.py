"""Persistent communication requests (``MPI_Send_init`` family).

Fixed communication patterns — above all the per-step halo exchange —
re-specify the same (buffer, peer, tag) triple every iteration.  MPI's
persistent requests bind the triple once; each iteration then only
``start``s and ``wait``s.  Semantics follow MPI: a request cycles
*inactive → active → complete*; ``start`` on an active receive is an
error; buffers are read (sends) or written (receives) at the
``start``/``wait`` boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import CommError, ProcessFailedError, RevokedError, TruncationError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, is_valid_recv_tag, is_valid_tag
from repro.mpi.progress import Completion
from repro.mpi.request import Request
from repro.mpi.serialization import buffer_array
from repro.mpi.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm
    from repro.mpi.world import World


class Prequest(Request):
    """Base persistent request: the start/wait cycle machinery."""

    def __init__(self, comm: "Comm", what: str):
        self._comm = comm
        self._what = what
        self._active = False

    @property
    def active(self) -> bool:
        """Whether a started operation is still outstanding."""
        return self._active

    def start(self) -> "Prequest":
        """Begin one cycle of the bound operation; returns self."""
        if self._active:
            raise CommError(f"persistent request already active: {self._what}")
        self._start()
        self._active = True
        return self

    def _start(self) -> None:
        raise NotImplementedError

    def _rollback_start(self) -> None:
        """Undo a :meth:`start` so a failed ``startall`` leaves no orphaned
        operation.  Subclasses with posted state override."""
        self._active = False

    def _site(self) -> Optional[tuple["World", int]]:
        mailbox = self._comm._mailbox
        return mailbox.world, mailbox.owner

    @staticmethod
    def startall(requests: Sequence["Prequest"]) -> None:
        """Start every request (``MPI_Startall``).

        All-or-nothing: if any ``start`` raises (already-active request,
        invalid state, abort), every request started by *this call* is
        rolled back before the error propagates, so no orphaned posted
        receive can swallow a later message.  Receives that already
        matched an envelope cannot be unposted; those stay active (the
        message was genuinely consumed) and the error still propagates.
        """
        started: list["Prequest"] = []
        try:
            for req in requests:
                req.start()
                started.append(req)
        except BaseException:
            for req in reversed(started):
                req._rollback_start()
            raise


class PersistentSend(Prequest):
    """A persistent buffer-mode send: the buffer's *current* contents are
    snapshotted at each ``start`` (eager delivery, so the cycle completes
    immediately)."""

    def __init__(self, comm: "Comm", buf: np.ndarray, dest: int, tag: int):
        # Destination validation (including PROC_NULL) happens in
        # Comm.Send_init before construction.
        if not is_valid_tag(tag):
            raise CommError(f"invalid send tag {tag}")
        super().__init__(comm, f"Send_init(dest={dest}, tag={tag})")
        self._buf = np.asarray(buf)
        self._dest = dest
        self._tag = tag

    def _start(self) -> None:
        self._comm.Send(self._buf, self._dest, self._tag)

    def _rollback_start(self) -> None:
        # Sends are eager: the message left at start and cannot be
        # recalled (matching MPI, where a started send may already be on
        # the wire).  Rollback only returns the cycle to inactive.
        self._active = False

    def wait(self, status: Optional[Status] = None):
        """Complete the cycle (sends are eager, so this only resets)."""
        if not self._active:
            raise CommError(f"wait on inactive persistent request: {self._what}")
        self._active = False
        return None

    def test(self, status: Optional[Status] = None):
        """Persistent sends complete at start (eager delivery)."""
        if not self._active:
            return True, None
        self._active = False
        return True, None


class PersistentRecv(Prequest):
    """A persistent buffer-mode receive into a bound buffer."""

    def __init__(self, comm: "Comm", buf: np.ndarray, source: int, tag: int):
        if source != ANY_SOURCE and not 0 <= source < comm.size:
            raise CommError(f"source rank {source} out of range")
        if not is_valid_recv_tag(tag):
            raise CommError(f"invalid receive tag {tag}")
        super().__init__(comm, f"Recv_init(source={source}, tag={tag})")
        self._buf = np.asarray(buf)
        self._source = source
        self._tag = tag
        self._posted = None

    def _start(self) -> None:
        # The sender's world rank rides along so the mailbox fails this
        # receive the moment that rank dies, as it does for ``Recv``.
        self._posted = self._comm._mailbox.post_recv(
            self._comm._p2p_ctx,
            self._source,
            self._tag,
            world_source=self._comm._world_source(self._source),
        )

    def _rollback_start(self) -> None:
        # Unpost the receive if still unmatched; a matched receive has
        # consumed its message and must stay active so the caller can
        # still drain it with wait().
        if self._posted is not None and self._posted.envelope is None:
            if self._comm._mailbox.cancel(self._posted):
                self._posted = None
                self._active = False

    def completion(self) -> Optional[Completion]:
        if self._active and self._posted is not None:
            return self._posted.completion
        return None

    def cancel(self) -> bool:
        """Cancel the active cycle's posted receive if still unmatched;
        the request returns to inactive and can be ``start``ed again."""
        if self._posted is None or self._posted.envelope is not None:
            return False
        if self._comm._mailbox.cancel(self._posted):
            self._posted = None
            self._active = False
            return True
        return False

    def wait(self, status: Optional[Status] = None):
        """Block for the matching message and copy it into the bound
        buffer; returns the buffer."""
        if not self._active or self._posted is None:
            raise CommError(f"wait on inactive persistent request: {self._what}")
        try:
            env = self._comm._mailbox.wait(self._posted, self._what)
        except (ProcessFailedError, RevokedError):
            # The cycle cannot complete: unpost (a receive doomed by its
            # sender's death already is) and go back to inactive, so the
            # request can be started again, or dropped, after recovery.
            self._comm._mailbox.cancel(self._posted)
            self._active = False
            self._posted = None
            raise
        arr = buffer_array(env.payload, self._what)
        if arr.size > self._buf.size:
            raise TruncationError(
                f"message of {arr.size} elements truncates persistent buffer of "
                f"{self._buf.size}"
            )
        flat = self._buf.reshape(-1)
        flat[: arr.size] = arr.reshape(-1)
        if status is not None:
            status.source, status.tag, status.count = env.source, env.tag, arr.size
        self._active = False
        self._posted = None
        return self._buf

    def test(self, status: Optional[Status] = None):
        """Nonblocking completion check; copies on success."""
        if not self._active or self._posted is None:
            return True, self._buf
        posted = self._posted
        if posted.envelope is None and posted.failed_rank is None and not posted.revoked:
            return False, None
        return True, self.wait(status)  # raises if the sender died

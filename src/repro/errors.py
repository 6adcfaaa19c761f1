"""Exception hierarchy shared by every subsystem in the repro package.

The hierarchy mirrors the layering of the system:

* :class:`MPIError` and subclasses — raised by the simulated MPI substrate
  (``repro.mpi``) for misuse of communicators, truncated receives, mismatched
  collectives, and aborts.
* :class:`LaunchError` — raised by the MPMD launcher (``repro.launcher``) for
  malformed command files and illegal resource allocations.
* :class:`MPHError` and :class:`RegistryError` — raised by MPH itself
  (``repro.core``) for registration-file problems and handshake failures.

Everything derives from :class:`ReproError` so callers can catch the whole
family with one clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# ---------------------------------------------------------------------------
# Simulated-MPI substrate errors
# ---------------------------------------------------------------------------


class MPIError(ReproError):
    """Base class for errors raised by the simulated MPI substrate."""


class CommError(MPIError):
    """Misuse of a communicator (bad rank, freed comm, invalid color/key)."""


class TruncationError(MPIError):
    """A buffer-mode receive was posted with a buffer too small for the
    matching message (the analogue of ``MPI_ERR_TRUNCATE``)."""


class CollectiveMismatchError(MPIError):
    """Processes of one communicator called different collective operations,
    or the same collective with inconsistent parameters (e.g. roots)."""


class AbortError(MPIError):
    """The world was aborted — either explicitly via ``Comm.Abort`` or
    because a sibling process raised an uncaught exception."""

    def __init__(self, message: str, *, origin_rank: int | None = None):
        super().__init__(message)
        #: World rank of the process that triggered the abort, if known.
        self.origin_rank = origin_rank


class DeadlockError(MPIError):
    """Every live process in the world is blocked with no message in flight.

    The simulated substrate detects this condition (a luxury real MPI does
    not offer) and aborts the job with a per-process diagnostic of what each
    rank was blocked on.
    """

    def __init__(self, message: str, blocked_on: dict[int, str] | None = None):
        super().__init__(message)
        #: Mapping of world rank -> human-readable description of the call
        #: the rank was blocked in when deadlock was declared.
        self.blocked_on = dict(blocked_on or {})


class ProcessFailedError(MPIError):
    """An operation involved a process that suffered a fail-stop failure
    (the ULFM ``MPI_ERR_PROC_FAILED`` analogue).

    Unlike :class:`AbortError` this is *survivable*: the world keeps
    running, only operations that depend on a dead rank raise, and the
    survivors can recover with ``Comm.revoke``/``shrink``/``agree`` (or
    rebuild the MPH layer with ``MPH.shrink_world``).
    """

    def __init__(self, message: str, *, failed_ranks=()):
        super().__init__(message)
        #: World ranks known dead when the error was raised (sorted).
        self.failed_ranks = tuple(sorted(failed_ranks))


class RevokedError(MPIError):
    """The communicator was revoked (``Comm.revoke``, the ULFM
    ``MPI_ERR_REVOKED`` analogue): every pending and future operation on
    it fails so all members can reach the recovery path together."""

    def __init__(self, message: str, *, comm_name: str | None = None):
        super().__init__(message)
        #: Name of the revoked communicator, if known.
        self.comm_name = comm_name


class TimeoutError_(MPIError):
    """The job exceeded its wall-clock budget before completing."""


class TransportError(MPIError):
    """The transport layer failed to move bytes between ranks: a torn or
    corrupt wire frame, an unreachable peer, or a connection that died
    mid-stream (process backend; see :mod:`repro.mpi.transport`)."""


# ---------------------------------------------------------------------------
# Launcher errors
# ---------------------------------------------------------------------------


class LaunchError(ReproError):
    """Malformed MPMD command file or illegal resource allocation."""


class AllocationError(LaunchError):
    """A resource allocation violates platform policy — e.g. two executables
    overlapping on one processor (Section 2 of the paper: "Executables are
    not allowed to overlap on processors")."""


class ChildExitError(LaunchError):
    """A child process died without reporting a result (nonzero exit,
    signal, or killed).  Preferred as the job's root cause over the
    secondary transport errors its siblings see when their connections
    to the dead rank fail."""

    def __init__(self, message: str, *, rank: int, label: str, exit_code):
        super().__init__(message)
        self.rank = rank
        self.label = label
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# MPH errors
# ---------------------------------------------------------------------------


class MPHError(ReproError):
    """Base class for errors raised by the MPH core library."""


class RegistryError(MPHError):
    """Malformed or inconsistent ``processors_map.in`` registration file."""


class HandshakeError(MPHError):
    """Component handshaking failed — e.g. a component declared a name-tag
    absent from the registration file, duplicate component names, or an
    executable whose runtime size disagrees with its registered processor
    ranges."""


class ArgumentError(MPHError):
    """``MPH_get_argument``-style lookup failed or could not be converted to
    the requested type."""


class JoinError(MPHError):
    """``MPH_comm_join`` was asked to join components that cannot be joined
    (unknown names, or components overlapping on processors)."""


class SessionError(MPHError):
    """Misuse of the sessions layer (:mod:`repro.core.session`): unknown
    process-set name, a non-member deriving a pset communicator, growing
    beyond the reserve pool, or a parked process calling an active-only
    collective."""


class CouplingError(MPHError):
    """Misuse of the coupling-algorithms layer (:mod:`repro.coupling`):
    mismatched interface specs, a solver driven outside its lifecycle,
    or a coupling loop that exhausted its iteration budget with
    ``strict=True``."""


# ---------------------------------------------------------------------------
# Service errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for errors raised by the MPH service layer
    (:mod:`repro.service`): job-document validation, admission control,
    and runtime dispatch."""


class JobSpecError(ServiceError):
    """A job document failed validation.

    Every rejection names the offending document path (dotted keys with
    ``[i]`` list indices, e.g. ``components[1].nprocs``) so a submitting
    client can point at exactly the field it got wrong — malformed input
    must never surface as a raw ``KeyError``/``TypeError``.
    """

    def __init__(self, message: str, *, path: str = "$"):
        super().__init__(f"{path}: {message}")
        #: Dotted path of the offending field within the document.
        self.path = path


class AdmissionError(ServiceError):
    """The orchestrator refused a job at the door: the submission queue
    is full, or the service is shutting down.  Distinct from
    :class:`JobSpecError` — the document may be perfectly valid."""

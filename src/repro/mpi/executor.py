"""The process engine: the one pipeline every world is launched through
(:func:`launch`), and its default spawner — simulated MPI processes as OS
threads, one thread per MPI process.  The engine collects per-rank return
values and exceptions, propagates the *root-cause* failure (a user
exception or a detected deadlock, in preference to the secondary
``AbortError`` storms that follow one), and enforces a wall-clock budget
so a wedged job can never hang the caller.

Because processes communicate only through pickled messages and explicit
buffer copies, running them as threads of one interpreter does not weaken
the distributed-memory discipline the paper's platforms enforce.
"""

from __future__ import annotations

import numbers
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import (
    AbortError,
    ChildExitError,
    DeadlockError,
    LaunchError,
    TimeoutError_,
)
from repro.mpi.comm import Comm, make_world_comm
from repro.mpi.corebudget import apply_thread_budget, thread_world_pin
from repro.mpi.faults import SimulatedCrash
from repro.mpi.world import World, WorldConfig, check_node_map

if TYPE_CHECKING:
    from repro.mpi.procbackend import RankPool

#: Per-rank entry point: receives the process's ``COMM_WORLD`` handle.
RankFn = Callable[..., Any]


@dataclass
class ExecRank:
    """A rank that another process can rebuild: its callable plus the
    picklable *meta* naming it.  A thread just calls it; where the
    process backend would fork a plain callable, it ``exec``s this as its
    own ``python -m repro.tools.mphchild`` (*meta* names the program by
    import spec) — the paper's MIME property, chosen by what the caller
    hands in — or, in a launch that holds a
    :class:`~repro.mpi.procbackend.RankPool`, hands it to a process
    parked there (*meta* names the program in the pool's catalog)."""

    fn: RankFn
    meta: Any

    def __call__(self, comm):
        return self.fn(comm)


@dataclass
class ProcResult:
    """Outcome of one simulated process."""

    rank: int
    value: Any = None
    exception: Optional[BaseException] = None
    #: The traffic counters of the world this rank ran in, over this
    #: run.  On the process backend each OS process has its own world
    #: replica, so the counters are that rank's own (on a kept-open
    #: launch, since its previous run); the thread backend has one shared
    #: world, so every rank carries the same job-wide snapshot.  ``None``
    #: only for a child that died before reporting.
    traffic: Any = None
    #: CPU and wall-clock seconds the rank function took: the CPU of the
    #: whole process for a rank that is one (BLAS workers and the
    #: watchdog included), of the rank's thread in a thread world.
    #: CPU far above what the program computes is a thread pool spinning
    #: (docs/manual.md §7).  ``None`` for a child that never reported.
    cpu_seconds: Optional[float] = None
    wall_seconds: Optional[float] = None


def launch(
    nprocs: int,
    ranks: Sequence[RankFn],
    *,
    config: Optional[WorldConfig] = None,
    timeout: float = 120.0,
    log_dir: Optional[str] = None,
    labels: Optional[Sequence[str]] = None,
    namespace: Optional[str] = None,
    pool: Optional["RankPool"] = None,
    node_map: Optional[Sequence[int]] = None,
) -> list[ProcResult]:
    """The launch pipeline: run ``ranks[r](comm_world)`` on every rank of
    a fresh *nprocs*-process world and return all outcomes.

    Every world is started here — :func:`run_spmd` and
    :meth:`MpmdJob.run <repro.launcher.job.MpmdJob.run>` (so ``mphrun``
    and the job service too) enter this one function.  Its stages:
    **validate** (:func:`_validate`, which also picks the substrate from
    ``config.backend``); **spawn** and, for processes, **bootstrap**
    (:func:`_run_threads`, or :func:`repro.mpi.procbackend.run_procs` — a
    callable is forked, an :class:`ExecRank` exec'd or, given *pool* (a
    :class:`~repro.mpi.procbackend.RankPool`; thread worlds ignore it),
    played by a process parked there); **run** the one rank body
    (:func:`run_rank`); **collect** under the wall-clock budget *timeout*
    (:class:`~repro.errors.TimeoutError_` on expiry); **classify**
    (:func:`_raise_root_cause`); **sweep** on every exit path.
    docs/architecture.md ("Launching a world") walks through them.

    *labels* name the ranks in failure reports and — with *log_dir*,
    process backend only — their ``<label>.log`` stdout files;
    *namespace* scopes the rendezvous directory and shm segments (see
    :func:`repro.mpi.procbackend.rendezvous_prefix`).  *node_map* is the
    node id of each rank — where the launcher placed it; ``None`` puts
    every rank on one node — and becomes the world's
    :attr:`~repro.mpi.world.World.node_map`.
    """
    config = config or WorldConfig()
    if _validate(nprocs, ranks, config, timeout, log_dir, pool):
        from repro.mpi.procbackend import run_procs

        node_map = check_node_map(nprocs, node_map)
        results = run_procs(ranks, config, timeout, log_dir, labels, namespace, pool, node_map)
    else:
        results = _run_threads(World(nprocs, config, node_map), ranks, timeout)
    _raise_root_cause(results)
    return results


def _validate(
    nprocs: int,
    ranks: Sequence[RankFn],
    config: WorldConfig,
    timeout: float,
    log_dir: Optional[str] = None,
    pool: Optional["RankPool"] = None,
    *,
    on_threads: bool = False,
) -> bool:
    """Every check that can refuse a launch, made once and before
    anything is spawned, so both substrates fail the same way and at
    once.  Returns whether the ranks are to be OS processes — the
    pipeline's single dispatch on ``config.backend``.  *on_threads* is
    :func:`run_world`'s case: a caller-built shared world runs threads."""
    if nprocs < 1:
        raise ValueError(f"world size must be >= 1, got {nprocs}")
    if len(ranks) != nprocs:
        raise ValueError(f"need {nprocs} rank functions, got {len(ranks)}")
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # NaN fails both comparisons
        raise ValueError(
            f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} s "
            f"(threading.TIMEOUT_MAX), got {timeout}"
        )
    process = config.backend == "process"
    if process:
        if on_threads:
            raise ValueError(
                "run_world is the thread engine; a process-backend config "
                "must go through launch (or run_spmd / MpmdJob, which do)"
            )
        if config.fault_schedule is not None:
            raise ValueError(
                "fault_schedule requires the thread backend: fault injection "
                "hooks live in the shared world, which the process backend "
                "replicates per rank"
            )
        if config.match_schedule is not None:
            raise ValueError(
                "match_schedule requires the thread backend: schedule "
                "exploration needs one shared match arbiter"
            )
        if pool is not None and log_dir is not None:
            raise LaunchError(
                "log_dir needs a process per rank and job: a log file is the "
                "stdio a rank is forked with, and a pool's processes keep theirs"
            )
    elif log_dir is not None:
        raise LaunchError(
            "log_dir requires backend='process': per-process log files are "
            "OS-level redirection of a stdout that rank threads share"
        )
    return process


def run_rank(
    world: World, rank: int, fn: RankFn, cpu_clock: Callable[[], float] = time.thread_time
) -> ProcResult:
    """The rank body: run ``fn(comm_world)`` as world rank *rank* and
    record how it ended and what it cost — in a rank thread of the shared
    *world*, or in a forked, exec'd or parked process whose *world* is
    its own replica (and whose *cpu_clock* is the process's)."""
    result = ProcResult(rank=rank)
    comm = make_world_comm(world, rank)
    cpu, wall = cpu_clock(), time.perf_counter()
    try:
        result.value = fn(comm)
    except SimulatedCrash as exc:
        # Injected fail-stop death: the rank is dead but the world
        # lives on (ULFM semantics) — survivors see ProcessFailedError
        # from operations involving this rank, never a world abort.
        result.exception = exc
        world.proc_failed(rank)
    except BaseException as exc:  # noqa: BLE001 - report all failures
        result.exception = exc
        if not isinstance(exc, AbortError):
            abort_exc = AbortError(
                f"world rank {rank} raised {type(exc).__name__}: {exc}",
                origin_rank=rank,
            )
            # Chain the real root cause so sibling ranks' AbortErrors
            # (re-raised by World.check_abort) carry it as __cause__.
            abort_exc.__cause__ = exc
            world.abort(abort_exc)  # a process world broadcasts to peers
    finally:
        result.cpu_seconds = cpu_clock() - cpu
        result.wall_seconds = time.perf_counter() - wall
        world.proc_done(rank)
    return result


def _run_threads(
    world: World, rank_fns: Sequence[RankFn], timeout: float
) -> list[ProcResult]:
    """The thread spawner: one thread per rank of the shared *world*,
    joined under the wall-clock budget.  The ranks share this process's
    numeric pools, sized first to the world's core budget — the rule a
    process rank gets too — and one core, as they share one interpreter
    lock (:mod:`repro.mpi.corebudget`)."""
    apply_thread_budget(world.nprocs)
    pin = thread_world_pin()
    results = [ProcResult(rank=r) for r in range(world.nprocs)]

    def runner(rank: int) -> None:
        pin()
        results[rank] = run_rank(world, rank, rank_fns[rank])

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"mpi-rank-{r}", daemon=True)
        for r in range(world.nprocs)
    ]
    for t in threads:
        t.start()

    deadline = time.monotonic() + timeout
    try:
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(t.is_alive() for t in threads):
            world.abort(AbortError(f"job exceeded wall-clock budget of {timeout}s"))
            for t in threads:
                t.join(timeout=2.0)
            still = [t.name for t in threads if t.is_alive()]
            raise TimeoutError_(
                f"job exceeded {timeout}s"
                + (f"; threads still running: {still}" if still else "")
            )
    finally:
        # Retire the deadlock watchdog now instead of waiting out its idle
        # timer; it restarts lazily if the world is run again.
        world.progress.shutdown()

    traffic = world.traffic_snapshot()
    for result in results:
        result.traffic = traffic
    return results


def _raise_root_cause(results: Sequence[ProcResult]) -> None:
    """Re-raise the most informative failure among per-rank exceptions.

    A silent child death (:class:`~repro.errors.ChildExitError`) is the
    root cause of whatever transport fallout its siblings saw, so the
    dead component is named first; then a user exception is preferred
    over :class:`DeadlockError`, which is preferred over secondary
    :class:`AbortError` unwinds.

    An injected :class:`SimulatedCrash` is a *survivable* fail-stop death:
    if any rank completed normally the job as a whole succeeded in
    degraded mode, and the crash stays recorded in that rank's
    :class:`ProcResult` instead of being raised.  It is only raised when
    nobody survived and nothing more informative exists.
    """
    failures = [
        r
        for r in results
        if r.exception is not None and not isinstance(r.exception, SimulatedCrash)
    ]
    if not failures:
        crashes = [r for r in results if isinstance(r.exception, SimulatedCrash)]
        if crashes and all(r.exception is not None for r in results):
            raise crashes[0].exception
        return
    def secondary(exc: BaseException) -> int:
        if isinstance(exc, ChildExitError):
            return 0
        if isinstance(exc, DeadlockError):
            return 2
        return 3 if isinstance(exc, AbortError) else 1

    raise min(failures, key=lambda r: secondary(r.exception)).exception


def run_world(
    world: World,
    rank_fns: Sequence[RankFn],
    *,
    fn_args: Sequence[Any] = (),
    fn_kwargs: Optional[dict] = None,
    timeout: float = 120.0,
) -> list[ProcResult]:
    """Run one callable per world rank to completion; return all outcomes.

    The thread leg of :func:`launch`, on a world the caller built (and
    can inspect afterwards) — with its node map, if it has one
    (``World(nprocs, config, node_map)``).

    Parameters
    ----------
    world :
        The world to run in; ``len(rank_fns)`` must equal ``world.nprocs``.
    rank_fns :
        ``rank_fns[r]`` is invoked as ``fn(comm_world, *fn_args,
        **fn_kwargs)`` on rank *r*.
    timeout :
        Wall-clock budget in seconds.  On expiry the world is aborted and
        :class:`~repro.errors.TimeoutError_` is raised.

    Raises
    ------
    Exception
        The root-cause failure of the job, if any rank failed: a user
        exception is preferred over :class:`DeadlockError`, which is
        preferred over secondary :class:`AbortError` unwinds.
    """
    _validate(world.nprocs, rank_fns, world.config, timeout, on_threads=True)
    kwargs = fn_kwargs or {}
    bound = [lambda comm, fn=fn: fn(comm, *fn_args, **kwargs) for fn in rank_fns]
    results = _run_threads(world, bound, timeout)
    _raise_root_cause(results)
    return results


def run_spmd(
    nprocs: int,
    fn: RankFn,
    *,
    fn_args: Sequence[Any] = (),
    fn_kwargs: Optional[dict] = None,
    config: Optional[WorldConfig] = None,
    timeout: float = 120.0,
    node_map: Optional[Sequence[int]] = None,
) -> list[Any]:
    """Run *fn* on every rank of a fresh *nprocs*-process world (SPMD).

    Returns the per-rank return values in rank order.  *node_map* places
    the ranks on nodes, as for :func:`launch`.

    >>> from repro.mpi import run_spmd
    >>> run_spmd(4, lambda comm: comm.allreduce(comm.rank))
    [6, 6, 6, 6]

    With ``config.backend == "process"`` the ranks run as forked OS
    processes over the socket transport instead of threads
    (:mod:`repro.mpi.procbackend`); the contract is identical.
    """
    if isinstance(nprocs, bool) or not isinstance(nprocs, numbers.Integral):
        raise ValueError(f"nprocs must be an int, got {nprocs!r}")
    kwargs = fn_kwargs or {}
    ranks = [lambda comm: fn(comm, *fn_args, **kwargs)] * nprocs
    results = launch(nprocs, ranks, config=config, timeout=timeout, node_map=node_map)
    return [r.value for r in results]

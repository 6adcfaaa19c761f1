"""The core budget: a rank's share of the host, and the compute threads
that share buys.

The paper's resource policy (§2, quoted in :mod:`repro.launcher.smp`) is
that "each processor or MPI process is exclusively owned by an
executable".  Numeric libraries size their thread pools to *all*
cores at import: a rank that is an OS process inherits the launcher's,
ten ranks on two cores each believing they own both, and a BLAS worker
spins on a core nine other ranks need after every threaded call
(EXPERIMENTS.md, "Core budget"); rank threads share their process's one
pool, whose worker spins out its timeout on the core the next rank
thread needs (EXPERIMENTS.md, "Thread worlds get the budget too").
Handing each process its resources is the process manager's job, not
the program's (Butler, Gropp & Lusk), so the launch pipeline sizes the
pools: a rank's compute threads are ``max(1, usable cpus // ranks of
this world)`` — joblib/loky's rule — whether the rank is a process or a
thread.  And a thread world's ranks share one core
(:func:`thread_world_pin`): they run Python one at a time under one
interpreter lock, and threads free to move hand that lock from core to
core — ~470 voluntary context switches and 8-11 ms of process CPU a
step of the benchmark's coupled run, against ~40 and 4-6.6 ms on one
core (EXPERIMENTS.md, "A thread world on one core").  Ranks that spend their time in GIL-free
numpy on large arrays lose the second core; those belong on
``backend="process"``.

What decides is one number, :func:`cores_per_rank`, which also answers
the shm rings' "oversubscribed → do not spin" question
(:func:`repro.mpi.shm._resolve_spin_us`).  **What it does not see:**
other worlds running beside this one — ``Orchestrator(max_workers>1)``,
two launchers on one host — each of which divides the same cores as if
it were alone.  The spin rule has the same blind spot.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: The numeric libraries' own variables — the only override.  A user who
#: exported one has decided: no pool is resized, and an exec'd rank
#: inherits the export (these are only ever read here, and ``setdefault``
#: for a rank about to be exec'd).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-thread-count entry points, with their argument's C type, by what
#: the library's file name contains: OpenBLAS under every symbol
#: decoration a build may carry (numpy's wheels ship
#: ``scipy_openblas_…64_``), MKL, the OpenMP runtimes, BLIS.
_ENTRY_POINTS = {
    ("openblas",): [
        (f"{prefix}openblas_set_num_threads{suffix}", ctypes.c_int)
        for prefix in ("", "scipy_")
        for suffix in ("", "64_", "_64")
    ],
    ("mkl_rt",): [("MKL_Set_Num_Threads", ctypes.c_int)],
    ("libgomp", "libiomp", "libomp"): [("omp_set_num_threads", ctypes.c_int)],
    ("libblis",): [("bli_thread_set_num_threads", ctypes.c_long)],
}

# The pools are this process's, so what is known about them is too: the
# setters found (once), and the thread count the pools hold.  A forked
# rank inherits both along with the pools they describe.
_setters: Optional[list[Callable[[int], None]]] = None
_held: Optional[int] = None
# Held by a launcher from setting its pools to its last fork, so that no
# rank is forked under a concurrent launch's number.  A child forked
# meanwhile gets a fresh one: the thread that held this is not in it.
_lock = threading.RLock()
# On a rank thread this module pinned: ``mask``, the process's affinity
# mask, which a process forked from that thread gets back.
_pinned = threading.local()
# libc's ``sched_getcpu``, found once (a stand-in returning -1 where
# there is none).
_getcpu: Optional[Callable[[], int]] = None


def _after_fork_in_child() -> None:
    global _lock
    _lock = threading.RLock()
    mask = getattr(_pinned, "mask", None)
    if mask is not None:
        # The forking thread is this process's only one: a rank thread's
        # core is the world's, not the child's.
        _pinned.mask = None
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass


os.register_at_fork(after_in_child=_after_fork_in_child)


def _process_cpus() -> Optional[set[int]]:
    """The CPUs this process may run on — the main thread's affinity
    mask, not the calling thread's, which a pinned rank thread narrowed
    to one — or ``None`` where the platform has no such call."""
    try:
        return os.sched_getaffinity(os.getpid())
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return None


def cores_per_rank(nprocs: int) -> int:
    """Whole cores each of *nprocs* ranks can own on this host:
    the CPUs this process may run on (its affinity mask; the machine's
    count where the platform has no such call) over the ranks.  0 means
    oversubscribed — more ranks than cores.  Only this world's ranks are
    counted: worlds running beside it are not seen."""
    cpus = _process_cpus()
    return (len(cpus) if cpus is not None else os.cpu_count() or 1) // nprocs


def thread_budget(nprocs: int) -> int:
    """Compute threads for each rank of an *nprocs*-rank world: its
    whole cores, and one where there is less than a core each."""
    return max(1, cores_per_rank(nprocs))


def _find_setters() -> list[Callable[[int], None]]:
    """The thread-count setters of the numeric libraries mapped into this
    process, through ``ctypes`` from ``/proc/self/maps`` (none without
    procfs, and none is not an error: nothing is resized)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if ".so" in line}
    except OSError:
        return []
    setters = []
    for path in sorted(paths):
        stem = os.path.basename(path).lower()
        for keys, entry_points in _ENTRY_POINTS.items():
            if not any(key in stem for key in keys):
                continue
            try:
                lib = ctypes.CDLL(path)  # mapped already: a handle, not a load
            except OSError:
                continue
            for name, ctype in entry_points:
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctype], None
                    setters.append(setter)
    return setters


def apply_thread_budget(nprocs: int) -> None:
    """Size this process's numeric thread pools to an *nprocs*-rank
    world's :func:`thread_budget` — unless they hold that number already
    (memoised by value: a setter runs only when the budget differs from
    the one this process holds, never per rank or per job), or the user
    exported one of :data:`THREAD_VARS`.

    The first setter call after a fork re-creates OpenBLAS's pool, and
    the new worker spins out its timeout, so *where* this runs is the
    design: in the launcher, before the fork, so that ranks inherit the
    number with their programs (:func:`forking_under_budget`) — in a
    child it doubled ``setup_s``.  Only a parked process calls it for
    itself, and only a job whose world divides the cores differently
    from its last makes that more than a comparison.  The thread spawner
    calls it before it starts a world's rank threads, which share the
    pools it sizes.
    """
    global _setters, _held
    threads = thread_budget(nprocs)
    with _lock:
        if threads == _held or any(var in os.environ for var in THREAD_VARS):
            return
        if _setters is None:
            _setters = _find_setters()
        for setter in _setters:
            setter(threads)
        _held = threads


@contextmanager
def forking_under_budget(nprocs: int) -> Iterator[None]:
    """The launcher's spawn stage: apply the budget of an *nprocs*-process
    world (:func:`apply_thread_budget`) and keep it while the block forks
    the ranks that inherit it — two launches with different budgets, from
    two threads, fork one after the other.  The pools are left at the
    budget afterwards: putting them back costs every launch a pool
    re-creation, and the next launch of the same shape nothing."""
    with _lock:
        apply_thread_budget(nprocs)
        yield


def _current_cpu() -> int:
    """The CPU the calling thread is running on, or -1 where libc has no
    ``sched_getcpu``."""
    global _getcpu
    if _getcpu is None:
        try:
            getcpu = ctypes.CDLL(None).sched_getcpu
            getcpu.argtypes, getcpu.restype = [], ctypes.c_int
        except (OSError, AttributeError):  # pragma: no cover - non-glibc
            getcpu = lambda: -1  # noqa: E731
        _getcpu = getcpu
    return _getcpu()


def _no_pin() -> None:
    pass


def thread_world_pin() -> Callable[[], None]:
    """What each rank thread of a thread world calls before its program:
    pin the calling thread to the one CPU the world's ranks share — the
    CPU the launching thread is running on, or the lowest of the
    process's mask where that cannot be asked.

    Rank threads run Python one at a time, so one core is all they can
    use together; left free to move, they pass the interpreter lock
    between cores at every hand-off.  ``os.sched_setaffinity(0, …)``
    pins only the calling thread: the launcher, the caller's other
    threads and process ranks keep their masks, and threads a rank
    starts (the deadlock watchdog) share its core.  A process forked
    from a pinned thread gets the process's mask back.

    A no-op where nothing is gained or nothing can be set: no
    ``sched_setaffinity``, a one-CPU mask, an interpreter without a GIL
    — and a set that fails leaves the rank unpinned, not failed.
    """
    is_gil_enabled = getattr(sys, "_is_gil_enabled", None)
    if not hasattr(os, "sched_setaffinity") or (
        is_gil_enabled is not None and not is_gil_enabled()
    ):
        return _no_pin
    cpus = _process_cpus()
    if cpus is None or len(cpus) < 2:
        return _no_pin
    cpu = _current_cpu()
    core = {cpu if cpu in cpus else min(cpus)}

    def pin() -> None:
        try:
            os.sched_setaffinity(0, core)
        except OSError:
            return
        _pinned.mask = cpus

    return pin

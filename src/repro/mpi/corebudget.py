"""The core budget: a rank's share of the host, and the compute threads
that share buys.

The paper's resource policy (§2, quoted in :mod:`repro.launcher.smp`) is
that "each processor or MPI process is exclusively owned by an
executable".  A rank that is an OS process inherits the launcher's
numeric libraries, whose thread pools are sized to *all* cores at import
— ten ranks on two cores each believing they own both, and a BLAS worker
that spins on a core nine other ranks need after every threaded call
(EXPERIMENTS.md, "Core budget").  Handing each process its resources is
the process manager's job, not the program's (Butler, Gropp & Lusk), so
the launch pipeline sizes the pools: ``max(1, usable cpus // rank
processes of this world)`` threads per rank — joblib/loky's rule.

What decides is one number, :func:`cores_per_rank`, which also answers
the shm rings' "oversubscribed → do not spin" question
(:func:`repro.mpi.shm._resolve_spin_us`).  **What it does not see:**
other worlds running beside this one — ``Orchestrator(max_workers>1)``,
two launchers on one host — each of which divides the same cores as if
it were alone.  The spin rule has the same blind spot.

Thread worlds are not touched: one process, all cores, and its pool is
the program's own.
"""

from __future__ import annotations

import ctypes
import os
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


def _fresh_lock() -> None:
    global _lock
    _lock = threading.RLock()


os.register_at_fork(after_in_child=_fresh_lock)


def cores_per_rank(nprocs: int) -> int:
    """Whole cores each of *nprocs* rank processes can own on this host:
    the CPUs this process may run on (its affinity mask; the machine's
    count where the platform has no such call) over the ranks.  0 means
    oversubscribed — more ranks than cores.  Only this world's ranks are
    counted: worlds running beside it are not seen."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return cpus // nprocs


def thread_budget(nprocs: int) -> int:
    """Compute threads for each rank of an *nprocs*-process world: its
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
    """Size this process's numeric thread pools to an *nprocs*-process
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
    from its last makes that more than a comparison.
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

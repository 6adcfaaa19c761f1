"""Launch budget: where a no-op process world's wall-clock goes.

Times the stages of the launch pipeline (``repro.mpi.executor.launch``)
from outside — timestamps around the process manager's stage methods,
no source edit — for no-op worlds of a few sizes, once with every rank
forked and once with the ranks named and played by a ``RankPool``'s
parked processes (the first, forking launch is not counted)::

    PYTHONPATH=src python benchmarks/launch_budget.py [--launches 25] [--ranks 2 3 10]
    PYTHONPATH=src python benchmarks/launch_budget.py --ccsm [--launches 3]

Per size and spawner, medians over the launches (ms):

* ``spawn``     launch() entry -> bootstrap entry (validate, socket
  directory, and one fork per rank — or, parked, one assignment frame);
* ``bootstrap`` every child's hello in, until the last welcome is sent
  (a rank still reading its welcome is in ``collect``; commits before
  the star ended this stage when every child had registered, so compare
  bootstrap + collect across them);
* ``collect``   ranks build their worlds, run, report (run/collect);
* ``shutdown``  shutdown frames, then joining every child — or, parked,
  waiting for every rank's ack that it closed its transport (park-ack);
* ``sweep``     shm segments and the socket directory removed;
* ``wall``      the whole ``launch`` call (the stages plus classify).

What the pool removes is spawn + shutdown and the part of bootstrap and
collect that is ranks starting one after another; EXPERIMENTS.md
("Launch budget", "Parked rank pool") records the table per PR.

``--ccsm`` prints the other budget a launch hands out, the CPU: the
end-to-end benchmark's implicit configuration (``ccsm_implicit_proc``:
its grids, 6 Gauss-Seidel steps, 10 forked ranks) run ``--launches``
times, and per rank the wall and process-CPU seconds its ``ProcResult``
carries home, the CPU of the rank's own thread and the OS threads the
process ends with.  Process CPU far above rank-thread CPU is a compute
thread pool spinning between calls too small to need it (EXPERIMENTS.md,
"Core budget").
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

from repro import mph_run
from repro.climate.ccsm import CCSMConfig, build_executables, build_registry
from repro.mpi import ExecRank, WorldConfig, launch
from repro.mpi.procbackend import RankPool, _Rendezvous

STAGES = ("bootstrap", "collect", "shutdown", "sweep")

#: The grids of every ``ccsm_*`` workload (benchmarks/e2e/workloads.py).
CCSM_SHAPES = {"atmosphere": (64, 128), "ocean": (48, 96), "land": (32, 64), "ice": (24, 48)}


def _stamped(stamps: dict, name: str):
    inner = getattr(_Rendezvous, name)

    def method(self, *args, **kwargs):
        stamps[name + "_in"] = time.perf_counter()
        try:
            return inner(self, *args, **kwargs)
        finally:
            stamps[name + "_out"] = time.perf_counter()

    return inner, method


def noop(comm):
    return comm.rank


def measure(nranks: int, launches: int, parked: bool) -> dict:
    """Median milliseconds per stage over *launches* no-op worlds."""
    stamps: dict = {}
    saved = {}
    for name in STAGES:
        saved[name], method = _stamped(stamps, name)
        setattr(_Rendezvous, name, method)
    rows = []
    pool = RankPool({"noop": noop}, lambda program, arg: program) if parked else None
    ranks = [ExecRank(noop, ("noop", None)) if parked else noop] * nranks
    try:
        config = WorldConfig(backend="process")
        for _ in range(launches + 1):  # the first launch warms imports (and forks the pool)
            stamps.clear()
            start = time.perf_counter()
            results = launch(nranks, ranks, config=config, pool=pool)
            end = time.perf_counter()
            assert [r.value for r in results] == list(range(nranks))
            row = {"spawn": stamps["bootstrap_in"] - start, "wall": end - start}
            for name in STAGES:
                row[name] = stamps[name + "_out"] - stamps[name + "_in"]
            rows.append(row)
        assert pool is None or (pool.forked, pool.reused) == (nranks, nranks * launches)
    finally:
        for name, inner in saved.items():
            setattr(_Rendezvous, name, inner)
        if pool is not None:
            pool.close()
    return {k: 1e3 * statistics.median(r[k] for r in rows[1:]) for k in rows[0]}


def _reading_its_thread(program):
    """*program*, returning what only the rank itself can read: the CPU
    seconds of its own thread and its process's OS threads at the end."""

    def rank(world, env):
        start = time.thread_time()
        program(world, env)
        return time.thread_time() - start, len(os.listdir("/proc/self/task"))

    rank.__name__ = program.__name__
    return rank


def ccsm_cpu(launches: int) -> None:
    """Print the per-rank CPU table of the benchmark's implicit run."""
    cfg = CCSMConfig(shapes=dict(CCSM_SHAPES), coupling="implicit", nsteps=6)
    executables = [(_reading_its_thread(fn), n) for fn, n in build_executables(cfg, "scme")]
    registry = build_registry(cfg, "scme")
    config = WorldConfig(backend="process")
    for run in range(launches + 1):  # the first launch warms imports
        start = time.perf_counter()
        result = mph_run(executables, registry=registry, config=config)
        wall = time.perf_counter() - start
        if run == 0:
            continue
        procs = result.procs
        print(
            f"run {run}: wall {wall:.3f} s, process CPU of the {len(procs)} ranks "
            f"{sum(p.cpu_seconds for p in procs):.3f} s, "
            f"rank-thread CPU {sum(p.value[0] for p in procs):.3f} s"
        )
        print(" rank program    wall_s  process_cpu_s  rank_thread_cpu_s  os_threads")
        for p in procs:
            print(
                f"{p.rank:>5} {result.envs[p.rank].program:<8} {p.wall_seconds:>7.3f} "
                f"{p.cpu_seconds:>14.3f} {p.value[0]:>18.3f} {p.value[1]:>11}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launches", type=int, help="default 25, with --ccsm 3")
    parser.add_argument("--ranks", type=int, nargs="+", default=[2, 3, 10])
    parser.add_argument(
        "--ccsm", action="store_true", help="per-rank CPU of the benchmark's implicit run instead"
    )
    args = parser.parse_args()
    if args.ccsm:
        ccsm_cpu(args.launches or 3)
        return
    columns = ("spawn",) + STAGES + ("wall",)
    print("ranks spawner " + " ".join(f"{c:>10}" for c in columns))
    for nranks in args.ranks:
        for spawner in ("fork", "park"):
            row = measure(nranks, args.launches or 25, spawner == "park")
            print(f"{nranks:>5} {spawner:>7} " + " ".join(f"{row[c]:>10.2f}" for c in columns))
    print("# park rows: spawn is one assignment frame per rank, shutdown is the wait for every ack")


if __name__ == "__main__":
    main()

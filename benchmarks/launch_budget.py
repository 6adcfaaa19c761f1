"""Launch budget: where a no-op process world's wall-clock goes.

Times the stages of the launch pipeline (``repro.mpi.executor.launch``)
from outside — timestamps around the process manager's stage methods,
no source edit — for no-op worlds of a few sizes, once with every rank
forked and once with the ranks named and played by a ``RankPool``'s
parked processes (the first, forking launch is not counted)::

    PYTHONPATH=src python benchmarks/launch_budget.py [--launches 25] [--ranks 2 3 10]
    PYTHONPATH=src python benchmarks/launch_budget.py --ccsm [--launches 3]
    PYTHONPATH=src python benchmarks/launch_budget.py --service [--jobs 60]
    PYTHONPATH=src python benchmarks/launch_budget.py --p2p [--trips 2000]

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
its grids, 6 implicit steps, 10 forked ranks) run ``--launches``
times, and per rank the wall and process-CPU seconds its ``ProcResult``
carries home, the CPU of the rank's own thread, the OS threads the
process ends with, and its voluntary and involuntary context switches
over the program (``nvcsw`` / ``nivcsw``).  Process CPU far above rank-thread CPU is a compute
thread pool spinning between calls too small to need it (EXPERIMENTS.md,
"Core budget").  The rank-thread CPU is split into the part spent
inside ``MPH.send`` / ``MPH.recv`` (``msg_cpu_s``: the messaging path,
transport to match to wake) and the rest (``rest_cpu_s``: the models,
the coupler, the solver).

``--p2p`` times that messaging path alone: a 2-rank process ping-pong
(``WorldConfig(backend="process")``) of the message a component rank of
the coupled step sends, a 16 x 128 float64 block behind its step word,
built by the coupled model's own ``_frame`` / ``_unframe``; ``--trips``
round trips after a warm-up, and per rank the median rank-thread CPU of
one ``send`` and of one blocking ``recv`` (µs), and the Python-level calls
(``sys.setprofile`` ``"call"`` events) of one send and one receive.  It
exits 1 when a rank receives a value other than the one sent.

``--service`` splits a service job, ``submit()`` to staged
``result.json`` read back, the way the end-to-end benchmark's
``service_warm`` and ``service_cold`` workloads run it: their job
documents, one orchestrator with one worker and an output dir, one job
at a time.  Timestamps around ``Orchestrator.submit``,
``JobRuntime.resolve`` / ``execute_resolved`` and ``ResultStager.stage``
give, per job (medians over ``--jobs``, ms):

* ``submit``  submit() entry -> resolve entry (admission, the queue,
  the worker's claim and its hop into a thread);
* ``resolve`` / ``execute`` / ``stage``  the three calls themselves;
* ``wake``    stage return -> the client's ``wait()`` returning;
* ``read``    reading ``result.json`` back and checking its values;
* ``job``     the whole job;
* ``alloc``   the stager's reservation (job directory and temp files),
  run on the worker's reservation thread alongside resolve and execute:
  not part of ``job`` (``-`` for a stager without ``reserve``).

It exits 1 when a staged ``result.json`` holds wrong values or a
reservation temp file (``.<name>.tmp``) is left in the output dir.  The
output dir is made beside this script, on the filesystem the benchmark
stages to, and removed at the end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import mph_run
from repro.climate.ccsm import (
    CCSMConfig,
    _frame,
    _unframe,
    build_executables,
    build_registry,
)
from repro.core.mph import MPH
from repro.mpi import ExecRank, WorldConfig, launch, run_spmd
from repro.mpi.procbackend import RankPool, _Rendezvous
from repro.service import JobRuntime, Orchestrator, ResultStager

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from workloads import ServiceWorkload, exchange  # noqa: E402 - needs the path above

STAGES = ("bootstrap", "collect", "shutdown", "sweep")

#: The grids of every ``ccsm_*`` workload (benchmarks/e2e/workloads.py).
CCSM_SHAPES = {"atmosphere": (64, 128), "ocean": (48, 96), "land": (32, 64), "ice": (24, 48)}


def _stamped(stamps: dict, name: str, cls=_Rendezvous, key: str = ""):
    """*cls*'s method *name* and a stand-in that stamps ``<key>_in`` and
    ``<key>_out`` (*key* defaults to *name*) around each call."""
    inner, key = getattr(cls, name), key or name

    def method(self, *args, **kwargs):
        stamps[key + "_in"] = time.perf_counter()
        try:
            return inner(self, *args, **kwargs)
        finally:
            stamps[key + "_out"] = time.perf_counter()

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
    seconds of its own thread, its process's OS threads at the end, the
    voluntary and involuntary context switches of its process over the
    program, and the part of its thread's CPU spent inside ``MPH.send``
    and ``MPH.recv`` (timed by wrappers this forked rank installs on its
    own copy of the class)."""

    def rank(world, env):
        inside = [0.0]

        def timed(method):
            def wrapper(self, *args, **kwargs):
                start = time.thread_time()
                try:
                    return method(self, *args, **kwargs)
                finally:
                    inside[0] += time.thread_time() - start

            return wrapper

        MPH.send, MPH.recv = timed(MPH.send), timed(MPH.recv)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.thread_time()
        program(world, env)
        cpu = time.thread_time() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        return (
            cpu,
            len(os.listdir("/proc/self/task")),
            after.ru_nvcsw - before.ru_nvcsw,
            after.ru_nivcsw - before.ru_nivcsw,
            inside[0],
        )

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
            f"rank-thread CPU {sum(p.value[0] for p in procs):.3f} s "
            f"({sum(p.value[4] for p in procs):.3f} s in MPH send/recv), "
            f"voluntary switches {sum(p.value[2] for p in procs)}"
        )
        print(
            " rank program    wall_s  process_cpu_s  rank_thread_cpu_s  msg_cpu_s"
            "  rest_cpu_s  os_threads  nvcsw  nivcsw"
        )
        for p in procs:
            print(
                f"{p.rank:>5} {result.envs[p.rank].program:<8} {p.wall_seconds:>7.3f} "
                f"{p.cpu_seconds:>14.3f} {p.value[0]:>18.3f} {p.value[4]:>10.3f}"
                f" {p.value[0] - p.value[4]:>11.3f} {p.value[1]:>11}"
                f" {p.value[2]:>6} {p.value[3]:>7}"
            )


#: The block of the ``--p2p`` message: a rank's rows of a 64 x 128 grid.
P2P_BLOCK = (16, 128)


def _ping_pong(comm, trips: int) -> tuple:
    """One rank of the ``--p2p`` ping-pong: per-call CPU medians (µs) of
    its sends and blocking receives, the Python calls of one profiled
    round trip, and the count of wrong values it received."""
    first = comm.rank == 0
    peer = 1 if first else 0
    send_us, recv_us, wrong = [], [], 0
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    warmup = 50
    for trip in range(warmup + trips + 1):
        msg = _frame((trip,), np.full(P2P_BLOCK, float(trip)))
        if trip == warmup + trips:
            sys.setprofile(profile)
        t0 = time.thread_time()
        if first:
            comm.send(msg, peer, tag=7)
            t1 = time.thread_time()
            got = comm.recv(source=peer, tag=7)
            t2 = time.thread_time()
            send_s, recv_s = t1 - t0, t2 - t1
        else:
            got = comm.recv(source=peer, tag=7)
            t1 = time.thread_time()
            comm.send(got, peer, tag=7)
            t2 = time.thread_time()
            recv_s, send_s = t1 - t0, t2 - t1
        sys.setprofile(None)
        header, block = _unframe(got, 1, P2P_BLOCK)
        if header != (trip,) or not (block == trip).all():
            wrong += 1
        if warmup <= trip < warmup + trips:
            send_us.append(1e6 * send_s)
            recv_us.append(1e6 * recv_s)
    return statistics.median(send_us), statistics.median(recv_us), calls[0], wrong


def p2p_budget(trips: int) -> int:
    """Print the ``--p2p`` table; return the count of wrong values."""
    out = run_spmd(2, _ping_pong, fn_args=(trips,), config=WorldConfig(backend="process"))
    print(" rank  send_cpu_us  recv_cpu_us  python_calls_per_round_trip  wrong")
    for rank, (send_us, recv_us, calls, wrong) in enumerate(out):
        print(f"{rank:>5} {send_us:>12.1f} {recv_us:>12.1f} {calls:>28} {wrong:>6}")
    print(f"# medians over {trips} round trips of a [step | 16 x 128 float64] frame"
          " on 2 forked ranks")
    return sum(row[3] for row in out)


SERVICE_PHASES = ("submit", "resolve", "execute", "stage", "wake", "read", "job")


def _timed_reserve(stamps: dict):
    """``ResultStager.reserve`` and a stand-in whose allocation call
    records its seconds under ``("alloc", job_id)``."""
    inner = ResultStager.reserve

    def reserve(self, job_id, document):
        allocate = inner(self, job_id, document)

        def timed():
            start = time.perf_counter()
            allocate()
            stamps["alloc", job_id] = time.perf_counter() - start

        return timed

    return inner, reserve


async def _service_jobs(jobs, out_dir: Path, stamps: dict) -> tuple[list[dict], int]:
    """Run *jobs* one at a time; returns a row of phase seconds per job
    and how many staged wrong values."""
    rows, wrong = [], 0
    async with Orchestrator({"exchange": exchange}, output_dir=out_dir, max_workers=1) as orch:
        for spec, expected in jobs:
            stamps.clear()
            start = time.perf_counter()
            handle = await orch.submit(spec)
            await handle.wait()
            woke = time.perf_counter()
            result = None
            if handle.staged is not None:
                result = json.loads((handle.staged / "result.json").read_text())
            end = time.perf_counter()
            if result is None or not result["ok"] or result.get("components") != expected:
                print(f"# {handle.job_id}: staged {result!r}, error {handle.error!r}")
                wrong += 1
                continue
            rows.append({
                "submit": stamps["resolve_in"] - start,
                "resolve": stamps["resolve_out"] - stamps["resolve_in"],
                "execute": stamps["execute_out"] - stamps["execute_in"],
                "stage": stamps["stage_out"] - stamps["stage_in"],
                "wake": woke - stamps["stage_out"],
                "read": end - woke,
                "job": end - start,
                "alloc": stamps.get(("alloc", handle.job_id)),
            })
    return rows, wrong


def service_split(njobs: int) -> int:
    """Print the per-phase split of warm and cold service jobs; returns
    how many jobs went wrong (wrong values, or a stray temp file)."""
    stamps: dict = {}
    stand_ins = {
        (JobRuntime, "resolve"): _stamped(stamps, "resolve", JobRuntime),
        (JobRuntime, "execute_resolved"): _stamped(stamps, "execute_resolved", JobRuntime, "execute"),
        (ResultStager, "stage"): _stamped(stamps, "stage", ResultStager),
    }
    if hasattr(ResultStager, "reserve"):  # not on a tree staging after execute
        stand_ins[ResultStager, "reserve"] = _timed_reserve(stamps)
    for (cls, name), (_, method) in stand_ins.items():
        setattr(cls, name, method)
    bad = 0
    print("path " + " ".join(f"{c:>8}" for c in SERVICE_PHASES + ("alloc",)))
    try:
        for path, reuse in (("warm", True), ("cold", False)):
            jobs = ServiceWorkload(f"service_{path}", jobs=njobs, reuse_world=reuse).jobs_for(0)
            out_dir = Path(tempfile.mkdtemp(prefix="mph-service-out-", dir=Path(__file__).parent))
            try:
                rows, wrong = asyncio.run(_service_jobs(jobs, out_dir, stamps))
                stray = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob(".*.tmp"))
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if stray:
                print(f"# {path}: reservation temp files left behind: {stray}")
            bad += wrong + len(stray)
            columns = [[r[c] for r in rows if r[c] is not None] for c in SERVICE_PHASES + ("alloc",)]
            print(f"{path:<4} " + " ".join(
                f"{1e3 * statistics.median(v):>8.3f}" if v else f"{'-':>8}" for v in columns
            ))
    finally:
        for (cls, name), (inner, _) in stand_ins.items():
            setattr(cls, name, inner)
    print(f"# medians over {njobs} jobs a path; alloc runs beside resolve and execute, not in job")
    return bad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launches", type=int, help="default 25, with --ccsm 3")
    parser.add_argument("--ranks", type=int, nargs="+", default=[2, 3, 10])
    parser.add_argument(
        "--ccsm", action="store_true", help="per-rank CPU of the benchmark's implicit run instead"
    )
    parser.add_argument(
        "--service", action="store_true", help="the per-phase split of a service job instead"
    )
    parser.add_argument("--jobs", type=int, default=60, help="jobs a path, with --service")
    parser.add_argument(
        "--p2p", action="store_true", help="per-message CPU of a 2-rank process ping-pong instead"
    )
    parser.add_argument("--trips", type=int, default=2000, help="round trips, with --p2p")
    args = parser.parse_args()
    if args.p2p:
        sys.exit(1 if p2p_budget(args.trips) else 0)
    if args.service:
        sys.exit(1 if service_split(args.jobs) else 0)
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

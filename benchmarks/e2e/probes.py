"""The per-layer numbers, all measured from outside the program.

Two kinds of measurement feed the ``per_layer`` metrics:

* **probes** — small loops around one public call of one layer
  (``Registry.from_text``, ``Blob.encode``, a ``run_spmd`` ping-pong, a
  no-op ``mph_run``, ``FluxCoupler.compute_fluxes``, ...);
* **traced passes** — each workload run again with a span around every
  call the benchmark makes into a layer.  For the coupled runs that
  means the benchmark's own driver (:func:`rank_program`, the same
  publish / couple / receive-and-step loop ``run_ccsm`` runs, over the
  public ``ComponentRunner`` / ``CouplerRunner``); for the service it
  means the client's calls, and the same documents pushed through
  ``from_spec`` → ``resolve`` → ``execute_resolved`` → ``stage``
  directly.

A traced pass interleaves untraced reps of the same workload, so
``trace.overhead_share.*`` compares like with like, and its outputs are
verified against the untraced program's: the trace measures the same
computation.  Every ``--trace 1`` run measures every layer, whichever
workload it names — the named one supplies ``attempted`` and ``failed``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

import numpy as np

from repro import Registry, components_setup, mph_run
from repro.climate.ccsm import (
    CCSMConfig,
    ComponentRunner,
    CouplerRunner,
    build_registry,
)
from repro.climate.coupler import FluxCoupler
from repro.coupling import AbsoluteNorm, GaussSeidelSolver
from repro.mpi import Blob, WorldConfig, run_spmd
from repro.service import JobDocument, JobRuntime, ResultStager

from spans import END, NAME, START, TRACK, Recorder, durations_ms, self_times, write_chrome_trace
from workloads import (
    MODEL_KINDS,
    WORK,
    WORKLOADS,
    CcsmWorkload,
    ServiceWorkload,
    exchange,
    job_spec,
    same_fields,
    sound,
)

Rows = dict[str, tuple[float, str, int]]
KINDS = MODEL_KINDS + ("coupler",)
median = statistics.median


def median_us(call: Callable[[], Any], calls: int) -> float:
    """Median microseconds of *call* over *calls* calls."""
    samples = []
    for _ in range(calls):
        t0 = perf_counter_ns()
        call()
        samples.append(perf_counter_ns() - t0)
    return median(samples) / 1e3


# ---------------------------------------------------------------------------
# Probes: launcher, core, mpi
# ---------------------------------------------------------------------------

#: The default CCSM layout (4+2+2+1+1 ranks) and the service's smallest.
LAYOUT_10 = tuple(zip(KINDS, (4, 2, 2, 1, 1)))
LAYOUT_2 = (("atm", 1), ("ocn", 1))
PROCESS = {"config": WorldConfig(backend="process")}


def registry_text(layout) -> str:
    return "BEGIN\n" + "\n".join(name for name, _ in layout) + "\nEND\n"


def meet_once(world, env):
    """The least a rank may do.  A process world whose ranks return at
    once fails 1 launch in 30 in the bootstrap and stalls 50 s (README,
    known leads), so the no-op world's ranks pass one barrier."""
    world.barrier()


def shake(world, env):
    """Seconds this rank spent in ``components_setup``."""
    t0 = perf_counter()
    components_setup(world, env.argv[0], env=env)
    return perf_counter() - t0


def launch_ms(program, layout, job_kwargs) -> tuple[float, list]:
    """One ``mph_run`` of *program* on *layout*, every rank told its
    component's name: the wall in ms, and the ranks' return values."""
    t0 = perf_counter()
    result = mph_run(
        [(program, n, (name,)) for name, n in layout],
        registry=registry_text(layout), **job_kwargs,
    )
    return (perf_counter() - t0) * 1e3, result.values()


def named_pingpong(world, env, iters: int = 600):
    """Median round trip (µs) of an 8-byte payload addressed by
    component name (``mph.send`` / ``mph.recv``)."""
    me = env.argv[0]
    mph = components_setup(world, me, env=env)
    samples = []
    for _ in range(iters):
        t0 = perf_counter_ns()
        if me == "atm":
            mph.send(1.0, "ocn", 0, tag=1)
            mph.recv("ocn", 0, tag=2)
        else:
            mph.send(mph.recv("atm", 0, tag=1), "atm", 0, tag=2)
        samples.append(perf_counter_ns() - t0)
    return median(samples[iters // 5:]) / 1e3


#: Ping-pong payloads: label, bytes, round trips.
P2P_SIZES = (("8B", 8, 400), ("8KiB", 8 << 10, 300), ("64KiB", 64 << 10, 150), ("1MiB", 1 << 20, 30))


def pingpong(comm) -> dict[str, float]:
    """Median round trip (µs) per payload size, timed in-job between
    barriers on rank 0 of a 2-rank world."""
    out = {}
    for label, nbytes, iters in P2P_SIZES:
        payload = np.zeros(nbytes // 8)
        comm.barrier()
        samples = []
        for _ in range(iters):
            t0 = perf_counter_ns()
            if comm.rank == 0:
                comm.send(payload, 1, tag=5)
                comm.recv(source=1, tag=5)
            else:
                comm.send(comm.recv(source=0, tag=5), 0, tag=5)
            samples.append(perf_counter_ns() - t0)
        comm.barrier()
        out[label] = median(samples[iters // 5:]) / 1e3
    return out


def collectives(comm, names: tuple[str, ...], iters: int = 100) -> dict[str, float]:
    """Median microseconds of each collective in *names*, from rank 0."""
    field_16k, field_64k = np.zeros(2048), np.zeros(8192)
    calls = {
        "allreduce_us": lambda: comm.allreduce(1.0),
        "gather_us": lambda: comm.gather(field_16k, root=0),
        "bcast_us": lambda: comm.bcast(field_64k if comm.rank == 0 else None, root=0),
        "barrier_us": comm.barrier,
    }
    out = {}
    for name in names:
        comm.barrier()
        out[name] = median_us(calls[name], iters)
    return out


def substrate_probes() -> Rows:
    """launcher.*, core.*, mpi.serialization.*, mpi.p2p.*, mpi.coll.*"""
    rows: Rows = {}

    reps = 5
    for label, layout, kwargs in (
        ("thread", LAYOUT_10, {}), ("proc", LAYOUT_10, PROCESS), ("proc_r2", LAYOUT_2, PROCESS),
    ):
        walls = [launch_ms(meet_once, layout, kwargs)[0] for _ in range(reps)]
        rows[f"launcher.noop_world_ms.{label}"] = (median(walls), "ms", reps)
    for label, kwargs in (("thread", {}), ("proc", PROCESS)):
        slowest = [max(launch_ms(shake, LAYOUT_10, kwargs)[1]) * 1e3 for _ in range(reps)]
        rows[f"core.handshake_ms.{label}"] = (median(slowest), "ms", reps)

    text = registry_text(LAYOUT_10)
    rows["core.registry.parse_us"] = (median_us(lambda: Registry.from_text(text), 500), "us", 500)
    rtt = mph_run(
        [(named_pingpong, 1, ("atm",)), (named_pingpong, 1, ("ocn",))],
        registry=registry_text(LAYOUT_2),
    ).values()[0]
    rows["core.messaging.rtt_us.thread"] = (rtt, "us", 480)

    # What the workloads send: a float per service message, and per coupled
    # step a (name, step, field) tuple whose atmosphere field is 64 KiB.
    for label, obj in (("8B", 1.0), ("64KiB", ("atmosphere", 3, np.zeros((64, 128))))):
        blob = Blob.encode(obj)
        rows[f"mpi.serialization.encode_us.{label}"] = (median_us(lambda: Blob.encode(obj), 300), "us", 300)
        rows[f"mpi.serialization.decode_us.{label}"] = (median_us(blob.decode, 300), "us", 300)

    rtts = {
        substrate: run_spmd(2, pingpong, config=config)[0]
        for substrate, config in (
            ("thread", WorldConfig()),
            ("unix", WorldConfig(backend="process", transport="unix")),
            ("shm", WorldConfig(backend="process", transport="shm")),
            ("auto", WorldConfig(backend="process", transport="auto")),
        )
    }
    for size, _, iters in P2P_SIZES:
        for substrate in ("thread", "unix", "shm"):
            rows[f"mpi.p2p.rtt_us.{substrate}.{size}"] = (rtts[substrate][size], "us", iters)
        best = min(rtts["unix"][size], rtts["shm"][size])
        rows[f"mpi.p2p.auto_vs_best.{size}"] = (rtts["auto"][size] / best, "ratio", iters)

    for substrate, config in (
        ("thread", WorldConfig()), ("shm", WorldConfig(backend="process", transport="shm")),
    ):
        p4 = run_spmd(
            4, collectives, fn_args=(("allreduce_us", "gather_us", "bcast_us"),), config=config
        )[0]
        p8 = run_spmd(8, collectives, fn_args=(("barrier_us",),), config=config)[0]
        rows[f"mpi.coll.allreduce_us.p4.{substrate}"] = (p4["allreduce_us"], "us", 100)
        rows[f"mpi.coll.gather_us.p4.16KiB.{substrate}"] = (p4["gather_us"], "us", 100)
        rows[f"mpi.coll.bcast_us.p4.64KiB.{substrate}"] = (p4["bcast_us"], "us", 100)
        rows[f"mpi.coll.barrier_us.p8.{substrate}"] = (p8["barrier_us"], "us", 100)
    return rows


# ---------------------------------------------------------------------------
# Probes: climate, coupling — serial calls on the workloads' grids
# ---------------------------------------------------------------------------


def compute_probes(cfg: CCSMConfig) -> Rows:
    """climate.*, coupling.solver.* — the single-threaded baseline."""
    rows: Rows = {}
    surfaces = MODEL_KINDS[1:]
    coupler = FluxCoupler(
        cfg.grid("atmosphere"),
        {k: cfg.grid(k) for k in surfaces},
        {k: cfg.coupling_coeff[k] for k in surfaces},
    )
    temps = {k: np.full(cfg.shapes[k], 280.0 + i) for i, k in enumerate(MODEL_KINDS)}
    rows["climate.coupler.compute_us"] = (
        median_us(
            lambda: coupler.compute_fluxes(
                temps["atmosphere"], {k: temps[k] for k in surfaces}, record=False
            ),
            100,
        ),
        "us", 100,
    )

    def standalone_atmosphere(world, env):
        mph = components_setup(world, "atmosphere", env=env)
        runner = ComponentRunner(mph, cfg, "atmosphere", mph.proc_in_component("atmosphere"))
        return median_us(lambda: runner.model.step(cfg.dt, None), 200)

    step_us = mph_run([(standalone_atmosphere, 1)], registry=build_registry(cfg, "scse")).values()[0]
    rows["climate.model.step_us.atmosphere"] = (step_us, "us", 200)

    # One Gauss-Seidel update on the workloads' 16000-point interface: the
    # operator halves the distance to a fixed point, so the cost left per
    # iteration is the solver's own (residual, criterion, norm, update).
    size = sum(a * b for a, b in cfg.shapes.values())
    target = np.linspace(270.0, 300.0, size)
    solver = GaussSeidelSolver(AbsoluteNorm(1e-9), max_iterations=200)
    solver.initialize()
    per_iteration = []
    for _ in range(10):
        solver.initialize_solution_step()
        t0 = perf_counter_ns()
        result = solver.solve_solution_step(np.zeros(size), lambda x: 0.5 * (x + target))
        per_iteration.append((perf_counter_ns() - t0) / result.iterations / 1e3)
        solver.finalize_solution_step()
    rows["coupling.solver.update_us"] = (median(per_iteration), "us", len(per_iteration))
    return rows


# ---------------------------------------------------------------------------
# Traced pass: ccsm_*
# ---------------------------------------------------------------------------

PHASES = ("launch", "handshake", "model_init", "steps", "diagnostics", "teardown")


def rank_program(cfg: CCSMConfig, kind: str, rep: str, cause: str, launched_ns: int):
    """The benchmark's own driver of one component: what ``run_ccsm``
    runs on a rank, with a span around each call."""

    def program(world, env):
        rec = Recorder(rep, f"{kind}.{env.local_index}", parent=cause)
        rec.add("launch", launched_ns, perf_counter_ns())
        name = cfg.name(kind)
        with rec.span("handshake"):
            mph = components_setup(world, name, env=env)
        with rec.span("model_init"):
            comm = mph.proc_in_component(name)
            if kind == "coupler":
                runner = CouplerRunner(mph, cfg, comm)
            else:
                runner = ComponentRunner(mph, cfg, kind, comm)
        with rec.span("steps"):
            for step in range(cfg.nsteps):
                if kind == "coupler":
                    with rec.span("coupler_step"):
                        runner.step(step)
                else:
                    with rec.span("publish"):
                        runner.publish(step)
                    with rec.span("receive_and_step"):
                        runner.receive_and_step(step)
        with rec.span("diagnostics"):
            diag = runner.diagnostics()
        seen = world.world.traffic_snapshot()
        return {
            "diag": {kind: diag},
            "recorder": rec,
            "traffic": (seen.messages, seen.payload_bytes, seen.wakeups, seen.blocked_seconds),
            "returned_ns": perf_counter_ns(),
        }

    program.__name__ = kind
    return program


def traced_run(w: CcsmWorkload, cfg: CCSMConfig, rep: str):
    """One coupled run under the benchmark's driver.  Returns the
    assembled diagnostics (as ``run_ccsm`` assembles them), every span,
    and the run's traffic totals ``(messages, bytes, wakeups, blocked s)``."""
    client = Recorder(rep, "client")
    with client.span("run") as run_id:
        launched = perf_counter_ns()
        result = mph_run(
            [(rank_program(cfg, kind, rep, run_id, launched), cfg.procs[kind]) for kind in KINDS],
            registry=build_registry(cfg, "scme"),
            **w.job_kwargs(),
        )
        back = perf_counter_ns()
        diags: dict[str, Any] = {}
        for value in result.values():
            for kind, diag in value["diag"].items():
                if kind not in diags or diags[kind]["final_field"] is None:
                    diags[kind] = diag
    spans = list(client.spans)
    for value in result.values():
        value["recorder"].add("teardown", value["returned_ns"], back)
        spans.extend(value["recorder"].spans)
    # Thread ranks share one world and so one set of counters (the last
    # rank out read the total); each forked rank counts its own deliveries.
    combine = max if w.backend == "thread" else sum
    traffic = tuple(combine(col) for col in zip(*(v["traffic"] for v in result.values())))
    return diags, spans, traffic


def slowest_rank_ms(spans: list[tuple], name: str) -> list[float]:
    """Per occurrence (per step, for a per-step span): the longest
    duration of span *name* over the ranks — the rank the others wait for."""
    by_track: dict[str, list[float]] = {}
    for s in spans:
        if s[NAME] == name:
            by_track.setdefault(s[TRACK], []).append((s[END] - s[START]) / 1e6)
    return [max(col) for col in zip(*by_track.values())]


def traced_ccsm(w: CcsmWorkload, seed: int, pairs: int):
    """Interleave untraced and traced reps of *w*; returns its rows,
    the first traced rep's spans, and ``(attempted, failed)``."""
    suffix = "thread" if w.backend == "thread" else "proc"
    full, zero = w.config(seed), w.config(seed, nsteps=0)
    plain_walls, traced_walls, failed = [], [], 0
    samples: dict[str, tuple[str, list[float]]] = {}
    kept: list[tuple] = []
    iterations: list[int] = []

    def sample(name: str, unit: str, value: float) -> None:
        samples.setdefault(name, (unit, []))[1].append(value)

    for pair in range(pairs):
        t0 = perf_counter()
        reference = w.launch(full)
        plain_walls.append(perf_counter() - t0)

        _, _, idle_traffic = traced_run(w, zero, f"{w.name}/zero{pair}")
        t0 = perf_counter()
        diags, spans, traffic = traced_run(w, full, f"{w.name}/rep{pair}")
        wall_ms = (perf_counter() - t0) * 1e3
        traced_walls.append(wall_ms / 1e3)
        if not (sound(diags, w.nsteps) and same_fields(diags, reference)):
            failed += w.nsteps
        kept = kept or spans
        iterations.extend(diags["coupler"].get("coupling_iterations", ()))

        # A phase costs what its slowest rank spends in it; the residual is
        # what those six numbers leave of the wall unexplained.
        phases = {p: max(slowest_rank_ms(spans, p)) for p in PHASES}
        for p, ms in phases.items():
            sample(f"ccsm.phase_ms.{p}.{suffix}", "ms", ms)
        sample(f"ccsm.budget_residual_share.{suffix}", "ratio",
               abs(wall_ms - sum(phases.values())) / wall_ms)
        for name in ("publish", "coupler_step", "receive_and_step"):
            sample(f"ccsm.step_ms.{name}.{suffix}", "ms", median(slowest_rank_ms(spans, name)))
        # What the steps added to a zero-step run of the same world.
        msgs, nbytes, wakeups, blocked = (a - b for a, b in zip(traffic, idle_traffic))
        rank_seconds = sum(durations_ms(spans, "steps")) / 1e3
        sample(f"mpi.traffic.msgs_per_step.{w.name}", "count", msgs / w.nsteps)
        sample(f"mpi.traffic.bytes_per_step.{w.name}", "bytes", nbytes / w.nsteps)
        sample(f"mpi.progress.wakeups_per_msg.{w.name}", "ratio", wakeups / msgs)
        sample(f"mpi.progress.blocked_share.{w.name}", "ratio", blocked / rank_seconds)

    rows: Rows = {name: (median(xs), unit, len(xs)) for name, (unit, xs) in samples.items()}
    rows[f"trace.overhead_share.{w.name}"] = (
        (median(traced_walls) - median(plain_walls)) / median(plain_walls), "ratio", pairs,
    )
    if iterations:
        rows["coupling.iterations_per_step"] = (statistics.fmean(iterations), "count", len(iterations))
    return rows, kept, (pairs * w.nsteps, failed)


# ---------------------------------------------------------------------------
# Traced pass: service_*
# ---------------------------------------------------------------------------


def exchange_traced(comm, env):
    """:func:`workloads.exchange`, returning beside its value what this
    rank's world has counted: messages and bytes delivered and wake-ups
    since the world began (the pid names the world's rank), and the
    seconds this call spent blocked and in all."""
    before = comm.world.traffic_snapshot()
    t0 = perf_counter()
    value = exchange(comm, env)
    seconds = perf_counter() - t0
    seen = comm.world.traffic_snapshot()
    return {
        "value": value,
        "layer": {
            "pid": os.getpid(),
            "messages": seen.messages,
            "bytes": seen.payload_bytes,
            "wakeups": seen.wakeups,
            "blocked_s": seen.blocked_seconds - before.blocked_seconds,
            "seconds": seconds,
        },
    }


def unwrap(staged: Any) -> tuple[Any, list[dict]]:
    """Split staged :func:`exchange_traced` results into the plain
    values and the per-rank layer readings."""
    if staged is None:
        return None, []
    values = {name: [r["value"] for r in ranks] for name, ranks in staged.items()}
    return values, [r["layer"] for ranks in staged.values() for r in ranks]


def traffic_totals(readings: list[dict]) -> tuple[int, int, int, float, float]:
    """Messages, bytes and wake-ups over every world the readings came
    from, and the blocked and total seconds of the calls.

    The counts are each rank's last reading, not a sum of per-job
    differences: a rank's counters only grow, and a message that lands
    before its receiver's program starts (or, on a resident world, in
    the barrier between two jobs) would fall between two differences.
    """
    last: dict[int, dict] = {}
    for r in readings:
        if r["messages"] >= last.get(r["pid"], r)["messages"]:
            last[r["pid"]] = r
    return (
        *(sum(r[key] for r in last.values()) for key in ("messages", "bytes", "wakeups")),
        sum(r["blocked_s"] for r in readings),
        sum(r["seconds"] for r in readings),
    )


def direct_pass(jobs, out_dir: Path, rec: Recorder) -> int:
    """Push *jobs* through the service's layers one call at a time — no
    orchestrator — with a span per call; returns how many failed."""
    failed = 0
    stager = ResultStager(out_dir)
    with JobRuntime({"exchange": exchange}, max_resident=2) as runtime:
        for i, (spec, expected) in enumerate(jobs):
            with rec.span("direct_job"):
                with rec.span("jobdoc.from_spec"):
                    doc = JobDocument.from_spec(spec)
                with rec.span("jobdoc.layout_key"):
                    doc.layout_key()
                with rec.span("runtime.resolve"):
                    resolved = runtime.resolve(doc)
                t0 = perf_counter_ns()
                outcome = runtime.execute_resolved(resolved, f"job{i:05d}")
                # The first job of each layout builds its resident world, so
                # even the warm workload has two cold executions.
                path = "warm" if outcome.warm else "cold"
                rec.add(f"runtime.execute.{path}", t0, perf_counter_ns())
                with rec.span("stager.stage"):
                    stager.stage(outcome, doc)
            failed += not (outcome.ok and outcome.values == expected)
    return failed


def traced_service(w: ServiceWorkload, seed: int, pairs: int):
    """Interleave untraced and traced reps of *w*, then the direct pass;
    returns its rows, the spans, and ``(attempted, failed)``."""
    suffix = "warm" if w.reuse_world else "cold"
    jobs = w.jobs_for(seed)
    jobs_traced = w.jobs_for(seed, program="exchange_traced")
    scratch = WORK / f"{w.name}-trace"
    rec = Recorder(f"{w.name}/client", "client")
    plain_walls, traced_walls, latencies, layers = [], [], [], []
    failed = 0
    try:
        for pair in range(pairs):
            t0 = perf_counter()
            plain = asyncio.run(w.rep(jobs, {"exchange": exchange}, scratch / f"p{pair}"))
            plain_walls.append(perf_counter() - t0)
            latencies.extend(seconds for seconds, _ in plain.results)
            failed += sum(got != want for (_, got), (_, want) in zip(plain.results, jobs))

            t0 = perf_counter()
            traced = asyncio.run(
                w.rep(jobs_traced, {"exchange_traced": exchange_traced}, scratch / f"t{pair}", rec)
            )
            traced_walls.append(perf_counter() - t0)
            for (_, got), (_, want) in zip(traced.results, jobs):
                values, readings = unwrap(got)
                failed += values != want
                layers.extend(readings)
        failed += direct_pass(jobs, scratch / "direct", rec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    spans = rec.spans
    msgs, nbytes, wakeups, blocked, seconds = traffic_totals(layers)
    njobs = pairs * w.jobs

    def p50(name: str) -> float:
        return median(durations_ms(spans, name))

    execute = f"runtime.execute.{suffix}"
    direct_ms = sum(p50(n) for n in ("jobdoc.from_spec", "runtime.resolve", execute, "stager.stage"))
    runtime = traced.orchestrator.runtime
    stats, layouts = runtime.stats, runtime.layouts
    rows: Rows = {
        f"mpi.traffic.msgs_per_step.{w.name}": (msgs / njobs, "count", njobs),
        f"mpi.traffic.bytes_per_step.{w.name}": (nbytes / njobs, "bytes", njobs),
        f"mpi.progress.wakeups_per_msg.{w.name}": (wakeups / msgs, "ratio", njobs),
        f"mpi.progress.blocked_share.{w.name}": (blocked / seconds, "ratio", njobs),
        f"service.runtime.execute_ms.proc_{suffix}": (p50(execute), "ms", len(durations_ms(spans, execute))),
        f"service.orchestrator.self_ms.{suffix}": (median(latencies) * 1e3 - direct_ms, "ms", len(latencies)),
        f"service.job_ms_p95.{suffix}": (statistics.quantiles(latencies, n=20)[18] * 1e3, "ms", len(latencies)),
        f"trace.overhead_share.{w.name}": (
            (median(traced_walls) - median(plain_walls)) / median(plain_walls), "ratio", pairs,
        ),
    }
    if w.reuse_world:
        rows["service.jobdoc.from_spec_us"] = (p50("jobdoc.from_spec") * 1e3, "us", w.jobs)
        rows["service.jobdoc.layout_key_us"] = (p50("jobdoc.layout_key") * 1e3, "us", w.jobs)
        rows["service.runtime.resolve_us.cached"] = (p50("runtime.resolve") * 1e3, "us", w.jobs)
        rows["service.stager.stage_ms"] = (p50("stager.stage"), "ms", w.jobs)
        rows["service.runtime.warm_share"] = (stats["warm"] / stats["jobs"], "ratio", stats["jobs"])
        rows["service.layout_cache.hit_share"] = (
            layouts.hits / (layouts.hits + layouts.misses), "ratio", layouts.hits + layouts.misses,
        )
    return rows, spans, (2 * njobs + w.jobs, failed)


def service_probes() -> Rows:
    """The two service numbers no workload pass yields: ``resolve`` on a
    cold layout cache, and the same job isolated on the thread backend."""
    programs = {"exchange": exchange}
    doc = JobDocument.from_spec(
        job_spec(2, 1.0, backend="thread", reuse_world=False, program="exchange")
    )
    cold = []
    for _ in range(30):
        runtime = JobRuntime(programs, max_resident=0)
        t0 = perf_counter_ns()
        runtime.resolve(doc)
        cold.append((perf_counter_ns() - t0) / 1e3)
    execute = []
    runtime = JobRuntime(programs, max_resident=0)
    resolved = runtime.resolve(doc)
    for i in range(100):
        t0 = perf_counter_ns()
        outcome = runtime.execute_resolved(resolved, f"thread{i}")
        execute.append((perf_counter_ns() - t0) / 1e6)
        if not outcome.ok:
            raise RuntimeError(f"thread-isolated probe job failed: {outcome.error}")
    return {
        "service.runtime.resolve_us.cold": (median(cold), "us", len(cold)),
        "service.runtime.execute_ms.thread_isolated": (median(execute), "ms", len(execute)),
    }


# ---------------------------------------------------------------------------
# Everything
# ---------------------------------------------------------------------------


def layer_metrics(workload, seed: int, seconds: float, trace_out: Path):
    """Measure every layer; ``(attempted, failed, rows)`` with the counts
    taken from *workload*'s own traced pass."""
    pairs = max(1, round(seconds / 7))
    # Probes first: they also bring the host out of its post-idle burst
    # before the traced passes compare traced with untraced walls.
    rows: Rows = {
        **substrate_probes(),
        **compute_probes(WORKLOADS["ccsm_explicit_thread"].config(seed)),
        **service_probes(),
    }
    spans: list[tuple] = []
    counts = {}
    for w in WORKLOADS.values():
        trace = traced_ccsm if isinstance(w, CcsmWorkload) else traced_service
        w_rows, w_spans, counts[w.name] = trace(w, seed, pairs)
        rows.update(w_rows)
        spans.extend(w_spans)

    write_chrome_trace(trace_out, spans)
    print(f"# {'span':24s} {'count':>7s} {'total ms':>12s} {'self ms':>12s}")
    for name, (count, total, own) in sorted(self_times(spans).items()):
        print(f"# {name:24s} {count:7d} {total:12.2f} {own:12.2f}")
    attempted, failed = counts[workload.name]
    return attempted, failed, dict(sorted(rows.items()))

"""The four end-to-end workloads: inputs from a seed, one closed-loop
client, verification of every output, and the six end-to-end metrics.

Everything here drives the program through its public calls only
(``run_ccsm``, ``CCSMConfig``, ``WorldConfig(backend=, transport=)``,
``Orchestrator``); the README lists the full surface.  Nothing is timed
with tracing on — the traced pass lives in :mod:`probes`.

An *operation* is one coupled step in the ``ccsm_*`` workloads and one
job, ``submit()`` → staged ``result.json`` read back and checked, in the
``service_*`` workloads.  Every workload runs *reps* of a fixed size
until its time is up, so each run yields many samples of set-up time and
of rep wall time, and reports their medians.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from repro import components_setup
from repro.climate.ccsm import CCSMConfig, run_ccsm
from repro.mpi import WorldConfig
from repro.service import Orchestrator

from spans import Recorder

#: Grids of every ``ccsm_*`` run: 16000 interface points, the atmosphere
#: field exactly 64 KiB (above the shm transport's 32 KiB inline limit).
SHAPES = {
    "atmosphere": (64, 128),
    "ocean": (48, 96),
    "land": (32, 64),
    "ice": (24, 48),
}
MODEL_KINDS = ("atmosphere", "ocean", "land", "ice")

#: Scratch space for staged service results; removed rep by rep.
WORK = Path(__file__).resolve().parent / ".work"

#: Share of ``--seconds`` spent warming up before the timed window, and
#: its cap.  Warm-up is by duration because this kind of host runs a
#: process faster for its first second or two after idle than it does
#: from then on; one warm-up call would be timed inside that window.
WARMUP_SHARE, WARMUP_CAP_S = 0.25, 5.0

#: Extra set-ups timed in every rep, so setup_s is a median of many.
SETUPS_PER_REP = 2


#: The host-speed calibration: spawning and reaping this many ``true``
#: processes, which took REFERENCE_S on the host the bounds were set on.
#: See :func:`calibrate`.
TRUE = shutil.which("true")
CALIBRATION_SPAWNS, REFERENCE_S = 8, 0.010


def calibrate() -> float:
    """Seconds the host needs right now for a fixed piece of work that
    is none of the program's: spawn and reap a few ``true`` processes.

    The sandbox hosts this benchmark runs on drift: with no steal time
    showing, the same rep is 15-20 % slower or faster a minute later, for
    minutes at a time, which is more than any bound the metrics carry.
    This kernel drifts with them (process creation, wake-ups across both
    cores, page faults — it tracked all four workloads better than a CPU
    loop, a pipe ping-pong or an mmap loop did).  Every timed rep is
    therefore bracketed by two calibrations, and its times are divided
    by their mean over REFERENCE_S: the end-to-end times are seconds *at
    reference host speed*.  In the worst phases seen, ten consecutive
    runs spread (interquartile range over median) 17-22 % raw and 4-12 %
    calibrated; on a calm host the calibration adds a few percent of its
    own.
    """
    if TRUE is None:
        raise RuntimeError("the host-speed calibration needs the `true` program on PATH")
    t0 = perf_counter()
    for _ in range(CALIBRATION_SPAWNS):
        os.waitpid(os.posix_spawn(TRUE, [TRUE], {}), 0)
    return perf_counter() - t0


@dataclass
class Rep:
    """The raw readings of one rep."""

    #: Seconds of each set-up the rep made.
    setup: list[float]
    #: Wall seconds of the full run or batch.
    wall: float
    #: ``service_*`` only: submit→staged seconds of every job, and the
    #: jobs per second after the first job.
    latencies: list[float] = field(default_factory=list)
    rate: float = 0.0
    #: Operations that failed or failed verification.
    failed: int = 0


@dataclass
class Measured:
    """What one untraced run of a workload measured; every time in it
    is at reference host speed (see :func:`calibrate`)."""

    #: Operations per rep (coupled steps, or jobs).
    ops_per_rep: int
    setup: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    #: Host-speed factor of each rep kept (1.0 = reference speed, more =
    #: slower), and the walls as this host's clock read them.
    factors: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: ``service_*`` only: jobs the client had to submit a second time.
    retried: int = 0
    peak_rss_mib: float = 0.0

    def add(self, rep: Rep, factor: float) -> None:
        """Count *rep*; keep its times unless an operation in it failed."""
        self.attempted += self.ops_per_rep
        self.failed += rep.failed
        if rep.failed:
            return
        self.factors.append(factor)
        self.raw_walls.append(rep.wall)
        self.setup.extend(s / factor for s in rep.setup)
        self.walls.append(rep.wall / factor)
        self.latencies.extend(s / factor for s in rep.latencies)
        if rep.rate:
            self.rates.append(rep.rate * factor)

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """``metric -> (value, unit, samples)`` — medians over reps."""
        setup_s = statistics.median(self.setup)
        wall_s = statistics.median(self.walls)
        if self.latencies:
            ops_per_s = statistics.median(self.rates)
            op_ms = statistics.median(self.latencies) * 1e3
            op_samples = len(self.latencies)
        else:
            ops_per_s = self.ops_per_rep / (wall_s - setup_s)
            op_ms = statistics.median(
                (w - setup_s) / self.ops_per_rep * 1e3 for w in self.walls
            )
            op_samples = len(self.walls)
        return {
            "setup_s": (setup_s, "s", len(self.setup)),
            "wall_s": (wall_s, "s", len(self.walls)),
            "ops_per_s": (ops_per_s, "1/s", len(self.walls)),
            "op_ms_p50": (op_ms, "ms", op_samples),
            "failed_share": (self.failed / self.attempted, "ratio", self.attempted),
            "peak_rss_mib": (self.peak_rss_mib, "MiB", 1),
        }


def peak_rss_mib() -> float:
    """High-water resident set of this process plus that of its largest
    reaped child (Linux reports ``ru_maxrss`` in KiB).  On a workload
    that forks nothing the largest child is a calibration ``true``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_reps(rep: Callable[[], Rep], out: Measured, seconds: float) -> None:
    """Warm up by duration, then add calibrated reps to *out* until
    *seconds* have passed — at least two, whatever *seconds* is."""
    deadline = perf_counter() + min(WARMUP_SHARE * seconds, WARMUP_CAP_S)
    while perf_counter() < deadline:
        rep()
    deadline = perf_counter() + seconds
    while out.attempted < 2 * out.ops_per_rep or perf_counter() < deadline:
        before = calibrate()
        readings = rep()
        out.add(readings, (before + calibrate()) / 2 / REFERENCE_S)


# ---------------------------------------------------------------------------
# ccsm_* — a coupled run, launch call to verified results in hand
# ---------------------------------------------------------------------------


def same_fields(diags: dict[str, Any], reference: dict[str, Any]) -> bool:
    """Whether every component's final field equals *reference*'s bit
    for bit, and the implicit iteration counts match step for step."""
    for kind in MODEL_KINDS:
        a, b = diags[kind]["final_field"], reference[kind]["final_field"]
        if a is None or b is None or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return diags["coupler"].get("coupling_iterations") == reference["coupler"].get(
        "coupling_iterations"
    )


def sound(diags: dict[str, Any], nsteps: int) -> bool:
    """Every component reported, with finite energy at every step, and
    every implicit step converged."""
    if any(kind not in diags for kind in MODEL_KINDS + ("coupler",)):
        return False
    for kind in MODEL_KINDS:
        energy = diags[kind]["energy"]
        if len(energy) != nsteps + 1 or not np.all(np.isfinite(energy)):
            return False
    return all(diags["coupler"].get("coupling_converged", ()))


@dataclass(frozen=True)
class CcsmWorkload:
    name: str
    coupling: str
    nsteps: int
    backend: str

    def config(self, seed: int, nsteps: Optional[int] = None) -> CCSMConfig:
        """The run's configuration: the seed moves each coupling
        coefficient by at most 5 %, so every seed is a different
        trajectory of the same cost."""
        rng = random.Random(seed)
        base = CCSMConfig().coupling_coeff
        coeff = {k: v * (1.0 + rng.uniform(-0.05, 0.05)) for k, v in sorted(base.items())}
        return CCSMConfig(
            shapes=dict(SHAPES),
            coupling_coeff=coeff,
            coupling=self.coupling,
            nsteps=self.nsteps if nsteps is None else nsteps,
        )

    @property
    def other_backend(self) -> str:
        return "process" if self.backend == "thread" else "thread"

    def job_kwargs(self, backend: Optional[str] = None) -> dict[str, Any]:
        """What selects *backend* (this workload's by default) in a
        launch call: nothing for the default thread world."""
        if (backend or self.backend) == "thread":
            return {}
        return {"config": WorldConfig(backend="process")}

    def launch(self, cfg: CCSMConfig, backend: Optional[str] = None) -> dict[str, Any]:
        """One coupled run, launch call to assembled diagnostics."""
        return run_ccsm("scme", cfg, **self.job_kwargs(backend))

    def measure(self, seed: int, seconds: float) -> Measured:
        full, zero = self.config(seed), self.config(seed, nsteps=0)
        out = Measured(ops_per_rep=self.nsteps)
        first: Optional[dict] = None  # the first sound rep's diagnostics

        def rep() -> Rep:
            nonlocal first
            # Zero-step and full runs interleave, so both see the same host.
            setup = []
            for _ in range(SETUPS_PER_REP):
                t0 = perf_counter()
                self.launch(zero)
                setup.append(perf_counter() - t0)
            t0 = perf_counter()
            try:
                diags = self.launch(full)
                ok = sound(diags, self.nsteps) and (first is None or same_fields(diags, first))
            except Exception as exc:  # noqa: BLE001 - failures are counted, never raised
                print(f"# {self.name}: rep failed: {type(exc).__name__}: {exc}")
                ok = False
            wall = perf_counter() - t0
            if ok and first is None:
                first = diags
            # A failed run fails all its steps.
            return Rep(setup, wall, failed=0 if ok else self.nsteps)

        run_reps(rep, out, seconds)
        out.peak_rss_mib = peak_rss_mib()
        # Every rep matched the first bit for bit; the first must match the
        # same configuration run once, untimed, on the other substrate.
        # (Run after the RSS reading: its ranks are not this workload's.)
        if first is None or not same_fields(first, self.launch(full, self.other_backend)):
            print(f"# {self.name}: fields differ from the {self.other_backend} backend's")
            out.failed = out.attempted
        return out


# ---------------------------------------------------------------------------
# service_* — a job, submit() to staged result.json read back and checked
# ---------------------------------------------------------------------------


def exchange(comm, env):
    """The service's one program: every ``atm`` rank sends its payload to
    the ``ocn`` rank, which answers each with the sum."""
    mph = components_setup(comm, env.program, env=env)
    me = mph.local_proc_id()
    x = float(env.argv[0])
    if mph.comp_name() == "atm":
        mph.send(x + me, "ocn", 0, tag=21)
        return mph.recv("ocn", 0, tag=22)
    natm = int(env.argv[1])
    got = [mph.recv("atm", r, tag=21) for r in range(natm)]
    for r in range(natm):
        mph.send(sum(got) + r, "atm", r, tag=22)
    return got


def expected_values(natm: int, x: float) -> dict[str, list]:
    """What :func:`exchange` must stage for payload *x* on *natm* ranks."""
    got = [x + r for r in range(natm)]
    return {"atm": [sum(got) + r for r in range(natm)], "ocn": [got]}


def job_spec(natm: int, x: float, *, backend: str, reuse_world: bool, program: str) -> dict:
    """One job document, as a client would write it."""
    return {
        "name": f"e2e-atm{natm}",
        "components": [
            {"name": "atm", "nprocs": natm, "program": program, "argv": [repr(x)]},
            {"name": "ocn", "nprocs": 1, "program": program, "argv": [repr(x), str(natm)]},
        ],
        "runtime": {"backend": backend, "reuse_world": reuse_world, "timeout": 60.0},
        "output": {"save": ["values"]},
    }


def staged_values(handle) -> Optional[dict]:
    """The ``components`` of a finished job's staged ``result.json``, or
    ``None`` when the job failed or staged nothing."""
    if handle.staged is None:
        return None
    result = json.loads((handle.staged / "result.json").read_text())
    return result.get("components") if result.get("ok") else None


@dataclass
class Batch:
    """What one start → jobs → shutdown cycle of the service yielded."""

    #: ``Orchestrator.start()`` → first job staged, and the time the
    #: rest of the jobs took, in seconds.
    setup_s: float
    rest_s: float
    #: ``(seconds, staged values)`` per job, retry included.
    results: list[tuple[float, Optional[dict]]]
    #: Jobs that did not complete and were submitted a second time.
    retried: int
    #: The orchestrator, for its counters.
    orchestrator: Orchestrator


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    jobs: int
    reuse_world: bool

    def jobs_for(self, seed: int, program: str = "exchange") -> list[tuple[dict, dict]]:
        """``(document, expected values)`` of one rep: the seed draws the
        payloads and the order of the two layouts (half the jobs each).
        The first job is always the larger layout: it is the one
        ``setup_s`` times, and forking 3 ranks is not forking 2."""
        rng = random.Random(seed)
        layouts = [1, 2] * (self.jobs // 2 - 1) + [1]
        rng.shuffle(layouts)
        layouts.insert(0, 2)
        out = []
        for natm in layouts:
            x = round(rng.uniform(0.0, 1000.0), 3)
            spec = job_spec(
                natm, x, backend="process", reuse_world=self.reuse_world, program=program
            )
            out.append((spec, expected_values(natm, x)))
        return out

    async def rep(
        self,
        jobs: list[tuple[dict, dict]],
        programs: dict[str, Callable],
        out_dir: Path,
        recorder: Optional[Recorder] = None,
    ) -> Batch:
        """One rep: start the service, run *jobs* one at a time, shut it
        down.  With a *recorder*, each job's client-side calls are
        recorded as spans.

        The client submits a job that did not complete once more, as a
        sweep script would: launching a world fails about once in 50000
        cold jobs (README, known leads), a rate no run of this length
        can gate on.  The job's seconds cover both attempts; a job whose
        second attempt fails too, or that stages wrong values, is failed.
        """
        span = recorder.span if recorder is not None else (lambda name: nullcontext())
        orch = Orchestrator(programs, output_dir=out_dir, max_workers=1, max_resident=2)
        batch = Batch(0.0, 0.0, [], 0, orch)
        t_start = perf_counter()
        await orch.start()
        try:
            for spec, _ in jobs:
                t0 = perf_counter()
                for attempt in (1, 2):
                    try:
                        with span("job"):
                            with span("submit"):
                                handle = await orch.submit(spec)
                            with span("wait"):
                                await handle.wait()
                            with span("read_result"):
                                got = staged_values(handle)
                        error = handle.error
                    except Exception as exc:  # noqa: BLE001 - failures are counted, never raised
                        got, error = None, f"{type(exc).__name__}: {exc}"
                    if got is not None:
                        break
                    print(f"# {self.name}: attempt {attempt} of a job failed: {error}")
                    batch.retried += attempt == 1
                batch.results.append((perf_counter() - t0, got))
                if len(batch.results) == 1:
                    batch.setup_s = perf_counter() - t_start
            batch.rest_s = perf_counter() - t_start - batch.setup_s
        finally:
            await orch.shutdown()
        return batch

    def measure(self, seed: int, seconds: float) -> Measured:
        jobs = self.jobs_for(seed)
        programs = {"exchange": exchange}
        out = Measured(ops_per_rep=self.jobs)
        scratch = WORK / self.name

        def rep() -> Rep:
            # Extra set-ups: the service started, one job staged, shut down.
            setup = [
                asyncio.run(self.rep(jobs[:1], programs, scratch / f"setup{i}")).setup_s
                for i in range(SETUPS_PER_REP)
            ]
            t0 = perf_counter()
            batch = asyncio.run(self.rep(jobs, programs, scratch / "rep"))
            wall = perf_counter() - t0
            shutil.rmtree(scratch, ignore_errors=True)
            out.retried += batch.retried
            return Rep(
                setup + [batch.setup_s],
                wall,
                latencies=[seconds for seconds, _ in batch.results],
                rate=(self.jobs - 1) / batch.rest_s,
                failed=sum(got != want for (_, got), (_, want) in zip(batch.results, jobs)),
            )

        try:
            run_reps(rep, out, seconds)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        out.peak_rss_mib = peak_rss_mib()
        return out


#: Why each workload is here is in BENCHMARK.json and the README.  Rep
#: sizes are small so that a run holds twenty reps or more: the medians
#: steady with the number of reps, not with their length.
WORKLOADS = {
    w.name: w
    for w in (
        CcsmWorkload("ccsm_explicit_thread", coupling="explicit", nsteps=24, backend="thread"),
        CcsmWorkload("ccsm_implicit_proc", coupling="implicit", nsteps=6, backend="process"),
        ServiceWorkload("service_warm", jobs=160, reuse_world=True),
        ServiceWorkload("service_cold", jobs=30, reuse_world=False),
    )
}

"""The runtime layer of the MPH service: validated job documents onto
the existing MPMD machinery.

Three responsibilities:

* **Resolution** — :meth:`JobRuntime.resolve` turns a
  :class:`~repro.service.jobdoc.JobDocument` into a :class:`ResolvedJob`:
  the executable specs and the program callables bound from the
  runtime's catalog (what every launch of it is planned from), a
  :class:`~repro.mpi.world.WorldConfig` built from the runtime
  spec, and the handshake layout resolved **once** per
  :meth:`~repro.service.jobdoc.JobDocument.layout_key` through a
  :class:`LayoutCache` of
  :class:`~repro.core.session.PrecomputedLayout` objects — every rank of
  every job with the same component/processor map skips the §6 init
  exchange (registry broadcast + declaration allgather).

* **Isolated execution** — the default path runs each job on its own
  world via :class:`~repro.launcher.job.MpmdJob`: its own shm/sockdir
  namespace (the job id, through
  :func:`~repro.mpi.procbackend.rendezvous_prefix`), swept on teardown
  by the rendezvous cleanup, so no two jobs can see each other's
  segments no matter how they die.  On the process backend the world is
  fresh but its processes need not be: the runtime's one
  :func:`~repro.launcher.job.rank_pool` parks the ranks of a clean job
  and hands them the next job's ranks by message, so only the first
  such job (and any shortfall later) forks.

* **Resident execution** — for process-backend jobs that opt in
  (``runtime.reuse_world``, the default), the runtime keeps a small pool
  of :class:`WorkerWorld` objects keyed by layout hash: each is the same
  :class:`~repro.mpi.procbackend.ProcLaunch` an isolated job runs,
  kept open after its first job.  Fork (or the pool's assignment) +
  bootstrap + handshake are paid once; each later job with the same
  layout is one ``("run", meta)`` frame down every rank's rendezvous
  connection and one result frame back — its traffic that job's alone.
  This is the service's warm path — the ``service_warm`` workload of
  ``benchmarks/e2e/run.py`` against ``service_cold`` measures what it
  saves.  A resident world is **poisoned** (evicted, its processes
  retired) the moment any rank fails or a job times out; a clean one
  gives its processes back to the pool when it is evicted or closed.
  Fault-seeded and match-seeded jobs never use one (seeds are
  thread-backend-only by document validation).

The service convention for program callables is the ``mph_run`` one —
``fn(comm, env)`` with a :class:`~repro.launcher.job.JobEnv` — plus one
rule: ``env.program`` is the **component name** from the job document,
so a cooperative program declares ``components_setup(comm, env.program,
env=env)`` and the precomputed layout matches its declaration.  A
program that declares anything else still works on a live exchange but
fails the precomputed-layout consistency check with a
:class:`~repro.errors.HandshakeError` naming the stale declaration.
"""

from __future__ import annotations

import itertools
import multiprocessing.util
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.session import PrecomputedLayout
from repro.core.handshake import ComponentDecl
from repro.errors import LaunchError, ServiceError
from repro.launcher.cmdfile import ExecutableSpec
from repro.launcher.job import JobResult, MpmdJob, plan_job, rank_pool
from repro.mpi.executor import ExecRank
from repro.mpi.procbackend import ProcLaunch, RankPool
from repro.mpi.world import WorldConfig
from repro.service.jobdoc import JobDocument

__all__ = [
    "JobOutcome",
    "JobRuntime",
    "LayoutCache",
    "ResolvedJob",
    "WorkerWorld",
]


# ---------------------------------------------------------------------------
# Layout cache
# ---------------------------------------------------------------------------


class LayoutCache:
    """Precomputed handshake layouts keyed by
    :meth:`JobDocument.layout_key` — resolve once, reuse for every job
    sharing the component/processor map."""

    def __init__(self) -> None:
        self._layouts: Dict[str, PrecomputedLayout] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self, key: str, build: Callable[[], PrecomputedLayout]
    ) -> Tuple[PrecomputedLayout, bool]:
        """``(layout, was_hit)`` for *key*, building (and caching) the
        layout on a miss.  The flag is this call's own hit/miss verdict
        — callers must not infer it from the shared counters, which
        concurrent resolves of other keys advance.  Thread-safe;
        concurrent misses may both build, the first stored wins."""
        with self._lock:
            pre = self._layouts.get(key)
            if pre is not None:
                self.hits += 1
                return pre, True
            self.misses += 1
        built = build()  # outside the lock: Registry parsing is pure
        with self._lock:
            return self._layouts.setdefault(key, built), False

    def __len__(self) -> int:
        return len(self._layouts)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


@dataclass
class ResolvedJob:
    """A job document bound to this runtime: callables, ranks, config."""

    document: JobDocument
    layout_key: str
    #: One spec per executable, named after its component (not its
    #: Python function), so ``JobResult.failures()`` and process-backend
    #: labels name what a client wrote in its document.
    specs: List[ExecutableSpec]
    #: Component name → the catalog callable it runs.
    programs: Dict[str, Callable]
    #: The precomputed handshake layout every rank hands to
    #: ``Session.init`` (cache hit or fresh build).
    pre: PrecomputedLayout
    config: WorldConfig
    #: Whether :attr:`pre` came out of the layout cache.
    layout_cached: bool

    @property
    def world_size(self) -> int:
        return self.document.world_size

    def job(self, **job_kwargs) -> MpmdJob:
        """One launch of this job on the pipeline.  The launch's plan is
        the :class:`MpmdJob`'s."""
        return MpmdJob(
            self.specs,
            programs=self.programs,
            rank_policy=self.document.runtime.rank_policy,
            config=self.config,
            registry=self.pre,
            **job_kwargs,
        )


@dataclass
class JobOutcome:
    """What the runtime hands back for one executed job."""

    job_id: str
    name: str
    ok: bool
    #: Whether the job ran on a resident worker world (warm path).
    warm: bool
    elapsed: float
    #: Per-component return values in component-local rank order.
    values: Dict[str, List[Any]] = field(default_factory=dict)
    #: Every failed rank as ``(world_rank, component, exception)`` —
    #: the :meth:`~repro.launcher.job.JobResult.failures` shape.
    failures: List[Tuple[int, str, BaseException]] = field(default_factory=list)
    #: Whole-job error when the run never produced per-rank results
    #: (bootstrap death, abort, wall-clock timeout).
    error: Optional[str] = None
    #: Per-world-rank traffic counters of this job (one dict of
    #: :class:`~repro.mpi.world.TrafficStats` fields each, and beside
    #: them the rank's ``cpu_seconds`` / ``wall_seconds``), ``None`` when
    #: the job left no per-rank results — deliberately
    #: backend-dependent, so the stager keeps it out of the
    #: conformance-checked artifact.
    traffic: Optional[List[Any]] = None

    def failed_components(self) -> Tuple[str, ...]:
        """Names of components with at least one failed rank, sorted."""
        return tuple(sorted({program for _, program, _ in self.failures}))


# ---------------------------------------------------------------------------
# Resident worker worlds (the warm path)
# ---------------------------------------------------------------------------


class WorkerWorld:
    """A resident process-backend world serving jobs that share one
    layout key: a :class:`~repro.mpi.procbackend.ProcLaunch` kept open.

    Its ranks are the job's, named in *pool* (the runtime's one
    :func:`~repro.launcher.job.rank_pool`), so parked processes play them
    or they are forked into the pool, like any pooled job's.  The first
    :meth:`submit` spawns and bootstraps the world, its job riding the
    welcome frame; each later one is a frame per rank carrying the
    ``(name, env)`` meta of that job — fork, bootstrap and handshake
    layout are paid once.
    """

    #: Per-process world generation counter: successive worlds for the
    #: same layout key get distinct namespaces, so a replacement can
    #: bootstrap while its dead predecessor's close (and rendezvous
    #: sweep) is still in flight without either touching the other's
    #: segments.
    _generation = itertools.count()

    def __init__(self, resolved: ResolvedJob, pool: RankPool):
        self.layout_key = resolved.layout_key
        self.namespace = f"w{resolved.layout_key[:12]}g{next(self._generation)}"
        self._lock = threading.Lock()
        job = resolved.job(namespace=self.namespace, pool=pool)
        #: The plan the resident ranks run under; every :meth:`submit`
        #: reports against it.
        self.plan = job.plan
        ranks = job.ranks()
        if not all(isinstance(rank, ExecRank) for rank in ranks):
            raise ServiceError("a resident world's programs must be named in its pool")
        self._metas = [rank.meta for rank in ranks]
        self._launch = ProcLaunch(
            ranks, resolved.config, labels=self.plan.labels, namespace=self.namespace, pool=pool
        )

    @property
    def poisoned(self) -> bool:
        """Whether a job failed, died or timed out here: the world runs
        nothing more."""
        return self._launch.poisoned

    def submit(
        self,
        job_id: str,
        argvs: Sequence[Sequence[str]],
        env_vars: Mapping[str, str],
        timeout: float,
    ) -> JobResult:
        """Run one job on every resident rank and collect their outcomes
        against the world's plan.  Serialized — a resident world runs one
        job at a time.  A :class:`ServiceError` means no rank received
        the job (the world is poisoned or closed, or a rank exited since
        the last job); once it is sent, any failure or timeout poisons
        the world."""
        metas = [
            (name, replace(env, argv=tuple(argvs[env.exe_index]), vars=dict(env_vars)))
            for name, env in self._metas
        ]
        with self._lock:
            try:
                procs = self._launch.run(timeout, metas)
            except LaunchError as exc:
                raise ServiceError(f"job {job_id} not run on {self.namespace}: {exc}") from exc
        return JobResult(**vars(self.plan), procs=procs)

    def close(self) -> None:
        """Give the processes back to the pool — or, poisoned, retire
        them — and sweep the world's socket directory.  Waits for a job
        in flight; idempotent."""
        with self._lock:
            self._launch.close()


# ---------------------------------------------------------------------------
# The runtime
# ---------------------------------------------------------------------------


def _require_count(name: str, value: Any, minimum: int) -> None:
    """Refuse *value* for the size argument *name* unless it is an int
    (not a bool) of at least *minimum*."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ServiceError(f"{name} must be >= {minimum}, got {value}")


def _outcome(
    resolved: ResolvedJob,
    job_id: str,
    start: float,
    *,
    warm: bool,
    result: Optional[JobResult] = None,
    error: Optional[str] = None,
    traffic: Optional[List[Any]] = None,
) -> JobOutcome:
    """The one shape both execution paths report in: a launch's per-rank
    *result* grouped by component, or the *error* that left none."""
    outcome = JobOutcome(
        job_id=job_id,
        name=resolved.document.name,
        ok=False,
        warm=warm,
        elapsed=time.perf_counter() - start,
        error=error,
        traffic=traffic,
    )
    if result is not None:
        for exe_index, spec in enumerate(result.specs):
            outcome.values[spec.program] = result.by_executable(exe_index)
        outcome.failures = result.failures()
        outcome.ok = not outcome.failures
    return outcome


def _traffic(result: JobResult) -> List[Any]:
    """:attr:`JobOutcome.traffic` of a launch's per-rank *result*."""
    return [
        None
        if p.traffic is None
        else {**vars(p.traffic), "cpu_seconds": p.cpu_seconds, "wall_seconds": p.wall_seconds}
        for p in result.procs
    ]


class JobRuntime:
    """Executes validated job documents against a program catalog.

    Parameters
    ----------
    programs :
        The service's program catalog — job documents bind their
        components' ``program`` keys against it (an unknown key is a
        :class:`ServiceError` at resolve time, before anything forks).
    max_resident :
        How many resident worker worlds to keep, an int >= 0
        (LRU-evicted beyond this; 0 disables the warm path entirely).
    """

    def __init__(self, programs: Mapping[str, Callable], *, max_resident: int = 2):
        _require_count("max_resident", max_resident, 0)
        self.programs = dict(programs)
        self.layouts = LayoutCache()
        self.max_resident = max_resident
        self._resident: "OrderedDict[str, WorkerWorld]" = OrderedDict()
        self._resident_lock = threading.Lock()
        self._seq = itertools.count()
        #: The parked rank processes process-backend jobs run on —
        #: isolated ones and resident worlds alike — forked by the
        #: launches that come up short: a runtime that never runs such a
        #: job forks nothing.
        self._pool = rank_pool(self.programs)
        # A runtime dropped without close() strands no resident world: at
        # interpreter exit this runs before multiprocessing joins its
        # children, which would otherwise wait on the lingering ranks
        # for good — and, being above 10, before the pool's own
        # finalizer retires the processes the worlds give back.
        multiprocessing.util.Finalize(
            self, JobRuntime._close_resident, args=(self._resident, self._resident_lock),
            exitpriority=20,
        )
        self.stats = {
            "jobs": 0, "warm": 0, "cold": 0, "worlds_built": 0, "worlds_poisoned": 0,
            # process-backend ranks: forked into the rank pool / played
            # by a process already parked there
            "ranks_forked": 0, "ranks_reused": 0,
        }

    # -- resolution --------------------------------------------------------

    def resolve(self, document: JobDocument) -> ResolvedJob:
        """Bind *document* to callables, ranks, config, and a (possibly
        cached) precomputed handshake layout."""
        specs: List[ExecutableSpec] = []
        programs: Dict[str, Callable] = {}
        for comp in document.components:
            fn = self.programs.get(comp.program)
            if fn is None:
                raise ServiceError(
                    f"job {document.name!r}: component {comp.name!r} wants program "
                    f"{comp.program!r}, which is not in the catalog "
                    f"(available: {sorted(self.programs)})"
                )
            specs.append(ExecutableSpec(comp.name, comp.nprocs, comp.argv))
            programs[comp.name] = fn
        rt = document.runtime

        key = document.layout_key()

        def build() -> PrecomputedLayout:
            # Once per layout key: where the planner puts each program.
            decls = [
                ComponentDecl((env.program,)) for env in plan_job(specs, rt.rank_policy).envs
            ]
            return PrecomputedLayout.build(document.registry_text(), decls)

        pre, layout_cached = self.layouts.get_or_build(key, build)

        config_kwargs: Dict[str, Any] = {
            "backend": rt.backend,
            "transport": rt.transport,
        }
        if document.seeds.fault is not None:
            from repro.mpi.faults import FaultSchedule

            config_kwargs["fault_schedule"] = FaultSchedule.from_spec(document.seeds.fault)
        if document.seeds.match is not None:
            from repro.mpi.sched import MatchSchedule

            config_kwargs["match_schedule"] = MatchSchedule(seed=document.seeds.match)
        config = WorldConfig(**config_kwargs)

        return ResolvedJob(
            document=document,
            layout_key=key,
            specs=specs,
            programs=programs,
            pre=pre,
            config=config,
            layout_cached=layout_cached,
        )

    # -- execution ---------------------------------------------------------

    def execute(self, document: JobDocument, job_id: Optional[str] = None) -> JobOutcome:
        """Run one job to completion and return its outcome.

        Never raises for a *job* failure — crashed ranks, aborts, and
        timeouts all come back as a failed :class:`JobOutcome` — only
        for *caller* errors (unknown program, closed runtime)."""
        return self.execute_resolved(self.resolve(document), job_id)

    def execute_resolved(
        self,
        resolved: ResolvedJob,
        job_id: Optional[str] = None,
        *,
        log_dir: Optional[str] = None,
    ) -> JobOutcome:
        """Run an already-:meth:`resolve`-d job (the orchestrator's
        two-step path, so resolution errors surface in its ``staging``
        state instead of mid-run).  *log_dir* receives per-process log
        files when the document asked for them."""
        if job_id is None:
            job_id = f"job{next(self._seq):05d}"
        self.stats["jobs"] += 1

        if self._warm_eligible(resolved):
            outcome = self._execute_resident(resolved, job_id)
            if outcome is not None:
                return outcome
        self.stats["cold"] += 1
        return self._execute_isolated(resolved, job_id, log_dir=log_dir)

    def _warm_eligible(self, resolved: ResolvedJob) -> bool:
        rt = resolved.document.runtime
        return (
            self.max_resident > 0
            and rt.backend == "process"
            and rt.reuse_world
            # per-job artifacts (process log files) need per-job children
            and "logs" not in resolved.document.output.save
            # seeds are thread-only by document validation, so no check
        )

    @staticmethod
    def _pool_eligible(resolved: ResolvedJob) -> bool:
        """Whether an isolated job's ranks may be played by the rank
        pool's parked processes (where ranks are processes at all: a
        thread world ignores the pool).  What needs processes of its own
        says why here."""
        return (
            # a process log file is the stdio a rank is forked with; a
            # parked process keeps the one it has
            "logs" not in resolved.document.output.save
        )

    def _execute_resident(self, resolved: ResolvedJob, job_id: str) -> Optional[JobOutcome]:
        """Run on (or build) the resident world for this layout key.
        Returns ``None`` to fall back to the isolated path when the
        cached world turned out to be dead on arrival."""
        fresh = False
        evicted: List[WorkerWorld] = []
        with self._resident_lock:
            world = self._resident.get(resolved.layout_key)
            if world is not None and world.poisoned:
                evicted.append(self._resident.pop(resolved.layout_key))
                world = None
            if world is None:
                world = WorkerWorld(resolved, self._pool)
                self._resident[resolved.layout_key] = world
                self.stats["worlds_built"] += 1
                fresh = True
                while len(self._resident) > self.max_resident:
                    oldest = next(iter(self._resident))
                    evicted.append(self._resident.pop(oldest))
            else:
                self._resident.move_to_end(resolved.layout_key)
        # close() can block for a long time (an evictee mid-job holds its
        # submit lock for up to the job's timeout, then the reap) — never
        # hold the pool lock across it, or every other
        # dispatch/evict/close stalls behind this one.
        for old in evicted:
            old.close()

        argvs = [spec.argv for spec in resolved.specs]
        start = time.perf_counter()
        try:
            result = world.submit(job_id, argvs, {}, timeout=resolved.document.runtime.timeout)
        except ServiceError:
            # No rank received the job: evict and (once) retry cold.
            self._evict(resolved.layout_key, world)
            return None
        except Exception as exc:  # noqa: BLE001 - the job's, as on the isolated path
            self._evict(resolved.layout_key, world)
            self.stats["cold" if fresh else "warm"] += 1
            return _outcome(
                resolved, job_id, start, warm=not fresh, error=f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._count_pool()
        if result.failures():
            self._evict(resolved.layout_key, world)
            self.stats["worlds_poisoned"] += 1
        # Match the per-outcome warm flag: a freshly built resident world
        # paid the cold cost even though it will serve later jobs warm.
        self.stats["cold" if fresh else "warm"] += 1
        return _outcome(
            resolved, job_id, start, warm=not fresh, result=result, traffic=_traffic(result)
        )

    def _execute_isolated(
        self, resolved: ResolvedJob, job_id: str, *, log_dir: Optional[str] = None
    ) -> JobOutcome:
        """The default path: a fresh world per job, namespaced segments,
        swept on teardown by the rendezvous cleanup — on the process
        backend a message to parked processes where it can be (see
        :meth:`_pool_eligible`), forked ones where it cannot."""
        doc = resolved.document
        if "logs" not in doc.output.save:
            log_dir = None
        pool = self._pool if self._pool_eligible(resolved) else None
        job = resolved.job(namespace=job_id, log_dir=log_dir, pool=pool)
        start = time.perf_counter()
        try:
            result = job.run(timeout=doc.runtime.timeout)
        except Exception as exc:  # noqa: BLE001 - _raise_root_cause re-raises
            # the *user program's* exception type when the whole job
            # aborted, so anything can land here; a job failure must
            # come back as a failed outcome, never unwind the service.
            return _outcome(
                resolved, job_id, start, warm=False, error=f"{type(exc).__name__}: {exc}"
            )
        finally:
            if pool is not None:
                self._count_pool()
        return _outcome(resolved, job_id, start, warm=False, result=result, traffic=_traffic(result))

    def _count_pool(self) -> None:
        with self._resident_lock:
            self.stats.update(ranks_forked=self._pool.forked, ranks_reused=self._pool.reused)

    # -- lifecycle ---------------------------------------------------------

    def _evict(self, key: str, world: Optional[WorkerWorld] = None) -> None:
        """Drop a world from the resident pool and close it.

        With *world* given, only that instance leaves the pool — if a
        concurrent dispatch already replaced the slot, the replacement
        stays and the handed-in instance is closed anyway (close is
        idempotent).  The close itself always runs *outside* the pool
        lock: it can block for the length of an in-flight job plus the
        reap, and nothing else may stall behind that.
        """
        with self._resident_lock:
            current = self._resident.get(key)
            if world is None or current is world:
                self._resident.pop(key, None)
            victim = world if world is not None else current
        if victim is not None:
            victim.close()

    @staticmethod
    def _close_resident(resident: "OrderedDict[str, WorkerWorld]", lock: threading.Lock) -> None:
        with lock:
            victims = list(resident.values())
            resident.clear()
        for world in victims:
            world.close()

    def close(self) -> None:
        """Shut down every resident world and retire the rank pool's
        parked processes.  The runtime stays usable afterwards (its next
        isolated process-backend job forks again)."""
        self._close_resident(self._resident, self._resident_lock)
        self._pool.close()

    def __enter__(self) -> "JobRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
  of :class:`WorkerWorld` objects keyed by layout hash: fork +
  bootstrap + handshake are paid once, and subsequent jobs with the
  same layout are dispatched to the already-running ranks over
  multiprocessing queues (the world itself is one more
  :class:`~repro.launcher.job.MpmdJob`, its programs the resident
  loops).  This is the service's warm path — the ``service_warm``
  workload of ``benchmarks/e2e/run.py`` against ``service_cold``
  measures what it saves.  A resident world is
  **poisoned** (evicted and shut down) the moment any rank fails or a
  job times out; fault-seeded, match-seeded, and reserve-pool jobs
  never use one (seeds are thread-backend-only by document validation,
  pool ranks park in ``await_assignment`` and cannot loop).

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
import multiprocessing
import multiprocessing.util
import pickle
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.session import PrecomputedLayout
from repro.core.handshake import ComponentDecl, PoolDecl
from repro.errors import ReproError, ServiceError, TimeoutError_
from repro.launcher.cmdfile import ExecutableSpec
from repro.launcher.job import POOL_PROGRAM, JobResult, MpmdJob, plan_job, rank_pool
from repro.mpi.executor import ProcResult
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
    #: labels name what a client wrote in its document.  The reserve
    #: pool, when requested, is the final spec, under
    #: :data:`~repro.launcher.job.POOL_PROGRAM`.
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

    def job(self, wrap: Optional[Callable[[Callable], Callable]] = None, **job_kwargs) -> MpmdJob:
        """One launch of this job on the pipeline, each program passed
        through *wrap* if given.  The launch's plan is the
        :class:`MpmdJob`'s."""
        return MpmdJob(
            self.specs,
            programs={name: wrap(fn) if wrap else fn for name, fn in self.programs.items()},
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
    #: Reserve-pool rank summaries (``{"pool": "released"}`` /
    #: ``{"pool": "assigned", ...}``), empty without a pool.
    pool: List[Any] = field(default_factory=list)
    #: Every failed rank as ``(world_rank, component, exception)`` —
    #: the :meth:`~repro.launcher.job.JobResult.failures` shape.
    failures: List[Tuple[int, str, BaseException]] = field(default_factory=list)
    #: Whole-job error when the run never produced per-rank results
    #: (bootstrap death, abort, wall-clock timeout).
    error: Optional[str] = None
    #: Per-world-rank traffic counters (one dict of
    #: :class:`~repro.mpi.world.TrafficStats` fields each, and beside
    #: them the rank's ``cpu_seconds`` / ``wall_seconds``) when the path
    #: collects them (isolated runs), else ``None`` — deliberately
    #: backend-dependent, so the stager keeps it out of the
    #: conformance-checked artifact.
    traffic: Optional[List[Any]] = None

    def failed_components(self) -> Tuple[str, ...]:
        """Names of components with at least one failed rank, sorted."""
        return tuple(sorted({program for _, program, _ in self.failures}))


def _portable(obj: Any) -> Any:
    """An object safe to send across a multiprocessing queue: the object
    itself when picklable, a :class:`ServiceError` describing it when not
    (a silently-lost frame would strand the parent at its timeout)."""
    try:
        pickle.dumps(obj)
        return obj
    except Exception:  # noqa: BLE001 - anything unpicklable degrades
        if isinstance(obj, BaseException):
            return ServiceError(
                f"rank raised unpicklable {type(obj).__name__}: {obj}"
            )
        return ServiceError(f"rank returned unpicklable {type(obj).__name__}: {obj!r}")


# ---------------------------------------------------------------------------
# Resident worker worlds (the warm path)
# ---------------------------------------------------------------------------


def _resident_loop(fn: Callable, task_queues, result_q) -> Callable:
    """*fn* as a resident program: serve jobs off this rank's task queue
    until the shutdown sentinel (closures cross the fork)."""

    def loop(comm, env):
        task_q = task_queues[comm.rank]
        jobs_done = 0
        while True:
            task = task_q.get()
            if task is None:
                return jobs_done
            job_id, argvs, env_vars = task
            job_env = replace(
                env, argv=tuple(argvs[env.exe_index]), vars=dict(env_vars), output=None
            )
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                ok, value = True, fn(comm, job_env)
            except BaseException as exc:  # noqa: BLE001 - reported, poisons
                ok, value = False, exc
            # What the pipeline's rank body records per launch, per job.
            cost = (time.process_time() - cpu, time.perf_counter() - wall)
            # Per-job hygiene: every rank finishes (or fails) before any
            # reports, so a fast rank can't start the next job while a
            # slow sibling still owes this one messages.
            try:
                comm.barrier()
            except BaseException as exc:  # noqa: BLE001
                if ok:
                    ok, value = False, exc
            result_q.put((job_id, comm.rank, ok, value if ok else _portable(value), *cost))
            jobs_done += 1
            if not ok:
                # This world is compromised (mismatched messages may be
                # in flight); stop serving so the parent's poison/evict
                # is symmetric with our exit.
                return jobs_done

    return loop


class WorkerWorld:
    """A resident process-backend world serving jobs that share one
    layout key.

    Fork + socket bootstrap + MPH handshake are paid once in
    ``__init__``; each :meth:`submit` costs one task frame per rank, the
    job's own work, a barrier, and one result frame per rank.
    The world's :class:`~repro.launcher.job.MpmdJob` runs in a background
    thread with the world's *ttl* as its wall-clock budget — the hard
    backstop that reaps the children even if a job wedges the ranks
    beyond the reach of the shutdown sentinels.
    """

    #: Per-process world generation counter: successive worlds for the
    #: same layout key get distinct namespaces, so a replacement can
    #: bootstrap while its dead predecessor's close (and rendezvous
    #: sweep) is still in flight without either touching the other's
    #: segments.
    _generation = itertools.count()

    def __init__(self, resolved: ResolvedJob, *, ttl: float = 600.0):
        if resolved.document.runtime.pool:
            raise ServiceError("reserve-pool jobs cannot run on a resident world")
        self.layout_key = resolved.layout_key
        self.size = resolved.world_size
        self.namespace = f"w{resolved.layout_key[:12]}g{next(self._generation)}"
        self.poisoned = False
        self.jobs_run = 0
        self._closed = False
        self._lock = threading.Lock()
        self._thread_error: Optional[BaseException] = None

        ctx = multiprocessing.get_context("fork")
        self._task_queues = [ctx.Queue() for _ in range(self.size)]
        self._result_queue = ctx.Queue()

        job = resolved.job(
            lambda fn: _resident_loop(fn, self._task_queues, self._result_queue),
            namespace=self.namespace,
        )
        #: The plan the resident ranks run under; every :meth:`submit`
        #: reports against it.
        self.plan = job.plan

        def serve() -> None:
            try:
                job.run(timeout=ttl)
            except BaseException as exc:  # noqa: BLE001 - surfaced via submit
                self._thread_error = exc
                self.poisoned = True

        self._thread = threading.Thread(
            target=serve, daemon=True, name=f"worker-world-{self.namespace}"
        )
        self._thread.start()

    def submit(
        self,
        job_id: str,
        argvs: Sequence[Sequence[str]],
        env_vars: Mapping[str, str],
        timeout: float,
    ) -> JobResult:
        """Dispatch one job to every resident rank and collect their
        outcomes against the world's plan.  Serialized — a resident world
        runs one job at a time.  Any failure or timeout poisons the world."""
        with self._lock:
            if self.poisoned or self._closed:
                raise ServiceError(
                    f"worker world {self.namespace} is "
                    + ("closed" if self._closed else "poisoned")
                )
            task = (job_id, [tuple(a) for a in argvs], dict(env_vars))
            for q in self._task_queues:
                q.put(task)
            deadline = time.monotonic() + timeout
            got: Dict[int, ProcResult] = {}
            while len(got) < self.size:
                if self._thread_error is not None:
                    self.poisoned = True
                    raise ServiceError(
                        f"resident world {self.namespace} died: {self._thread_error}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.poisoned = True
                    raise TimeoutError_(
                        f"job {job_id} exceeded its {timeout}s budget on the "
                        f"resident world (world poisoned)"
                    )
                try:
                    jid, rank, ok, value, cpu_seconds, wall_seconds = self._result_queue.get(
                        timeout=min(0.2, remaining)
                    )
                except queue.Empty:
                    continue
                if jid != job_id:
                    continue  # stale frame from a poisoned predecessor
                got[rank] = ProcResult(
                    rank,
                    value if ok else None,
                    None if ok else value,
                    cpu_seconds=cpu_seconds,
                    wall_seconds=wall_seconds,
                )
            if any(p.exception is not None for p in got.values()):
                self.poisoned = True
            self.jobs_run += 1
            return JobResult(**vars(self.plan), procs=[got[r] for r in sorted(got)])

    def close(self, timeout: float = 10.0) -> None:
        """Send every rank its shutdown sentinel and join the serve
        thread.  Idempotent; a wedged world is abandoned to its ttl."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for q in self._task_queues:
            try:
                q.put(None)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
        self._thread.join(timeout)
        for q in self._task_queues + [self._result_queue]:
            q.close()
            q.cancel_join_thread()


# ---------------------------------------------------------------------------
# The runtime
# ---------------------------------------------------------------------------


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
            if spec.program == POOL_PROGRAM:
                outcome.pool = result.by_executable(exe_index)
            else:
                outcome.values[spec.program] = result.by_executable(exe_index)
        outcome.failures = result.failures()
        outcome.ok = not outcome.failures
    return outcome


class JobRuntime:
    """Executes validated job documents against a program catalog.

    Parameters
    ----------
    programs :
        The service's program catalog — job documents bind their
        components' ``program`` keys against it (an unknown key is a
        :class:`ServiceError` at resolve time, before anything forks).
    max_resident :
        How many resident worker worlds to keep (LRU-evicted beyond
        this; 0 disables the warm path entirely).
    resident_ttl :
        Wall-clock budget of each resident world's launch.
    """

    def __init__(
        self,
        programs: Mapping[str, Callable],
        *,
        max_resident: int = 2,
        resident_ttl: float = 600.0,
    ):
        self.programs = dict(programs)
        self.layouts = LayoutCache()
        self.max_resident = max_resident
        self.resident_ttl = resident_ttl
        self._resident: "OrderedDict[str, WorkerWorld]" = OrderedDict()
        self._resident_lock = threading.Lock()
        self._seq = itertools.count()
        #: The parked rank processes isolated process-backend jobs run
        #: on, forked by the launches that come up short: a runtime that
        #: never runs such a job forks nothing.
        self._pool = rank_pool(self.programs)
        # A runtime dropped without close() strands no resident world: at
        # interpreter exit this runs before multiprocessing joins its
        # children, which would otherwise wait on the parked ranks for
        # their world's whole ttl — and, being above 10, before the task
        # queues' own finalizers stop the threads that feed them.
        multiprocessing.util.Finalize(
            self, JobRuntime._close_resident, args=(self._resident, self._resident_lock),
            exitpriority=20,
        )
        self.stats = {
            "jobs": 0, "warm": 0, "cold": 0, "worlds_built": 0, "worlds_poisoned": 0,
            # isolated process-backend ranks: forked into the rank pool /
            # played by a process already parked there
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
        if rt.pool:
            specs.append(ExecutableSpec(POOL_PROGRAM, rt.pool))

        key = document.layout_key()

        def build() -> PrecomputedLayout:
            # Once per layout key: where the planner puts each program.
            decls = [
                PoolDecl() if env.program == POOL_PROGRAM else ComponentDecl((env.program,))
                for env in plan_job(specs, rt.rank_policy).envs
            ]
            return PrecomputedLayout.build(document.registry_text(), decls)

        pre, layout_cached = self.layouts.get_or_build(key, build)

        config_kwargs: Dict[str, Any] = {
            "backend": rt.backend,
            "transport": rt.transport,
            "nodes": rt.nodes,
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
            and rt.pool == 0
            # per-job artifacts (process log files) need per-job children
            and "logs" not in resolved.document.output.save
            # traffic counters are only collected by isolated runs
            and "traffic" not in resolved.document.output.save
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
            if world is not None and (world.poisoned or not world._thread.is_alive()):
                evicted.append(self._resident.pop(resolved.layout_key))
                world = None
            if world is None:
                world = WorkerWorld(resolved, ttl=self.resident_ttl)
                self._resident[resolved.layout_key] = world
                self.stats["worlds_built"] += 1
                fresh = True
                while len(self._resident) > self.max_resident:
                    oldest = next(iter(self._resident))
                    evicted.append(self._resident.pop(oldest))
            else:
                self._resident.move_to_end(resolved.layout_key)
        # close() can block for a long time (an evictee mid-job holds its
        # submit lock for up to the job's timeout, then the serve thread
        # join) — never hold the pool lock across it, or every other
        # dispatch/evict/close stalls behind this one.
        for old in evicted:
            old.close()

        argvs = [spec.argv for spec in resolved.specs]
        start = time.perf_counter()
        try:
            result = world.submit(job_id, argvs, {}, timeout=resolved.document.runtime.timeout)
        except ServiceError:
            # Dead/stale world: evict and (once) retry cold.
            self._evict(resolved.layout_key, world)
            return None
        except TimeoutError_ as exc:
            self._evict(resolved.layout_key, world)
            self.stats["cold" if fresh else "warm"] += 1
            return _outcome(resolved, job_id, start, warm=not fresh, error=str(exc))
        if result.failures():
            self._evict(resolved.layout_key, world)
            self.stats["worlds_poisoned"] += 1
        # Match the per-outcome warm flag: a freshly built resident world
        # paid the cold cost even though it will serve later jobs warm.
        self.stats["cold" if fresh else "warm"] += 1
        return _outcome(resolved, job_id, start, warm=not fresh, result=result)

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
                with self._resident_lock:
                    self.stats.update(ranks_forked=pool.forked, ranks_reused=pool.reused)
        traffic = [
            None
            if p.traffic is None
            else {**asdict(p.traffic), "cpu_seconds": p.cpu_seconds, "wall_seconds": p.wall_seconds}
            for p in result.procs
        ]
        return _outcome(resolved, job_id, start, warm=False, result=result, traffic=traffic)

    # -- lifecycle ---------------------------------------------------------

    def _evict(self, key: str, world: Optional[WorkerWorld] = None) -> None:
        """Drop a world from the resident pool and close it.

        With *world* given, only that instance leaves the pool — if a
        concurrent dispatch already replaced the slot, the replacement
        stays and the handed-in instance is closed anyway (close is
        idempotent).  The close itself always runs *outside* the pool
        lock: it can block for the length of an in-flight job plus the
        serve-thread join, and nothing else may stall behind that.
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

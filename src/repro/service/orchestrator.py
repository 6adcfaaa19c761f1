"""The asyncio front-end: one multiplexer admitting, queueing, and
dispatching job documents onto a bounded worker pool.

The shape is a classic service loop, not an MPI program: clients
``await submit(...)`` job documents; a bounded queue applies admission
control at the door (:class:`~repro.errors.AdmissionError` when full or
shutting down); *max_workers* asyncio workers pull jobs off the queue
and drive them through the blocking :class:`~repro.service.runtime.JobRuntime`
in ``asyncio.to_thread`` threads, so many jobs make progress
concurrently while the event loop stays free to admit, report, and
cancel.

Job lifecycle::

    submit ──► queued ──► staging ──► running ──► done
         │        │           │           └─────► failed
         │        └► cancelled│
         └──► rejected        └─────────────────► failed

* ``rejected`` — the document failed validation (the handle carries the
  :class:`~repro.errors.JobSpecError`); nothing was queued.
* ``queued`` — admitted, waiting for a worker.  Only queued jobs can be
  cancelled: a running job is real forked processes mid-collective, and
  the runtime's per-job timeout — not the front-end — bounds it.
* ``staging`` — a worker is resolving the document (program binding,
  layout cache) and preparing output.
* ``running`` — executing on a backend world.
* ``done`` / ``failed`` — outcome staged (when an output dir is
  configured); ``failed`` covers failed ranks, aborts, timeouts, and
  resolution errors.

With an output dir, a job's output files are made while it runs.  Each
worker owns one reservation thread, started by :meth:`Orchestrator.start`
and joined by :meth:`Orchestrator.shutdown`.  When the worker claims a
job it books the job's files with the stager
(:meth:`~repro.service.stager.ResultStager.reserve`) and hands the
allocation to that thread, which makes the job directory and the temp
files while the worker thread resolves and executes.  After execute,
:meth:`~repro.service.stager.ResultStager.stage` only writes the bytes
and renames each file into place.  A job that fails before staging has
its booking released: no temp file and no empty directory stay behind.

Per-job isolation is the runtime's: a crashed job poisons at most its
own world (isolated namespace or evicted resident world), so concurrent
healthy jobs are untouched — the property the chaos suite
(``tests/service/test_chaos.py``) exercises with seeded fault schedules.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import AdmissionError, JobSpecError, ServiceError
from repro.service.jobdoc import JobDocument
from repro.service.runtime import JobOutcome, JobRuntime, _require_count
from repro.service.stager import ResultStager

__all__ = ["JobHandle", "JobState", "Orchestrator"]

#: How many finished jobs an orchestrator remembers: beyond this, the
#: oldest handles in a terminal state leave :attr:`Orchestrator.jobs`
#: (a handle the client holds keeps working; only the lookup by id ends).
RETAINED_JOBS = 1024


class JobState:
    """The job lifecycle states (plain strings, comparable/printable)."""

    QUEUED = "queued"
    STAGING = "staging"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = frozenset({DONE, FAILED, REJECTED, CANCELLED})


@dataclass
class JobHandle:
    """A client's view of one submitted job."""

    job_id: str
    state: str
    document: Optional[JobDocument] = None
    outcome: Optional[JobOutcome] = None
    #: Staged output directory, when the orchestrator has a stager.
    staged: Optional[Path] = None
    #: Why the job rejected/failed (validation message, outcome error,
    #: or a summary of the failed components).
    error: Optional[str] = None
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    _cancel: bool = field(default=False, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in JobState.TERMINAL

    async def wait(self) -> "JobHandle":
        """Block until the job reaches a terminal state; returns self."""
        await self._done.wait()
        return self

    def _finish(self, state: str, error: Optional[str] = None) -> None:
        self.state = state
        if error is not None:
            self.error = error
        self._done.set()


class Orchestrator:
    """The MPH service front-end.

    Use as an async context manager::

        async with Orchestrator({"coupled": coupled}, output_dir=out) as orch:
            handles = [await orch.submit(doc) for doc in documents]
            for h in handles:
                await h.wait()

    Parameters
    ----------
    programs :
        Program catalog for a runtime the orchestrator builds and owns,
        or pass *runtime* directly (the orchestrator then closes it on
        shutdown either way).
    max_workers :
        Concurrent jobs in flight, an int >= 1 (each runs the blocking
        runtime in its own thread).
    max_queued :
        Admission bound, an int >= 1: ``submit`` raises
        :class:`AdmissionError` once this many jobs are queued and
        unclaimed.
    output_dir :
        When given, finished outcomes are staged there via
        :class:`~repro.service.stager.ResultStager`, each job's files
        reserved by its worker's reservation thread while it runs.
    max_resident :
        The built runtime's resident worlds, an int >= 0
        (:class:`~repro.service.runtime.JobRuntime`).

    A bool, a non-int or an out-of-range size is refused here with
    :class:`ServiceError`.
    """

    def __init__(
        self,
        programs: Optional[Mapping[str, Callable]] = None,
        *,
        runtime: Optional[JobRuntime] = None,
        max_workers: int = 2,
        max_queued: int = 16,
        output_dir: Optional[Union[str, Path]] = None,
        max_resident: int = 2,
    ):
        _require_count("max_workers", max_workers, 1)
        # asyncio.Queue(maxsize <= 0) is unbounded: no admission bound.
        _require_count("max_queued", max_queued, 1)
        _require_count("max_resident", max_resident, 0)
        if runtime is None:
            if programs is None:
                raise ServiceError("Orchestrator needs `programs` or a `runtime`")
            runtime = JobRuntime(programs, max_resident=max_resident)
        self.runtime = runtime
        self.stager = ResultStager(output_dir) if output_dir is not None else None
        self.max_workers = max_workers
        self.max_queued = max_queued
        #: ``job_id -> handle`` of every job not yet finished and of the
        #: last :data:`RETAINED_JOBS` or so that are, oldest first.
        self.jobs: Dict[str, JobHandle] = {}
        #: Terminal state -> how many handles in it were evicted.
        self._evicted: Dict[str, int] = {}
        self._seq = itertools.count()
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        #: One reservation thread per worker (with an output dir only),
        #: each fed allocations through its own queue.
        self._reservers: List[Tuple[threading.Thread, queue.SimpleQueue]] = []
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "Orchestrator":
        """Open the submission queue and spawn the worker pool."""
        if self._queue is not None:
            raise ServiceError("orchestrator already started")
        self._queue = asyncio.Queue(maxsize=self.max_queued)
        feeds: List[Optional[queue.SimpleQueue]] = [
            queue.SimpleQueue() if self.stager is not None else None
            for _ in range(self.max_workers)
        ]
        for i, allocations in enumerate(feeds):
            if allocations is not None:
                thread = threading.Thread(
                    target=_reserve_loop, args=(allocations,),
                    name=f"mph-service-reserve-{i}", daemon=True,
                )
                thread.start()
                self._reservers.append((thread, allocations))
        self._workers = [
            asyncio.create_task(self._worker(allocations), name=f"mph-service-worker-{i}")
            for i, allocations in enumerate(feeds)
        ]
        return self

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop admitting, finish (or cancel) the backlog, close worlds.

        With ``drain=True`` queued jobs run to completion first; with
        ``drain=False`` they finish as ``cancelled`` and only in-flight
        jobs complete.
        """
        if self._queue is None:
            return
        self._closing = True
        if not drain:
            for handle in self.jobs.values():
                if handle.state == JobState.QUEUED:
                    handle._cancel = True
        for _ in self._workers:
            await self._queue.put(None)
        await asyncio.gather(*self._workers)
        self._workers = []
        self._queue = None
        for _, allocations in self._reservers:
            allocations.put(None)
        await asyncio.to_thread(self._close)

    def _close(self) -> None:
        for thread, _ in self._reservers:
            thread.join()
        self._reservers = []
        self.runtime.close()

    async def __aenter__(self) -> "Orchestrator":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    # -- the client API ----------------------------------------------------

    async def submit(self, job: Union[JobDocument, Mapping, str]) -> JobHandle:
        """Validate and admit one job; returns its handle immediately.

        A document that fails validation comes back as a ``rejected``
        handle (already terminal, carrying the
        :class:`~repro.errors.JobSpecError` text) — the submission
        itself does not raise, so a client sweeping a corpus can submit
        blind and sort the outcomes afterwards.  Admission refusal
        (queue full, shutting down, not started) **does** raise
        :class:`~repro.errors.AdmissionError`: nothing was recorded.
        """
        if self._queue is None or self._closing:
            raise AdmissionError(
                "the orchestrator is " + ("shutting down" if self._closing else "not started")
            )
        job_id = f"job{next(self._seq):05d}"
        handle = JobHandle(job_id=job_id, state=JobState.QUEUED)
        try:
            handle.document = self._coerce(job)
        except JobSpecError as exc:
            handle._finish(JobState.REJECTED, str(exc))
            self._remember(handle)
            return handle
        try:
            self._queue.put_nowait(handle)
        except asyncio.QueueFull:
            raise AdmissionError(
                f"submission queue is full ({self.max_queued} jobs queued); retry later"
            ) from None
        self._remember(handle)
        return handle

    def _remember(self, handle: JobHandle) -> None:
        """Record *handle* under its id, forgetting the oldest finished
        jobs beyond the retention (unfinished ones are bounded by the
        queue and the workers, and never forgotten)."""
        self.jobs[handle.job_id] = handle
        while len(self.jobs) > RETAINED_JOBS:
            oldest = next((h for h in self.jobs.values() if h.finished), None)
            if oldest is None:
                break
            del self.jobs[oldest.job_id]
            self._evicted[oldest.state] = self._evicted.get(oldest.state, 0) + 1

    @staticmethod
    def _coerce(job: Union[JobDocument, Mapping, str]) -> JobDocument:
        if isinstance(job, JobDocument):
            return job
        if isinstance(job, str):
            return JobDocument.from_json(job)
        return JobDocument.from_spec(job)

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``True`` when it will not run.  A job
        already claimed by a worker (or terminal) returns ``False`` —
        running worlds are bounded by the document's own timeout."""
        handle = self.jobs.get(job_id)
        if handle is None or handle.state != JobState.QUEUED:
            return False
        handle._cancel = True
        return True

    def handle(self, job_id: str) -> JobHandle:
        """The handle of a previously submitted job id (unknown once the
        job has finished and :data:`RETAINED_JOBS` later ones have)."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}") from None

    # -- the worker loop ---------------------------------------------------

    async def _worker(self, allocations: Optional[queue.SimpleQueue]) -> None:
        assert self._queue is not None
        while True:
            handle = await self._queue.get()
            if handle is None:
                return
            if handle._cancel:
                handle._finish(JobState.CANCELLED, "cancelled while queued")
                continue
            await self._run_one(handle, allocations)

    async def _run_one(
        self, handle: JobHandle, allocations: Optional[queue.SimpleQueue]
    ) -> None:
        handle.state = JobState.STAGING
        if allocations is not None:
            assert self.stager is not None and handle.document is not None
            allocations.put(self.stager.reserve(handle.job_id, handle.document))
        handle._finish(*await asyncio.to_thread(self._drive, handle))

    def _drive(self, handle: JobHandle) -> Tuple[str, Optional[str]]:
        """One job from document to staged outcome, in the one worker
        thread it costs: resolve, execute, stage, moving ``handle.state``
        along, then dropping the job's output booking if staging did
        not take it.  Returns the terminal ``(state, error)`` for the
        event loop to finish the handle with (an ``asyncio.Event`` is
        the loop's to set)."""
        try:
            return self._drive_job(handle)
        finally:
            if self.stager is not None:
                self.stager.release(handle.job_id)

    def _drive_job(self, handle: JobHandle) -> Tuple[str, Optional[str]]:
        assert handle.document is not None
        try:
            resolved = self.runtime.resolve(handle.document)
        except Exception as exc:  # noqa: BLE001 - a bad job must not kill a worker
            return JobState.FAILED, f"{type(exc).__name__}: {exc}"

        log_dir = None
        if self.stager is not None and "logs" in handle.document.output.save:
            log_dir = str(self.stager.job_dir(handle.job_id) / "logs")

        handle.state = JobState.RUNNING
        try:
            outcome = self.runtime.execute_resolved(resolved, handle.job_id, log_dir=log_dir)
        except Exception as exc:  # noqa: BLE001
            # execute_resolved converts job failures itself; reaching
            # here means a runtime-level error — still the job's
            # problem, never the worker's.
            return JobState.FAILED, f"{type(exc).__name__}: {exc}"
        handle.outcome = outcome

        if self.stager is not None:
            try:
                handle.staged = self.stager.stage(outcome, handle.document)
            except Exception as exc:  # noqa: BLE001
                return JobState.FAILED, f"staging failed: {exc}"

        if outcome.ok:
            return JobState.DONE, None
        return JobState.FAILED, outcome.error or (
            "failed components: " + ", ".join(outcome.failed_components())
        )

    # -- introspection -----------------------------------------------------

    def states(self) -> Dict[str, str]:
        """``job_id -> state`` for every job this orchestrator still
        remembers (:attr:`jobs`: all unfinished ones, and the most
        recent :data:`RETAINED_JOBS` or so that finished)."""
        return {job_id: h.state for job_id, h in self.jobs.items()}

    def counts(self) -> Dict[str, int]:
        """How many jobs are in each state, over every job ever
        submitted: forgotten ones stay counted."""
        out = dict(self._evicted)
        for h in self.jobs.values():
            out[h.state] = out.get(h.state, 0) + 1
        return out


def _reserve_loop(allocations: queue.SimpleQueue) -> None:
    """A reservation thread: run each booked allocation until ``None``."""
    while (allocate := allocations.get()) is not None:
        allocate()

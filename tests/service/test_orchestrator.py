"""Front-end behavior: admission control, the job lifecycle, cancellation,
warm-path accounting, and staging guarantees.

Complements the conformance and chaos suites: here the subject is the
service loop itself — what ``submit`` promises, which states a handle
can reach, and how the runtime's resident worlds and layout cache are
accounted — not the computed results.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.errors import AdmissionError, ServiceError
from repro.service import (
    JobDocument,
    JobRuntime,
    JobState,
    LayoutCache,
    Orchestrator,
    ResultStager,
)

from tests.service.conftest import PROGRAMS, coupled_doc


def _solo_spec(name="solo-job", **runtime) -> dict:
    runtime.setdefault("backend", "thread")
    return {
        "name": name,
        "components": [{"name": "solo", "nprocs": 1}],
        "runtime": runtime,
    }


def _sleep_spec(seconds: float) -> dict:
    return {
        "name": "sleepy",
        "components": [
            {"name": "sleeper", "nprocs": 1, "argv": ["--seconds", str(seconds)]}
        ],
        "runtime": {"backend": "thread", "timeout": 30.0},
    }


def _run(coro):
    return asyncio.run(coro)


class TestSubmission:
    def test_invalid_document_rejects_without_raising(self):
        async def go():
            async with Orchestrator(PROGRAMS) as orch:
                handle = await orch.submit({"components": [], "nope": 1})
                return handle

        handle = _run(go())
        assert handle.state == JobState.REJECTED
        assert handle.finished
        assert handle.error and handle.error.startswith("$")
        assert handle.outcome is None

    def test_unknown_program_fails_in_staging(self):
        async def go():
            async with Orchestrator(PROGRAMS) as orch:
                spec = _solo_spec()
                spec["components"][0]["program"] = "nonexistent"
                handle = await orch.submit(spec)
                return await handle.wait()

        handle = _run(go())
        assert handle.state == JobState.FAILED
        assert "nonexistent" in handle.error and "catalog" in handle.error

    def test_submit_accepts_document_mapping_and_json(self):
        async def go():
            async with Orchestrator(PROGRAMS) as orch:
                doc = JobDocument.from_spec(_solo_spec())
                handles = [
                    await orch.submit(doc),
                    await orch.submit(_solo_spec()),
                    await orch.submit(doc.canonical_json()),
                ]
                return [await h.wait() for h in handles]

        handles = _run(go())
        assert [h.state for h in handles] == [JobState.DONE] * 3
        assert len({h.job_id for h in handles}) == 3

    def test_submit_before_start_and_after_shutdown_raise(self):
        async def go():
            orch = Orchestrator(PROGRAMS)
            with pytest.raises(AdmissionError, match="not started"):
                await orch.submit(_solo_spec())
            await orch.start()
            handle = await orch.submit(_solo_spec())
            await handle.wait()
            await orch.shutdown()
            with pytest.raises(AdmissionError):
                await orch.submit(_solo_spec())
            return handle

        assert _run(go()).state == JobState.DONE

    def test_queue_full_raises_admission_error(self):
        async def go():
            async with Orchestrator(PROGRAMS, max_workers=1, max_queued=1) as orch:
                gate = await orch.submit(_sleep_spec(1.0))
                # Wait for the single worker to claim the sleeper off
                # the queue, so exactly one queue slot is free.
                while gate.state == JobState.QUEUED:
                    await asyncio.sleep(0.01)
                queued = await orch.submit(_solo_spec("fills-the-queue"))
                with pytest.raises(AdmissionError, match="full"):
                    await orch.submit(_solo_spec("bounced"))
                await gate.wait()
                await queued.wait()
                return gate, queued, orch.counts()

        gate, queued, counts = _run(go())
        assert gate.state == JobState.DONE
        assert queued.state == JobState.DONE
        assert counts == {JobState.DONE: 2}


class TestCancellation:
    def test_cancel_queued_job(self):
        async def go():
            async with Orchestrator(PROGRAMS, max_workers=1) as orch:
                gate = await orch.submit(_sleep_spec(0.8))
                while gate.state == JobState.QUEUED:
                    await asyncio.sleep(0.01)
                victim = await orch.submit(_solo_spec("to-cancel"))
                assert await orch.cancel(victim.job_id) is True
                # Cancelling a claimed/running job refuses.
                assert await orch.cancel(gate.job_id) is False
                assert await orch.cancel("job99999") is False
                await gate.wait()
                await victim.wait()
                return gate, victim

        gate, victim = _run(go())
        assert gate.state == JobState.DONE
        assert victim.state == JobState.CANCELLED
        assert victim.outcome is None

    def test_shutdown_without_drain_cancels_backlog(self):
        async def go():
            orch = await Orchestrator(PROGRAMS, max_workers=1).start()
            gate = await orch.submit(_sleep_spec(0.5))
            while gate.state == JobState.QUEUED:
                await asyncio.sleep(0.01)
            backlog = [await orch.submit(_solo_spec(f"backlog-{i}")) for i in range(3)]
            await orch.shutdown(drain=False)
            return gate, backlog

        gate, backlog = _run(go())
        assert gate.state == JobState.DONE  # in flight: runs to completion
        assert all(h.state == JobState.CANCELLED for h in backlog)


class TestWarmPath:
    def test_resident_world_reuse_is_accounted(self):
        runtime = JobRuntime(PROGRAMS, max_resident=2)
        doc = JobDocument.from_spec(_solo_spec(backend="process", timeout=60.0))
        with runtime:
            outcomes = [runtime.execute(doc, f"warm-{i}") for i in range(3)]
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert [o.warm for o in outcomes] == [False, True, True]
        assert runtime.stats["worlds_built"] == 1
        # The counters match the per-outcome warm flag: the first job
        # paid the world build (cold), the next two rode it warm.
        assert runtime.stats["warm"] == 2 and runtime.stats["cold"] == 1
        assert runtime.layouts.misses == 1 and runtime.layouts.hits == 2

    def test_opt_out_reuse_world_stays_cold(self):
        runtime = JobRuntime(PROGRAMS, max_resident=2)
        doc = JobDocument.from_spec(
            _solo_spec(backend="process", timeout=60.0, reuse_world=False)
        )
        with runtime:
            outcomes = [runtime.execute(doc, f"cold-{i}") for i in range(2)]
        assert all(o.ok and not o.warm for o in outcomes)
        assert runtime.stats["worlds_built"] == 0
        assert runtime.stats["cold"] == 2

    def test_traffic_request_forces_isolated_path(self):
        """A resident world never collects wire counters, so an explicit
        ``"traffic"`` request must route to the isolated path instead of
        silently staging without traffic.json."""
        runtime = JobRuntime(PROGRAMS, max_resident=2)
        spec = _solo_spec(backend="process", timeout=60.0)
        spec["output"] = {"save": ["values", "traffic"]}
        doc = JobDocument.from_spec(spec)
        with runtime:
            outcome = runtime.execute(doc, "traffic-iso")
        assert outcome.ok and not outcome.warm
        assert outcome.traffic is not None
        assert runtime.stats["worlds_built"] == 0

    def test_max_resident_zero_disables_the_warm_path(self):
        runtime = JobRuntime(PROGRAMS, max_resident=0)
        doc = JobDocument.from_spec(_solo_spec(backend="process", timeout=60.0))
        with runtime:
            outcome = runtime.execute(doc, "no-warm")
        assert outcome.ok and not outcome.warm
        assert runtime.stats["worlds_built"] == 0

    def test_lru_eviction_beyond_max_resident(self):
        runtime = JobRuntime(PROGRAMS, max_resident=1)
        small = JobDocument.from_spec(_solo_spec(backend="process", timeout=60.0))
        big = JobDocument.from_spec(
            {
                "name": "bigger",
                "components": [{"name": "solo", "nprocs": 2}],
                "runtime": {"backend": "process", "timeout": 60.0},
            }
        )
        with runtime:
            assert runtime.execute(small, "lru-a").ok
            assert runtime.execute(big, "lru-b").ok  # evicts small's world
            assert runtime.execute(small, "lru-c").ok  # rebuilt
        assert runtime.stats["worlds_built"] == 3
        assert len(runtime._resident) <= 1


class TestLayoutCache:
    def test_get_or_build_reports_per_call_verdict(self):
        """The hit flag is this call's own, not inferred from the shared
        counters (which concurrent resolves of other keys advance)."""
        cache = LayoutCache()
        sentinel = object()
        layout, hit = cache.get_or_build("k", lambda: sentinel)
        assert layout is sentinel and hit is False
        layout, hit = cache.get_or_build("k", lambda: object())
        assert layout is sentinel and hit is True
        assert (cache.hits, cache.misses) == (1, 1)


class TestStaging:
    def test_staged_layout_and_atomicity(self, tmp_path):
        async def go():
            async with Orchestrator(
                PROGRAMS, output_dir=tmp_path, max_workers=1
            ) as orch:
                spec = _solo_spec()
                spec["output"] = {"save": ["values", "document"]}
                handle = await orch.submit(spec)
                return await handle.wait()

        handle = _run(go())
        assert handle.state == JobState.DONE
        files = sorted(p.name for p in handle.staged.iterdir())
        assert files == ["document.json", "meta.json", "result.json"]
        assert not [p for p in handle.staged.iterdir() if p.name.endswith(".tmp")]

    def test_logs_job_stages_into_precreated_dir(self, tmp_path):
        """Regression: a ``"logs"`` job streams per-process log files
        into ``<job_id>/logs/`` *while running*, so the job directory
        already exists when the outcome reaches the stager — staging
        must tolerate that instead of failing the (successful) job."""

        async def go():
            async with Orchestrator(
                PROGRAMS, output_dir=tmp_path, max_workers=1
            ) as orch:
                spec = _solo_spec("logs-job", backend="process", timeout=60.0)
                spec["output"] = {"save": ["values", "logs"]}
                handle = await orch.submit(spec)
                return await handle.wait()

        handle = _run(go())
        assert handle.state == JobState.DONE, handle.error
        assert (handle.staged / "result.json").exists()
        assert list((handle.staged / "logs").iterdir())

    def test_duplicate_job_id_refuses_to_overwrite(self, tmp_path):
        runtime = JobRuntime(PROGRAMS, max_resident=0)
        stager = ResultStager(tmp_path)
        doc = JobDocument.from_spec(_solo_spec())
        outcome = runtime.execute(doc, "dup")
        stager.stage(outcome, doc)
        with pytest.raises(ServiceError, match="already staged"):
            stager.stage(outcome, doc)
        assert stager.read_result("dup")["ok"] is True

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_traffic_is_staged_as_json_objects(self, tmp_path, backend):
        """Every launch returns its traffic: ``traffic.json`` is one
        object of counters per world rank on either backend (it was
        ``[null, null]`` on threads and a list of ``repr`` strings on
        processes)."""
        spec = coupled_doc(backend)
        spec["output"] = {"save": ["values", "traffic"]}
        doc = JobDocument.from_spec(spec)
        with JobRuntime(PROGRAMS) as runtime:
            outcome = runtime.execute(doc, "traffic-json")
        assert outcome.ok
        staged = ResultStager(tmp_path).stage(outcome, doc)
        traffic = json.loads((staged / "traffic.json").read_text())
        assert len(traffic) == doc.world_size
        for rank in traffic:
            assert isinstance(rank, dict) and rank["messages"] > 0 and rank["payload_bytes"] > 0

    def test_failed_job_still_stages(self, tmp_path):
        async def go():
            async with Orchestrator(PROGRAMS, output_dir=tmp_path) as orch:
                spec = {
                    "name": "boom-staged",
                    "components": [
                        {"name": "crasher", "nprocs": 1, "argv": ["--boom"]}
                    ],
                    "runtime": {"backend": "thread", "timeout": 30.0},
                }
                handle = await orch.submit(spec)
                return await handle.wait()

        handle = _run(go())
        assert handle.state == JobState.FAILED
        # The failed outcome is still a staged, readable artifact.
        result = ResultStager(handle.staged.parent).read_result(handle.job_id)
        assert result["ok"] is False


class TestConcurrencyIsolation:
    def test_concurrent_jobs_are_independent(self):
        """Many concurrent thread-backend jobs through a wide worker
        pool: results must be each job's own (no cross-talk between
        per-job worlds)."""

        async def go():
            async with Orchestrator(PROGRAMS, max_workers=4, max_queued=32) as orch:
                handles = []
                for i in range(8):
                    spec = _solo_spec(f"iso-{i}")
                    spec["components"][0]["argv"] = ["--job", str(i)]
                    handles.append(await orch.submit(spec))
                return [await h.wait() for h in handles]

        handles = _run(go())
        for i, handle in enumerate(handles):
            assert handle.state == JobState.DONE, (handle.state, handle.error)
            assert handle.outcome.values["solo"][0]["argv"] == ["--job", str(i)]

    def test_blocking_runtime_runs_off_the_event_loop(self):
        """While a job runs in a worker thread, the event loop stays
        responsive (submit/introspect don't block behind it)."""

        async def go():
            async with Orchestrator(PROGRAMS, max_workers=1) as orch:
                gate = await orch.submit(_sleep_spec(0.6))
                ticks = 0
                while gate.state != JobState.DONE:
                    orch.counts()  # event loop is alive and serving
                    ticks += 1
                    await asyncio.sleep(0.02)
                return ticks

        assert _run(go()) >= 5


def test_runtime_usable_from_plain_threads():
    """The runtime (not the asyncio front-end) is thread-safe for
    concurrent execute calls — what the orchestrator's to_thread workers
    rely on."""
    runtime = JobRuntime(PROGRAMS, max_resident=0)
    doc = JobDocument.from_spec(_solo_spec())
    results = {}

    def work(tag):
        results[tag] = runtime.execute(doc, f"thread-{tag}")

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert len(results) == 4 and all(o.ok for o in results.values())

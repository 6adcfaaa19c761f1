"""Front-end behavior: admission control, the job lifecycle, cancellation,
warm-path accounting, and staging guarantees.

Complements the conformance and chaos suites: here the subject is the
service loop itself — what ``submit`` promises, which states a handle
can reach, and how the runtime's resident worlds and layout cache are
accounted — not the computed results.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import components_setup
from repro.errors import AdmissionError, ChildExitError, ServiceError
from repro.service import (
    JobDocument,
    JobRuntime,
    JobState,
    LayoutCache,
    Orchestrator,
    ResultStager,
)

from tests.service.conftest import PROGRAMS, coupled_doc


def dier(comm, env):
    """Appends its component's name to the file ``argv[0]`` names, one
    line per rank and execution; world rank 1 then exits without a word
    when ``--die`` is given."""
    components_setup(comm, env.program, env=env)
    with open(env.argv[0], "a") as log:
        log.write(env.program + "\n")
    if "--die" in env.argv and comm.rank == 1:
        os._exit(3)
    return env.program


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

    @pytest.mark.parametrize("max_queued", [0, -1])
    def test_unbounded_queue_refused(self, max_queued):
        """Parent commit: asyncio.Queue(maxsize <= 0) is unbounded, so
        every submission was admitted."""
        with pytest.raises(ServiceError, match="max_queued must be >= 1"):
            Orchestrator(PROGRAMS, max_queued=max_queued)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_workers", 1.5),
            ("max_workers", float("nan")),
            ("max_workers", True),
            ("max_queued", 2.5),
            ("max_queued", float("nan")),
            ("max_queued", True),
            ("max_resident", -1),
            ("max_resident", 1.5),
            ("max_resident", True),
        ],
    )
    def test_size_arguments_are_refused_at_construction(self, name, value):
        """Before, a float or NaN ``max_workers`` raised an untyped
        ``TypeError`` from ``start()``, and the other values were taken
        as they came."""
        with pytest.raises(ServiceError, match=f"{name} must be"):
            Orchestrator(PROGRAMS, **{name: value})

    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_runtime_refuses_a_bad_max_resident(self, value):
        with pytest.raises(ServiceError, match="max_resident must be"):
            JobRuntime(PROGRAMS, max_resident=value)


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

    def test_a_traffic_request_rides_the_resident_world(self, tmp_path):
        """A resident world's result frames carry each job's own
        counters, so an explicit ``"traffic"`` request stays warm and two
        identical jobs stage the same message counts."""
        spec = coupled_doc("process")
        spec["output"] = {"save": ["values", "traffic"]}
        doc = JobDocument.from_spec(spec)
        stager = ResultStager(tmp_path)
        with JobRuntime(PROGRAMS, max_resident=2) as runtime:
            outcomes = [runtime.execute(doc, f"traffic-{i}") for i in range(2)]
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert [o.warm for o in outcomes] == [False, True]
        assert runtime.stats["worlds_built"] == 1
        staged = [
            json.loads((stager.stage(o, doc) / "traffic.json").read_text()) for o in outcomes
        ]
        messages = [[rank["messages"] for rank in ranks] for ranks in staged]
        assert messages[0] == messages[1] and sum(messages[0]) > 0

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

    def test_an_evicted_clean_world_parks_its_processes(self):
        """A clean resident world gives its processes back to the pool
        when it is evicted: the next isolated job is played by them."""
        runtime = JobRuntime(PROGRAMS, max_resident=1)
        big = _solo_spec("big", backend="process", timeout=60.0)
        big["components"][0]["nprocs"] = 2
        small = _solo_spec(backend="process", timeout=60.0)
        isolated = dict(big, runtime=dict(big["runtime"], reuse_world=False))
        with runtime:
            assert runtime.execute(JobDocument.from_spec(big), "park-a").ok
            assert runtime.execute(JobDocument.from_spec(small), "park-b").ok  # evicts big's
            reused = runtime.stats["ranks_reused"]
            outcome = runtime.execute(JobDocument.from_spec(isolated), "park-c")
            assert outcome.ok and not outcome.warm, outcome.error
            assert runtime.stats["ranks_reused"] > reused
        assert runtime.stats["worlds_built"] == 2 and runtime.stats["worlds_poisoned"] == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("clean_jobs", [0, 1], ids=["first-job", "later-job"])
    def test_a_silent_death_fails_its_job_once(self, tmp_path, clean_jobs):
        """A rank that exits without a word fails the job it was running
        — once, with the dead component named, whether the world was
        built for that job or ran others first — and the next job of the
        layout gets a fresh world."""
        log = tmp_path / "executions"

        def spec(*argv):
            return {
                "name": "silent",
                "components": [{"name": "atm", "nprocs": 2, "program": "dier",
                                "argv": [str(log), *argv]}],
                "runtime": {"backend": "process", "timeout": 60.0},
            }

        with JobRuntime({"dier": dier}, max_resident=2) as runtime:
            for i in range(clean_jobs):
                assert runtime.execute(JobDocument.from_spec(spec()), f"clean-{i}").ok
            died = runtime.execute(JobDocument.from_spec(spec("--die")), "silent")
            # one line per rank and execution: this job ran once
            assert log.read_text().splitlines() == ["atm", "atm"] * (clean_jobs + 1)
            assert not died.ok and died.warm == bool(clean_jobs)
            assert [(rank, component, type(exc)) for rank, component, exc in died.failures] == [
                (1, "atm", ChildExitError)
            ]
            again = runtime.execute(JobDocument.from_spec(spec()), "again")
            assert again.ok, (again.error, again.failures)
        assert runtime.stats["worlds_built"] == 2


UNCLOSED = """
    from repro.service import JobDocument, JobRuntime
    from tests.service.conftest import PROGRAMS

    runtime = JobRuntime(PROGRAMS)
    doc = JobDocument.from_spec({
        "name": "unclosed",
        "components": [{"name": "solo", "nprocs": 2}],
        "runtime": {"backend": "process", "timeout": 60.0},
    })
    outcome = runtime.execute(doc, "unclosed-0")
    assert outcome.ok and not outcome.warm and len(runtime._resident) == 1, outcome.error
    print("served")
"""


class TestUnclosedRuntime:
    def test_a_runtime_never_closed_lets_the_interpreter_exit(self, short_tmp):
        """A resident world's ranks wait between jobs on their
        rendezvous connection, with no timeout; left to multiprocessing's
        exit handler they would be joined for good, and killing the
        process then strands their sockdirs.  The runtime's exit
        finalizer closes its resident worlds first, which gives their
        ranks back to the pool, whose own finalizer retires them."""
        root = Path(__file__).resolve().parents[2]
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            TMPDIR=str(short_tmp),
            PYTHONPATH=os.pathsep.join(
                [str(root / "src"), str(root)] + ([inherited] if inherited else [])
            ),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(UNCLOSED)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=root, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the parked ranks too
            proc.communicate()
            pytest.fail("the interpreter did not exit within 30 s of its last statement")
        assert proc.returncode == 0 and stdout.strip() == "served", stderr
        assert [p.name for p in short_tmp.iterdir() if p.name.startswith("repro-mpi-")] == []


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


def _leftovers(out_dir: Path) -> list:
    """Reservation temp files anywhere under *out_dir*, and job
    directories with nothing in them."""
    empty = [p for p in out_dir.iterdir() if p.is_dir() and not any(p.iterdir())]
    return list(out_dir.rglob(".*.tmp")) + empty


class TestReservation:
    """A job's directory and temp files are made while it runs; after
    execute, staging only writes and renames."""

    def test_output_files_exist_while_the_job_executes(self, tmp_path):
        seen = {}

        async def go():
            runtime = JobRuntime(PROGRAMS, max_resident=0)
            execute = runtime.execute_resolved

            def watching(resolved, job_id=None, *, log_dir=None):
                job_dir = tmp_path / job_id
                reserved = [job_dir / ".result.json.tmp", job_dir / ".meta.json.tmp"]
                deadline = time.monotonic() + 10.0
                while not all(p.exists() for p in reserved) and time.monotonic() < deadline:
                    time.sleep(0.001)
                seen[job_id] = sorted(p.name for p in job_dir.iterdir()) if job_dir.exists() else []
                return execute(resolved, job_id, log_dir=log_dir)

            runtime.execute_resolved = watching
            async with Orchestrator(runtime=runtime, output_dir=tmp_path, max_workers=1) as orch:
                return await (await orch.submit(_solo_spec())).wait()

        handle = _run(go())
        assert seen == {handle.job_id: [".meta.json.tmp", ".result.json.tmp"]}
        assert handle.state == JobState.DONE
        assert sorted(p.name for p in handle.staged.iterdir()) == ["meta.json", "result.json"]

    def test_failed_jobs_leave_no_temp_file_and_no_empty_directory(self, tmp_path):
        async def go():
            runtime = JobRuntime(PROGRAMS, max_resident=0)
            async with Orchestrator(runtime=runtime, output_dir=tmp_path, max_workers=1) as orch:
                unknown = _solo_spec("no-such-program")
                unknown["components"][0]["program"] = "missing"
                failed = [await (await orch.submit(unknown)).wait()]

                def broken(resolved, job_id=None, *, log_dir=None):
                    raise RuntimeError("runtime fell over")

                execute, runtime.execute_resolved = runtime.execute_resolved, broken
                failed.append(await (await orch.submit(_solo_spec())).wait())
                runtime.execute_resolved = execute

                def full_disk(outcome, document):
                    raise OSError("disk full")

                orch.stager.stage = full_disk
                failed.append(await (await orch.submit(_solo_spec())).wait())
            return failed

        failed = _run(go())
        assert [h.state for h in failed] == [JobState.FAILED] * 3
        assert list(tmp_path.iterdir()) == []  # no job directory, so no temp file either

    def test_a_fill_that_fails_midway_keeps_what_it_published(self, tmp_path):
        """``result.pkl`` cannot pickle a lambda: ``result.json`` is
        already published by then and stays, as before; the unfilled
        temp files go."""

        async def go():
            runtime = JobRuntime(PROGRAMS, max_resident=0)
            execute = runtime.execute_resolved

            def unpicklable(resolved, job_id=None, *, log_dir=None):
                outcome = execute(resolved, job_id, log_dir=log_dir)
                return dataclasses.replace(outcome, values={"solo": [lambda: 0]})

            runtime.execute_resolved = unpicklable
            async with Orchestrator(runtime=runtime, output_dir=tmp_path, max_workers=1) as orch:
                spec = _solo_spec()
                spec["output"] = {"save": ["values"], "format": "pickle"}
                return await (await orch.submit(spec)).wait()

        handle = _run(go())
        assert handle.state == JobState.FAILED and handle.error.startswith("staging failed:")
        assert _leftovers(tmp_path) == []
        assert [p.name for p in (tmp_path / handle.job_id).iterdir()] == ["result.json"]

    def test_a_logs_job_keeps_its_directory(self, tmp_path):
        """The reservation of a job whose directory already exists (a
        ``"logs"`` job's) neither fails nor removes it when released."""
        spec = _solo_spec(backend="process", timeout=60.0)
        document = JobDocument.from_spec(dict(spec, output={"save": ["values", "logs"]}))
        logs = tmp_path / "logged" / "logs"
        logs.mkdir(parents=True)
        (logs / "rank0.log").write_text("hello\n")
        stager = ResultStager(tmp_path)
        stager.reserve("logged", document)()
        stager.release("logged")
        assert sorted(p.name for p in (tmp_path / "logged").iterdir()) == ["logs"]

        with JobRuntime(PROGRAMS, max_resident=0) as runtime:
            outcome = runtime.execute(document, "logged")
        stager.reserve("logged", document)()
        staged = stager.stage(outcome, document)
        assert sorted(p.name for p in staged.iterdir()) == ["logs", "meta.json", "result.json"]
        assert (logs / "rank0.log").read_text() == "hello\n"

    def test_a_restaged_job_id_still_fails_its_job(self, tmp_path):
        async def one_job():
            async with Orchestrator(PROGRAMS, output_dir=tmp_path, max_workers=1) as orch:
                return await (await orch.submit(_solo_spec())).wait()

        first = _run(one_job())
        staged = (first.staged / "result.json").read_bytes()
        again = _run(one_job())  # a new orchestrator numbers its jobs from job00000 again
        assert first.job_id == again.job_id and first.state == JobState.DONE
        assert again.state == JobState.FAILED
        assert again.error.startswith(f"staging failed: job {again.job_id!r} already staged")
        assert (first.staged / "result.json").read_bytes() == staged
        assert _leftovers(tmp_path) == []

    def test_one_reservation_thread_per_worker_none_after_shutdown(self, tmp_path):
        def reservers():
            return [t for t in threading.enumerate() if t.name.startswith("mph-service-reserve-")]

        async def go():
            async with Orchestrator(PROGRAMS, output_dir=tmp_path, max_workers=3) as orch:
                during = len(reservers())
                handles = [await orch.submit(_solo_spec(f"r-{i}")) for i in range(6)]
                for handle in handles:
                    await handle.wait()
            return during, handles

        during, handles = _run(go())
        assert during == 3
        assert all(h.state == JobState.DONE for h in handles)
        assert reservers() == []

        async def no_output():
            async with Orchestrator(PROGRAMS, max_workers=2):
                return len(reservers())

        assert _run(no_output()) == 0


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


class TestOneHopPerJob:
    """A job crosses into a worker thread once — resolve, execute and
    stage ride the same hop (three at the parent commit)."""

    def test_one_to_thread_call_per_job(self, tmp_path, monkeypatch):
        hops = []
        to_thread = asyncio.to_thread

        async def counting(fn, *args, **kwargs):
            hops.append(getattr(fn, "__name__", repr(fn)))
            return await to_thread(fn, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counting)

        async def go():
            async with Orchestrator(PROGRAMS, output_dir=tmp_path) as orch:
                handles = [await orch.submit(_solo_spec(f"hop-{i}")) for i in range(3)]
                done = [await h.wait() for h in handles]
                before_shutdown = list(hops)
            return done, before_shutdown

        done, before_shutdown = _run(go())
        assert all(h.state == JobState.DONE and h.staged is not None for h in done)
        assert len(before_shutdown) == 3, before_shutdown

    def test_states_are_observable_from_the_loop_and_finish_runs_on_it(self, monkeypatch):
        """``staging`` and ``running`` are set from the worker thread as
        the job moves; the handle is finished on the event loop thread
        (an ``asyncio.Event`` is not thread-safe)."""
        from repro.service.orchestrator import JobHandle

        finished_on = []
        finish = JobHandle._finish

        def recording(self, state, error=None):
            finished_on.append(threading.current_thread())
            finish(self, state, error)

        monkeypatch.setattr(JobHandle, "_finish", recording)
        resolving = threading.Event()
        release = threading.Event()

        async def go():
            runtime = JobRuntime(PROGRAMS, max_resident=0)
            resolve = runtime.resolve

            def slow_resolve(document):
                resolving.set()
                release.wait(10.0)
                return resolve(document)

            runtime.resolve = slow_resolve
            seen = []
            async with Orchestrator(runtime=runtime, max_workers=1) as orch:
                handle = await orch.submit(_sleep_spec(0.3))
                while not resolving.is_set():
                    await asyncio.sleep(0.005)
                seen.append(handle.state)
                release.set()
                while not handle.finished:
                    if handle.state != seen[-1]:
                        seen.append(handle.state)
                    await asyncio.sleep(0.005)
                seen.append(handle.state)
            return seen, threading.current_thread()

        seen, loop_thread = _run(go())
        assert seen == [JobState.STAGING, JobState.RUNNING, JobState.DONE]
        assert finished_on == [loop_thread]

    def test_each_stage_still_fails_with_its_own_message(self, tmp_path):
        async def go():
            runtime = JobRuntime(PROGRAMS, max_resident=0)
            async with Orchestrator(runtime=runtime, output_dir=tmp_path) as orch:
                unknown = _solo_spec("no-such-program")
                unknown["components"][0]["program"] = "missing"
                resolve_failed = await (await orch.submit(unknown)).wait()

                def broken(resolved, job_id=None, *, log_dir=None):
                    raise RuntimeError("runtime fell over")

                execute, runtime.execute_resolved = runtime.execute_resolved, broken
                execute_failed = await (await orch.submit(_solo_spec())).wait()
                runtime.execute_resolved = execute

                def full_disk(outcome, document):
                    raise OSError("disk full")

                orch.stager.stage = full_disk
                stage_failed = await (await orch.submit(_solo_spec())).wait()
            return resolve_failed, execute_failed, stage_failed

        resolve_failed, execute_failed, stage_failed = _run(go())
        assert [h.state for h in (resolve_failed, execute_failed, stage_failed)] == ["failed"] * 3
        assert resolve_failed.error.startswith("ServiceError:") and "missing" in resolve_failed.error
        assert resolve_failed.outcome is None
        assert execute_failed.error == "RuntimeError: runtime fell over"
        assert stage_failed.error == "staging failed: disk full"
        assert stage_failed.outcome is not None and stage_failed.outcome.ok


class TestBoundedHistory:
    def test_finished_handles_are_evicted_oldest_first(self, monkeypatch):
        """Three times the retention submitted: ``jobs`` stays bounded,
        ``counts()`` stays exact, an evicted id is unknown, and every
        handle the client kept still reads its outcome."""
        from repro.service import orchestrator

        retained = 16
        monkeypatch.setattr(orchestrator, "RETAINED_JOBS", retained)

        async def go():
            async with Orchestrator(PROGRAMS, max_workers=2) as orch:
                handles, sizes = [], []
                for i in range(3 * retained):
                    if i % 8 == 3:
                        handles.append(await orch.submit({"components": [], "nope": i}))
                    else:
                        spec = _solo_spec(f"kept-{i}")
                        spec["components"][0]["argv"] = ["--job", str(i)]
                        handles.append(await (await orch.submit(spec)).wait())
                    sizes.append(len(orch.jobs))
                return orch, handles, sizes

        orch, handles, sizes = _run(go())
        assert max(sizes) <= retained and len(orch.jobs) == retained
        assert orch.counts() == {"done": 3 * retained - 6, "rejected": 6}
        assert list(orch.states()) == [h.job_id for h in handles[-retained:]]
        assert orch.handle(handles[-1].job_id) is handles[-1]
        with pytest.raises(ServiceError, match="unknown job id 'job00000'"):
            orch.handle(handles[0].job_id)
        for i, handle in enumerate(handles):
            if i % 8 == 3:
                assert handle.state == JobState.REJECTED and handle.error
            else:
                assert handle.outcome.values["solo"][0]["argv"] == ["--job", str(i)]

    def test_unfinished_jobs_are_never_evicted(self, monkeypatch):
        from repro.service import orchestrator

        monkeypatch.setattr(orchestrator, "RETAINED_JOBS", 2)

        async def go():
            async with Orchestrator(PROGRAMS, max_workers=1, max_queued=8) as orch:
                gate = await orch.submit(_sleep_spec(0.4))
                queued = [await orch.submit(_solo_spec(f"q-{i}")) for i in range(5)]
                held = len(orch.jobs)
                assert await orch.cancel(queued[0].job_id)
                for handle in [gate] + queued:
                    await handle.wait()
                return held, orch.counts(), len(orch.jobs)

        held, counts, left = _run(go())
        assert held == 6  # one running, five queued: over the retention, none finished
        assert counts == {"done": 5, "cancelled": 1}
        assert left == 6  # eviction happens as later jobs are remembered


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

"""Service-level conformance: the same job document produces the same
staged result on every backend.

``result.json`` is the conformance artifact — canonical JSON of the job
name, success flag, failures, and per-component values, with everything
backend-dependent (timings, traffic, warm flag) exiled to sidecar files.
The headline test runs one document on the thread backend, the process
backend over unix sockets, and the process backend over shared memory,
and compares the staged bytes; the parametrized tests ride the repo's
``--mpi-backend``/``--mpi-transport`` matrix.  The autouse session
fixture in ``tests.plugins.backend_select`` additionally asserts no shm
segment outlives the run.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.mpi.shm import list_segments
from repro.service import JobDocument, JobRuntime, ResultStager

from tests.service.conftest import PROGRAMS, coupled_doc


def _run_and_stage(spec: dict, tmp_path, tag: str) -> bytes:
    """Execute *spec* on a fresh runtime, stage it, return the
    ``result.json`` bytes."""
    runtime = JobRuntime(PROGRAMS, max_resident=0)
    stager = ResultStager(tmp_path / tag)
    document = JobDocument.from_spec(spec)
    with runtime:
        outcome = runtime.execute(document, job_id="conf")
    assert outcome.ok, (outcome.error, outcome.failures)
    staged = stager.stage(outcome, document)
    return (staged / "result.json").read_bytes()


class TestCrossBackendBitwise:
    def test_same_document_same_bytes_on_all_three_legs(self, tmp_path):
        """thread == process+unix == process+shm, byte for byte."""
        legs = [
            ("thread", coupled_doc("thread")),
            ("process-unix", coupled_doc("process", transport="unix")),
            ("process-shm", coupled_doc("process", transport="shm")),
        ]
        results = {
            tag: _run_and_stage(spec, tmp_path, tag) for tag, spec in legs
        }
        reference = results["thread"]
        for tag, blob in results.items():
            assert blob == reference, (
                f"{tag} staged different result bytes than the thread backend"
            )
        # And the artifact actually carries the coupled values.
        parsed = json.loads(reference)
        assert parsed["ok"] is True
        assert parsed["components"]["atm"][0]["uptake"] == round(0.9 * 3.7, 6)
        assert not list_segments("repro-mpi-"), "leaked shm segments"

    def test_document_artifact_is_canonical_on_every_leg(self, tmp_path):
        """The staged ``document.json`` replay artifact is the canonical
        serialization — identical for equal submitted documents."""
        spec = coupled_doc("thread")
        document = JobDocument.from_spec(spec)
        runtime = JobRuntime(PROGRAMS, max_resident=0)
        stager = ResultStager(tmp_path)
        with runtime:
            outcome = runtime.execute(document, job_id="doc-art")
        staged = stager.stage(outcome, document)
        text = (staged / "document.json").read_text()
        assert text == document.canonical_json() + "\n"
        assert JobDocument.from_json(text) == document


class TestBackendMatrix:
    """Rides the repo-wide backend matrix (``--mpi-backend``,
    ``--mpi-transport``; a job document has no node count, so
    ``--mpi-nodes`` does not reach it)."""

    @pytest.fixture
    def matrix_runtime_section(self, mpi_backend, pytestconfig):
        section = {"backend": mpi_backend, "timeout": 60.0}
        if mpi_backend == "process":
            section["transport"] = pytestconfig.getoption("--mpi-transport")
        return section

    def test_coupled_values_are_exact(self, matrix_runtime_section, tmp_path):
        spec = coupled_doc("thread", co2=3.0)
        spec["runtime"] = matrix_runtime_section
        blob = _run_and_stage(spec, tmp_path, "matrix")
        parsed = json.loads(blob)
        assert parsed["name"] == "conformance-coupled"
        assert parsed["failures"] == []
        # Exact expected physics, independent of backend and transport.
        for rank in range(2):
            forcing = 3.7 * 2.0 + rank
            atm = parsed["components"]["atm"][rank]
            ocn = parsed["components"]["ocn"][rank]
            assert atm == {
                "component": "atm", "rank": rank,
                "forcing": forcing, "uptake": round(0.9 * forcing, 6),
            }
            assert ocn == {
                "component": "ocn", "rank": rank, "uptake": round(0.9 * forcing, 6),
            }

    def test_rank_policy_changes_placement_not_results(
        self, matrix_runtime_section, tmp_path
    ):
        """block vs round_robin placement is invisible in the conformance
        artifact (values are in component-local rank order either way)."""
        blobs = {}
        for policy in ("block", "round_robin"):
            spec = coupled_doc("thread")
            spec["runtime"] = dict(matrix_runtime_section, rank_policy=policy)
            blobs[policy] = _run_and_stage(spec, tmp_path, f"policy-{policy}")
        assert blobs["block"] == blobs["round_robin"]

    def test_single_component_document(self, matrix_runtime_section, tmp_path):
        spec = {
            "name": "solo-job",
            "components": [
                {"name": "solo", "nprocs": 3, "argv": ["--n", "3"]}
            ],
            "runtime": matrix_runtime_section,
        }
        parsed = json.loads(_run_and_stage(spec, tmp_path, "solo"))
        assert parsed["components"]["solo"] == [
            {"component": "solo", "rank": r, "argv": ["--n", "3"]} for r in range(3)
        ]


class TestLayoutReuse:
    def test_shared_layout_key_hits_the_cache(self):
        runtime = JobRuntime(PROGRAMS, max_resident=0)
        base = coupled_doc("thread")
        varied = copy.deepcopy(base)
        varied["components"][0]["argv"] = ["--co2", "4.0"]
        varied["components"][1]["argv"] = ["--co2", "4.0"]
        varied["name"] = "same-layout-different-args"
        with runtime:
            first = runtime.execute(JobDocument.from_spec(base), "reuse-a")
            second = runtime.execute(JobDocument.from_spec(varied), "reuse-b")
        assert first.ok and second.ok
        assert runtime.layouts.misses == 1
        assert runtime.layouts.hits == 1
        # The varied args actually took effect through the shared layout.
        assert second.values["atm"][0]["forcing"] == 3.7 * 3.0

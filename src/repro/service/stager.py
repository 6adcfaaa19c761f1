"""Result staging: a finished job's outcome persisted to an output
directory, deterministically.

One directory per job id, containing whatever the document's
:class:`~repro.service.jobdoc.OutputSpec` asked for:

* ``result.json`` — always.  The canonical outcome artifact: job name,
  success flag, per-rank failures, and (with ``"values"`` in the save
  list) the per-component return values in component-local rank order.
  Serialized with sorted keys and fixed separators so **the bytes are a
  pure function of the outcome** — the cross-backend conformance suite
  asserts the same document stages bitwise-identical ``result.json`` on
  the thread backend, the process backend, and process+shm.  Anything
  backend-dependent (traffic counters, timings, the warm/cold flag) is
  deliberately kept out of this file.
* ``document.json`` — the submitted document's canonical JSON
  (``"document"`` in the save list): the replay artifact.
* ``traffic.json`` — per-rank wire counters, and beside them each rank's
  ``cpu_seconds`` / ``wall_seconds``, when the run collected them
  (``"traffic"``; isolated runs only).
* ``result.pkl`` — a pickle of the raw values (``format: "pickle"``),
  for results that don't survive the JSON round-trip.
* ``meta.json`` — always.  The backend-dependent sidecar: elapsed time,
  warm flag, error text.  Excluded from conformance on purpose.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.errors import ServiceError
from repro.service.jobdoc import JobDocument
from repro.service.runtime import JobOutcome

__all__ = ["ResultStager"]


def _canonical(payload) -> bytes:
    """Sorted keys, fixed separators, ``repr`` fallback for stragglers —
    equal payloads always serialize to equal bytes."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr) + "\n"
    ).encode()


class ResultStager:
    """Persists job outcomes under ``output_dir/<job_id>/``."""

    def __init__(self, output_dir: Optional[Union[str, Path]] = None):
        if output_dir is None:
            output_dir = tempfile.mkdtemp(prefix="mph-service-out-")
        self.output_dir = Path(output_dir)
        self.output_dir.mkdir(parents=True, exist_ok=True)

    def job_dir(self, job_id: str) -> Path:
        """Where one job's artifacts live (may not exist yet)."""
        return self.output_dir / job_id

    def stage(self, outcome: JobOutcome, document: JobDocument) -> Path:
        """Write the job's artifacts; returns the job directory.

        Staging is atomic per file (write to a temp name, ``rename``) so
        a reader never sees a torn artifact, and re-staging a job id is
        an error — job ids are unique per orchestrator lifetime and a
        silent overwrite would mask an id collision.  The collision
        guard is ``result.json`` (the one artifact every staging
        writes), not the directory itself: the job directory may
        legitimately pre-exist, because a ``"logs"`` job streams
        per-process log files into ``<job_id>/logs/`` *while running*,
        before its outcome ever reaches the stager.
        """
        target = self.job_dir(outcome.job_id)
        if (target / "result.json").exists():
            raise ServiceError(
                f"job {outcome.job_id!r} already staged under {target}; job ids "
                "must be unique per service lifetime"
            )
        target.mkdir(parents=True, exist_ok=True)

        result: dict = {
            "name": outcome.name,
            "ok": outcome.ok,
            "failures": [
                [rank, component, f"{type(exc).__name__}: {exc}"]
                for rank, component, exc in outcome.failures
            ],
        }
        if outcome.error is not None:
            result["error"] = outcome.error
        if "values" in document.output.save:
            result["components"] = outcome.values
            if outcome.pool:
                result["pool"] = outcome.pool
        self._write(target, "result.json", _canonical(result))

        if "document" in document.output.save:
            self._write(
                target, "document.json", (document.canonical_json() + "\n").encode()
            )
        if "traffic" in document.output.save and outcome.traffic is not None:
            self._write(target, "traffic.json", _canonical(outcome.traffic))
        if document.output.format == "pickle":
            self._write(
                target,
                "result.pkl",
                pickle.dumps({"components": outcome.values, "pool": outcome.pool}),
            )

        meta = {
            "job_id": outcome.job_id,
            "warm": outcome.warm,
            "elapsed": outcome.elapsed,
            "error": outcome.error,
        }
        self._write(target, "meta.json", _canonical(meta))
        return target

    @staticmethod
    def _write(target: Path, name: str, data: bytes) -> None:
        tmp = target / f".{name}.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, target / name)

    def read_result(self, job_id: str) -> dict:
        """Load a staged ``result.json`` back."""
        path = self.job_dir(job_id) / "result.json"
        if not path.exists():
            raise ServiceError(f"no staged result for job {job_id!r} under {self.output_dir}")
        return json.loads(path.read_text())

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
* ``traffic.json`` — per-rank counters of the job's own traffic, and
  beside them each rank's ``cpu_seconds`` / ``wall_seconds``
  (``"traffic"``; isolated and resident runs alike).
* ``result.pkl`` — a pickle of the raw values (``format: "pickle"``),
  for results that don't survive the JSON round-trip.
* ``meta.json`` — always.  The backend-dependent sidecar: elapsed time,
  warm flag, error text.  Excluded from conformance on purpose.

Staging is two steps, because on some hosts making an inode (a
directory, a file) costs tens of times more than writing a few hundred
bytes into one or renaming it (EXPERIMENTS.md, "Output files made while
the job runs"):

* **reserve** — :meth:`ResultStager.reserve` books a job id, and the
  call it returns allocates the inodes: it checks the collision guard,
  makes the job directory, and opens one temp file (``O_CREAT |
  O_EXCL``) for every artifact the document's output spec names.  It
  needs only the document, so the orchestrator runs it on a helper
  thread while the job resolves and executes.
* **fill** — :meth:`ResultStager.stage` writes each artifact's bytes
  into its reserved descriptor and renames the temp file into place,
  so publication stays atomic per file.  Called without a reservation
  (a direct caller), it reserves first, in line.

:meth:`ResultStager.release` undoes a reservation that was never filled
(a job whose resolve or execute failed): its temp files and, when
nothing was published into it, the directory it made are removed.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

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


def _artifacts(document: JobDocument) -> Tuple[str, ...]:
    """The files *document*'s output spec stages, in publication order
    (``traffic.json`` only when the outcome carries traffic)."""
    save, names = document.output.save, ["result.json"]
    if "document" in save:
        names.append("document.json")
    if "traffic" in save:
        names.append("traffic.json")
    if document.output.format == "pickle":
        names.append("result.pkl")
    return (*names, "meta.json")


class _Reservation:
    """One job's output inodes: its directory and a temp file per
    artifact, open for writing.  :meth:`make` runs once, on whichever
    thread gets there first; the others wait for it."""

    def __init__(self, job_id: str, target: Path, names: Tuple[str, ...]):
        self.job_id = job_id
        self.target = target
        self.names = names
        self.fds: Dict[str, int] = {}
        self.error: Optional[Exception] = None
        self._made_dir = False
        self._published = False
        self._done = False
        self._lock = threading.Lock()

    def make(self) -> None:
        with self._lock:
            if self._done:
                return
            self._done = True
            try:
                self._allocate()
            except Exception as exc:  # noqa: BLE001 - re-raised by stage()
                self.error = exc
                self._undo()

    def _allocate(self) -> None:
        if (self.target / "result.json").exists():
            raise ServiceError(
                f"job {self.job_id!r} already staged under {self.target}; job ids "
                "must be unique per service lifetime"
            )
        try:
            self.target.mkdir(parents=True)
            self._made_dir = True
        except FileExistsError:
            pass  # a "logs" job's directory, made while it runs
        for name in self.names:
            self.fds[name] = os.open(
                self.target / f".{name}.tmp", os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666
            )

    def publish(self, name: str, data: bytes) -> None:
        """Write *data* into *name*'s temp file and rename it into place."""
        view = memoryview(data)
        while view:
            view = view[os.write(self.fds[name], view):]
        os.replace(self.target / f".{name}.tmp", self.target / name)
        os.close(self.fds.pop(name))
        self._published = True

    def discard(self) -> None:
        """Remove what was reserved and not published; a later
        :meth:`make` does nothing."""
        with self._lock:
            self._done = True
            self._undo()

    def _undo(self) -> None:
        for name, fd in self.fds.items():
            os.close(fd)
            try:
                os.unlink(self.target / f".{name}.tmp")
            except FileNotFoundError:
                pass
        self.fds.clear()
        if self._made_dir and not self._published:
            try:
                os.rmdir(self.target)
            except OSError:
                pass  # not empty: a "logs" job wrote into it
        self._made_dir = False


class ResultStager:
    """Persists job outcomes under ``output_dir/<job_id>/``."""

    def __init__(self, output_dir: Optional[Union[str, Path]] = None):
        if output_dir is None:
            output_dir = tempfile.mkdtemp(prefix="mph-service-out-")
        self.output_dir = Path(output_dir)
        self.output_dir.mkdir(parents=True, exist_ok=True)
        #: ``job_id -> reservation`` booked and not yet staged or released.
        self._reserved: Dict[str, _Reservation] = {}

    def job_dir(self, job_id: str) -> Path:
        """Where one job's artifacts live (may not exist yet)."""
        return self.output_dir / job_id

    def reserve(self, job_id: str, document: JobDocument) -> Callable[[], None]:
        """Book *job_id*'s output files; returns the call that allocates
        them (the job directory, and a temp file per artifact *document*
        names), to be run on any thread before or while the job runs.

        A booking ends in :meth:`stage`, which waits for the allocation
        (or makes it, if nothing has yet) and fills it, or in
        :meth:`release`.  Any error of the allocation — the collision
        guard's included — is raised by :meth:`stage`.
        """
        reservation = self._reservation(job_id, document)
        self._reserved[job_id] = reservation
        return reservation.make

    def _reservation(self, job_id: str, document: JobDocument) -> _Reservation:
        return _Reservation(job_id, self.job_dir(job_id), _artifacts(document))

    def release(self, job_id: str) -> None:
        """Drop *job_id*'s booking if :meth:`stage` did not take it:
        remove its temp files, and its directory when the reservation
        made it and nothing was written there."""
        reservation = self._reserved.pop(job_id, None)
        if reservation is not None:
            reservation.discard()

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

        The files are the ones :meth:`reserve` allocated for
        ``outcome.job_id``; without a booking they are allocated here.
        """
        reservation = self._reserved.pop(outcome.job_id, None)
        if reservation is None:
            reservation = self._reservation(outcome.job_id, document)
        reservation.make()
        try:
            if reservation.error is not None:
                raise reservation.error
            self._fill(reservation, outcome, document)
        finally:
            reservation.discard()  # traffic.json's file when there was none
        return reservation.target

    @staticmethod
    def _fill(reservation: _Reservation, outcome: JobOutcome, document: JobDocument) -> None:
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
        reservation.publish("result.json", _canonical(result))

        if "document" in document.output.save:
            reservation.publish("document.json", (document.canonical_json() + "\n").encode())
        if "traffic" in document.output.save and outcome.traffic is not None:
            reservation.publish("traffic.json", _canonical(outcome.traffic))
        if document.output.format == "pickle":
            reservation.publish("result.pkl", pickle.dumps({"components": outcome.values}))

        meta = {
            "job_id": outcome.job_id,
            "warm": outcome.warm,
            "elapsed": outcome.elapsed,
            "error": outcome.error,
        }
        reservation.publish("meta.json", _canonical(meta))

    def read_result(self, job_id: str) -> dict:
        """Load a staged ``result.json`` back."""
        path = self.job_dir(job_id) / "result.json"
        if not path.exists():
            raise ServiceError(f"no staged result for job {job_id!r} under {self.output_dir}")
        return json.loads(path.read_text())

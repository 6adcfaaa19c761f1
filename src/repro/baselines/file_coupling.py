"""File-exchange coupling baseline: components coupled through the
filesystem.

Before shared ``MPI_Comm_World`` MPMD jobs, loosely-coupled model systems
exchanged boundary data by writing files one component polled for (the
first-generation flux couplers worked this way between queued jobs).  This
baseline couples two components — an atmosphere and an ocean on the same
grid — through ``.npy`` files with atomic renames, giving experiment E6/E10
a latency reference point against MPH's in-memory messaging.

The exchange is genuinely concurrent: both components run inside one MPMD
job but never touch MPI for data exchange — only the filesystem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.climate.components import AtmosphereModel, OceanModel
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError
from repro.launcher.job import mph_run

#: Default seconds between polls for a partner's file (the filesystem has
#: no notification channel, so polling is inherent to this baseline; both
#: knobs are per-run parameters of :func:`run_file_coupled`).
_POLL_INTERVAL = 0.002

#: Default overall seconds to wait for any single partner file before the
#: run fails instead of spinning forever.
_POLL_TIMEOUT = 30.0


@dataclass
class FileCouplingReport:
    """Outcome of a file-coupled run."""

    nsteps: int
    #: Mean seconds spent per exchange (write + poll + read), per side.
    atm_exchange_seconds: float
    ocn_exchange_seconds: float
    files_written: int
    atm_mean_T: list[float]
    ocn_mean_T: list[float]


def _write_atomic(path: Path, array: np.ndarray) -> None:
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, array)
    tmp.rename(path)


def _poll_read(
    path: Path,
    timeout: float = _POLL_TIMEOUT,
    interval: float = _POLL_INTERVAL,
) -> np.ndarray:
    if timeout <= 0:
        raise ReproError(f"file-coupling poll timeout must be > 0, got {timeout}")
    if interval <= 0:
        raise ReproError(f"file-coupling poll interval must be > 0, got {interval}")
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while True:
        if path.exists():
            # A file that exists but will not parse is truncated or
            # corrupt (e.g. a writer died mid-write on a filesystem
            # without atomic rename).  Keep polling — the writer may
            # still replace it — and fail with a clean ReproError at the
            # deadline instead of leaking an unpickling traceback.
            try:
                return np.load(path)
            except (ValueError, EOFError, OSError) as exc:
                last_error = exc
        if time.monotonic() > deadline:
            if last_error is not None:
                raise ReproError(
                    f"file-coupling gave up after {timeout}s: {path.name} exists "
                    f"but is truncated or corrupt ({type(last_error).__name__}: "
                    f"{last_error})"
                ) from last_error
            raise ReproError(
                f"file-coupling timed out after {timeout}s waiting for {path.name}"
            )
        time.sleep(interval)


def run_file_coupled(
    grid: LatLonGrid,
    nsteps: int,
    dt: float,
    workdir: Path,
    coupling_coeff: float = 15.0,
    poll_interval: float = _POLL_INTERVAL,
    poll_timeout: float = _POLL_TIMEOUT,
) -> FileCouplingReport:
    """Run the two-component file-coupled system.

    Per step each side writes its temperature, polls for the partner's
    file, reads it, computes the (antisymmetric) sensible flux locally,
    and steps.  Both sides run single-process — file coupling between
    decomposed components would need one file per rank, compounding the
    overhead this baseline quantifies.

    *poll_interval* sets the seconds between existence checks for the
    partner's file and *poll_timeout* the overall budget per file; when a
    file never appears the run raises :class:`ReproError` instead of
    spinning forever.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def make_side(kind: str):
        def side(world, env):
            model_cls = AtmosphereModel if kind == "atm" else OceanModel
            model = model_cls(world, grid, model_cls.default_params())
            other = "ocn" if kind == "atm" else "atm"
            exchange_time = 0.0
            files = 0
            for step in range(nsteps):
                t0 = time.perf_counter()
                _write_atomic(workdir / f"{kind}_{step:05d}.npy", model.temperature.data)
                files += 1
                partner = _poll_read(
                    workdir / f"{other}_{step:05d}.npy",
                    timeout=poll_timeout,
                    interval=poll_interval,
                )
                exchange_time += time.perf_counter() - t0
                # Antisymmetric sensible flux: each side warms toward the
                # partner, so the pair conserves the exchanged energy.
                flux = coupling_coeff * (partner - model.temperature.data)
                model.step(dt, flux)
            means = [diag.mean_temperature for diag in model.settle()]
            return {
                "kind": kind,
                "exchange_seconds": exchange_time / max(nsteps, 1),
                "files": files,
                "mean_T": means,
            }

        side.__name__ = kind
        return side

    result = mph_run([(make_side("atm"), 1), (make_side("ocn"), 1)], registry=None)
    atm = result.by_executable("atm")[0]
    ocn = result.by_executable("ocn")[0]
    return FileCouplingReport(
        nsteps=nsteps,
        atm_exchange_seconds=atm["exchange_seconds"],
        ocn_exchange_seconds=ocn["exchange_seconds"],
        files_written=atm["files"] + ocn["files"],
        atm_mean_T=atm["mean_T"],
        ocn_mean_T=ocn["mean_T"],
    )

"""Conventional ensemble baseline: K independent jobs + post-processing.

"Conventional approach is to treat the K runs as K independent jobs.  The
simulation results of the K runs are then averaged to get ensemble
average" (paper §2.5).  The drawbacks the paper calls out — and this
module measures for experiment E10:

* every run must **write every sampled field to disk** so statistics can
  be computed afterwards (the MIME approach needs zero intermediate
  files);
* **nonlinear order statistics** (median, percentiles, min/max) require
  *all* K fields per time sample to coexist, so nothing can be discarded;
* **no dynamic control**: a run cannot react to its siblings, because
  they literally are other jobs.

The per-instance model is the same :class:`~repro.climate.components.OceanModel`
physics the MIME example uses, perturbed per instance, so the two
approaches are comparable run-for-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from repro.climate.components import OceanModel
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError
from repro.mpi.executor import run_spmd


@dataclass
class EnsembleRunReport:
    """Accounting of one independent-jobs ensemble campaign."""

    k: int
    nsteps: int
    #: Intermediate files written (K * sampled steps).
    files_written: int
    #: Total bytes of intermediate output.
    bytes_written: int
    #: Ensemble-mean time series of the global-mean temperature.
    mean_series: np.ndarray
    #: Ensemble-median series — only computable because everything was
    #: stored (the cost MIME avoids).
    median_series: np.ndarray
    #: Pointwise-spread series (max - min of global means).
    spread_series: np.ndarray


def perturbed_params(member: int):
    """Per-member parameter perturbation: albedo shifted by member index —
    a deterministic stand-in for perturbed-physics ensembles."""
    base = OceanModel.default_params()
    return replace(base, albedo=min(0.9, base.albedo + 0.02 * member))


def run_one_member(
    member: int,
    grid: LatLonGrid,
    nsteps: int,
    dt: float,
    outdir: Optional[Path],
    sample_every: int = 1,
) -> tuple[int, int, list[float]]:
    """Run one ensemble member as its own (single-process) job.

    Writes each sampled field to ``outdir`` (one ``.npy`` per sample) when
    *outdir* is given.  Returns ``(files, bytes, mean_T series)``.
    """

    def program(comm):
        model = OceanModel(comm, grid, perturbed_params(member))
        files = bytes_out = 0
        for step in range(nsteps):
            model.step(dt)
            if outdir is not None and step % sample_every == 0:
                path = outdir / f"member{member:03d}_step{step:05d}.npy"
                np.save(path, model.temperature.data)
                files += 1
                bytes_out += path.stat().st_size
        return files, bytes_out, [diag.mean_temperature for diag in model.settle()]

    return run_spmd(1, program)[0]


def run_independent_ensemble(
    k: int,
    grid: LatLonGrid,
    nsteps: int,
    dt: float,
    workdir: Path,
    sample_every: int = 1,
) -> EnsembleRunReport:
    """Run the K-independent-jobs campaign end to end.

    Each member runs as a separate job writing its samples to *workdir*;
    :func:`postprocess` then reads everything back to compute the
    statistics.
    """
    if k < 1:
        raise ReproError("ensemble needs k >= 1")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    files = bytes_out = 0
    for member in range(k):
        f, b, _ = run_one_member(member, grid, nsteps, dt, workdir, sample_every)
        files += f
        bytes_out += b
    mean_s, median_s, spread_s = postprocess(workdir, k, nsteps, sample_every)
    return EnsembleRunReport(
        k=k,
        nsteps=nsteps,
        files_written=files,
        bytes_written=bytes_out,
        mean_series=mean_s,
        median_series=median_s,
        spread_series=spread_s,
    )


def postprocess(
    workdir: Path, k: int, nsteps: int, sample_every: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The offline averaging pass: read every stored field back and reduce.

    Returns ``(mean, median, spread)`` series of the global-mean
    temperature over the sampled steps.  Raises when files are missing —
    the fragility of the approach is part of the point.
    """
    workdir = Path(workdir)
    means: list[float] = []
    medians: list[float] = []
    spreads: list[float] = []
    for step in range(0, nsteps, sample_every):
        fields = []
        for member in range(k):
            path = workdir / f"member{member:03d}_step{step:05d}.npy"
            if not path.exists():
                raise ReproError(f"post-processing failed: missing sample {path.name}")
            fields.append(np.load(path))
        per_member = np.array([f.mean() for f in fields])
        means.append(float(per_member.mean()))
        medians.append(float(np.median(per_member)))
        spreads.append(float(per_member.max() - per_member.min()))
    return np.array(means), np.array(medians), np.array(spreads)

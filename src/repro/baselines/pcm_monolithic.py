"""PCM-style hardwired monolithic baseline (what MPH replaces, paper §2.2).

"The widely used Parallel Climate Model (PCM) uses this mode.  All
components are written as modules and are finally merged into one single
source code. ... Name conflicts have to be resolved.  Static allocation
will increase unnecessary memory usage.  For example, component A on
processor group A will still allocate memory for static allocations in
module component B which actually sits in processor group B."

This baseline runs the *same physics* as the MPH-based driver, but wired
the pre-MPH way:

* one executable, processor ranges **hardwired as constants** (changing
  the allocation means editing code, not a runtime file);
* component communicators built by a hand-rolled ``Comm_split`` with
  hardwired colors;
* coupling messages addressed by **hardwired global ranks**;
* Fortran-style static allocation simulated faithfully: every process
  allocates the full-grid static arrays of *every* component module,
  whether it runs that component or not — the §2.2 memory-waste drawback,
  measured and returned so experiment E12 can quantify it.

Producing identical numbers to :func:`repro.climate.ccsm.run_ccsm` in MCSE
mode is the point: MPH adds flexibility, not physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.climate.ccsm import CCSMConfig, MODEL_KINDS, _MODEL_CLASSES
from repro.climate.coupler import FluxCoupler
from repro.climate.grid import Decomposition
from repro.errors import ReproError
from repro.mpi.executor import run_spmd

#: Hardwired coupling tags — magic numbers, as a hardwired code would have.
_TEMP_TAG = 11
_FLUX_TAG = 12


@dataclass
class StaticAllocation:
    """The per-process static memory a monolithic build carries.

    ``all_modules_bytes`` is what the monolithic executable allocates
    (every module's statics on every process); ``own_component_bytes`` is
    what an MPH-style build needs (only the locally-run component's
    share).  The ratio is the §2.2 waste factor.
    """

    all_modules_bytes: int
    own_component_bytes: int

    @property
    def waste_factor(self) -> float:
        """How many times more static memory the monolithic build holds."""
        return self.all_modules_bytes / max(self.own_component_bytes, 1)


def _static_arrays(cfg: CCSMConfig, kind: str) -> dict[str, np.ndarray]:
    """The module-level static arrays of one component: prognostic field,
    work buffer, and climatology — three full-grid float64 arrays, the
    Fortran ``save``-variable pattern.  The coupler's statics live on the
    atmosphere grid (where it computes fluxes)."""
    shape = cfg.shapes["atmosphere" if kind == "coupler" else kind]
    return {
        "temperature": np.zeros(shape),
        "work": np.zeros(shape),
        "climatology": np.zeros(shape),
    }


def hardwired_ranges(cfg: CCSMConfig) -> dict[str, tuple[int, int]]:
    """The baked-in processor ranges (inclusive), in PCM fashion."""
    ranges: dict[str, tuple[int, int]] = {}
    offset = 0
    for kind in MODEL_KINDS + ("coupler",):
        n = cfg.procs[kind]
        ranges[kind] = (offset, offset + n - 1)
        offset += n
    return ranges


def run_pcm_monolithic(cfg: Optional[CCSMConfig] = None, **spmd_kwargs) -> dict[str, Any]:
    """Run the hardwired monolithic coupled model.

    Returns the same diagnostics dict as
    :func:`repro.climate.ccsm.run_ccsm`, with an extra ``"memory"`` entry
    holding the worst-case per-process :class:`StaticAllocation`.
    """
    cfg = cfg or CCSMConfig()
    ranges = hardwired_ranges(cfg)
    total = sum(cfg.procs[k] for k in MODEL_KINDS + ("coupler",))

    def program(world):
        # --- the §2.2 drawback, faithfully: every process allocates every
        # module's statics, then figures out which component it runs.
        statics = {kind: _static_arrays(cfg, kind) for kind in MODEL_KINDS + ("coupler",)}
        my_kind = None
        for kind, (lo, hi) in ranges.items():
            if lo <= world.rank <= hi:
                my_kind = kind
                break
        if my_kind is None:
            raise ReproError(f"rank {world.rank} outside every hardwired range")
        own_bytes = sum(a.nbytes for a in statics[my_kind].values())
        all_bytes = sum(a.nbytes for mod in statics.values() for a in mod.values())
        memory = StaticAllocation(all_modules_bytes=all_bytes, own_component_bytes=own_bytes)

        # --- hand-rolled component communicator (hardwired color).
        color = list(ranges).index(my_kind)
        comm = world.split(color, key=world.rank)
        assert comm is not None

        cpl_root = ranges["coupler"][0]  # hardwired global rank
        if my_kind == "coupler":
            diag = _run_coupler(world, comm, cfg, ranges)
        else:
            diag = _run_component(world, comm, cfg, ranges, my_kind, cpl_root)
        diag["memory"] = memory
        return {my_kind: diag}

    results = run_spmd(total, program, **spmd_kwargs)
    out: dict[str, Any] = {}
    worst: Optional[StaticAllocation] = None
    for value in results:
        for kind, diag in value.items():
            mem: StaticAllocation = diag["memory"]
            if worst is None or mem.waste_factor > worst.waste_factor:
                worst = mem
            keep = out.get(kind)
            if keep is None or (
                diag.get("final_field") is not None and keep.get("final_field") is None
            ):
                out[kind] = diag
    out["memory"] = worst
    return out


def _run_component(world, comm, cfg: CCSMConfig, ranges, kind: str, cpl_root: int) -> dict:
    model = _MODEL_CLASSES[kind](comm, cfg.grid(kind), cfg.param(kind))
    mean_T = [model.mean_temperature()]
    decomp = Decomposition(cfg.grid(kind), comm.size)
    for step in range(cfg.nsteps):
        full = model.temperature.gather_global(root=0)
        if comm.rank == 0:
            world.send((kind, step, full), cpl_root, _TEMP_TAG)
        blocks = None
        if comm.rank == 0:
            got_step, flux = world.recv(cpl_root, _FLUX_TAG)
            if got_step != step:
                raise ReproError(f"{kind}: hardwired protocol out of step")
            blocks = [flux[decomp.rows(r)[0] : decomp.rows(r)[1]] for r in range(comm.size)]
        local_flux = comm.scatter(blocks, root=0)
        model.step(cfg.dt, local_flux)
    # One settle at the end carries every step's mean, as in the MPH driver.
    mean_T.extend(diag.mean_temperature for diag in model.settle())
    return {
        "kind": kind,
        "mean_T": mean_T,
        "energy": [model.params.heat_capacity * t for t in mean_T],
        "budget": {
            "solar_in": model.budget.solar_in,
            "olr_out": model.budget.olr_out,
            "coupling_in": model.budget.coupling_in,
            "diffusion_residual": model.budget.diffusion_residual,
        },
        "final_field": model.temperature.gather_global(root=0),
    }


def _run_coupler(world, comm, cfg: CCSMConfig, ranges) -> dict:
    surfaces = [k for k in MODEL_KINDS if k != "atmosphere"]
    engine = FluxCoupler(
        cfg.grid("atmosphere"),
        {k: cfg.grid(k) for k in surfaces},
        {k: cfg.coupling_coeff[k] for k in surfaces},
    )
    for step in range(cfg.nsteps):
        if comm.rank != 0:
            continue
        temps = {}
        for kind in MODEL_KINDS:
            got_kind, got_step, full = world.recv(ranges[kind][0], _TEMP_TAG)
            if got_kind != kind or got_step != step:
                raise ReproError("coupler: hardwired protocol out of step")
            temps[kind] = full
        atm_flux, sfc_fluxes = engine.compute_fluxes(
            temps["atmosphere"], {k: temps[k] for k in surfaces}
        )
        world.send((step, atm_flux), ranges["atmosphere"][0], _FLUX_TAG)
        for kind in surfaces:
            world.send((step, sfc_fluxes[kind]), ranges[kind][0], _FLUX_TAG)
    return {
        "kind": "coupler",
        "exchange_residual": list(engine.exchange_residual),
        "max_exchange_residual": engine.max_residual(),
    }

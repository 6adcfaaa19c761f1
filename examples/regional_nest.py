#!/usr/bin/env python3
"""Regional nesting: the WRF/MM5 coupling pattern over MPH (paper §7).

"MPH is adopted in NCAR's Weather Research and Forecast (WRF) model, the
new generation of the mesoscale model (MM5).  Many countries use MM5 for
their regional mid-range weather/climate forecast."

Two executables: a global atmosphere on a coarse grid, and a limited-area
nest covering a mid-latitude box at 3× resolution.  Each global step, the
parent field crosses to the nest by name-addressed MPH messaging; the
nest interpolates it conservatively onto its fine grid, relaxes its
boundary ring toward the frame (Davies nudging), and takes three fine
substeps per parent step — one-way nesting, exactly the operational
pattern.

Run:  python examples/regional_nest.py
"""

import numpy as np

from repro import components_setup, mph_run
from repro.climate import AtmosphereModel, LatLonGrid
from repro.climate.nesting import RegionSpec, RegionalGrid, RegionalModel

PARENT = LatLonGrid(16, 32, name="global")
SPEC = RegionSpec(row0=6, row1=11, col0=8, col1=16, refinement=3)
NSTEPS = 12
SUBSTEPS = 3
DT = 3600.0
FRAME_TAG = 61


def global_atm(world, env):
    mph = components_setup(world, "global_atm", env=env)
    params = AtmosphereModel.default_params()
    model = AtmosphereModel(mph.component_comm(), PARENT, params)
    for step in range(NSTEPS):
        model.step(DT)
        full = model.temperature.gather_global(root=0)
        if mph.local_proc_id() == 0:
            mph.send((step, full), "nest", 0, tag=FRAME_TAG)
    return model.mean_temperature()


def nest(world, env):
    mph = components_setup(world, "nest", env=env)
    comm = mph.component_comm()
    rgrid = RegionalGrid(PARENT, SPEC)
    model = RegionalModel(
        comm,
        rgrid,
        AtmosphereModel.default_params(),
        relax_width=3,
        relax_rate=0.4,
        t_init=lambda la, lo: np.full_like(la, 285.0),  # cold-started nest
    )
    history = []
    for step in range(NSTEPS):
        frame = None
        if comm.rank == 0:
            got_step, parent_full = mph.recv("global_atm", 0, tag=FRAME_TAG)
            assert got_step == step
            frame = rgrid.from_parent(parent_full)
        model.set_frame(frame)
        for _ in range(SUBSTEPS):
            model.step(DT / SUBSTEPS)
        history.append(model.mean_temperature())
    return history


def main() -> None:
    result = mph_run([(global_atm, 4), (nest, 2)], registry="BEGIN\nglobal_atm\nnest\nEND")
    parent_T = result.by_executable(0)[0]
    nest_T = result.by_executable(1)[0]
    rgrid = RegionalGrid(PARENT, SPEC)
    print(f"global grid {PARENT.nlat}x{PARENT.nlon}; nest {rgrid.nlat}x{rgrid.nlon} "
          f"({SPEC.refinement}x refinement) over rows {SPEC.row0}:{SPEC.row1}, "
          f"cols {SPEC.col0}:{SPEC.col1}")
    print(f"global <T> after {NSTEPS} steps: {parent_T:.3f} K")
    print("nest region <T> per parent step (cold start, pulled to the parent frame):")
    print("  " + "  ".join(f"{t:.2f}" for t in nest_T))
    assert nest_T[-1] > nest_T[0], "boundary forcing must warm the cold-started nest"
    print("one-way nesting: boundary frames flowed global -> nest over MPH messaging")


if __name__ == "__main__":
    main()

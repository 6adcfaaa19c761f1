#!/usr/bin/env python3
"""Model integration over the Grid (paper §9, future work (c)).

Two clusters — "nersc" running the ocean, "ncar" running the atmosphere —
co-allocated on one world as MPICH-G2 does it: each sees its own split
of the world as its ``COMM_WORLD`` and runs its own MPH handshake on it,
and they are coupled across a simulated wide-area link with 20 ms
latency.  ``grid_setup`` exchanges the component directories between
sites; after that, components address each other by ``(cluster,
component, local rank)``.

Run:  python examples/cross_site_coupling.py
"""

import numpy as np

from repro import components_setup
from repro.climate import AtmosphereModel, LatLonGrid, OceanModel
from repro.grid import ClusterSpec, grid_setup, run_grid

GRID = LatLonGrid(8, 16)
NSTEPS = 5
DT = 3600.0
K = 20.0  # air–sea exchange coefficient [W m^-2 K^-1]
SST_TAG, FLUX_TAG = 11, 12


def ocean(world, env):
    """Runs on cluster 'nersc'."""
    mph = components_setup(world, "ocean", env=env)
    gmph = grid_setup(mph, env)
    model = OceanModel(mph.component_comm(), GRID, OceanModel.default_params())

    for step in range(NSTEPS):
        full = model.temperature.gather_global(root=0)
        flux = None
        if mph.local_proc_id() == 0:
            gmph.send((step, full), "ncar", "atmosphere", 0, tag=SST_TAG)
            (got_step, flux), src, _ = gmph.recv(tag=FLUX_TAG)
            assert got_step == step and src == "ncar"
        comm = mph.component_comm()
        flux = comm.bcast(flux, root=0)
        start, stop = model.temperature.rows_range
        model.step(DT, flux[start:stop])
    return model.mean_temperature()


def atmosphere(world, env):
    """Runs on cluster 'ncar'."""
    mph = components_setup(world, "atmosphere", env=env)
    gmph = grid_setup(mph, env)
    model = AtmosphereModel(mph.component_comm(), GRID, AtmosphereModel.default_params())

    for step in range(NSTEPS):
        full_atm = model.temperature.gather_global(root=0)
        flux = None
        if mph.local_proc_id() == 0:
            (got_step, sst), src, _ = gmph.recv(tag=SST_TAG)
            assert got_step == step
            air_sea = K * (sst - full_atm)  # warms the atmosphere
            gmph.send((step, -air_sea), src, "ocean", 0, tag=FLUX_TAG)
            flux = air_sea
        comm = mph.component_comm()
        flux = comm.bcast(flux, root=0)
        start, stop = model.temperature.rows_range
        model.step(DT, flux[start:stop])
    return model.mean_temperature()


def main() -> None:
    results = run_grid(
        [
            ClusterSpec("nersc", [(ocean, 2)], registry="BEGIN\nocean\nEND"),
            ClusterSpec("ncar", [(atmosphere, 2)], registry="BEGIN\natmosphere\nEND"),
        ],
        latency=0.02,  # 20 ms wide-area one-way latency
    )
    print(f"after {NSTEPS} cross-site coupled steps (20 ms WAN latency):")
    print(f"  ocean      <T> = {results['nersc'].values()[0]:.3f} K  (cluster nersc)")
    print(f"  atmosphere <T> = {results['ncar'].values()[0]:.3f} K  (cluster ncar)")
    print("each cluster kept its own COMM_WORLD; only the coupling fields crossed the WAN")


if __name__ == "__main__":
    main()

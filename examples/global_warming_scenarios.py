#!/usr/bin/env python3
"""Global-warming scenarios: the paper's second MIME use case (§4.4).

"In a global warming scenario simulation, 3 instances of an atmospheric
model are running concurrently, each testing a different warming scenario
with different CO2 emission rates, but all couple to the same ocean
circulation model which feels the 'average' effects of the atmosphere."

Three atmosphere instances run with different greenhouse strengths (the
OLR coefficient ``A`` lowered per the CO2 field in the registration file);
one shared ocean receives the *average* air–sea flux of the three
scenarios and returns its SST to all of them.

Run:  python examples/global_warming_scenarios.py
"""

from dataclasses import replace

import numpy as np

from repro import components_setup, mph_run, multi_instance
from repro.climate import AtmosphereModel, LatLonGrid, OceanModel
from repro.climate.regrid import regrid

NSTEPS = 24
DT = 3600.0
ATM_GRID = LatLonGrid(8, 16, name="atm")
OCN_GRID = LatLonGrid(12, 24, name="ocn")
K_AIR_SEA = 20.0  # air–sea exchange coefficient [W m^-2 K^-1]

SST_TAG, FLUX_TAG = 501, 502

# Three scenarios: higher CO2 -> weaker OLR (smaller A), more warming.
REGISTRY = """
BEGIN
Multi_Instance_Begin
Scenario_low  0 0  co2=380
Scenario_mid  1 1  co2=560
Scenario_high 2 2  co2=840
Multi_Instance_End
ocean
END
"""


def atmosphere(world, env):
    """One warming scenario per instance; all coupled to the one ocean."""
    mph = multi_instance(world, "Scenario", env=env)
    co2 = mph.get_argument("co2", int)
    # Logarithmic greenhouse forcing: each CO2 doubling traps ~4 W/m^2.
    forcing = 4.0 * np.log2(co2 / 380.0)
    params = replace(
        AtmosphereModel.default_params(),
        solar_constant=1361.0,  # absorbs shortwave itself: no separate surface
        albedo=0.3,
        olr_a=225.0 - forcing,
    )

    def warm_start(lat, lon):
        return AtmosphereModel.default_initial_condition(lat, lon)

    model = AtmosphereModel(mph.component_comm(), ATM_GRID, params, t_init=warm_start)

    for step in range(NSTEPS):
        # Receive the shared SST (broadcast by the ocean to every scenario).
        sst_on_atm = mph.recv("ocean", 0, SST_TAG)
        flux = K_AIR_SEA * (sst_on_atm - model.temperature.data)
        # Tell the ocean what this scenario drew from it.
        mph.send((mph.comp_name(), step, -flux), "ocean", 0, FLUX_TAG)
        model.step(DT, flux)
    return {
        "scenario": mph.comp_name(),
        "co2": co2,
        "forcing_wm2": forcing,
        "final_mean_T": model.mean_temperature(),
    }


def ocean(world, env):
    """The single ocean, feeling the average of the three scenarios."""
    mph = components_setup(world, "ocean", env=env)
    model = OceanModel(mph.component_comm(), OCN_GRID, OceanModel.default_params())
    scenarios = [c.name for c in mph.layout.components if c.name.startswith("Scenario")]

    mean_T = []
    for step in range(NSTEPS):
        sst_on_atm = regrid(model.temperature.data, OCN_GRID, ATM_GRID)
        for name in scenarios:
            mph.send(sst_on_atm, name, 0, SST_TAG)
        # Average the scenario fluxes — the ocean "feels the average
        # effects of the atmosphere" (paper §4.4).
        fluxes = []
        for name in scenarios:
            _, got_step, flux = mph.recv(name, 0, FLUX_TAG)
            assert got_step == step
            fluxes.append(flux)
        mean_flux_atm = np.mean(fluxes, axis=0)
        model.step(DT, regrid(mean_flux_atm, ATM_GRID, OCN_GRID))
        mean_T.append(model.mean_temperature())
    return {"ocean_mean_T": mean_T}


def main() -> None:
    result = mph_run([(atmosphere, 3), (ocean, 1)], registry=REGISTRY)

    print("scenario outcomes after", NSTEPS, "coupled steps:")
    rows = sorted(result.by_executable("atmosphere"), key=lambda r: r["co2"])
    for row in rows:
        print(
            f"  {row['scenario']:<14} CO2 {row['co2']:>4} ppm  "
            f"forcing {row['forcing_wm2']:+.2f} W/m^2  "
            f"<T> {row['final_mean_T']:.3f} K"
        )
    temps = [r["final_mean_T"] for r in rows]
    assert temps == sorted(temps), "warming must increase with CO2"
    print("\nmonotonic warming with CO2: yes")
    ocn = result.by_executable("ocean")[0]["ocean_mean_T"]
    print(f"shared ocean <T>: {ocn[0]:.3f} K -> {ocn[-1]:.3f} K (feels the scenario average)")


if __name__ == "__main__":
    main()

"""A CCSM-style toy coupled climate model exercising MPH.

The paper's motivating application: atmosphere, ocean, land and sea-ice
component models interacting through a flux coupler.  Every piece here is
a real (if simple) numerical model — see :mod:`repro.climate.components` —
and the assembled system (:mod:`repro.climate.ccsm`) runs identically
under every MPH execution mode.
"""

from repro.climate.ccsm import (
    MODEL_KINDS,
    MODES,
    SURFACE_KINDS,
    CCSMConfig,
    build_executables,
    build_registry,
    run_ccsm,
    total_energy_series,
)
from repro.climate.components import (
    AtmosphereModel,
    ComponentModel,
    LandModel,
    OceanModel,
    PhysicsParams,
    SeaIceModel,
    insolation,
)
from repro.climate.checkpoint import restore as restore_checkpoint, save as save_checkpoint
from repro.climate.coupler import FluxCoupler, SurfaceFractions
from repro.climate.forcing import YEAR_SECONDS, CO2Scenario, SeasonalForcing
from repro.climate.diagnostics import EnergyReport, energy_report
from repro.climate.fields import DistributedField, weighted_global_sum, weighted_global_sums
from repro.climate.grid import Decomposition, LatLonGrid
from repro.climate.nesting import RegionSpec, RegionalGrid, RegionalModel
from repro.climate.regrid import ConservativeRegridder, overlap_matrix, regrid

__all__ = [
    "MODEL_KINDS",
    "MODES",
    "SURFACE_KINDS",
    "CCSMConfig",
    "build_executables",
    "build_registry",
    "run_ccsm",
    "total_energy_series",
    "AtmosphereModel",
    "ComponentModel",
    "LandModel",
    "OceanModel",
    "PhysicsParams",
    "SeaIceModel",
    "insolation",
    "FluxCoupler",
    "SurfaceFractions",
    "restore_checkpoint",
    "save_checkpoint",
    "YEAR_SECONDS",
    "CO2Scenario",
    "SeasonalForcing",
    "EnergyReport",
    "energy_report",
    "DistributedField",
    "weighted_global_sum",
    "weighted_global_sums",
    "Decomposition",
    "LatLonGrid",
    "RegionSpec",
    "RegionalGrid",
    "RegionalModel",
    "ConservativeRegridder",
    "overlap_matrix",
    "regrid",
]

"""The flux coupler: merge, flux computation, conservative redistribution.

In CCSM "these component models interact with each other through a flux
coupler component" (paper §1).  The toy coupler reproduces the essential
contract:

* each coupling step it receives every component's surface temperature
  (on that component's grid);
* it regrids them to the atmosphere grid, computes per-surface sensible
  heat fluxes ``F_s = k_s (T_s - T_atm)``, merges them with static surface
  fractions into the atmosphere's total flux, and returns each surface its
  own (fraction-weighted, conservatively regridded) share with opposite
  sign;
* the books balance: the energy handed to the atmosphere equals the energy
  drained from the surfaces to round-off, tracked per step in
  :attr:`FluxCoupler.exchange_residual`.

Two transport strategies implement the exchange (``CCSMConfig.exchange``):
point-to-point MPH messages addressed by component name (paper §5.2), or
collectives over ``MPH_comm_join`` joint communicators (paper §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.climate.grid import LatLonGrid
from repro.climate.regrid import regrid
from repro.errors import ReproError

#: World-communicator tag bases of the coupling protocol (offset by the
#: sending/receiving component's id).
TEMP_TAG_BASE = 910_000
FLUX_TAG_BASE = 920_000


@dataclass(frozen=True)
class SurfaceFractions:
    """Static ocean/land/ice area fractions on the atmosphere grid.

    Fractions are synthetic but earth-like: ice poleward of ~65°, two
    idealised continents, ocean elsewhere; they sum to 1 everywhere.
    """

    ocean: np.ndarray
    land: np.ndarray
    ice: np.ndarray

    @classmethod
    def build(cls, grid: LatLonGrid) -> "SurfaceFractions":
        """Deterministic fractions for *grid*."""
        lat, lon = np.meshgrid(grid.lat_centers, grid.lon_centers, indexing="ij")
        ice = 1.0 / (1.0 + np.exp(-(np.abs(lat) - 65.0) / 4.0))
        land_raw = 0.35 * (1.0 + np.sin(np.deg2rad(2.0 * lon + 40.0))) * np.cos(
            np.deg2rad(lat)
        ) ** 2
        land = np.clip(land_raw, 0.0, 0.9) * (1.0 - ice)
        ocean = 1.0 - ice - land
        if np.any(ocean < -1e-12):
            raise ReproError("surface fractions exceed 1 somewhere")
        return cls(ocean=np.clip(ocean, 0.0, 1.0), land=land, ice=ice)

    def of(self, kind: str) -> np.ndarray:
        """Fraction field of surface *kind* (``"ocean"``/``"land"``/``"ice"``)."""
        try:
            return getattr(self, kind)
        except AttributeError:
            raise ReproError(f"unknown surface kind {kind!r}") from None


class FluxCoupler:
    """The flux computation engine: pure numerics on whole fields, run on
    the coupler's local processor 0 (transport lives in
    :class:`~repro.climate.ccsm.CouplerRunner`, so both exchanges share it).

    Parameters
    ----------
    atm_grid :
        The atmosphere grid, where fluxes are computed.
    surface_grids :
        ``kind -> grid`` for each surface component.
    coupling_coeff :
        ``kind -> k`` sensible-heat exchange coefficients [W m^-2 K^-1].
    """

    def __init__(
        self,
        atm_grid: LatLonGrid,
        surface_grids: dict[str, LatLonGrid],
        coupling_coeff: dict[str, float],
    ):
        self.atm_grid = atm_grid
        self.surface_grids = dict(surface_grids)
        self.coupling_coeff = dict(coupling_coeff)
        missing = set(self.surface_grids) - set(self.coupling_coeff)
        if missing:
            raise ReproError(f"no coupling coefficient for surfaces {sorted(missing)}")
        self.fractions = SurfaceFractions.build(atm_grid)
        #: Per-step energy-exchange imbalance (should be round-off).
        self.exchange_residual: list[float] = []

    def drop_surface(self, kind: str) -> None:
        """Remove surface *kind* from the coupling — the degraded-mode
        physics after that component's processes die.

        Its area fraction of the atmosphere simply stops exchanging heat;
        the remaining surfaces keep their coefficients and the energy
        books still balance over the surviving exchange.  At least one
        surface must remain.
        """
        if kind not in self.surface_grids:
            raise ReproError(
                f"unknown surface kind {kind!r}; active: {sorted(self.surface_grids)}"
            )
        if len(self.surface_grids) == 1:
            raise ReproError(f"cannot drop {kind!r}: it is the last surface component")
        del self.surface_grids[kind]
        del self.coupling_coeff[kind]

    def compute_fluxes(
        self,
        atm_temp: np.ndarray,
        surface_temps: dict[str, np.ndarray],
        record: bool = True,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """One coupling step's flux computation.

        Parameters
        ----------
        atm_temp :
            Full atmosphere temperature on the atmosphere grid.
        surface_temps :
            ``kind -> full temperature`` on each surface's own grid.
        record :
            Compute the exchange imbalance and book it into
            :attr:`exchange_residual`.  The implicit coupler evaluates
            trial fluxes many times per step and records only the
            committed one; a trial round integrates nothing.

        Returns
        -------
        (atm_flux, surface_fluxes) :
            The atmosphere's total coupling flux on the atmosphere grid
            [W m^-2, positive warming], and each surface's flux on its own
            grid.
        """
        atm_temp = np.asarray(atm_temp, dtype=float)
        if atm_temp.shape != self.atm_grid.shape:
            raise ReproError(
                f"atmosphere temperature shape {atm_temp.shape} != grid "
                f"{self.atm_grid.shape}"
            )
        atm_flux = np.zeros(self.atm_grid.shape)
        surface_fluxes: dict[str, np.ndarray] = {}
        for kind, grid in self.surface_grids.items():
            t_sfc = regrid(surface_temps[kind], grid, self.atm_grid)
            k = self.coupling_coeff[kind]
            frac = self.fractions.of(kind)
            # Upward sensible heat: warms the atmosphere, cools the surface.
            flux_up = k * frac * (t_sfc - atm_temp)
            atm_flux += flux_up
            sfc_flux = regrid(-flux_up, self.atm_grid, grid)
            surface_fluxes[kind] = sfc_flux
        if record:
            balance = 0.0
            for kind, grid in self.surface_grids.items():
                balance += grid.area_integral(surface_fluxes[kind])
            balance += self.atm_grid.area_integral(atm_flux)
            self.exchange_residual.append(balance)
        return atm_flux, surface_fluxes

    def max_residual(self) -> float:
        """Largest absolute per-step exchange imbalance so far."""
        return max((abs(r) for r in self.exchange_residual), default=0.0)

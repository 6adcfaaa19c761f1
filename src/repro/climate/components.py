"""Component models of the toy CCSM: atmosphere and surface components.

Each component is a genuinely numerical (if deliberately simple) model: a
2-D energy-balance temperature equation on its own lat–lon grid,

.. math::

    C \\, \\partial_t T = C D \\nabla^2 T + Q_{abs} - (A + B (T - T_0)) + F,

where :math:`Q_{abs}` is absorbed insolation, :math:`A + B(T-T_0)` the
linearised outgoing long-wave radiation, and :math:`F` the coupling flux
received from the flux coupler each step.  Components differ in heat
capacity, diffusivity, albedo and extra prognostics (sea ice carries a
thickness field), which is what makes the coupled exchange non-trivial.

The numerical core is decomposition-independent: the stencil is local plus
halo rows, so a component produces bitwise-identical fields regardless of
how many processes it runs on or which execution mode hosts it — the
property experiment E11 leans on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from repro.climate.fields import (
    DistributedField,
    reduce_shares,
    weighted_global_sum,
    weighted_shares,
)
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError
from repro.mpi.comm import Comm

#: Steps a model records before it settles them itself, so its ledger's
#: memory stays bounded however rarely a driver settles.  Not a setting:
#: where the reduction happens changes no bit of any diagnostic.
SETTLE_EVERY = 64


@dataclass
class PhysicsParams:
    """Physical parameters of one component model (per unit area, SI)."""

    #: Areal heat capacity [J m^-2 K^-1].
    heat_capacity: float = 1.0e7
    #: Diffusivity in grid units per second (the stencil is unit-spaced).
    diffusivity: float = 0.0
    #: Shortwave albedo (surfaces only; the atmosphere absorbs no solar).
    albedo: float = 0.3
    #: Solar constant [W m^-2]; 0 switches insolation off.
    solar_constant: float = 1361.0
    #: OLR linearisation ``A + B (T - T_ref)`` [W m^-2], [W m^-2 K^-1].
    olr_a: float = 0.0
    olr_b: float = 0.0
    #: Reference temperature for the OLR linearisation [K].
    t_ref: float = 288.0

    def validate(self) -> "PhysicsParams":
        """Sanity-check parameter ranges; returns self for chaining."""
        for name in (
            "heat_capacity", "diffusivity", "albedo", "solar_constant", "olr_a", "olr_b", "t_ref"
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise ReproError(f"{name} must be a finite number, got {value!r}")
        if self.heat_capacity <= 0:
            raise ReproError(f"heat_capacity must be positive, got {self.heat_capacity}")
        if not 0.0 <= self.albedo <= 1.0:
            raise ReproError(f"albedo must be in [0, 1], got {self.albedo}")
        if self.diffusivity < 0:
            raise ReproError(f"diffusivity must be >= 0, got {self.diffusivity}")
        return self


def insolation(lat_deg: np.ndarray, solar_constant: float) -> np.ndarray:
    """Annual-mean insolation profile: the classic second-Legendre EBM form
    ``(S0/4) (1 - 0.48 P2(sin lat))`` [W m^-2]."""
    s = np.sin(np.deg2rad(lat_deg))
    p2 = 0.5 * (3.0 * s * s - 1.0)
    return (solar_constant / 4.0) * (1.0 - 0.48 * p2)


def _frozen(array: np.ndarray) -> np.ndarray:
    """*array*, made read-only."""
    array.flags.writeable = False
    return array


def _recall(memo: Optional[dict], key: str, compute) -> np.ndarray:
    """``compute()``, through *memo* when there is one: the first call
    leaves its result there read-only, later ones take it."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = _frozen(compute())
    return memo[key]


@dataclass
class StepDiagnostics:
    """What one model step reports: its energy bookkeeping
    (area-integrated, W m^-2 equivalents since areas are fractional) and
    the area means of the state it left behind.

    A step sends nothing for it: :meth:`ComponentModel.step` records the
    step's share of every sum, and :meth:`ComponentModel.settle` reduces
    all recorded steps at once and returns one of these per step.  A
    driver that wants the post-step mean reads it here instead of paying
    :meth:`ComponentModel.mean_temperature` a reduction of its own.  On
    :attr:`ComponentModel.budget` the four energy terms accumulate; the
    means describe one step and stay at their defaults there.
    """

    solar_in: float = 0.0
    olr_out: float = 0.0
    coupling_in: float = 0.0
    diffusion_residual: float = 0.0
    #: Post-step area-mean temperature [K]: bitwise what
    #: :meth:`ComponentModel.mean_temperature` returns after the step.
    mean_temperature: float = 0.0
    #: Post-step area-mean ice thickness [m] (sea ice only): bitwise
    #: :meth:`SeaIceModel.mean_thickness`.
    mean_thickness: Optional[float] = None


class StateSnapshot(dict):
    """What :meth:`ComponentModel.state_snapshot` returns: the restartable
    state by name, plus :attr:`memo` — what the first
    :meth:`~ComponentModel.advance_state` after a
    :meth:`~ComponentModel.state_restore` computed from this state alone
    (read-only arrays), kept so the next trial step from the same
    snapshot takes it instead of computing and exchanging it again."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo: dict[str, np.ndarray] = {}


class ComponentModel:
    """Base class: an energy-balance temperature model on its own grid.

    Parameters
    ----------
    comm :
        The component communicator (from MPH).
    grid :
        The component's global grid.
    params :
        Physical parameters.
    t_init :
        ``fn(lat_deg, lon_deg) -> K`` initial condition; a smooth default
        (warm equator, cold poles, small zonal wave) is used when omitted.
    """

    kind = "component"

    def __init__(
        self,
        comm: Comm,
        grid: LatLonGrid,
        params: PhysicsParams,
        t_init=None,
        forcing=None,
        co2=None,
    ):
        self.comm = comm
        self.grid = grid
        self.params = params.validate()
        init = t_init if t_init is not None else self.default_initial_condition
        #: The temperature field, cut into latitude bands.
        self.temperature = DistributedField.from_function(comm, grid, init)
        #: Optional :class:`~repro.climate.forcing.SeasonalForcing`; when
        #: set, insolation follows the seasonal cycle instead of the
        #: annual-mean profile.
        self.forcing = forcing
        #: Optional :class:`~repro.climate.forcing.CO2Scenario`; when set,
        #: its radiative forcing is subtracted from the OLR each step.
        self.co2 = co2
        #: Model time in seconds (advanced by each step's dt).
        self.current_time = 0.0
        #: Accumulated energy bookkeeping of every settled step.
        self.budget = StepDiagnostics()
        self.steps_taken = 0
        #: Steps recorded and not settled yet: ``(dt, energy-term names,
        #: state names, shares)`` each, in step order.
        self._ledger: list[tuple[float, tuple[str, ...], tuple[str, ...], np.ndarray]] = []
        #: Settled steps :meth:`settle` has not returned yet.
        self._settled: list[StepDiagnostics] = []
        #: ``(memo, temperature array, time)`` armed by :meth:`state_restore`
        #: for the next :meth:`advance_state`; ``None`` otherwise.
        self._restored: Optional[tuple[dict, np.ndarray, float]] = None

    @staticmethod
    def default_initial_condition(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Warm equator / cold poles with a small zonal perturbation."""
        return (
            288.0
            + 30.0 * (np.cos(np.deg2rad(lat)) ** 2 - 0.5)
            + 2.0 * np.sin(np.deg2rad(2.0 * lon)) * np.cos(np.deg2rad(lat))
        )

    # -- physics ---------------------------------------------------------------

    def _absorbed(self, q: np.ndarray) -> np.ndarray:
        """The share ``1 - albedo`` of the band's insolation *q* (one
        value per latitude row), on every column of the local block."""
        q = q * (1.0 - self.params.albedo)
        return np.repeat(q[:, None], self.grid.nlon, axis=1)

    def _band_latitudes(self) -> np.ndarray:
        start, stop = self.temperature.rows_range
        return self.grid.lat_centers[start:stop]

    @cached_property
    def _annual_solar(self) -> np.ndarray:
        """Absorbed annual-mean insolation: a function of latitude and
        parameters alone, so computed once, on first use, and shared
        read-only by every step."""
        return _frozen(
            self._absorbed(insolation(self._band_latitudes(), self.params.solar_constant))
        )

    def _local_insolation(self) -> np.ndarray:
        """Absorbed insolation [W m^-2] on the local block: the seasonal
        forcing's at the model time, or the annual mean without one.  A
        model whose ``solar_constant`` is 0 absorbs none, with forcing or
        without: its annual mean is one all-zero array."""
        if self.forcing is None or self.params.solar_constant == 0:
            return self._annual_solar
        return self._absorbed(
            self.forcing.daily_insolation(self._band_latitudes(), self.current_time)
        )

    def absorbed_solar(self) -> np.ndarray:
        """Absorbed shortwave [W m^-2] on the local block (zero where
        ``params.solar_constant`` is 0, as the atmosphere's default is)."""
        return self._local_insolation()

    def outgoing_longwave(self) -> np.ndarray:
        """Linearised OLR [W m^-2] on the local block, reduced by any CO2
        scenario's greenhouse forcing."""
        p = self.params
        olr = p.olr_a + p.olr_b * (self.temperature.data - p.t_ref)
        if self.co2 is not None:
            olr = olr - self.co2.forcing(self.current_time)
        return olr

    def advance_state(
        self, dt: float, coupling_flux: Optional[np.ndarray] = None
    ) -> dict[str, np.ndarray]:
        """The state update of :meth:`step`, without its diagnostics.

        Advances temperature (and any further prognostics), clock and
        step count exactly as :meth:`step` does, but books nothing on
        :attr:`budget` and performs no global reduction — the halo
        exchange of a diffusive model is its only communication.  This is
        what an implicit coupling iteration runs for its trial steps,
        whose diagnostics a :meth:`state_restore` would discard.

        The first call after a :meth:`state_restore` takes absorbed
        solar, OLR and the Laplacian — functions of the restored state
        alone — from the snapshot's memo, or computes them and leaves
        them there: a second trial step from the same snapshot differs
        only in its flux, so it exchanges no halo.  The memo is dropped
        as soon as the state is not the restored one any more: after
        this call (the later substeps of a sub-cycled component), or if
        ``temperature.data`` or the clock was reassigned in between.

        Returns
        -------
        dict
            The step's energy terms on the local block [W m^-2], keyed by
            the :class:`StepDiagnostics` field each integrates to
            (``diffusion_residual`` only from a diffusive model).
        """
        p = self.params
        temp = self.temperature
        restored, self._restored = self._restored, None
        memo = None
        if (
            restored is not None
            and restored[1] is temp.data
            and restored[2] == self.current_time
        ):
            memo = restored[0]
        solar = _recall(memo, "solar", self.absorbed_solar)
        olr = _recall(memo, "olr", self.outgoing_longwave)
        flux = np.zeros_like(temp.data) if coupling_flux is None else np.asarray(coupling_flux)
        if flux.shape != temp.data.shape:
            raise ReproError(
                f"{self.kind}: coupling flux shape {flux.shape} != local block "
                f"{temp.data.shape}"
            )
        terms = {"solar_in": solar, "olr_out": olr, "coupling_in": flux}
        tendency = (solar - olr + flux) / p.heat_capacity
        if p.diffusivity > 0.0:
            lap = _recall(memo, "laplacian", temp.laplacian)
            tendency = tendency + p.diffusivity * lap
            terms["diffusion_residual"] = p.heat_capacity * p.diffusivity * lap
        temp.data = temp.data + dt * tendency
        self.steps_taken += 1
        self.current_time += dt
        return terms

    def _state_fields(self) -> dict[str, np.ndarray]:
        """The prognostic fields whose area means :meth:`step` reports,
        keyed by :class:`StepDiagnostics` field."""
        return {"mean_temperature": self.temperature.data}

    def step(self, dt: float, coupling_flux: Optional[np.ndarray] = None) -> None:
        """Advance one time step of *dt* seconds, and record its
        diagnostics for the next :meth:`settle`.

        :meth:`advance_state`, then this rank's share of every energy
        term and post-step mean
        (:func:`~repro.climate.fields.weighted_shares`) goes on the
        model's ledger.  The step sends nothing for its diagnostics: the
        ledger is reduced where a driver reads it, in one reduction for
        however many steps it holds — or by the step itself once it holds
        :data:`SETTLE_EVERY` steps.

        Parameters
        ----------
        coupling_flux :
            Flux from the coupler on the local block [W m^-2], positive
            warming this component.  ``None`` means zero.
        """
        terms = self.advance_state(dt, coupling_flux)
        state = self._state_fields()
        shares = weighted_shares(
            self.grid, [*terms.values(), *state.values()], self.temperature.rows_range
        )
        self._ledger.append((dt, tuple(terms), tuple(state), shares))
        if len(self._ledger) >= SETTLE_EVERY:
            self._settle_ledger()

    def settle(self) -> list[StepDiagnostics]:
        """Reduce every recorded step and return the diagnostics of each
        step settled since the last call, in step order (collective over
        the component communicator).

        One gather and one broadcast serve all the steps the ledger holds
        (none when it is empty); each step's energy terms are added to
        :attr:`budget` in step order.  The steps the model settled itself
        are returned here too.  Which steps a settle covers changes no
        bit of what it returns.
        """
        self._settle_ledger()
        out, self._settled = self._settled, []
        return out

    def _settle_ledger(self) -> None:
        """Reduce the ledger onto :attr:`budget` and the settled list."""
        if not self._ledger:
            return
        totals = reduce_shares(self.comm, np.stack([entry[3] for entry in self._ledger]))
        for (dt, terms, state, _), row in zip(self._ledger, totals):
            diag = StepDiagnostics(
                **{name: float(total) * dt for name, total in zip(terms, row)},
                **{name: float(total) for name, total in zip(state, row[len(terms) :])},
            )
            self.budget.solar_in += diag.solar_in
            self.budget.olr_out += diag.olr_out
            self.budget.coupling_in += diag.coupling_in
            self.budget.diffusion_residual += diag.diffusion_residual
            self._settled.append(diag)
        self._ledger = []

    # -- snapshot / restore (implicit coupling) ---------------------------------

    def state_snapshot(self) -> dict:
        """Capture the restartable model state (local block).

        The implicit coupling loop evaluates trial steps repeatedly from
        the same step-start state; :meth:`state_restore` rewinds to a
        snapshot bitwise (temperature, clock, step count, energy budget,
        and the recorded and settled steps not yet returned).
        """
        return StateSnapshot(
            temperature=self.temperature.data.copy(),
            current_time=self.current_time,
            steps_taken=self.steps_taken,
            budget=StepDiagnostics(
                solar_in=self.budget.solar_in,
                olr_out=self.budget.olr_out,
                coupling_in=self.budget.coupling_in,
                diffusion_residual=self.budget.diffusion_residual,
            ),
            ledger=list(self._ledger),
            settled=list(self._settled),
        )

    def state_restore(self, snapshot: dict) -> None:
        """Rewind to a :meth:`state_snapshot` (bitwise), and arm its memo
        for the next :meth:`advance_state`."""
        self.temperature.data = snapshot["temperature"].copy()
        self.current_time = snapshot["current_time"]
        self.steps_taken = snapshot["steps_taken"]
        b = snapshot["budget"]
        self.budget = StepDiagnostics(
            solar_in=b.solar_in,
            olr_out=b.olr_out,
            coupling_in=b.coupling_in,
            diffusion_residual=b.diffusion_residual,
        )
        self._ledger = list(snapshot["ledger"])
        self._settled = list(snapshot["settled"])
        memo = getattr(snapshot, "memo", None)  # a plain dict restores too
        self._restored = (
            None if memo is None else (memo, self.temperature.data, self.current_time)
        )

    # -- diagnostics ------------------------------------------------------------

    def mean_temperature(self) -> float:
        """Area-weighted global mean temperature [K] (same on every rank)."""
        return self.temperature.area_mean()

    def energy(self) -> float:
        """Heat content per unit planet area, ``C * <T>`` [J m^-2]."""
        return self.params.heat_capacity * self.temperature.area_mean()


class AtmosphereModel(ComponentModel):
    """The atmosphere: diffusive heat transport, OLR to space, and by
    default no direct solar absorption — its default ``solar_constant``
    is 0, because the surfaces absorb and hand heat up as coupling flux.
    Give it a solar constant and it absorbs like any component."""

    kind = "atmosphere"

    @classmethod
    def default_params(cls) -> PhysicsParams:
        """CCSM-toy defaults: light column, strong transport, full OLR."""
        return PhysicsParams(
            heat_capacity=1.0e7,
            diffusivity=2.0e-6,
            albedo=0.0,
            solar_constant=0.0,  # surfaces absorb the sun
            olr_a=210.0,
            olr_b=2.0,
            t_ref=288.0,
        )


class OceanModel(ComponentModel):
    """The ocean: a 50 m mixed layer — huge heat capacity, slow response."""

    kind = "ocean"

    @classmethod
    def default_params(cls) -> PhysicsParams:
        return PhysicsParams(
            heat_capacity=2.0e8,
            diffusivity=5.0e-7,
            albedo=0.10,
            solar_constant=1361.0,
            olr_a=0.0,
            olr_b=0.0,  # surfaces vent through the atmosphere
        )


class LandModel(ComponentModel):
    """The land surface: tiny heat capacity, fast response, no transport."""

    kind = "land"

    @classmethod
    def default_params(cls) -> PhysicsParams:
        return PhysicsParams(
            heat_capacity=1.0e7,
            diffusivity=0.0,
            albedo=0.25,
            solar_constant=1361.0,
        )


class SeaIceModel(ComponentModel):
    """Sea ice: bright, cold, and carrying an ice-thickness prognostic.

    Thickness grows where the ice temperature sits below freezing and
    melts above it — a deliberately simple thermodynamic law that gives
    the component distinct state to exchange and checkpoint.
    """

    kind = "seaice"

    #: Freezing point [K] and thickness growth rate [m K^-1 s^-1].
    t_freeze = 271.35
    growth_rate = 1.0e-8

    def __init__(
        self,
        comm: Comm,
        grid: LatLonGrid,
        params: PhysicsParams,
        t_init=None,
        forcing=None,
        co2=None,
    ):
        super().__init__(comm, grid, params, t_init, forcing=forcing, co2=co2)
        #: Ice thickness [m] on the local block.
        self.thickness = np.full(self.temperature.data.shape, 1.0)

    @classmethod
    def default_params(cls) -> PhysicsParams:
        return PhysicsParams(
            heat_capacity=5.0e7,
            diffusivity=0.0,
            albedo=0.60,
            solar_constant=1361.0,
        )

    def advance_state(
        self, dt: float, coupling_flux: Optional[np.ndarray] = None
    ) -> dict[str, np.ndarray]:
        terms = super().advance_state(dt, coupling_flux)
        # Thickness follows the *new* temperature only, so it is final
        # when the step records its shares and its mean can ride along.
        self.thickness = np.clip(
            self.thickness + dt * self.growth_rate * (self.t_freeze - self.temperature.data),
            0.0,
            None,
        )
        return terms

    def _state_fields(self) -> dict[str, np.ndarray]:
        return {**super()._state_fields(), "mean_thickness": self.thickness}

    def state_snapshot(self) -> dict:
        snap = super().state_snapshot()
        snap["thickness"] = self.thickness.copy()
        return snap

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self.thickness = snapshot["thickness"].copy()

    def mean_thickness(self) -> float:
        """Area-weighted mean ice thickness [m]."""
        return weighted_global_sum(
            self.comm, self.grid, self.thickness, self.temperature.rows_range
        )

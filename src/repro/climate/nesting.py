"""One-way regional nesting: a limited-area model driven by the global one.

Paper §7 lists MPH's adoption in "NCAR's Weather Research and Forecast
(WRF) model, the new generation of the mesoscale model (MM5)" — regional
models that take their lateral boundary conditions from a coarser global
model.  This module reproduces that coupling pattern as a third MPH
application:

* :class:`RegionalGrid` — a limited-area grid nested in a global
  :class:`~repro.climate.grid.LatLonGrid`, its boundaries aligned with
  parent cell edges and each parent cell subdivided ``refinement`` times;
* conservative parent→region interpolation (the same overlap-matrix
  machinery as the coupler's regridding, restricted to the region);
* :class:`RegionalModel` — a component model on the fine grid (the same
  energy-balance physics, bands, halos and diagnostics), plus Davies
  boundary relaxation: the outer ``relax_width`` cells are nudged toward
  the parent-supplied frame each step;
* the nest exchange itself travels over MPH name-addressed messaging
  (global model → regional model, one way).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.climate.components import ComponentModel, PhysicsParams
from repro.climate.fields import DistributedField
from repro.climate.grid import LatLonGrid
from repro.climate.regrid import overlap_matrix
from repro.errors import ReproError
from repro.mpi.comm import Comm


@dataclass(frozen=True)
class RegionSpec:
    """A nest region in parent-grid index space.

    ``row0:row1`` / ``col0:col1`` select parent cells (python slices);
    ``refinement`` subdivides each selected parent cell into
    ``refinement × refinement`` regional cells.
    """

    row0: int
    row1: int
    col0: int
    col1: int
    refinement: int = 3

    def validate(self, parent: LatLonGrid) -> "RegionSpec":
        """Check every bound and the refinement are integers (not bools)
        and the region fits inside the parent grid."""
        for name in ("row0", "row1", "col0", "col1", "refinement"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ReproError(f"region {name} must be an int, got {value!r}")
        if not (0 <= self.row0 < self.row1 <= parent.nlat):
            raise ReproError(f"region rows {self.row0}:{self.row1} outside parent {parent.nlat}")
        if not (0 <= self.col0 < self.col1 <= parent.nlon):
            raise ReproError(f"region cols {self.col0}:{self.col1} outside parent {parent.nlon}")
        if self.refinement < 1:
            raise ReproError(f"refinement must be >= 1, got {self.refinement}")
        return self


class RegionalGrid:
    """The nested limited-area grid."""

    #: A limited area: longitude does not wrap.
    periodic = False

    def __init__(self, parent: LatLonGrid, spec: RegionSpec):
        self.parent = parent
        self.spec = spec.validate(parent)
        self.nlat = (spec.row1 - spec.row0) * spec.refinement
        self.nlon = (spec.col1 - spec.col0) * spec.refinement

    @cached_property
    def lat_edges(self) -> np.ndarray:
        """Regional latitude edges — the parent edges over the region,
        each interval subdivided uniformly."""
        coarse = self.parent.lat_edges[self.spec.row0 : self.spec.row1 + 1]
        return _subdivide(coarse, self.spec.refinement)

    @cached_property
    def lon_edges(self) -> np.ndarray:
        """Regional longitude edges."""
        step = 360.0 / self.parent.nlon
        coarse = np.arange(self.spec.col0, self.spec.col1 + 1) * step
        return _subdivide(coarse, self.spec.refinement)

    @cached_property
    def lat_centers(self) -> np.ndarray:
        """Regional cell-center latitudes."""
        e = self.lat_edges
        return 0.5 * (e[:-1] + e[1:])

    @cached_property
    def lon_centers(self) -> np.ndarray:
        """Regional cell-center longitudes."""
        e = self.lon_edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def shape(self) -> tuple[int, int]:
        """``(nlat, nlon)`` of the regional grid."""
        return (self.nlat, self.nlon)

    @cached_property
    def area_weights(self) -> np.ndarray:
        """Cell areas normalised to sum to 1 *within the region*."""
        edges = np.deg2rad(self.lat_edges)
        band = np.sin(edges[1:]) - np.sin(edges[:-1])
        w = np.repeat(band[:, None], self.nlon, axis=1)
        return w / w.sum()

    def area_mean(self, field: np.ndarray) -> float:
        """Region-area-weighted mean of a full regional field."""
        field = np.asarray(field)
        if field.shape != self.shape:
            raise ReproError(f"field shape {field.shape} != region shape {self.shape}")
        return float((field * self.area_weights).sum())

    @cached_property
    def interp_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Conservative parent→region remap matrices ``(M_lat, M_lon)``
        over the parent cells the region covers."""
        src_lat = np.sin(np.deg2rad(self.parent.lat_edges[self.spec.row0 : self.spec.row1 + 1]))
        dst_lat = np.sin(np.deg2rad(self.lat_edges))
        step = 360.0 / self.parent.nlon
        src_lon = np.arange(self.spec.col0, self.spec.col1 + 1) * step
        return overlap_matrix(src_lat, dst_lat), overlap_matrix(src_lon, self.lon_edges)

    def from_parent(self, parent_field: np.ndarray) -> np.ndarray:
        """Interpolate a full parent-grid field onto the regional grid
        (conservative; the region-mean of the result equals the parent's
        region mean)."""
        parent_field = np.asarray(parent_field, dtype=float)
        if parent_field.shape != self.parent.shape:
            raise ReproError(
                f"parent field shape {parent_field.shape} != parent grid {self.parent.shape}"
            )
        sub = parent_field[self.spec.row0 : self.spec.row1, self.spec.col0 : self.spec.col1]
        mlat, mlon = self.interp_matrices
        return mlat @ sub @ mlon.T


def _subdivide(edges: np.ndarray, k: int) -> np.ndarray:
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        out.extend(a + (b - a) * (i + 1) / k for i in range(k))
    return np.asarray(out)


class RegionalModel(ComponentModel):
    """The limited-area model: the component physics on the fine grid,
    plus Davies boundary relaxation toward the parent-supplied frame.

    A :class:`~repro.climate.components.ComponentModel` whose grid is the
    :class:`RegionalGrid`: its temperature is cut in latitude bands like
    the global components', its steps go on the model's ledger, and its
    stencil replicates every edge (the grid is not periodic, and the
    relaxation zone owns the boundary anyway).  The relaxation runs after
    the physics of each step and books no energy term.
    """

    kind = "regional"

    def __init__(
        self,
        comm: Comm,
        rgrid: RegionalGrid,
        params: PhysicsParams,
        relax_width: int = 2,
        relax_rate: float = 0.5,
        t_init=None,
    ):
        if not 0.0 <= relax_rate <= 1.0:
            raise ReproError(f"relax_rate must be in [0, 1], got {relax_rate}")
        if relax_width < 1:
            raise ReproError(f"relax_width must be >= 1, got {relax_width}")
        super().__init__(comm, rgrid, params, t_init)
        self.relax_width = relax_width
        self.relax_rate = relax_rate
        #: The current boundary-relaxation target (local block; None until
        #: the first frame arrives).
        self.target: Optional[np.ndarray] = None
        start, stop = self.temperature.rows_range
        nlat, nlon = rgrid.shape
        rows = np.arange(start, stop)
        cols = np.arange(nlon)
        dist = np.minimum(
            np.minimum(rows, nlat - 1 - rows)[:, None],
            np.minimum(cols, nlon - 1 - cols)[None, :],
        )
        # Functions of the band, the grid and the settings alone: computed
        # here, once, and read-only.
        self._mask = np.clip(1.0 - dist / relax_width, 0.0, 1.0)
        self._strength = self._mask * relax_rate
        self._mask.flags.writeable = self._strength.flags.writeable = False

    @staticmethod
    def default_initial_condition(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """A uniform 288 K start."""
        return np.full_like(lat, 288.0)

    def set_frame(self, regional_full: Optional[np.ndarray], root: int = 0) -> None:
        """Distribute a full regional-grid target field from *root* —
        the parent model's state interpolated by
        :meth:`RegionalGrid.from_parent` (collective)."""
        frame = DistributedField(self.comm, self.grid)
        frame.set_from_global(regional_full, root)
        self.target = frame.data

    def relaxation_mask(self) -> np.ndarray:
        """Per-cell relaxation shape in [0, 1] on the local block: 1 at
        the outermost boundary ring, tapering linearly to 0 inside
        ``relax_width`` (read-only)."""
        return self._mask

    def advance_state(
        self, dt: float, coupling_flux: Optional[np.ndarray] = None
    ) -> dict[str, np.ndarray]:
        """The component's state update, then the boundary relaxation
        toward the latest frame (which books no energy term)."""
        terms = super().advance_state(dt, coupling_flux)
        if self.target is not None:
            temp = self.temperature
            temp.data = temp.data + self._strength * (self.target - temp.data)
        return terms

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
* :class:`RegionalModel` — the same energy-balance physics on the fine
  grid, plus Davies boundary relaxation: the outer ``relax_width`` cells
  are nudged toward the parent-supplied frame each step;
* the nest exchange itself travels over MPH name-addressed messaging
  (global model → regional model, one way).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.climate.components import PhysicsParams, insolation
from repro.climate.fields import five_point_laplacian, gather_rows
from repro.climate.grid import Decomposition, LatLonGrid
from repro.climate.regrid import overlap_matrix
from repro.errors import ReproError
from repro.mpi.comm import Comm

_TAG_NORTH, _TAG_SOUTH = 41, 42


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
        """Check the region fits inside the parent grid."""
        if not (0 <= self.row0 < self.row1 <= parent.nlat):
            raise ReproError(f"region rows {self.row0}:{self.row1} outside parent {parent.nlat}")
        if not (0 <= self.col0 < self.col1 <= parent.nlon):
            raise ReproError(f"region cols {self.col0}:{self.col1} outside parent {parent.nlon}")
        if self.refinement < 1:
            raise ReproError(f"refinement must be >= 1, got {self.refinement}")
        return self


class RegionalGrid:
    """The nested limited-area grid."""

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


class RegionalModel:
    """The limited-area model: fine-grid physics + Davies boundary
    relaxation toward the parent-supplied frame.

    Decomposed over its communicator in latitude rows like the global
    components; the stencil is non-periodic in both directions (edges
    replicate — the relaxation zone owns the boundary anyway).
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
        if comm.size > rgrid.nlat:
            raise ReproError(
                f"cannot decompose {rgrid.nlat} regional rows over {comm.size} processes"
            )
        if not 0.0 <= relax_rate <= 1.0:
            raise ReproError(f"relax_rate must be in [0, 1], got {relax_rate}")
        if relax_width < 1:
            raise ReproError(f"relax_width must be >= 1, got {relax_width}")
        self.comm = comm
        self.rgrid = rgrid
        self.params = params.validate()
        self.relax_width = relax_width
        self.relax_rate = relax_rate
        #: Latitude rows over the ranks, cut as the global components' are.
        self._decomp = Decomposition(rgrid, comm.size)
        start, stop = self._rows = self._decomp.rows(comm.rank)
        init = t_init if t_init is not None else (lambda la, lo: np.full_like(la, 288.0))
        lat2d, lon2d = np.meshgrid(
            rgrid.lat_centers[start:stop], rgrid.lon_centers, indexing="ij"
        )
        #: The regional prognostic temperature (local block).
        self.data = np.asarray(init(lat2d, lon2d), dtype=float)
        #: The current boundary-relaxation target (local block; None until
        #: the first frame arrives).
        self.target: Optional[np.ndarray] = None
        self.steps_taken = 0
        #: Absorbed insolation on the local block: a function of latitude
        #: and parameters alone, so computed once (read-only).
        self._solar = (
            insolation(rgrid.lat_centers[start:stop], params.solar_constant)[:, None]
            * (1.0 - params.albedo)
        ) * np.ones_like(self.data)
        self._solar.flags.writeable = False

    @property
    def rows_range(self) -> tuple[int, int]:
        """This rank's ``[start, stop)`` regional row range."""
        return self._rows

    # -- frames from the parent -------------------------------------------------

    def set_frame(self, regional_full: Optional[np.ndarray], root: int = 0) -> None:
        """Distribute a full regional-grid target field from *root* —
        the parent model's state interpolated by
        :meth:`RegionalGrid.from_parent` (collective)."""
        blocks = None
        if self.comm.rank == root:
            assert regional_full is not None
            regional_full = np.asarray(regional_full, dtype=float)
            if regional_full.shape != self.rgrid.shape:
                raise ReproError(
                    f"frame shape {regional_full.shape} != region shape {self.rgrid.shape}"
                )
            blocks = self._decomp.blocks(regional_full)
        self.target = self.comm.scatter(blocks, root=root).copy()

    def relaxation_mask(self) -> np.ndarray:
        """Per-cell relaxation strength in [0, 1]: 1 at the outermost
        boundary ring, tapering linearly to 0 inside ``relax_width``."""
        start, stop = self._rows
        nlat, nlon = self.rgrid.shape
        rows = np.arange(start, stop)
        dist_r = np.minimum(rows, nlat - 1 - rows)[:, None]
        cols = np.arange(nlon)
        dist_c = np.minimum(cols, nlon - 1 - cols)[None, :]
        dist = np.minimum(dist_r, dist_c)
        return np.clip(1.0 - dist / self.relax_width, 0.0, 1.0)

    # -- stepping --------------------------------------------------------------------

    def laplacian(self) -> np.ndarray:
        """Non-periodic five-point Laplacian (edges replicate)."""
        return five_point_laplacian(self.comm, self.data, _TAG_NORTH, _TAG_SOUTH, periodic=False)

    def step(self, dt: float) -> None:
        """One regional step: physics, then boundary relaxation toward the
        latest parent frame."""
        p = self.params
        olr = p.olr_a + p.olr_b * (self.data - p.t_ref)
        tendency = (self._solar - olr) / p.heat_capacity
        if p.diffusivity > 0.0:
            tendency = tendency + p.diffusivity * self.laplacian()
        self.data = self.data + dt * tendency
        if self.target is not None:
            mask = self.relaxation_mask() * self.relax_rate
            self.data = self.data + mask * (self.target - self.data)
        self.steps_taken += 1

    # -- diagnostics -------------------------------------------------------------------

    def gather_global(self, root: int = 0) -> Optional[np.ndarray]:
        """Assemble the full regional field on rank *root*."""
        return gather_rows(self.comm, self.data, root)

    def mean_temperature(self) -> float:
        """Region-area-weighted mean temperature (same on every rank)."""
        full = self.gather_global(root=0)
        value = self.rgrid.area_mean(full) if self.comm.rank == 0 else None
        return self.comm.bcast(value, root=0)

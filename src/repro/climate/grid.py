"""Lat–lon grids and 1-D block domain decomposition.

Every component model in the toy CCSM runs on its own regular lat–lon
grid (components deliberately differ in resolution so the coupler's
conservative regridding is exercised, as in the real system).  Fields are
decomposed over a component's processes in contiguous latitude bands —
the classic 1-D block decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.core.migration import block_rows
from repro.errors import ReproError


@dataclass(frozen=True)
class LatLonGrid:
    """A regular global latitude–longitude grid.

    Latitude cell edges are uniform in [-90, 90] (``nlat`` bands), and
    longitude edges uniform in [0, 360) (``nlon`` columns).  Cell areas are
    proportional to the sine difference of the latitude edges — exact
    sphere areas, so area-weighted integrals are physically meaningful.
    """

    nlat: int
    nlon: int
    name: str = "grid"

    #: Longitude wraps around the globe: the stencil's east neighbour of
    #: the last column is the first.
    periodic: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.nlat < 1 or self.nlon < 1:
            raise ReproError(f"grid {self.name!r}: nlat/nlon must be >= 1")

    @cached_property
    def lat_edges(self) -> np.ndarray:
        """Latitude cell edges in degrees, from -90 to 90 (``nlat + 1``)."""
        return np.linspace(-90.0, 90.0, self.nlat + 1)

    @cached_property
    def lat_centers(self) -> np.ndarray:
        """Latitude cell centers in degrees (``nlat``)."""
        edges = self.lat_edges
        return 0.5 * (edges[:-1] + edges[1:])

    @cached_property
    def lon_centers(self) -> np.ndarray:
        """Longitude cell centers in degrees (``nlon``)."""
        return (np.arange(self.nlon) + 0.5) * (360.0 / self.nlon)

    @cached_property
    def area_weights(self) -> np.ndarray:
        """Fractional cell areas, shape ``(nlat, nlon)``, summing to 1."""
        edges = np.deg2rad(self.lat_edges)
        band = np.sin(edges[1:]) - np.sin(edges[:-1])  # per latitude band
        w = np.repeat(band[:, None] / self.nlon, self.nlon, axis=1)
        return w / w.sum()

    @property
    def shape(self) -> tuple[int, int]:
        """``(nlat, nlon)``."""
        return (self.nlat, self.nlon)

    @property
    def ncells(self) -> int:
        """Total number of cells."""
        return self.nlat * self.nlon

    def area_mean(self, field: np.ndarray) -> float:
        """Area-weighted global mean of a full field on this grid."""
        field = np.asarray(field)
        if field.shape != self.shape:
            raise ReproError(
                f"grid {self.name!r}: field shape {field.shape} != grid shape {self.shape}"
            )
        return float((field * self.area_weights).sum())

    def area_integral(self, field: np.ndarray) -> float:
        """Area-weighted integral (equals the mean since weights sum to 1,
        but reads better in conservation budgets)."""
        return self.area_mean(field)


@dataclass(frozen=True)
class Decomposition:
    """A 1-D block decomposition of a grid's latitude rows over *size*
    processes (remainder rows on the leading ranks)."""

    grid: LatLonGrid
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ReproError("decomposition needs size >= 1")
        if self.size > self.grid.nlat:
            raise ReproError(
                f"cannot decompose {self.grid.nlat} latitude rows over {self.size} "
                "processes (each process needs at least one row)"
            )

    def rows(self, rank: int) -> tuple[int, int]:
        """The ``[start, stop)`` global row range of *rank*."""
        if not 0 <= rank < self.size:
            raise ReproError(f"rank {rank} out of range for decomposition of size {self.size}")
        return block_rows(self.grid.nlat, self.size, rank)

    def blocks(self, full: np.ndarray) -> list[np.ndarray]:
        """A full field cut into every rank's row block, in rank order
        (views, not copies)."""
        return [full[slice(*self.rows(rank))] for rank in range(self.size)]

    def nrows(self, rank: int) -> int:
        """Local row count of *rank*."""
        start, stop = self.rows(rank)
        return stop - start

    def owner_of_row(self, row: int) -> int:
        """The rank owning global row *row*."""
        if not 0 <= row < self.grid.nlat:
            raise ReproError(f"row {row} out of range")
        for rank in range(self.size):
            start, stop = self.rows(rank)
            if start <= row < stop:
                return rank
        raise AssertionError("unreachable")  # pragma: no cover

    def local_shape(self, rank: int) -> tuple[int, int]:
        """Shape of *rank*'s local block."""
        return (self.nrows(rank), self.grid.nlon)

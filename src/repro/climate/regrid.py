"""Conservative regridding between lat–lon grids.

The flux coupler exchanges fields between components living on different
resolutions; coupling fluxes must be regridded *conservatively* or the
coupled system leaks energy.  For regular lat–lon grids the conservative
map factorises into two 1-D piecewise-constant overlap remaps (latitude in
sine coordinates — exact sphere areas — and longitude in linear
coordinates), applied as small dense matrices.

Conservation property (tested and relied on by the energy diagnostics)::

    dst_grid.area_integral(regrid(f)) == src_grid.area_integral(f)

to floating-point round-off, for every field ``f``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.climate.grid import LatLonGrid
from repro.errors import ReproError


def overlap_matrix(src_edges: np.ndarray, dst_edges: np.ndarray) -> np.ndarray:
    """1-D conservative remap matrix between two edge sets.

    Both edge arrays must be strictly increasing and span the same
    interval.  Entry ``[i, j]`` is the fraction of destination cell *i*
    covered by source cell *j* (rows sum to 1), so ``dst = M @ src``
    preserves the length-weighted integral.
    """
    src_edges = np.asarray(src_edges, dtype=float)
    dst_edges = np.asarray(dst_edges, dtype=float)
    if not (np.all(np.diff(src_edges) > 0) and np.all(np.diff(dst_edges) > 0)):
        raise ReproError("edge arrays must be strictly increasing")
    if not (
        np.isclose(src_edges[0], dst_edges[0]) and np.isclose(src_edges[-1], dst_edges[-1])
    ):
        raise ReproError(
            f"edge arrays must span the same interval; got "
            f"[{src_edges[0]}, {src_edges[-1]}] vs [{dst_edges[0]}, {dst_edges[-1]}]"
        )
    n_dst, n_src = len(dst_edges) - 1, len(src_edges) - 1
    # Pairwise overlap of [dst_i] with [src_j], vectorised.
    lo = np.maximum(dst_edges[:-1, None], src_edges[None, :-1])
    hi = np.minimum(dst_edges[1:, None], src_edges[None, 1:])
    overlap = np.clip(hi - lo, 0.0, None)
    widths = (dst_edges[1:] - dst_edges[:-1])[:, None]
    m = overlap / widths
    assert m.shape == (n_dst, n_src)
    return m


class ConservativeRegridder:
    """A reusable conservative map from one lat–lon grid to another.

    >>> r = ConservativeRegridder(LatLonGrid(8, 16), LatLonGrid(4, 8))
    >>> coarse = r(np.ones((8, 16)))
    >>> coarse.shape
    (4, 8)
    """

    def __init__(self, src: LatLonGrid, dst: LatLonGrid):
        self.src = src
        self.dst = dst
        # Latitude remap in sin(lat): overlap fractions are then exact
        # sphere-area fractions.
        self._mlat = overlap_matrix(
            np.sin(np.deg2rad(src.lat_edges)), np.sin(np.deg2rad(dst.lat_edges))
        )
        self._mlon = overlap_matrix(
            np.linspace(0.0, 360.0, src.nlon + 1), np.linspace(0.0, 360.0, dst.nlon + 1)
        )

    def __call__(self, field: np.ndarray) -> np.ndarray:
        """Regrid a full field from the source to the destination grid."""
        field = np.asarray(field, dtype=float)
        if field.shape != self.src.shape:
            raise ReproError(
                f"regrid: field shape {field.shape} != source grid shape {self.src.shape}"
            )
        return self._mlat @ field @ self._mlon.T

    def conservation_error(self, field: np.ndarray) -> float:
        """Relative area-integral error of regridding *field* (diagnostic;
        should be ~1e-15)."""
        src_int = self.src.area_integral(field)
        dst_int = self.dst.area_integral(self(field))
        denom = max(abs(src_int), 1e-30)
        return abs(dst_int - src_int) / denom


@lru_cache(maxsize=64)
def _cached(src: LatLonGrid, dst: LatLonGrid) -> ConservativeRegridder:
    return ConservativeRegridder(src, dst)


def regrid(field: np.ndarray, src: LatLonGrid, dst: LatLonGrid) -> np.ndarray:
    """One-shot conservative regrid (regridders cached per grid pair).

    The identity map is free when the grids are equal.
    """
    if src == dst:
        return np.asarray(field, dtype=float)
    return _cached(src, dst)(field)

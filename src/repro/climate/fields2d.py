"""2-D decomposed fields: latitude × longitude blocks over a Cartesian
process grid.

Production climate components decompose in both horizontal dimensions;
this is the 2-D counterpart of :class:`repro.climate.fields.DistributedField`,
built on the substrate's Cartesian topology
(:mod:`repro.mpi.cartesian`).  The process grid is ``(P_lat, P_lon)`` from
``dims_create``; latitude is open (zero-gradient poles via ``PROC_NULL``
neighbours), longitude periodic (the halo wraps around the globe through
the topology — no special-casing in the stencil).

The class implements the same field protocol the component models consume
(``data`` / ``local_slices`` / ``laplacian`` / ``gather_global`` /
``area_mean``), so every model runs unchanged on either decomposition —
tested to agree with the 1-D fields bitwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.climate.fields import weighted_global_sum
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError
from repro.mpi.cartesian import CartComm, create_cart, dims_create
from repro.mpi.comm import Comm
from repro.mpi.constants import PROC_NULL

_TAG_N, _TAG_S, _TAG_E, _TAG_W = 31, 32, 33, 34


def _block(n: int, parts: int, index: int) -> tuple[int, int]:
    base, rem = divmod(n, parts)
    start = index * base + min(index, rem)
    return start, start + base + (1 if index < rem else 0)


def _block_slices(grid: LatLonGrid, dims, coords) -> tuple[slice, slice]:
    """The global ``(row, column)`` slices of the block at *coords* of a
    ``dims`` process grid."""
    row0, row1 = _block(grid.nlat, dims[0], coords[0])
    col0, col1 = _block(grid.nlon, dims[1], coords[1])
    return slice(row0, row1), slice(col0, col1)


class DistributedField2D:
    """One process's ``(lat, lon)`` block of a global field.

    Parameters
    ----------
    comm :
        The component communicator; a Cartesian topology is created over
        it (``dims_create(size, 2)``, latitude-major).  Pass a
        :class:`~repro.mpi.cartesian.CartComm` directly to share one
        topology between several fields.
    grid :
        The global grid.
    data :
        Initial local block; zeros when omitted.
    """

    def __init__(self, comm: Comm, grid: LatLonGrid, data: Optional[np.ndarray] = None):
        if isinstance(comm, CartComm):
            self.cart = comm
        else:
            dims = dims_create(comm.size, 2)
            if dims[0] > grid.nlat or dims[1] > grid.nlon:
                raise ReproError(
                    f"cannot place a {dims[0]}x{dims[1]} process grid on a "
                    f"{grid.nlat}x{grid.nlon} field"
                )
            cart = create_cart(comm, dims, periods=[False, True])
            assert cart is not None  # dims_create uses every process
            self.cart = cart
        self.comm = self.cart  # the field protocol's communicator
        self.grid = grid
        self.dims = self.cart.dims
        self._slices = rs, cs = _block_slices(grid, self.dims, self.cart.coords)
        shape = (rs.stop - rs.start, cs.stop - cs.start)
        if data is None:
            self.data = np.zeros(shape)
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != shape:
                raise ReproError(f"local block shape {data.shape} != expected {shape}")
            self.data = data.copy()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_function(cls, comm: Comm, grid: LatLonGrid, fn) -> "DistributedField2D":
        """Initialise from ``fn(lat_deg, lon_deg)`` on the local block."""
        field = cls(comm, grid)
        rs, cs = field.local_slices
        lat2d, lon2d = np.meshgrid(
            grid.lat_centers[rs], grid.lon_centers[cs], indexing="ij"
        )
        field.data = np.asarray(fn(lat2d, lon2d), dtype=float)
        return field

    # -- protocol --------------------------------------------------------------

    @property
    def local_slices(self) -> tuple[slice, slice]:
        """The global ``(row, column)`` slices of the local block."""
        return self._slices

    @property
    def rows_range(self) -> tuple[int, int]:
        """Row span of the local block (1-D-protocol compatibility)."""
        rs = self._slices[0]
        return rs.start, rs.stop

    @property
    def local_shape(self) -> tuple[int, int]:
        """Shape of the local block."""
        return self.data.shape

    def copy(self) -> "DistributedField2D":
        """A deep copy sharing the Cartesian communicator."""
        return DistributedField2D(self.cart, self.grid, self.data)

    # -- halos --------------------------------------------------------------------

    def exchange_halos(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Exchange the four edges; returns ``(north, south, east, west)``
        halo lines.  Poles replicate the edge row (zero gradient);
        longitude wraps through the periodic topology."""
        cart = self.cart
        south_nb, north_nb = cart.shift(0)  # latitude: open
        west_nb, east_nb = cart.shift(1)  # longitude: periodic (never NULL)
        cart.Send(self.data[-1], north_nb, _TAG_N)
        cart.Send(self.data[0], south_nb, _TAG_S)
        cart.Send(self.data[:, -1].copy(), east_nb, _TAG_E)
        cart.Send(self.data[:, 0].copy(), west_nb, _TAG_W)
        north = np.array(self.data[-1])
        south = np.array(self.data[0])
        east = np.empty(self.data.shape[0])
        west = np.empty(self.data.shape[0])
        if north_nb != PROC_NULL:
            cart.Recv(north, north_nb, _TAG_S)
        if south_nb != PROC_NULL:
            cart.Recv(south, south_nb, _TAG_N)
        cart.Recv(east, east_nb, _TAG_W)
        cart.Recv(west, west_nb, _TAG_E)
        return north, south, east, west

    def laplacian(self) -> np.ndarray:
        """Five-point Laplacian of the local block (grid units), halo
        lines supplying the off-process neighbours."""
        north, south, east, west = self.exchange_halos()
        up = np.vstack([self.data[1:], north[None, :]])
        down = np.vstack([south[None, :], self.data[:-1]])
        right = np.hstack([self.data[:, 1:], east[:, None]])
        left = np.hstack([west[:, None], self.data[:, :-1]])
        return up + down + right + left - 4.0 * self.data

    # -- assembly --------------------------------------------------------------------

    def gather_global(self, root: int = 0) -> Optional[np.ndarray]:
        """Assemble the full field on rank *root* (``None`` elsewhere)."""
        pieces = self.cart.gather((self._slices, self.data), root=root)
        if self.cart.rank != root:
            return None
        assert pieces is not None
        full = np.zeros(self.grid.shape)
        for (rs, cs), block in pieces:
            full[rs, cs] = block
        return full

    def set_from_global(self, full: Optional[np.ndarray], root: int = 0) -> None:
        """Distribute a full field from *root* into the local blocks, each
        rank sent only its own block (inverse of :meth:`gather_global`)."""
        blocks = None
        if self.cart.rank == root:
            assert full is not None
            full = np.asarray(full, dtype=float)
            if full.shape != self.grid.shape:
                raise ReproError(
                    f"global field shape {full.shape} != grid shape {self.grid.shape}"
                )
            blocks = [
                np.ascontiguousarray(full[_block_slices(self.grid, self.dims, self.cart.coords_of(r))])
                for r in range(self.cart.size)
            ]
        self.data = self.cart.scatter(blocks, root=root).copy()

    # -- reductions --------------------------------------------------------------------

    def area_mean(self) -> float:
        """Area-weighted global mean (bitwise decomposition-independent)."""
        return weighted_global_sum(self.cart, self.grid, self.data, self._slices)

    def area_integral(self) -> float:
        """Alias of :meth:`area_mean` (weights sum to 1)."""
        return self.area_mean()

"""Distributed fields: latitude-block arrays with halo exchange.

A :class:`DistributedField` holds one process's latitude band of a global
``(nlat, nlon)`` field, plus the collective operations the component models
need: halo exchange for the diffusion stencil, gather/scatter against the
component's local processor 0 (how fields reach the coupler), and
area-weighted global reductions.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.climate.grid import Decomposition, LatLonGrid
from repro.errors import ReproError
from repro.mpi.comm import Comm
from repro.mpi.constants import PROC_NULL

#: Tag namespace for halo traffic (isolated from coupling messages, which
#: travel on the world communicator anyway).
_HALO_TAG_NORTH = 21
_HALO_TAG_SOUTH = 22


def exchange_halo_rows(
    comm: Comm,
    block: np.ndarray,
    north_halo: np.ndarray,
    south_halo: np.ndarray,
    tag_north: int,
    tag_south: int,
) -> None:
    """Trade boundary rows with the latitude neighbours of a row-block
    decomposition over *comm*: this rank's last row of *block* goes north
    (rank + 1, under *tag_north*), its first row south.

    The neighbouring row to the north (higher latitude) is received into
    *north_halo* and the one to the south into *south_halo*; either may
    be a view into the caller's buffer.  At either end of the
    decomposition the local edge row is copied there instead
    (zero-gradient boundary), and the send goes to a ``PROC_NULL``
    neighbour, so the sends need no branches.
    """
    north = comm.rank + 1 if comm.rank + 1 < comm.size else PROC_NULL
    south = comm.rank - 1 if comm.rank > 0 else PROC_NULL
    # Eager sends: post both, then receive both.
    comm.Send(block[-1], north, tag_north)
    comm.Send(block[0], south, tag_south)
    if south != PROC_NULL:
        comm.Recv(south_halo, south, tag_north)
    else:
        south_halo[...] = block[0]
    if north != PROC_NULL:
        comm.Recv(north_halo, north, tag_south)
    else:
        north_halo[...] = block[-1]


def gather_rows(comm: Comm, block: np.ndarray, root: int = 0) -> Optional[np.ndarray]:
    """Assemble the latitude bands *block* of a row decomposition over
    *comm* into the full array on rank *root* (``None`` elsewhere)."""
    blocks = comm.gather(block, root=root)
    if comm.rank != root:
        return None
    assert blocks is not None
    return np.concatenate(blocks, axis=0)


class DistributedField:
    """One component's share of a global field, decomposed by latitude.

    Parameters
    ----------
    comm :
        The component communicator; rank *r* owns the rows
        ``decomp.rows(r)``.
    grid :
        The global grid.
    data :
        Initial local block (``decomp.local_shape(rank)``); zeros when
        omitted.
    """

    def __init__(self, comm: Comm, grid: LatLonGrid, data: Optional[np.ndarray] = None):
        self.comm = comm
        self.grid = grid
        self.decomp = Decomposition(grid, comm.size)
        shape = self.decomp.local_shape(comm.rank)
        if data is None:
            self.data = np.zeros(shape)
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != shape:
                raise ReproError(
                    f"local block shape {data.shape} != expected {shape} on rank {comm.rank}"
                )
            self.data = data.copy()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_function(cls, comm: Comm, grid: LatLonGrid, fn) -> "DistributedField":
        """Initialise from ``fn(lat_deg, lon_deg)`` evaluated on cell
        centers (vectorised via meshgrid) — deterministic initial
        conditions independent of the decomposition."""
        field = cls(comm, grid)
        start, stop = field.rows_range
        lat = grid.lat_centers[start:stop]
        lon = grid.lon_centers
        lat2d, lon2d = np.meshgrid(lat, lon, indexing="ij")
        field.data = np.asarray(fn(lat2d, lon2d), dtype=float)
        return field

    @classmethod
    def from_global(cls, comm: Comm, grid: LatLonGrid, full: np.ndarray) -> "DistributedField":
        """Initialise by slicing a full global array locally (every rank
        passes the same array)."""
        full = np.asarray(full, dtype=float)
        if full.shape != grid.shape:
            raise ReproError(f"global field shape {full.shape} != grid shape {grid.shape}")
        field = cls(comm, grid)
        start, stop = field.rows_range
        field.data = full[start:stop].copy()
        return field

    # -- basic accessors --------------------------------------------------------

    @property
    def rows_range(self) -> tuple[int, int]:
        """This rank's ``[start, stop)`` global row range."""
        return self.decomp.rows(self.comm.rank)

    @property
    def local_shape(self) -> tuple[int, int]:
        """Shape of the local block."""
        return self.data.shape

    def copy(self) -> "DistributedField":
        """A deep copy sharing the communicator."""
        return DistributedField(self.comm, self.grid, self.data)

    # -- halo exchange -------------------------------------------------------------

    def exchange_halos(self) -> tuple[np.ndarray, np.ndarray]:
        """Exchange boundary rows with latitude neighbours:
        ``(north_halo, south_halo)``, the local edge row at the poles
        (see :func:`exchange_halo_rows`)."""
        ncols = self.data.shape[1]
        north, south = np.empty(ncols), np.empty(ncols)
        exchange_halo_rows(self.comm, self.data, north, south, _HALO_TAG_NORTH, _HALO_TAG_SOUTH)
        return north, south

    def laplacian(self) -> np.ndarray:
        """Five-point Laplacian of the local block (grid units), as a
        fresh array.

        One ``(rows + 2, cols + 2)`` buffer holds the block, the halo
        rows (received straight into its edge rows by
        :func:`exchange_halo_rows`; the grid's first and last rows
        replicate) and the edge columns: wrapped when the grid is
        ``periodic`` in longitude, replicated otherwise.  Each neighbour
        is a slice of it.
        """
        block = self.data
        rows, cols = block.shape
        pad = np.empty((rows + 2, cols + 2))
        pad[1:-1, 1:-1] = block
        exchange_halo_rows(
            self.comm, block, pad[-1, 1:-1], pad[0, 1:-1], _HALO_TAG_NORTH, _HALO_TAG_SOUTH
        )
        if self.grid.periodic:
            pad[1:-1, 0] = block[:, -1]
            pad[1:-1, -1] = block[:, 0]
        else:
            pad[1:-1, 0] = block[:, 0]
            pad[1:-1, -1] = block[:, -1]
        up = pad[2:, 1:-1]
        down = pad[:-2, 1:-1]
        east = pad[1:-1, 2:]
        west = pad[1:-1, :-2]
        # ``up + down + east + west - 4.0 * block``, operation for operation
        # (so the same bits), accumulated in place: two temporaries instead
        # of five, which on a large block is most of the allocator's page
        # faults of a model step.
        lap = up + down
        lap += east
        lap += west
        lap -= 4.0 * block
        return lap

    # -- gather / scatter ------------------------------------------------------------

    def gather_global(self, root: int = 0) -> Optional[np.ndarray]:
        """Assemble the full global field on component-local rank *root*
        (``None`` elsewhere)."""
        return gather_rows(self.comm, self.data, root)

    def set_from_global(self, full: Optional[np.ndarray], root: int = 0) -> None:
        """Distribute a full field from *root* into the local blocks
        (inverse of :meth:`gather_global`)."""
        blocks = None
        if self.comm.rank == root:
            assert full is not None
            full = np.asarray(full, dtype=float)
            if full.shape != self.grid.shape:
                raise ReproError(
                    f"global field shape {full.shape} != grid shape {self.grid.shape}"
                )
            blocks = self.decomp.blocks(full)
        self.data = self.comm.scatter(blocks, root=root).copy()

    # -- reductions -------------------------------------------------------------------

    def area_mean(self) -> float:
        """Area-weighted global mean (identical on every rank, and bitwise
        independent of the decomposition — see :func:`weighted_global_sum`)."""
        return weighted_global_sum(self.comm, self.grid, self.data, self.rows_range)

    def area_integral(self) -> float:
        """Alias of :meth:`area_mean` (weights sum to 1)."""
        return self.area_mean()


def weighted_global_sum(
    comm: Comm, grid: LatLonGrid, local: np.ndarray, rows: tuple[int, int]
) -> float:
    """Area-weighted global sum of one field whose band holds the global
    rows ``[start, stop)`` *rows*: the one-integrand case of
    :func:`weighted_global_sums` (same bits, same two collectives)."""
    return weighted_global_sums(comm, grid, [local], rows)[0]


def weighted_global_sums(
    comm: Comm, grid: LatLonGrid, locals: Sequence[np.ndarray], rows: tuple[int, int]
) -> tuple[float, ...]:
    """Area-weighted global sums of several fields decomposed alike (this
    rank's band holds the global rows *rows*), in one reduction, each
    decomposition-independent to the bit.

    The canonical sum of :func:`weighted_shares` settled at once by
    :func:`reduce_shares`: **one** gather and **one** broadcast, ``2 (P -
    1)`` messages however many integrands ride along, and every rank gets
    the same tuple of totals (in *locals* order).
    """
    totals = reduce_shares(comm, weighted_shares(grid, locals, rows))
    return tuple(float(total) for total in totals)


def weighted_shares(
    grid: LatLonGrid, locals: Sequence[np.ndarray], rows: tuple[int, int]
) -> np.ndarray:
    """This rank's share of the canonical area-weighted sum of each of
    *locals* — latitude bands holding the global rows ``[start, stop)``
    *rows* — stacked along the first axis.

    The canonical sum of a field weights it by the cell areas, sums each
    full latitude row in C order, then sums the row totals in latitude
    order.  A band contributes its rows' totals, shape ``(len(locals),
    stop - start)`` — a few hundred bytes where its weighted block is
    kilobytes.  The totals are the same to the bit however the rows are
    cut into bands.
    """
    start, stop = rows
    return (np.stack(locals) * grid.area_weights[start:stop]).sum(axis=-1)


def reduce_shares(comm: Comm, shares: np.ndarray) -> np.ndarray:
    """Settle stacked :func:`weighted_shares` into their canonical totals
    on every rank (collective over *comm*).

    *shares* may carry any leading axes — a model's ledger stacks one
    share per recorded step — and the result has exactly those axes: one
    total per share.  Bands are cut in rank order, so one gather brings
    the row totals to rank 0 already in latitude order: it joins them
    along the last axis and sums them, and one broadcast returns the
    totals.
    """
    pieces = comm.gather(shares, root=0)
    totals = None
    if comm.rank == 0:
        assert pieces is not None
        totals = np.concatenate(pieces, axis=-1).sum(axis=-1)
    return comm.bcast(totals, root=0)

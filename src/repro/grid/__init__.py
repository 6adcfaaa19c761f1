"""MPH over the Grid: multi-cluster model integration (paper §9, future
work (c): "an extension of MPH to do model integration over the grid").
The sites of a grid run share one world (:mod:`repro.grid.gridmph`)."""

from repro.grid.gridmph import ClusterSpec, GridDirectory, GridMPH, grid_setup, run_grid

__all__ = ["ClusterSpec", "GridDirectory", "GridMPH", "grid_setup", "run_grid"]

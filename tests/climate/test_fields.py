"""Distributed fields: halo exchange, gather/scatter, reductions
(repro.climate.fields)."""

import numpy as np
import pytest

from repro.climate.fields import (
    DistributedField,
    weighted_global_sum,
    weighted_global_sums,
)
from repro.climate.fields2d import DistributedField2D
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError

GRID = LatLonGrid(8, 6, name="t")


class TestConstruction:
    def test_zero_initialised(self, spmd):
        def main(comm):
            f = DistributedField(comm, GRID)
            return (f.local_shape, float(f.data.sum()))

        values = spmd(4, main)
        assert values == [((2, 6), 0.0)] * 4

    def test_from_function_matches_serial(self, spmd):
        def init(lat, lon):
            return lat + 0.01 * lon

        def main(comm):
            return DistributedField.from_function(comm, GRID, init).gather_global()

        serial = spmd(1, main)[0]
        parallel = spmd(4, main)[0]
        np.testing.assert_array_equal(serial, parallel)

    def test_from_global_slices(self, spmd):
        full = np.arange(48, dtype=float).reshape(8, 6)

        def main(comm):
            f = DistributedField.from_global(comm, GRID, full)
            start, stop = f.rows_range
            np.testing.assert_array_equal(f.data, full[start:stop])
            return True

        assert all(spmd(3, main))

    def test_bad_local_shape_rejected(self, spmd):
        def main(comm):
            DistributedField(comm, GRID, data=np.zeros((1, 1)))

        with pytest.raises(ReproError, match="local block shape"):
            spmd(2, main)

    def test_copy_is_deep(self, spmd):
        def main(comm):
            f = DistributedField(comm, GRID)
            g = f.copy()
            g.data += 1.0
            return float(f.data.sum())

        assert spmd(2, main) == [0.0, 0.0]


class TestGatherScatter:
    def test_gather_reassembles(self, spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la * lo)
            full = f.gather_global()
            return None if full is None else full.shape

        values = spmd(4, main)
        assert values[0] == (8, 6)
        assert values[1:] == [None, None, None]

    def test_scatter_roundtrip(self, spmd):
        full = np.arange(48, dtype=float).reshape(8, 6)

        def main(comm):
            f = DistributedField(comm, GRID)
            f.set_from_global(full if comm.rank == 0 else None)
            again = f.gather_global()
            return None if again is None else np.array_equal(again, full)

        assert spmd(4, main)[0] is True

    def test_scatter_shape_checked(self, spmd):
        def main(comm):
            f = DistributedField(comm, GRID)
            f.set_from_global(np.zeros((3, 3)) if comm.rank == 0 else None)

        with pytest.raises(ReproError, match="global field shape"):
            spmd(2, main)


class TestHalos:
    def test_interior_halos_are_neighbour_rows(self, spmd):
        full = np.arange(48, dtype=float).reshape(8, 6)

        def main(comm):
            f = DistributedField.from_global(comm, GRID, full)
            north, south = f.exchange_halos()
            start, stop = f.rows_range
            expect_north = full[stop] if stop < 8 else full[stop - 1]
            expect_south = full[start - 1] if start > 0 else full[start]
            return (
                np.array_equal(north, expect_north),
                np.array_equal(south, expect_south),
            )

        assert spmd(4, main) == [(True, True)] * 4

    def test_pole_halos_replicate_edges(self, spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la)
            north, south = f.exchange_halos()
            if comm.rank == 0:
                return np.array_equal(south, f.data[0])
            if comm.rank == comm.size - 1:
                return np.array_equal(north, f.data[-1])
            return True

        assert all(spmd(4, main))

    def test_laplacian_decomposition_independent(self, spmd):
        def main(comm):
            f = DistributedField.from_function(
                comm, GRID, lambda la, lo: np.sin(np.deg2rad(la)) * np.cos(np.deg2rad(lo))
            )
            lap = f.laplacian()
            out = DistributedField(comm, GRID, data=lap)
            return out.gather_global()

        serial = spmd(1, main)[0]
        for n in (2, 4, 8):
            parallel = spmd(n, main)[0]
            np.testing.assert_array_equal(serial, parallel)

    def test_laplacian_of_constant_is_zero(self, spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: 0 * la + 7.0)
            return float(np.abs(f.laplacian()).max())

        assert spmd(4, main) == [0.0] * 4


class TestReductions:
    def test_area_mean_matches_serial_grid(self, spmd):
        full_holder = {}

        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la**2 + lo)
            return f.area_mean()

        serial = spmd(1, main)[0]
        for n in (2, 4):
            values = spmd(n, main)
            assert values == [serial] * n  # bitwise identical on all ranks

    def test_area_mean_constant(self, spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: 0 * la + 2.5)
            return f.area_mean()

        assert spmd(4, main)[0] == pytest.approx(2.5)


class TestFusedSums:
    """``weighted_global_sums``: k integrands in one reduction are the k
    single reductions, to the bit, however the field is cut."""

    INTEGRANDS = (
        lambda la, lo: la**2 + lo,
        lambda la, lo: np.sin(np.deg2rad(la)) * np.cos(np.deg2rad(lo)) * 1e3,
        lambda la, lo: 0 * la + 1.0 / 3.0,
        lambda la, lo: -(la + 0.01 * lo),
    )

    @staticmethod
    def sums(field_cls):
        def main(comm):
            fields = [
                field_cls.from_function(comm, GRID, fn) for fn in TestFusedSums.INTEGRANDS
            ]
            # The communicator and slices the field itself reduces over
            # (the 2-D field's are its Cartesian topology's).
            f = fields[0]
            blocks = [g.data for g in fields]
            fused = weighted_global_sums(f.comm, GRID, blocks, f.local_slices)
            singles = tuple(
                weighted_global_sum(f.comm, GRID, b, f.local_slices) for b in blocks
            )
            return fused, singles, tuple(g.area_mean() for g in fields)

        return main

    @pytest.mark.parametrize("field_cls", [DistributedField, DistributedField2D])
    def test_k_integrands_equal_k_single_calls_on_every_decomposition(self, spmd, field_cls):
        reference = spmd(1, self.sums(DistributedField))[0][0]
        assert all(isinstance(total, float) for total in reference)
        for n in (1, 2, 3, 4):
            for fused, singles, means in spmd(n, self.sums(field_cls)):
                assert fused == singles == means == reference  # exact, every rank

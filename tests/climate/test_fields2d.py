"""2-D decomposed fields and models (repro.climate.fields2d)."""

import numpy as np
import pytest

from repro.climate.components import AtmosphereModel, LandModel, OceanModel, SeaIceModel
from repro.climate.fields import DistributedField
from repro.climate.fields2d import DistributedField2D
from repro.climate.grid import LatLonGrid
from repro.climate import checkpoint
from repro.errors import ReproError

GRID = LatLonGrid(8, 12, name="g2")


def smooth(lat, lon):
    return 280.0 + np.sin(np.deg2rad(lat)) * 10.0 + np.cos(np.deg2rad(2 * lon)) * 5.0


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_blocks_partition_grid(self, spmd, n):
        def main(comm):
            f = DistributedField2D(comm, GRID)
            rs, cs = f.local_slices
            return (rs.start, rs.stop, cs.start, cs.stop)

        values = spmd(n, main)
        covered = np.zeros(GRID.shape, dtype=int)
        for r0, r1, c0, c1 in values:
            covered[r0:r1, c0:c1] += 1
        assert np.all(covered == 1)  # exact partition, no overlap, no gaps

    def test_from_function_matches_1d(self, spmd):
        def main2d(comm):
            return DistributedField2D.from_function(comm, GRID, smooth).gather_global()

        def main1d(comm):
            return DistributedField.from_function(comm, GRID, smooth).gather_global()

        full2d = spmd(4, main2d)[0]
        full1d = spmd(2, main1d)[0]
        np.testing.assert_array_equal(full2d, full1d)

    def test_bad_local_shape(self, spmd):
        def main(comm):
            DistributedField2D(comm, GRID, data=np.zeros((1, 1)))

        with pytest.raises(ReproError, match="local block shape"):
            spmd(4, main)

    def test_too_many_procs(self, spmd):
        tiny = LatLonGrid(2, 2)

        def main(comm):
            DistributedField2D(comm, tiny)

        with pytest.raises(ReproError, match="process grid"):
            spmd(9, main)


class TestHalosAndStencil:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_laplacian_matches_1d_bitwise(self, spmd, n):
        def main2d(comm):
            f = DistributedField2D.from_function(comm, GRID, smooth)
            lap = f.laplacian()
            out = DistributedField2D(f.cart, GRID, data=lap)
            return out.gather_global()

        def serial(comm):
            f = DistributedField.from_function(comm, GRID, smooth)
            return DistributedField(comm, GRID, data=f.laplacian()).gather_global()

        reference = spmd(1, serial)[0]
        np.testing.assert_array_equal(spmd(n, main2d)[0], reference)

    def test_periodic_longitude_wrap(self, spmd):
        """East halo of the last column block is the first column block."""

        def main(comm):
            f = DistributedField2D.from_function(comm, GRID, lambda la, lo: lo)
            north, south, east, west = f.exchange_halos()
            rs, cs = f.local_slices
            expect_east = GRID.lon_centers[(cs.stop) % GRID.nlon]
            return np.allclose(east, expect_east)

        assert all(spmd(4, main))

    def test_pole_rows_replicate(self, spmd):
        def main(comm):
            f = DistributedField2D.from_function(comm, GRID, lambda la, lo: la)
            north, south, _, _ = f.exchange_halos()
            rs, _ = f.local_slices
            checks = []
            if rs.start == 0:
                checks.append(np.array_equal(south, f.data[0]))
            if rs.stop == GRID.nlat:
                checks.append(np.array_equal(north, f.data[-1]))
            return all(checks)

        assert all(spmd(4, main))


class TestAssemblyAndReduction:
    def test_gather_set_roundtrip(self, spmd):
        full = np.arange(96, dtype=float).reshape(8, 12)

        def main(comm):
            f = DistributedField2D(comm, GRID)
            f.set_from_global(full if comm.rank == 0 else None)
            again = f.gather_global()
            return None if again is None else np.array_equal(again, full)

        assert spmd(4, main)[0] is True

    def test_area_mean_matches_1d_bitwise(self, spmd):
        def main2d(comm):
            return DistributedField2D.from_function(comm, GRID, smooth).area_mean()

        def main1d(comm):
            return DistributedField.from_function(comm, GRID, smooth).area_mean()

        assert spmd(6, main2d)[0] == spmd(2, main1d)[0]


class TestModelsOn2D:
    @pytest.mark.parametrize("cls", [AtmosphereModel, OceanModel, SeaIceModel])
    def test_model_identical_to_1d(self, spmd, cls):
        """Any component model produces bitwise-identical physics on the
        2-D decomposition."""

        def main2d(comm):
            m = cls(comm, GRID, cls.default_params(), field_cls=DistributedField2D)
            for _ in range(4):
                m.step(3600.0)
            return m.temperature.gather_global(root=0)

        def main1d(comm):
            m = cls(comm, GRID, cls.default_params())
            for _ in range(4):
                m.step(3600.0)
            return m.temperature.gather_global(root=0)

        reference = spmd(1, main1d)[0]
        np.testing.assert_array_equal(spmd(4, main2d)[0], reference)

    @pytest.mark.parametrize("cls", [AtmosphereModel, OceanModel, LandModel, SeaIceModel])
    def test_settled_diagnostics_identical_to_1d(self, spmd, cls):
        """Every settled step's diagnostics and the budget are the same
        bits on either decomposition, whatever the process count: a 1-D
        band sends row totals, a 2-D block its cells, and the canonical
        sum is formed from the same rows."""

        def main(field_cls):
            def run(comm):
                m = cls(comm, GRID, cls.default_params(), field_cls=field_cls)
                flux = field_cls.from_function(
                    comm, GRID, lambda la, lo: 30.0 * np.cos(np.deg2rad(la)) - 0.1 * lo
                ).data
                for _ in range(4):
                    m.step(3600.0, flux)
                return m.settle(), m.budget

            return run

        reference = spmd(1, main(DistributedField))[0]
        for n in (2, 3, 4):
            assert spmd(n, main(DistributedField)) == [reference] * n
        for n in (2, 4, 6):
            assert spmd(n, main(DistributedField2D)) == [reference] * n

    def test_mean_temperature_consistent(self, spmd):
        def main(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params(), field_cls=DistributedField2D)
            m.step(3600.0)
            return m.mean_temperature()

        values = spmd(6, main)
        assert len(set(values)) == 1

    def test_checkpoint_across_decompositions(self, spmd, tmp_path):
        """Save on a 2-D decomposition, restore on 1-D: exact."""

        def save2d(comm):
            m = SeaIceModel(
                comm, GRID, SeaIceModel.default_params(), field_cls=DistributedField2D
            )
            for _ in range(2):
                m.step(3600.0)
            checkpoint.save(m, tmp_path, "ice")
            return m.temperature.gather_global(root=0)

        def load1d(comm):
            m = SeaIceModel(comm, GRID, SeaIceModel.default_params())
            checkpoint.restore(m, tmp_path, "ice")
            return (m.temperature.gather_global(root=0), m.mean_thickness())

        saved = spmd(4, save2d)[0]
        restored, thickness = spmd(2, load1d)[0]
        np.testing.assert_array_equal(saved, restored)
        assert thickness > 0

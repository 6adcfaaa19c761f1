"""Regional nesting (repro.climate.nesting): grids, interpolation,
boundary relaxation, and the MPH-coupled nest."""

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.climate import nesting
from repro.climate.components import AtmosphereModel, PhysicsParams, insolation
from repro.climate.grid import LatLonGrid
from repro.climate.nesting import RegionSpec, RegionalGrid, RegionalModel
from repro.errors import ReproError

PARENT = LatLonGrid(12, 24, name="global")
SPEC = RegionSpec(row0=4, row1=8, col0=6, col1=12, refinement=3)


class TestRegionSpec:
    def test_valid(self):
        SPEC.validate(PARENT)

    def test_rows_outside_parent(self):
        with pytest.raises(ReproError, match="rows"):
            RegionSpec(4, 20, 0, 4).validate(PARENT)

    def test_bad_refinement(self):
        with pytest.raises(ReproError, match="refinement"):
            RegionSpec(0, 2, 0, 2, refinement=0).validate(PARENT)


class TestRegionalGrid:
    def test_shape(self):
        r = RegionalGrid(PARENT, SPEC)
        assert r.shape == (12, 18)  # 4 rows x3, 6 cols x3

    def test_edges_align_with_parent(self):
        r = RegionalGrid(PARENT, SPEC)
        # every 3rd regional edge is a parent edge
        np.testing.assert_allclose(r.lat_edges[::3], PARENT.lat_edges[4:9])
        parent_lon_edges = np.arange(6, 13) * (360.0 / 24)
        np.testing.assert_allclose(r.lon_edges[::3], parent_lon_edges)

    def test_centers_inside_region(self):
        r = RegionalGrid(PARENT, SPEC)
        assert r.lat_centers.min() > PARENT.lat_edges[4]
        assert r.lat_centers.max() < PARENT.lat_edges[8]

    def test_area_weights_normalised(self):
        r = RegionalGrid(PARENT, SPEC)
        assert r.area_weights.sum() == pytest.approx(1.0)

    def test_area_mean_constant(self):
        r = RegionalGrid(PARENT, SPEC)
        assert r.area_mean(np.full(r.shape, 5.0)) == pytest.approx(5.0)


class TestParentInterpolation:
    def test_constant_preserved(self):
        r = RegionalGrid(PARENT, SPEC)
        out = r.from_parent(np.full(PARENT.shape, 7.5))
        np.testing.assert_allclose(out, 7.5)

    def test_refinement_is_injection_for_parent_cells(self):
        """Each parent cell's value fills its refinement x refinement
        regional children exactly (piecewise-constant conservative map on
        aligned edges)."""
        r = RegionalGrid(PARENT, SPEC)
        parent = np.arange(PARENT.ncells, dtype=float).reshape(PARENT.shape)
        out = r.from_parent(parent)
        for i in range(4):
            for j in range(6):
                cell = parent[4 + i, 6 + j]
                np.testing.assert_allclose(
                    out[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], cell
                )

    def test_region_mean_conserved(self):
        r = RegionalGrid(PARENT, SPEC)
        rng = np.random.default_rng(9)
        parent = rng.normal(280, 10, PARENT.shape)
        out = r.from_parent(parent)
        # region mean of result equals area-weighted mean of the parent
        # cells covering the region
        sub = parent[4:8, 6:12]
        w = np.sin(np.deg2rad(PARENT.lat_edges[5:9])) - np.sin(np.deg2rad(PARENT.lat_edges[4:8]))
        expect = float((sub * w[:, None]).sum() / (w.sum() * 6))
        assert r.area_mean(out) == pytest.approx(expect, rel=1e-12)

    def test_shape_validated(self):
        r = RegionalGrid(PARENT, SPEC)
        with pytest.raises(ReproError, match="parent field"):
            r.from_parent(np.zeros((2, 2)))


def quiet_params():
    return PhysicsParams(
        heat_capacity=1e7, diffusivity=1e-6, solar_constant=0.0, olr_a=0.0, olr_b=0.0
    )


class TestRegionalModel:
    def test_relaxation_mask_shape(self, spmd):
        def main(comm):
            m = RegionalModel(comm, RegionalGrid(PARENT, SPEC), quiet_params(), relax_width=2)
            mask = m.relaxation_mask()
            return (mask.shape == m.data.shape, float(mask.max()), mask.min() >= 0.0)

        values = spmd(3, main)
        assert all(v[0] and v[2] for v in values)
        # some rank owns an outermost ring cell with strength 1
        assert max(v[1] for v in values) == 1.0

    def test_interior_unrelaxed(self, spmd):
        def main(comm):
            m = RegionalModel(comm, RegionalGrid(PARENT, SPEC), quiet_params(), relax_width=2)
            mask = m.relaxation_mask()
            start, stop = m.rows_range
            interior = [
                mask[i - start, 9]
                for i in range(max(start, 5), min(stop, 7))
            ]
            return interior

        values = [x for v in spmd(2, main) for x in v]
        assert all(x == 0.0 for x in values)

    def test_boundary_pins_to_frame(self, spmd):
        """With full relaxation, the boundary ring equals the frame after
        one step (quiet physics)."""

        def main(comm):
            rgrid = RegionalGrid(PARENT, SPEC)
            m = RegionalModel(comm, rgrid, quiet_params(), relax_width=1, relax_rate=1.0)
            frame = np.full(rgrid.shape, 300.0)
            m.set_frame(frame if comm.rank == 0 else None)
            m.step(10.0)
            full = m.gather_global()
            if comm.rank == 0:
                edge = np.concatenate([full[0], full[-1], full[:, 0], full[:, -1]])
                return (np.allclose(edge, 300.0), abs(full[5, 9] - 300.0) > 1.0)
            return None

        pinned, interior_free = spmd(2, main)[0]
        assert pinned and interior_free

    def test_decomposition_independence(self, spmd):
        def main(comm):
            rgrid = RegionalGrid(PARENT, SPEC)
            m = RegionalModel(
                comm,
                rgrid,
                quiet_params(),
                t_init=lambda la, lo: 280.0 + la + 0.1 * lo,
            )
            m.set_frame(np.full(rgrid.shape, 290.0) if comm.rank == 0 else None)
            for _ in range(4):
                m.step(3600.0)
            return m.gather_global()

        reference = spmd(1, main)[0]
        for n in (2, 4):
            np.testing.assert_array_equal(spmd(n, main)[0], reference)

    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_laplacian_replicates_every_edge_bitwise(self, spmd, procs):
        """The non-periodic stencil, against the ``vstack`` / ``hstack``
        formula it replaced, on the whole regional field: every edge row
        and column stands in for its missing neighbour."""
        rgrid = RegionalGrid(PARENT, SPEC)

        def init(la, lo):
            return 280.0 + np.sin(np.deg2rad(3.0 * la)) * lo + 1e-3 * la * lo

        full = init(*np.meshgrid(rgrid.lat_centers, rgrid.lon_centers, indexing="ij"))
        up = np.vstack([full[1:], full[-1:]])
        down = np.vstack([full[:1], full[:-1]])
        east = np.hstack([full[:, 1:], full[:, -1:]])
        west = np.hstack([full[:, :1], full[:, :-1]])
        reference = up + down + east + west - 4.0 * full

        def main(comm):
            m = RegionalModel(comm, rgrid, quiet_params(), t_init=init)
            m.data = m.laplacian()
            return m.gather_global()

        assert spmd(procs, main)[0].tobytes() == reference.tobytes()

    def test_insolation_is_computed_once(self, spmd, monkeypatch):
        calls = []

        def counted(lat, solar_constant):
            calls.append(len(lat))
            return insolation(lat, solar_constant)

        monkeypatch.setattr(nesting, "insolation", counted)

        def main(comm):
            params = PhysicsParams(heat_capacity=1e7, diffusivity=1e-6, olr_a=210.0, olr_b=2.0)
            m = RegionalModel(comm, RegionalGrid(PARENT, SPEC), params)
            for _ in range(5):
                m.step(3600.0)
            return len(calls)

        assert spmd(1, main) == [1]

    def test_validation(self, spmd):
        def too_many(comm):
            RegionalModel(comm, RegionalGrid(PARENT, RegionSpec(0, 1, 0, 1, 2)), quiet_params())

        with pytest.raises(ReproError, match="decompose"):
            spmd(3, too_many)


class TestNestedCoupling:
    """The full WRF/MM5 pattern: a global model drives the nest over MPH."""

    REG = "BEGIN\nglobal_atm\nnest\nEND"

    def run_nested(self, nsteps=4, substeps=3):
        spec = SPEC

        def global_atm(world, env):
            mph = components_setup(world, "global_atm", env=env)
            model = AtmosphereModel(
                mph.component_comm(), PARENT, AtmosphereModel.default_params()
            )
            for step in range(nsteps):
                model.step(3600.0)
                full = model.temperature.gather_global(root=0)
                if mph.local_proc_id() == 0:
                    mph.send((step, full), "nest", 0, tag=61)
            return model.mean_temperature()

        def nest(world, env):
            mph = components_setup(world, "nest", env=env)
            comm = mph.component_comm()
            rgrid = RegionalGrid(PARENT, spec)
            model = RegionalModel(
                comm,
                rgrid,
                AtmosphereModel.default_params(),
                relax_width=2,
                relax_rate=0.3,
                t_init=lambda la, lo: np.full_like(la, 288.0),
            )
            means = []
            for step in range(nsteps):
                frame = None
                if comm.rank == 0:
                    got_step, parent_full = mph.recv("global_atm", 0, tag=61)
                    assert got_step == step
                    frame = rgrid.from_parent(parent_full)
                model.set_frame(frame)
                for _ in range(substeps):  # finer time step in the nest
                    model.step(3600.0 / substeps)
                means.append(model.mean_temperature())
            return means

        return mph_run([(global_atm, 2), (nest, 2)], registry=self.REG)

    def test_nest_runs_and_tracks_parent(self):
        result = self.run_nested()
        nest_means = result.by_executable(1)[0]
        assert len(nest_means) == 4
        # The nest starts at 288 K and is pulled toward the (warmer)
        # parent region by the boundary forcing.
        assert nest_means[-1] > nest_means[0]

    def test_one_way_nesting_leaves_parent_untouched(self):
        """The global model's result is identical with or without a nest
        attached (one-way coupling)."""

        def solo(world, env):
            mph = components_setup(world, "global_atm", env=env)
            model = AtmosphereModel(
                mph.component_comm(), PARENT, AtmosphereModel.default_params()
            )
            for _ in range(4):
                model.step(3600.0)
            return model.mean_temperature()

        nested = self.run_nested()
        solo_result = mph_run([(solo, 2)], registry="BEGIN\nglobal_atm\nEND")
        assert nested.by_executable(0)[0] == solo_result.values()[0]

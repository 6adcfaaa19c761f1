"""Regional nesting (repro.climate.nesting): grids, interpolation,
boundary relaxation, and the MPH-coupled nest."""

from dataclasses import replace

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.climate import components
from repro.climate.components import AtmosphereModel, PhysicsParams, insolation
from repro.climate.grid import LatLonGrid
from repro.climate.nesting import RegionSpec, RegionalGrid, RegionalModel
from repro.errors import ReproError

PARENT = LatLonGrid(12, 24, name="global")
SPEC = RegionSpec(row0=4, row1=8, col0=6, col1=12, refinement=3)


class TestRegionSpec:
    def test_valid(self):
        SPEC.validate(PARENT)

    def test_numpy_integers_accepted(self):
        RegionSpec(*(np.int64(v) for v in (4, 8, 6, 12, 3))).validate(PARENT)

    def test_rows_outside_parent(self):
        with pytest.raises(ReproError, match="rows"):
            RegionSpec(4, 20, 0, 4).validate(PARENT)

    def test_bad_refinement(self):
        with pytest.raises(ReproError, match="refinement"):
            RegionSpec(0, 2, 0, 2, refinement=0).validate(PARENT)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("row0", 4.0),
            ("row1", 8.0),
            ("col0", False),
            ("col1", 12.0),
            ("refinement", 2.5),
            ("refinement", True),
        ],
    )
    def test_a_non_int_bound_is_refused(self, name, value):
        """A float bound sized the grid in floats (``RegionSpec(6.0, ...)``
        gave a ``(15.0, 24)`` grid that ``from_parent`` could not slice),
        and a bool passed as 0 or 1."""
        with pytest.raises(ReproError, match=f"region {name} must be an int"):
            replace(SPEC, **{name: value}).validate(PARENT)


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


def sunny_params():
    return PhysicsParams(
        heat_capacity=2e7, diffusivity=3e-6, albedo=0.3, solar_constant=1361.0,
        olr_a=210.0, olr_b=2.0,
    )


def wavy(la, lo):
    return 280.0 + np.sin(np.deg2rad(3.0 * la)) * lo + 1e-3 * la * lo


def replicate_laplacian(full):
    """The non-periodic stencil as ``vstack`` / ``hstack`` on a whole
    field: every edge row and column stands in for its missing
    neighbour."""
    up = np.vstack([full[1:], full[-1:]])
    down = np.vstack([full[:1], full[:-1]])
    east = np.hstack([full[:, 1:], full[:, -1:]])
    west = np.hstack([full[:, :1], full[:, :-1]])
    return up + down + east + west - 4.0 * full


def reference_nest(rgrid, params, relax_width, relax_rate, init, frame, dts):
    """The nest's steps as a model class of its own wrote them, on the
    whole regional field: absorbed insolation, linear OLR and the
    replicating stencil, then relaxation of strength ``mask *
    relax_rate`` toward *frame* (none when it is ``None``)."""
    p = params
    full = np.asarray(
        init(*np.meshgrid(rgrid.lat_centers, rgrid.lon_centers, indexing="ij")), dtype=float
    )
    nlat, nlon = rgrid.shape
    rows, cols = np.arange(nlat), np.arange(nlon)
    dist = np.minimum(
        np.minimum(rows, nlat - 1 - rows)[:, None], np.minimum(cols, nlon - 1 - cols)[None, :]
    )
    mask = np.clip(1.0 - dist / relax_width, 0.0, 1.0)
    solar = (
        insolation(rgrid.lat_centers, p.solar_constant)[:, None] * (1.0 - p.albedo)
    ) * np.ones_like(full)
    for dt in dts:
        olr = p.olr_a + p.olr_b * (full - p.t_ref)
        tendency = (solar - olr) / p.heat_capacity
        if p.diffusivity > 0.0:
            tendency = tendency + p.diffusivity * replicate_laplacian(full)
        full = full + dt * tendency
        if frame is not None:
            full = full + (mask * relax_rate) * (frame - full)
    return full


def canonical_mean(rgrid, full):
    rows = np.array([np.sum(row) for row in full * rgrid.area_weights])
    return float(np.sum(rows))


class TestRegionalModel:
    def test_relaxation_mask_shape(self, leg_spmd):
        def main(comm):
            m = RegionalModel(comm, RegionalGrid(PARENT, SPEC), quiet_params(), relax_width=2)
            mask = m.relaxation_mask()
            return (mask.shape == m.temperature.data.shape, float(mask.max()), mask.min() >= 0.0)

        values = leg_spmd(3, main)
        assert all(v[0] and v[2] for v in values)
        # some rank owns an outermost ring cell with strength 1
        assert max(v[1] for v in values) == 1.0

    def test_interior_unrelaxed(self, leg_spmd):
        def main(comm):
            m = RegionalModel(comm, RegionalGrid(PARENT, SPEC), quiet_params(), relax_width=2)
            mask = m.relaxation_mask()
            start, stop = m.temperature.rows_range
            interior = [
                mask[i - start, 9]
                for i in range(max(start, 5), min(stop, 7))
            ]
            return interior

        values = [x for v in leg_spmd(2, main) for x in v]
        assert all(x == 0.0 for x in values)

    def test_relaxation_strength_is_computed_once_and_read_only(self, spmd, monkeypatch):
        calls = []
        clip = np.clip

        def counted(*args, **kwargs):
            calls.append(1)
            return clip(*args, **kwargs)

        monkeypatch.setattr(np, "clip", counted)

        def main(comm):
            rgrid = RegionalGrid(PARENT, SPEC)
            m = RegionalModel(comm, rgrid, quiet_params(), relax_rate=0.4)
            built = len(calls)
            strength, mask = m._strength, m.relaxation_mask()
            m.set_frame(np.full(rgrid.shape, 300.0) if comm.rank == 0 else None)
            for _ in range(5):
                m.step(600.0)
            return (
                built,
                len(calls),
                m._strength is strength and m.relaxation_mask() is mask,
                strength.flags.writeable or mask.flags.writeable,
                strength.tobytes() == (mask * 0.4).tobytes(),
            )

        assert spmd(1, main) == [(1, 1, True, False, True)]

    def test_boundary_pins_to_frame(self, leg_spmd):
        """With full relaxation, the boundary ring equals the frame after
        one step (quiet physics)."""

        def main(comm):
            rgrid = RegionalGrid(PARENT, SPEC)
            m = RegionalModel(comm, rgrid, quiet_params(), relax_width=1, relax_rate=1.0)
            frame = np.full(rgrid.shape, 300.0)
            m.set_frame(frame if comm.rank == 0 else None)
            m.step(10.0)
            full = m.temperature.gather_global()
            if comm.rank == 0:
                edge = np.concatenate([full[0], full[-1], full[:, 0], full[:, -1]])
                return (np.allclose(edge, 300.0), abs(full[5, 9] - 300.0) > 1.0)
            return None

        pinned, interior_free = leg_spmd(2, main)[0]
        assert pinned and interior_free

    def test_decomposition_independence(self, leg_spmd):
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
            return m.temperature.gather_global()

        reference = leg_spmd(1, main)[0]
        for n in (2, 4):
            np.testing.assert_array_equal(leg_spmd(n, main)[0], reference)

    @pytest.mark.parametrize("params", [quiet_params, sunny_params], ids=["quiet", "sunny"])
    @pytest.mark.parametrize("framed", [False, True], ids=["free", "framed"])
    @pytest.mark.parametrize("procs", [1, 2, 3])
    def test_steps_are_the_reference_formula_bitwise(self, leg_spmd, procs, framed, params):
        """Six steps on bands equal :func:`reference_nest` to the bit,
        with and without a frame; the mean is the canonical band sum,
        settled on the model's ledger like any component's."""
        rgrid = RegionalGrid(PARENT, SPEC)
        frame = rgrid.from_parent(
            300.0 + 10.0 * np.cos(np.arange(PARENT.ncells).reshape(PARENT.shape))
        ) if framed else None
        dts = [1200.0] * 6
        reference = reference_nest(rgrid, params(), 2, 0.3, wavy, frame, dts)

        def main(comm):
            m = RegionalModel(comm, rgrid, params(), relax_width=2, relax_rate=0.3, t_init=wavy)
            if frame is not None:
                m.set_frame(frame if comm.rank == 0 else None)
            for dt in dts:
                m.step(dt)
            diags = m.settle()
            return (
                m.temperature.gather_global(),
                m.mean_temperature(),
                [d.mean_temperature for d in diags],
            )

        out = leg_spmd(procs, main)
        assert out[0][0].tobytes() == reference.tobytes()
        mean = canonical_mean(rgrid, reference)
        for _, got, settled in out:
            assert got == mean and len(settled) == 6 and settled[-1] == mean

    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_laplacian_replicates_every_edge_bitwise(self, leg_spmd, procs):
        """The nest's stencil is the band stencil on a non-periodic grid:
        :func:`replicate_laplacian` on the whole regional field."""
        rgrid = RegionalGrid(PARENT, SPEC)
        full = wavy(*np.meshgrid(rgrid.lat_centers, rgrid.lon_centers, indexing="ij"))

        def main(comm):
            m = RegionalModel(comm, rgrid, quiet_params(), t_init=wavy)
            m.temperature.data = m.temperature.laplacian()
            return m.temperature.gather_global()

        assert leg_spmd(procs, main)[0].tobytes() == replicate_laplacian(full).tobytes()

    def test_insolation_is_computed_once(self, spmd, monkeypatch):
        calls = []

        def counted(lat, solar_constant):
            calls.append(len(lat))
            return insolation(lat, solar_constant)

        monkeypatch.setattr(components, "insolation", counted)

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

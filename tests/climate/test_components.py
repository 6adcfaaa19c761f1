"""Component models: physics sanity and decomposition independence
(repro.climate.components)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.climate import components
from repro.climate.components import (
    SETTLE_EVERY,
    AtmosphereModel,
    LandModel,
    OceanModel,
    PhysicsParams,
    SeaIceModel,
    StepDiagnostics,
    insolation,
)
from repro.climate.fields import DistributedField, weighted_global_sum
from repro.climate.forcing import SeasonalForcing
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError

GRID = LatLonGrid(8, 12)


class TestPhysicsParams:
    def test_defaults_valid(self):
        for cls in (AtmosphereModel, OceanModel, LandModel, SeaIceModel):
            cls.default_params().validate()

    def test_negative_heat_capacity_rejected(self):
        with pytest.raises(ReproError, match="heat_capacity"):
            PhysicsParams(heat_capacity=-1.0).validate()

    def test_albedo_range(self):
        with pytest.raises(ReproError, match="albedo"):
            PhysicsParams(albedo=1.5).validate()

    def test_negative_diffusivity_rejected(self):
        with pytest.raises(ReproError, match="diffusivity"):
            PhysicsParams(diffusivity=-1e-6).validate()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("heat_capacity", float("nan")),
            ("heat_capacity", float("inf")),
            ("diffusivity", float("nan")),
            ("diffusivity", float("inf")),
            *(
                (name, value)
                for name in ("solar_constant", "olr_a", "olr_b", "t_ref")
                for value in (float("nan"), float("inf"), float("-inf"))
            ),
        ],
    )
    def test_non_finite_rejected(self, name, value):
        """A NaN or infinite parameter used to be accepted and run NaN
        fields silently (the ranges already refuse ``-inf`` heat capacity
        and diffusivity)."""
        with pytest.raises(ReproError, match=f"{name} must be a finite number"):
            PhysicsParams(**{name: value}).validate()


class TestTimeInvariantTerms:
    """Without seasonal forcing a model's absorbed insolation depends on
    latitude and parameters alone: it is computed once and shared
    read-only by every step, as is the atmosphere's all-zero one."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"insolation": 0, "daily_insolation": 0}
        annual, daily = components.insolation, SeasonalForcing.daily_insolation

        def count_annual(lat, solar_constant):
            calls["insolation"] += 1
            return annual(lat, solar_constant)

        def count_daily(forcing, lat, t):
            calls["daily_insolation"] += 1
            return daily(forcing, lat, t)

        monkeypatch.setattr(components, "insolation", count_annual)
        monkeypatch.setattr(SeasonalForcing, "daily_insolation", count_daily)
        return calls

    @pytest.mark.parametrize("cls", [OceanModel, LandModel, SeaIceModel])
    def test_one_insolation_call_per_model(self, spmd, counted, cls):
        def main(comm):
            m = cls(comm, GRID, cls.default_params())
            for _ in range(5):
                m.step(1800.0)
            return dict(counted)

        assert spmd(1, main) == [{"insolation": 1, "daily_insolation": 0}]

    @pytest.mark.parametrize("cls", [OceanModel, LandModel, SeaIceModel])
    def test_seasonal_forcing_computes_every_step(self, spmd, counted, cls):
        def main(comm):
            m = cls(comm, GRID, cls.default_params(), forcing=SeasonalForcing())
            for _ in range(5):
                m.step(1800.0)
            return dict(counted)

        assert spmd(1, main) == [{"insolation": 0, "daily_insolation": 5}]

    def test_shared_arrays_are_read_only(self, spmd):
        def main(comm):
            surface = OceanModel(comm, GRID, OceanModel.default_params())
            atmosphere = AtmosphereModel(comm, GRID, AtmosphereModel.default_params())
            seasonal = OceanModel(
                comm, GRID, OceanModel.default_params(), forcing=SeasonalForcing()
            )
            shared = []
            for m in (surface, atmosphere):
                solar = m.absorbed_solar()
                m.step(1800.0)
                shared.append(m.absorbed_solar() is solar and not solar.flags.writeable)
            fresh = seasonal.absorbed_solar()
            seasonal.step(1800.0)
            return (
                shared,
                not atmosphere.absorbed_solar().any(),
                fresh.flags.writeable and seasonal.absorbed_solar() is not fresh,
            )

        assert spmd(2, main) == [([True, True], True, True)] * 2

    @pytest.mark.parametrize("cls", [OceanModel, LandModel, SeaIceModel])
    def test_no_solar_constant_absorbs_no_seasonal_sun(self, spmd, counted, cls):
        """``solar_constant=0`` switches insolation off under seasonal
        forcing too: the model absorbs one shared all-zero array and never
        asks the forcing for its sun."""

        def main(comm):
            params = replace(cls.default_params(), solar_constant=0.0)
            m = cls(comm, GRID, params, forcing=SeasonalForcing())
            solar = m.absorbed_solar()
            for _ in range(3):
                m.step(1800.0)
            return (
                not solar.any(),
                m.absorbed_solar() is solar and not solar.flags.writeable,
                m.settle()[-1].solar_in,
                counted["daily_insolation"],
            )

        assert spmd(2, main) == [(True, True, 0.0, 0)] * 2


class TestInsolation:
    def test_equator_exceeds_poles(self):
        lat = np.array([-90.0, 0.0, 90.0])
        q = insolation(lat, 1361.0)
        assert q[1] > q[0] and q[1] > q[2]

    def test_hemispheric_symmetry(self):
        q = insolation(np.array([-45.0, 45.0]), 1361.0)
        assert q[0] == pytest.approx(q[1])

    def test_global_mean_is_quarter_solar_constant(self):
        g = LatLonGrid(64, 2)
        q = insolation(g.lat_centers, 1361.0)
        mean = float((q[:, None] * g.area_weights * g.nlon).sum()) / g.nlon * g.nlon
        mean = float((np.repeat(q[:, None], g.nlon, axis=1) * g.area_weights).sum())
        assert mean == pytest.approx(1361.0 / 4.0, rel=1e-3)


class TestStepping:
    def test_radiative_cooling_without_sun(self, spmd):
        params = replace(
            AtmosphereModel.default_params(), diffusivity=0.0, olr_a=200.0, olr_b=0.0
        )

        def main(comm):
            m = AtmosphereModel(comm, GRID, params)
            before = m.mean_temperature()
            m.step(3600.0)
            return m.mean_temperature() - before

        delta = spmd(2, main)[0]
        assert delta == pytest.approx(-200.0 * 3600.0 / params.heat_capacity)

    def test_solar_heating_raises_temperature(self, spmd):
        params = replace(
            OceanModel.default_params(), diffusivity=0.0, olr_a=0.0, olr_b=0.0
        )

        def main(comm):
            m = OceanModel(comm, GRID, params)
            before = m.mean_temperature()
            m.step(3600.0)
            return m.mean_temperature() - before

        assert spmd(2, main)[0] > 0.0

    def test_coupling_flux_applied(self, spmd):
        params = replace(
            LandModel.default_params(), solar_constant=0.0, olr_a=0.0, olr_b=0.0
        )

        def main(comm):
            m = LandModel(comm, GRID, params)
            before = m.mean_temperature()
            flux = np.full(m.temperature.data.shape, 100.0)  # uniform warming
            m.step(1000.0, flux)
            return m.mean_temperature() - before

        expected = 100.0 * 1000.0 / params.heat_capacity
        assert spmd(2, main)[0] == pytest.approx(expected)

    def test_flux_shape_validated(self, spmd):
        def main(comm):
            m = LandModel(comm, GRID, LandModel.default_params())
            m.step(10.0, np.zeros((1, 1)))

        with pytest.raises(ReproError, match="flux shape"):
            spmd(2, main)

    def test_diffusion_smooths_checkerboard(self, spmd):
        params = replace(
            AtmosphereModel.default_params(), diffusivity=2e-6, olr_a=0.0, olr_b=0.0
        )

        def main(comm):
            def checkerboard(lat, lon):
                return 280.0 + 10.0 * np.sign(np.sin(np.deg2rad(lon * 6)))

            m = AtmosphereModel(comm, GRID, params, t_init=checkerboard)
            before = m.temperature.gather_global()  # collective: all ranks call
            for _ in range(50):
                m.step(3600.0)
            after = m.temperature.gather_global()
            if comm.rank == 0:
                return (float(np.var(before)), float(np.var(after)))
            return None

        before, after = spmd(2, main)[0]
        assert after < before

    def test_budget_accumulates(self, spmd):
        def main(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            for _ in range(3):
                m.step(3600.0)
            booked_before_settle = m.budget.solar_in
            settled = m.settle()
            return (m.steps_taken, len(settled), booked_before_settle, m.budget.solar_in > 0)

        assert spmd(2, main)[0] == (3, 3, 0.0, True)

    def test_energy_budget_closes_per_component(self, spmd):
        """dE == solar - olr + coupling + diffusion_residual, to round-off."""
        params = replace(OceanModel.default_params(), diffusivity=5e-7, olr_a=5.0, olr_b=1.0)

        def main(comm):
            m = OceanModel(comm, GRID, params)
            e0 = m.energy()
            rng_flux = np.full(m.temperature.data.shape, 12.5)
            for _ in range(10):
                m.step(3600.0, rng_flux)
            m.settle()
            drift = m.energy() - e0
            explained = (
                m.budget.solar_in
                - m.budget.olr_out
                + m.budget.coupling_in
                + m.budget.diffusion_residual
            )
            return abs(drift - explained) / max(abs(drift), 1.0)

        assert spmd(4, main)[0] < 1e-9


class TestDecompositionIndependence:
    @pytest.mark.parametrize("cls", [AtmosphereModel, OceanModel, LandModel, SeaIceModel])
    def test_bitwise_same_across_proc_counts(self, spmd, cls):
        def main(comm):
            m = cls(comm, GRID, cls.default_params())
            for _ in range(5):
                m.step(3600.0)
            return m.temperature.gather_global()

        serial = spmd(1, main)[0]
        for n in (2, 4):
            parallel = spmd(n, main)[0]
            np.testing.assert_array_equal(serial, parallel)


MODELS = [AtmosphereModel, OceanModel, LandModel, SeaIceModel]
DT = 1800.0


def _make(comm, cls):
    """A model one step in (so nothing sits at its initial value) and a
    coupling flux that varies over the globe, cut like the model."""
    model = cls(comm, GRID, cls.default_params())
    model.step(DT)
    flux = DistributedField.from_function(
        comm, GRID, lambda la, lo: 40.0 * np.cos(np.deg2rad(la)) - 0.05 * lo
    ).data
    return model, flux


class TestFusedDiagnostics:
    """A settled step's diagnostics are the separate reductions to the bit."""

    @staticmethod
    def one_step(cls):
        def main(comm):
            m, flux = _make(comm, cls)
            p = m.params

            def integral(block):
                return weighted_global_sum(m.comm, m.grid, block, m.temperature.rows_range)

            # The step's integrands, rebuilt from the public methods
            # before the step moves the state they read.
            expected = {
                "solar_in": integral(m.absorbed_solar()) * DT,
                "olr_out": integral(m.outgoing_longwave()) * DT,
                "coupling_in": integral(flux) * DT,
                "diffusion_residual": (
                    integral(p.heat_capacity * p.diffusivity * m.temperature.laplacian()) * DT
                    if p.diffusivity > 0.0
                    else 0.0
                ),
            }
            m.step(DT, flux)
            diag = m.settle()[-1]
            expected["mean_temperature"] = integral(m.temperature.data)
            expected["mean_thickness"] = (
                integral(m.thickness) if isinstance(m, SeaIceModel) else None
            )
            got = {name: getattr(diag, name) for name in expected}
            standalone = (
                m.mean_temperature(),
                m.energy(),
                m.mean_thickness() if isinstance(m, SeaIceModel) else None,
            )
            return got, expected, standalone, p.heat_capacity

        return main

    @pytest.mark.parametrize("cls", MODELS)
    def test_step_reports_the_separate_reductions_exactly(self, spmd, cls):
        reference = spmd(1, self.one_step(cls))[0][0]
        for n in (1, 2, 3, 4):
            for got, expected, standalone, capacity in spmd(n, self.one_step(cls)):
                assert got == expected  # exact, term by term
                assert got == reference  # and the same on every decomposition
                assert standalone == (
                    got["mean_temperature"],
                    capacity * got["mean_temperature"],
                    got["mean_thickness"],
                )

    @pytest.mark.parametrize("cls", MODELS)
    def test_advance_state_is_the_update_step_makes(self, spmd, cls):
        def main(comm):
            m, flux = _make(comm, cls)
            start = m.state_snapshot()
            m.step(DT, flux)
            stepped = m.state_snapshot()
            m.state_restore(start)
            terms = m.advance_state(DT, flux)
            advanced = m.state_snapshot()
            assert set(terms) <= {"solar_in", "olr_out", "coupling_in", "diffusion_residual"}
            # Nothing booked before a settle; only the step records.
            assert advanced.pop("budget") == stepped.pop("budget") == start["budget"]
            assert len(advanced.pop("ledger")) == len(start["ledger"])
            assert len(stepped.pop("ledger")) == len(start["ledger"]) + 1
            assert advanced.pop("settled") == stepped.pop("settled") == []
            assert advanced.keys() == stepped.keys()
            return all(np.array_equal(advanced[k], stepped[k]) for k in advanced)

        for n in (1, 2, 3, 4):
            assert all(spmd(n, main))


class TestLedger:
    """A step records, a settle reduces: where the settles fall changes no
    bit, and the ledger never outgrows :data:`SETTLE_EVERY` steps."""

    NSTEPS = SETTLE_EVERY + 6

    @staticmethod
    def run(cls, settle_every_step):
        def main(comm):
            m, flux = _make(comm, cls)
            diags, longest = [], 0
            for k in range(TestLedger.NSTEPS):
                m.step(DT if k % 2 else DT / 2, flux)
                longest = max(longest, len(m.state_snapshot()["ledger"]))
                if settle_every_step:
                    diags += m.settle()
            diags += m.settle()
            return diags, m.budget, longest, m.steps_taken

        return main

    @pytest.mark.parametrize("cls", MODELS)
    def test_settle_points_change_no_bit(self, spmd, cls):
        for n in (1, 3):
            each = spmd(n, self.run(cls, True))
            once = spmd(n, self.run(cls, False))
            for (d1, b1, l1, s1), (d2, b2, l2, s2) in zip(each, once):
                # _make's step plus NSTEPS, every one settled exactly once.
                assert len(d1) == len(d2) == s1 == s2 == 1 + self.NSTEPS
                assert d1 == d2 and b1 == b2
                assert l1 == 2 and l2 == SETTLE_EVERY - 1  # self-settled on time

    def test_nothing_recorded_settles_to_nothing(self, spmd):
        def main(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            return m.settle(), m.budget

        for settled, budget in spmd(2, main):
            assert settled == [] and budget == StepDiagnostics()

    def test_restore_rewinds_the_ledger(self, spmd):
        """A step taken and rewound is not settled."""

        def main(comm):
            a, flux = _make(comm, LandModel)
            b, _ = _make(comm, LandModel)
            snap = a.state_snapshot()
            a.step(DT, -flux)
            a.state_restore(snap)
            a.step(DT, flux)
            b.step(DT, flux)
            return a.settle() == b.settle() and a.budget == b.budget

        assert all(spmd(2, main))


class TestSeaIce:
    def test_thickness_grows_when_cold(self, spmd):
        params = replace(
            SeaIceModel.default_params(), solar_constant=0.0, olr_a=0.0, olr_b=0.0
        )

        def main(comm):
            m = SeaIceModel(
                comm, GRID, params, t_init=lambda la, lo: 0 * la + 250.0
            )  # well below freezing
            h0 = m.mean_thickness()
            for _ in range(5):
                m.step(3600.0)
            return m.mean_thickness() - h0

        assert spmd(2, main)[0] > 0.0

    def test_thickness_never_negative(self, spmd):
        def main(comm):
            m = SeaIceModel(
                comm, GRID, SeaIceModel.default_params(), t_init=lambda la, lo: 0 * la + 400.0
            )
            m.thickness[:] = 1e-9
            for _ in range(10):
                m.step(3600.0)
            return float(m.thickness.min())

        assert spmd(2, main)[0] >= 0.0

    def test_atmosphere_absorbs_no_solar(self, spmd):
        def main(comm):
            m = AtmosphereModel(comm, GRID, AtmosphereModel.default_params())
            return float(np.abs(m.absorbed_solar()).max())

        assert spmd(1, main) == [0.0]

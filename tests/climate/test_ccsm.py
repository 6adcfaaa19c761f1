"""E11: the assembled coupled system — identical physics in every mode,
conservation, and both exchange transports."""

import numpy as np
import pytest

from repro.climate.ccsm import (
    MODEL_KINDS,
    CCSMConfig,
    build_executables,
    build_registry,
    run_ccsm,
    total_energy_series,
)
from repro.climate.diagnostics import energy_report
from repro.errors import ReproError

FAST = dict(nsteps=3)


@pytest.fixture(scope="module")
def scme_reference():
    """One SCME run shared by the equivalence tests."""
    return run_ccsm("scme", CCSMConfig(**FAST))


class TestBasicRun:
    def test_all_components_report(self, scme_reference):
        assert set(scme_reference) == set(MODEL_KINDS) | {"coupler"}

    def test_histories_have_initial_state(self, scme_reference):
        for kind in MODEL_KINDS:
            assert len(scme_reference[kind]["mean_T"]) == FAST["nsteps"] + 1

    def test_final_fields_present(self, scme_reference):
        for kind in MODEL_KINDS:
            shape = CCSMConfig().shapes[kind]
            assert scme_reference[kind]["final_field"].shape == shape

    def test_temperatures_physical(self, scme_reference):
        for kind in MODEL_KINDS:
            series = np.array(scme_reference[kind]["mean_T"])
            assert np.all(series > 150.0) and np.all(series < 350.0)

    def test_exchange_residual_roundoff(self, scme_reference):
        assert scme_reference["coupler"]["max_exchange_residual"] < 1e-10

    def test_ice_thickness_tracked(self, scme_reference):
        assert len(scme_reference["ice"]["mean_thickness"]) == FAST["nsteps"] + 1


class TestModeEquivalence:
    @pytest.mark.parametrize("mode", ["mcse", "mcme"])
    def test_identical_physics(self, scme_reference, mode):
        diags = run_ccsm(mode, CCSMConfig(**FAST))
        assert diags["coupler"]["max_exchange_residual"] < 1e-10
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )
            assert diags[kind]["mean_T"] == scme_reference[kind]["mean_T"]

    def test_overlap_mode_identical(self, scme_reference):
        cfg = CCSMConfig(**FAST)
        cfg = CCSMConfig(nsteps=FAST["nsteps"], procs=dict(cfg.procs, land=cfg.procs["atmosphere"]))
        diags = run_ccsm("mcme_overlap", cfg)
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )

    def test_join_exchange_identical(self, scme_reference):
        diags = run_ccsm("scme", CCSMConfig(nsteps=FAST["nsteps"], exchange="join"))
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )

    def test_different_proc_counts_identical(self, scme_reference):
        """Decomposition independence: more processes, same bits."""
        cfg = CCSMConfig(
            nsteps=FAST["nsteps"],
            procs={"atmosphere": 8, "ocean": 4, "land": 4, "ice": 2, "coupler": 1},
        )
        diags = run_ccsm("scme", cfg)
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )

    def test_serial_mode_on_multiproc_coupler_unchanged(self, scme_reference):
        """A multi-process coupler computes on its local processor 0 only:
        bitwise the answer of a 1-process coupler."""
        base = CCSMConfig(**FAST)
        diags = run_ccsm("scme", CCSMConfig(**FAST, procs=dict(base.procs, coupler=3)))
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )


class TestConservation:
    def test_closed_system_conserves_energy(self):
        diags = run_ccsm("scme", CCSMConfig.conservation(nsteps=6))
        energy = total_energy_series(diags)
        drift = abs(energy[-1] - energy[0]) / abs(energy[0])
        assert drift < 1e-12

    def test_energy_report_closes(self):
        diags = run_ccsm("scme", CCSMConfig(nsteps=4))
        report = energy_report(diags)
        assert report.relative_unexplained() < 1e-10
        assert report.coupler_residual < 1e-10

    def test_budget_terms_signs(self):
        diags = run_ccsm("scme", CCSMConfig(nsteps=4))
        report = energy_report(diags)
        assert report.solar_in > 0
        assert report.olr_out > 0


class TestScseStandalone:
    def test_standalone_atmosphere_runs(self):
        diags = run_ccsm("scse", CCSMConfig(nsteps=3))
        assert set(diags) == {"atmosphere"}
        assert len(diags["atmosphere"]["mean_T"]) == 4

    def test_standalone_has_zero_coupling(self):
        diags = run_ccsm("scse", CCSMConfig(nsteps=3))
        assert diags["atmosphere"]["budget"]["coupling_in"] == 0.0


class TestBuilders:
    def test_registry_modes(self):
        cfg = CCSMConfig()
        for mode in ("scse", "scme", "mcse", "mcme"):
            reg = build_registry(cfg, mode)
            assert reg.total_components >= 1

    def test_executable_counts(self):
        cfg = CCSMConfig()
        assert len(build_executables(cfg, "scme")) == 5
        assert len(build_executables(cfg, "mcse")) == 1
        assert len(build_executables(cfg, "mcme")) == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown mode"):
            build_registry(CCSMConfig(), "hybrid")
        with pytest.raises(ReproError, match="unknown mode"):
            build_executables(CCSMConfig(), "hybrid")

    def test_overlap_requires_equal_procs(self):
        with pytest.raises(ReproError, match="procs"):
            build_registry(CCSMConfig(), "mcme_overlap")

    def test_bad_exchange_rejected(self):
        with pytest.raises(ReproError, match="exchange"):
            CCSMConfig(exchange="smoke-signals")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(nsteps=-1),
            dict(dt=-3600.0),
            dict(dt=0.0),
            dict(dt=float("nan")),
            dict(dt=float("inf")),
        ],
        ids=["negative_nsteps", "negative_dt", "zero_dt", "nan_dt", "inf_dt"],
    )
    def test_bad_step_rejected(self, bad):
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(nsteps=2.5),
            dict(nsteps=True),
            dict(nsteps="8"),
            dict(coupling_coeff={"ocean": float("nan"), "land": 10.0, "ice": 5.0}),
            dict(coupling_coeff={"ocean": 15.0, "land": float("inf"), "ice": 5.0}),
            dict(coupling_coeff={"ocean": 15.0, "land": 10.0, "ice": float("-inf")}),
        ],
        ids=["fractional_nsteps", "bool_nsteps", "str_nsteps", "nan_coeff", "inf_coeff", "neg_inf_coeff"],
    )
    def test_unrunnable_config_rejected(self, bad):
        """A run that could only die in ``range()`` on every rank, or
        complete with NaN energy everywhere, is refused up front."""
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(shapes={"atmosphere": (0, 32), "ocean": (12, 24), "land": (8, 16), "ice": (6, 12)}),
            dict(shapes={"atmosphere": (16, 32), "ocean": (12, -1), "land": (8, 16), "ice": (6, 12)}),
            dict(checkpoint_every=1.5),
            dict(max_coupling_iterations=2.5),
        ],
        ids=["zero_lat", "negative_lon", "fractional_checkpoint_every", "fractional_iterations"],
    )
    def test_unbuildable_grid_or_count_rejected(self, bad, tmp_path):
        """An empty grid or a fractional step count is refused at
        construction, not discovered inside a rank (the checkpoint
        directory is there so a periodic save is otherwise legal)."""
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(checkpoint_dir=str(tmp_path), **bad)


class TestArbitraryNames:
    def test_renamed_components(self):
        """Paper §3(a): component names evolve (CCM -> CAM); nothing is
        hardwired."""
        cfg = CCSMConfig(
            nsteps=2,
            names={
                "atmosphere": "CAM",
                "ocean": "POP",
                "land": "CLM",
                "ice": "CSIM",
                "coupler": "cpl6",
            },
        )
        diags = run_ccsm("scme", cfg)
        assert diags["atmosphere"]["name"] == "CAM"
        assert diags["coupler"]["name"] == "cpl6"

    def test_renamed_run_matches_default_names(self):
        base = run_ccsm("scme", CCSMConfig(nsteps=2))
        renamed = run_ccsm(
            "scme",
            CCSMConfig(
                nsteps=2,
                names={
                    "atmosphere": "NCAR_atm",
                    "ocean": "o",
                    "land": "l",
                    "ice": "i",
                    "coupler": "c",
                },
            ),
        )
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                base[kind]["final_field"], renamed[kind]["final_field"]
            )


class TestProtocolErrors:
    def test_total_energy_requires_models(self):
        with pytest.raises(ReproError):
            total_energy_series({"coupler": {"energy": []}})

"""CCSM implicit coupling: the coupling-algorithms library wired into the
paper's coupled system.

Implicit mode replaces the one fixed flux exchange per step with an
iterate-to-convergence loop (a :mod:`repro.coupling` solver over the
interface temperatures), so the fluxes are computed from the *converged*
state.  These tests pin the mode's diagnostics, its transport and
schedule independence (p2p == join, and every swept match order ==
none, bitwise), energy conservation, the accelerated solvers and
predictors, sub-cycling, and every configuration guard."""

import numpy as np
import pytest

from repro.climate.ccsm import (
    MODEL_KINDS,
    CCSMConfig,
    run_ccsm,
    total_energy_series,
)
from repro.errors import ReproError

TINY = {"atmosphere": (6, 12), "ocean": (5, 8), "land": (4, 6), "ice": (3, 6)}
PROCS = {kind: 1 for kind in MODEL_KINDS} | {"coupler": 1}
NSTEPS = 3


def implicit_cfg(**overrides):
    base = dict(
        shapes=TINY,
        procs=PROCS,
        nsteps=NSTEPS,
        coupling="implicit",
        coupling_tol=1e-9,
    )
    base.update(overrides)
    return CCSMConfig(**base)


@pytest.fixture(scope="module")
def implicit_reference():
    """One implicit SCME run shared by the equivalence tests."""
    return run_ccsm("scme", implicit_cfg())


class TestImplicitRun:
    def test_coupler_reports_iteration_history(self, implicit_reference):
        coupler = implicit_reference["coupler"]
        assert coupler["coupling_solver"] == "gauss_seidel"
        assert len(coupler["coupling_iterations"]) == NSTEPS
        assert coupler["coupling_converged"] == [True] * NSTEPS
        assert all(i >= 1 for i in coupler["coupling_iterations"])

    def test_exchange_balances_at_roundoff(self, implicit_reference):
        assert implicit_reference["coupler"]["max_exchange_residual"] < 1e-10

    def test_temperatures_physical(self, implicit_reference):
        for kind in MODEL_KINDS:
            series = np.array(implicit_reference[kind]["mean_T"])
            assert len(series) == NSTEPS + 1
            assert np.all(series > 150.0) and np.all(series < 350.0)

    def test_implicit_differs_from_explicit(self, implicit_reference):
        """Iterating to convergence must actually change the answer —
        otherwise the mode is a no-op and these tests prove nothing."""
        explicit = run_ccsm("scme", implicit_cfg(coupling="explicit"))
        assert any(
            not np.array_equal(
                explicit[kind]["final_field"], implicit_reference[kind]["final_field"]
            )
            for kind in MODEL_KINDS
        )


class TestTransportIndependence:
    def test_join_matches_p2p_bitwise(self, implicit_reference):
        """The implicit loop is transport-agnostic: the §5.1 join
        collectives and the §5.2 p2p messages carry identical bits."""
        diags = run_ccsm("scme", implicit_cfg(exchange="join"))
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], implicit_reference[kind]["final_field"]
            )
            assert diags[kind]["mean_T"] == implicit_reference[kind]["mean_T"]
        assert (
            diags["coupler"]["coupling_iterations"]
            == implicit_reference["coupler"]["coupling_iterations"]
        )

    def test_multiprocess_components_identical(self, implicit_reference):
        """Decomposition independence holds under the implicit loop."""
        cfg = implicit_cfg(procs=dict(PROCS, atmosphere=2, ocean=2))
        diags = run_ccsm("scme", cfg)
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], implicit_reference[kind]["final_field"]
            )


class TestScheduleIndependence:
    """How the message schedule interleaves the implicit loop's rounds
    must not move one bit of the result: a run under every swept match
    order reproduces the unswept run."""

    @pytest.mark.schedule_sweep(5)
    @pytest.mark.parametrize("solver", ["gauss_seidel", "aitken", "iqn_ils"])
    def test_swept_run_matches_unswept_bitwise(self, sweep_config, solver):
        cfg = implicit_cfg(
            procs=dict(PROCS, atmosphere=2, ocean=2), coupling_solver=solver
        )
        plain = run_ccsm("scme", cfg)
        swept = run_ccsm("scme", cfg, config=sweep_config())
        for kind in MODEL_KINDS:
            assert (
                swept[kind]["final_field"].tobytes()
                == plain[kind]["final_field"].tobytes()
            ), kind
            for field in ("mean_T", "energy"):
                assert swept[kind][field] == plain[kind][field], (kind, field)
        for field in ("coupling_iterations", "exchange_residual"):
            assert swept["coupler"][field] == plain["coupler"][field], field


class TestConservation:
    def test_closed_system_conserves_energy(self):
        """The E11 audit survives the iterated exchange: with forcing off,
        total energy is conserved through implicit coupling steps."""
        cfg = CCSMConfig.conservation(
            shapes=TINY, procs=PROCS, nsteps=4, coupling="implicit"
        )
        diags = run_ccsm("scme", cfg)
        energy = total_energy_series(diags)
        drift = abs(energy[-1] - energy[0]) / abs(energy[0])
        assert drift < 1e-12


class TestAcceleratedSolvers:
    @pytest.mark.parametrize("solver", ["aitken", "iqn_ils"])
    def test_accelerated_solver_converges_to_same_state(
        self, implicit_reference, solver
    ):
        diags = run_ccsm("scme", implicit_cfg(coupling_solver=solver))
        coupler = diags["coupler"]
        assert coupler["coupling_solver"] == solver
        assert coupler["coupling_converged"] == [True] * NSTEPS
        # Same fixed point to within the interface tolerance...
        for kind in MODEL_KINDS:
            np.testing.assert_allclose(
                diags[kind]["final_field"],
                implicit_reference[kind]["final_field"],
                atol=1e-6,
            )
        # ...for no more work than plain relaxation.
        assert sum(coupler["coupling_iterations"]) <= sum(
            implicit_reference["coupler"]["coupling_iterations"]
        )

    @pytest.mark.parametrize("predictor", ["constant", "linear", "quadratic"])
    def test_predictor_warm_start(self, implicit_reference, predictor):
        """Predictor-seeded steps never cost more iterations than cold
        starts once history exists, and reach the same state."""
        diags = run_ccsm("scme", implicit_cfg(coupling_predictor=predictor))
        cold = implicit_reference["coupler"]["coupling_iterations"]
        warm = diags["coupler"]["coupling_iterations"]
        assert warm[0] == cold[0]  # no history yet: identical cold start
        assert sum(warm[1:]) <= sum(cold[1:])
        assert diags["coupler"]["coupling_converged"] == [True] * NSTEPS
        for kind in MODEL_KINDS:
            np.testing.assert_allclose(
                diags[kind]["final_field"],
                implicit_reference[kind]["final_field"],
                atol=1e-6,
            )


class TestSubcycling:
    def test_explicit_subcycle_runs(self):
        """Sub-cycling is independent of the coupling scheme: explicit
        mode accepts it too (components at different timesteps, one
        exchange per coupling step)."""
        cfg = implicit_cfg(coupling="explicit", subcycle={"ocean": 2, "ice": 3})
        diags = run_ccsm("scme", cfg)
        for kind in MODEL_KINDS:
            series = np.array(diags[kind]["mean_T"])
            assert len(series) == NSTEPS + 1
            assert np.all(series > 150.0) and np.all(series < 350.0)

    def test_subcycle_changes_the_answer(self):
        """m substeps of dt/m is a different integration than one step of
        dt — the histories must differ for the sub-cycled component."""
        base = run_ccsm("scme", implicit_cfg())
        sub = run_ccsm("scme", implicit_cfg(subcycle={"ocean": 4}))
        assert not np.array_equal(
            base["ocean"]["final_field"], sub["ocean"]["final_field"]
        )


class TestValidation:
    def test_implicit_rejects_overlap_mode(self):
        with pytest.raises(ReproError, match="at most one component"):
            run_ccsm("mcme_overlap", implicit_cfg())

    def test_subcycle_rejects_periodic_checkpoints(self, tmp_path):
        with pytest.raises(ReproError, match="sub-cycling"):
            implicit_cfg(
                coupling="explicit",
                subcycle={"ocean": 2},
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path),
            )

    def test_unknown_solver_rejected(self):
        with pytest.raises(ReproError, match="coupling_solver"):
            implicit_cfg(coupling_solver="newton_krylov")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ReproError, match="coupling_predictor"):
            implicit_cfg(coupling_predictor="cubic")

    def test_nonpositive_tolerance_rejected(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ReproError, match="coupling_tol"):
                implicit_cfg(coupling_tol=tol)

    @pytest.mark.parametrize(
        "solver, omega",
        [
            ("gauss_seidel", 0.0),
            ("gauss_seidel", 2.5),
            ("gauss_seidel", float("nan")),
            ("aitken", 0.0),
            ("aitken", float("inf")),
            ("iqn_ils", 0.0),
            ("iqn_ils", float("nan")),
        ],
    )
    def test_unusable_omega_rejected(self, solver, omega):
        with pytest.raises(ReproError, match="coupling_omega"):
            implicit_cfg(coupling_solver=solver, coupling_omega=omega)

    def test_zero_iteration_budget_rejected(self):
        with pytest.raises(ReproError, match="max_coupling_iterations"):
            implicit_cfg(max_coupling_iterations=0)

    def test_multiprocess_coupler_rejected(self):
        with pytest.raises(ReproError, match="single-process coupler"):
            implicit_cfg(procs=dict(PROCS, coupler=2))

    def test_crash_recovery_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="explicit-only"):
            implicit_cfg(
                crash_at=("ocean", 1),
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path),
            )

    def test_unknown_subcycle_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown component kind"):
            implicit_cfg(subcycle={"mantle": 2})

    def test_zero_substeps_rejected(self):
        with pytest.raises(ReproError, match="must be >= 1"):
            implicit_cfg(subcycle={"ocean": 0})

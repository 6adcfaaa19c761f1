"""CCSM implicit coupling: the coupling-algorithms library wired into the
paper's coupled system.

Implicit mode replaces the one fixed flux exchange per step with an
iterate-to-convergence loop (Aitken relaxation from a quadratic
prediction, over the interface temperatures), so the fluxes are computed
from the *converged* state.  These tests pin the mode's diagnostics, its
transport and schedule independence (p2p == join, and every swept match
order == none, bitwise), energy conservation, the converged state against
a tightly converged run, the predictor's warm start, sub-cycling, and
every configuration guard."""

import numpy as np
import pytest

from repro.climate.ccsm import (
    MODEL_KINDS,
    CCSMConfig,
    run_ccsm,
    total_energy_series,
)
from repro.errors import ReproError
from repro.mpi import WorldConfig

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
    @pytest.mark.parametrize("exchange", ["p2p", "join"])
    def test_swept_run_matches_unswept_bitwise(self, sweep_config, exchange):
        cfg = implicit_cfg(
            procs=dict(PROCS, atmosphere=2, ocean=2), exchange=exchange
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
    def test_accelerated_solver_converges_to_same_state(self, implicit_reference):
        """Aitken relaxation from a predicted start stops at the fixed
        point a run converged to 1e-12 reaches, within the interface
        tolerance."""
        tight = run_ccsm("scme", implicit_cfg(coupling_tol=1e-12))
        assert tight["coupler"]["coupling_converged"] == [True] * NSTEPS
        assert implicit_reference["coupler"]["coupling_converged"] == [True] * NSTEPS
        for kind in MODEL_KINDS:
            np.testing.assert_allclose(
                implicit_reference[kind]["final_field"],
                tight[kind]["final_field"],
                atol=1e-6,
            )

    def test_predictor_warm_start(self, implicit_reference):
        """Step 0 starts cold and step 1 from the last converged state
        (no history to extrapolate); from step 2 the prediction starts
        closer, so that step costs fewer iterations."""
        iterations = implicit_reference["coupler"]["coupling_iterations"]
        assert iterations[1] == iterations[0]
        assert iterations[2] < iterations[1]


class TestBenchmarkGrids:
    #: The end-to-end benchmark's grids (``ccsm_implicit_proc``).
    SHAPES = {
        "atmosphere": (64, 128),
        "ocean": (48, 96),
        "land": (32, 64),
        "ice": (24, 48),
    }

    def test_iterations_pinned_and_equal_on_threads_and_processes(self):
        """A 6-step run on the benchmark's grids takes 5 iterations on
        the two steps before the predictor has history to extrapolate,
        then 4 and 3: the same list, and the same fields bit for bit, on
        the thread world and on forked ranks."""
        cfg = CCSMConfig(shapes=self.SHAPES, coupling="implicit", nsteps=6)
        threads = run_ccsm("scme", cfg)
        procs = run_ccsm(
            "scme", cfg, config=WorldConfig(backend="process"), timeout=120.0
        )
        for diags in (threads, procs):
            assert diags["coupler"]["coupling_iterations"] == [5, 5, 4, 3, 3, 3]
            assert diags["coupler"]["coupling_converged"] == [True] * 6
        for kind in MODEL_KINDS:
            assert (
                threads[kind]["final_field"].tobytes()
                == procs[kind]["final_field"].tobytes()
            ), kind


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

    def test_nonpositive_tolerance_rejected(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ReproError, match="coupling_tol"):
                implicit_cfg(coupling_tol=tol)

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

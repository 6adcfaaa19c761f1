"""Coupled solvers on linear operators with known spectral radius.

Linear fixed points ``x = M x + b`` make solver behaviour *provable*: the
error contracts by ``rho(M)`` per Gauss-Seidel iteration, and Aitken's
relaxation is the exact secant on a scalar affine map.  Every assertion
below is one of those analytic bounds (plus slack for the non-asymptotic
first iterations).
"""

import math

import numpy as np
import pytest

from repro.coupling import AbsoluteNorm, AitkenSolver, GaussSeidelSolver
from repro.coupling.solvers import OMEGA_INITIAL, OMEGA_MAX
from repro.errors import CouplingError

N = 8
RHO = 0.6
TOL = 1e-10

#: The benchmark contraction: diag spectrum in [0.15, 0.6], radius 0.6.
MATRIX = RHO * np.diag(np.linspace(1.0, 0.25, N))
OFFSET = np.linspace(1.0, 2.0, N)
FIXED_POINT = np.linalg.solve(np.eye(N) - MATRIX, OFFSET)


def operate(x):
    return MATRIX @ x + OFFSET


def run_step(solver, op=operate, x0=None, n=N):
    solver.initialize()
    solver.initialize_solution_step()
    result = solver.solve_solution_step(
        np.zeros(n) if x0 is None else x0, op
    )
    solver.finalize_solution_step()
    return result


def gs_iteration_bound(rho=RHO, tol=TOL):
    """Iterations a rho-contraction needs to push the residual from its
    initial magnitude below *tol* (the Banach estimate)."""
    r0 = float(np.linalg.norm(operate(np.zeros(N))))
    return math.ceil(math.log(tol / r0) / math.log(rho))


class TestGaussSeidel:
    def test_converges_to_fixed_point(self):
        res = run_step(GaussSeidelSolver(AbsoluteNorm(TOL), max_iterations=80))
        assert res.converged
        np.testing.assert_allclose(res.x, FIXED_POINT, atol=1e-9)

    def test_iterations_match_contraction_bound(self):
        res = run_step(GaussSeidelSolver(AbsoluteNorm(TOL), max_iterations=80))
        bound = gs_iteration_bound()
        assert res.iterations <= bound + 2
        # The dominant mode really does govern: substantially many
        # iterations are needed (not an accidentally easy problem).
        assert res.iterations >= bound // 2

    def test_residuals_decay_monotonically_at_rho(self):
        norms = []

        def recording(x):
            y = operate(x)
            norms.append(float(np.linalg.norm(y - x)))
            return y

        res = run_step(
            GaussSeidelSolver(AbsoluteNorm(TOL), max_iterations=80), op=recording
        )
        assert res.converged and len(norms) == res.iterations
        norms = np.array(norms)
        ratios = norms[1:] / norms[:-1]
        assert np.all(ratios <= RHO + 1e-12)

    def test_under_relaxation_slows_convergence(self):
        full = run_step(GaussSeidelSolver(AbsoluteNorm(1e-8), max_iterations=200))
        half = run_step(
            GaussSeidelSolver(AbsoluteNorm(1e-8), omega=0.5, max_iterations=200)
        )
        assert half.converged and half.iterations > full.iterations

    def test_budget_exhaustion_reports_unconverged(self):
        res = run_step(GaussSeidelSolver(AbsoluteNorm(1e-14), max_iterations=3))
        assert not res.converged
        assert res.iterations == 3

    def test_omega_validation(self):
        with pytest.raises(CouplingError, match="omega"):
            GaussSeidelSolver(AbsoluteNorm(1.0), omega=0.0)
        with pytest.raises(CouplingError, match="omega"):
            GaussSeidelSolver(AbsoluteNorm(1.0), omega=2.5)

    def test_solve_outside_step_rejected(self):
        solver = GaussSeidelSolver(AbsoluteNorm(1.0))
        solver.initialize()
        with pytest.raises(CouplingError, match="outside a coupling step"):
            solver.solve_solution_step(np.zeros(N), operate)

    def test_shape_mismatch_detected(self):
        solver = GaussSeidelSolver(AbsoluteNorm(1.0))
        solver.initialize()
        solver.initialize_solution_step()
        with pytest.raises(CouplingError, match="shape"):
            solver.solve_solution_step(np.zeros(N), lambda x: x[:-1])



class TestAitken:
    def test_beats_gauss_seidel(self):
        """Acceptance anchor: dynamic relaxation strictly fewer iterations
        than plain Gauss-Seidel on the benchmark contraction."""
        gs = run_step(GaussSeidelSolver(AbsoluteNorm(TOL), max_iterations=80))
        ait = run_step(AitkenSolver(AbsoluteNorm(TOL), max_iterations=80))
        assert ait.converged
        assert ait.iterations < gs.iterations
        np.testing.assert_allclose(ait.x, FIXED_POINT, atol=1e-8)

    def test_scalar_problem_is_exact_secant(self):
        """In 1-D Aitken *is* the secant method: the third evaluation
        lands on the fixed point of an affine map exactly.  The map's
        secant relaxation, 1 / (1 - 0.4) = 5/3, lies inside the clip."""
        solver = AitkenSolver(AbsoluteNorm(1e-13), max_iterations=10)
        res = run_step(solver, op=lambda x: 0.4 * x + 1.0, x0=np.zeros(1), n=1)
        assert res.converged and res.iterations <= 3
        assert solver.omega_history[-1] == pytest.approx(5.0 / 3.0)
        np.testing.assert_allclose(res.x, [1.0 / 0.6])

    def test_omega_clipped(self):
        """On ``0.9 x + 1`` the secant asks for ω = 10; the clip holds it at
        OMEGA_MAX, and the iteration still converges (contracting by
        1 - 0.1 OMEGA_MAX = 0.8 per iteration)."""
        solver = AitkenSolver(AbsoluteNorm(1e-10), max_iterations=200)
        res = run_step(solver, op=lambda x: 0.9 * x + 1.0, x0=np.zeros(1), n=1)
        assert res.converged
        assert all(abs(w) <= OMEGA_MAX for w in solver.omega_history)
        assert OMEGA_MAX in solver.omega_history

    def test_warm_start_magnitude_capped(self):
        """On ``0.9 x + 1`` a step ends at ω = OMEGA_MAX; the next step
        starts from that ω's sign with its magnitude capped at
        OMEGA_INITIAL."""
        solver = AitkenSolver(AbsoluteNorm(1e-10), max_iterations=200)
        solver.initialize()
        histories = []
        for _ in range(2):
            solver.initialize_solution_step()
            solver.solve_solution_step(np.zeros(1), lambda x: 0.9 * x + 1.0)
            solver.finalize_solution_step()
            histories.append(solver.omega_history)
        assert histories[0][-1] == OMEGA_MAX
        assert histories[1][0] == OMEGA_INITIAL

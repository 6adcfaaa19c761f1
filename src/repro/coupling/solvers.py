"""Coupled solvers: the iteration that drives an implicit coupling step.

An implicit coupling step solves the interface fixed point ``x = F(x)``,
where evaluating ``F`` means running the coupled components once from the
step's start state.  Evaluations are the expensive part — each one is a
full exchange-and-solve over the transport — so the solvers differ only
in how they turn the residual history into the next iterate:

* :class:`AitkenSolver` — dynamic relaxation: ω is re-estimated each
  iteration from consecutive residuals (the secant in 1-D).  It is the
  one CCSM's implicit step runs: of the solvers measured on the
  benchmark's implicit workload it gave the fastest run (EXPERIMENTS.md,
  "One implicit solver").
* :class:`GaussSeidelSolver` — relaxed fixed point ``x + ω r`` on the
  *sequentially composed* operator (each participant sees the newest
  partner data within an iteration): the analytic reference the solver
  tests measure Aitken against.

Every solver runs the same loop (:meth:`CoupledSolver.solve_solution_step`):
evaluate, test the residual against the criterion, stop or update.  All
updates are plain deterministic numpy — results are bitwise identical
across message schedules and execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.coupling.criteria import AbsoluteNorm
from repro.errors import CouplingError

#: Type of the interface operator a solver iterates on: one coupled
#: evaluation, ``y = F(x)``.
Operator = Callable[[np.ndarray], np.ndarray]

#: Aitken's ω is clipped to ``[-OMEGA_MAX, OMEGA_MAX]``.
OMEGA_MAX = 2.0
#: Aitken's first ω, and the cap on the magnitude of the ω a step
#: inherits from the one before (1 is plain substitution).
OMEGA_INITIAL = 1.0


@dataclass
class SolveResult:
    """Outcome of one coupling step's iteration."""

    #: The final interface vector (the last evaluation ``F(x)`` — the
    #: state the participants actually hold on commit).
    x: np.ndarray
    #: Operator evaluations performed.
    iterations: int
    #: Whether the convergence criterion was met within the budget.
    converged: bool


class CoupledSolver:
    """Base class: the evaluate / check / update loop of one coupling step.

    A new solver is ready for its first step, and :meth:`initialize`
    starts it over.  Each coupling step is one :meth:`solve_solution_step`
    between :meth:`initialize_solution_step` and
    :meth:`finalize_solution_step`.

    Parameters
    ----------
    criterion :
        The convergence criterion each iteration's residual is tested
        against.
    max_iterations :
        Evaluation budget per coupling step; an exhausted budget returns
        ``converged=False``.
    """

    def __init__(self, criterion: AbsoluteNorm, max_iterations: int = 50):
        if max_iterations < 1:
            raise CouplingError(f"max_iterations must be >= 1, got {max_iterations}")
        self.criterion = criterion
        self.max_iterations = int(max_iterations)
        self._in_step = False
        self.initialize()

    def initialize(self) -> None:
        """Start the coupled calculation over: forget every earlier step."""

    def initialize_solution_step(self) -> None:
        """Open one coupling step."""
        self._in_step = True

    def finalize_solution_step(self) -> None:
        """Close the coupling step."""
        self._in_step = False

    def solve_solution_step(self, x0: np.ndarray, operate: Operator) -> SolveResult:
        """Iterate the coupling step to convergence from initial guess
        *x0*; returns the :class:`SolveResult` with the final evaluation."""
        if not self._in_step:
            raise CouplingError(
                f"{type(self).__name__}.solve_solution_step outside a coupling "
                "step; call initialize_solution_step first"
            )
        x = np.array(x0, dtype=float)
        for k in range(self.max_iterations):
            y = np.asarray(operate(x), dtype=float)
            if y.shape != x.shape:
                raise CouplingError(
                    f"operator returned shape {y.shape}, iterate is {x.shape}"
                )
            r = y - x
            if self.criterion.is_satisfied(r):
                return SolveResult(x=y, iterations=k + 1, converged=True)
            x = self._next(x, r)
        return SolveResult(x=y, iterations=self.max_iterations, converged=False)

    def _next(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The next iterate from the current one and its residual."""
        raise NotImplementedError


class GaussSeidelSolver(CoupledSolver):
    """Explicit fixed point with constant relaxation: ``x_{k+1} = x_k + ω r_k``
    (ω = 1 is plain Gauss-Seidel substitution)."""

    def __init__(
        self, criterion: AbsoluteNorm, omega: float = 1.0, max_iterations: int = 50
    ):
        if not 0 < omega <= 2.0:
            raise CouplingError(f"omega must be in (0, 2], got {omega}")
        self.omega = float(omega)
        super().__init__(criterion, max_iterations)

    def _next(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        return x + self.omega * r


class AitkenSolver(CoupledSolver):
    """Aitken dynamic relaxation: ``ω_k`` re-estimated every iteration,

    .. math::

        \\omega_k = -\\omega_{k-1}
            \\frac{r_{k-1} \\cdot (r_k - r_{k-1})}{\\lVert r_k - r_{k-1} \\rVert^2},

    clipped to ``[-OMEGA_MAX, OMEGA_MAX]``.  The first iteration of a step
    reuses the last step's final ω (sign kept, magnitude capped at
    :data:`OMEGA_INITIAL`), the classical warm start.
    """

    def initialize(self) -> None:
        super().initialize()
        self._omega = OMEGA_INITIAL
        self._r_prev: Optional[np.ndarray] = None
        #: ω used at each iteration of the current step (diagnostic).
        self.omega_history: List[float] = []

    def initialize_solution_step(self) -> None:
        super().initialize_solution_step()
        self._r_prev = None
        self.omega_history = []
        # Warm start: keep the converged ω's sign, cap its magnitude.
        sign = float(np.sign(self._omega) or 1.0)
        self._omega = sign * min(abs(self._omega), OMEGA_INITIAL)

    def _next(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        if self._r_prev is not None:
            dr = r - self._r_prev
            denom = float(dr @ dr)
            if denom > 0.0:
                omega = -self._omega * float(self._r_prev @ dr) / denom
                self._omega = float(np.clip(omega, -OMEGA_MAX, OMEGA_MAX))
        self._r_prev = np.array(r)
        self.omega_history.append(self._omega)
        return x + self._omega * r

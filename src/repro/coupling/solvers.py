"""Coupled solvers: the iteration that drives an implicit coupling step.

An implicit coupling step solves the interface fixed point ``x = F(x)``,
where evaluating ``F`` means running the coupled components once from the
step's start state.  Evaluations are the expensive part — each one is a
full exchange-and-solve over the transport — so the solvers differ only
in how they turn the residual history into the next iterate:

* :class:`GaussSeidelSolver` — relaxed fixed point ``x + ω r`` on the
  *sequentially composed* operator (each participant sees the newest
  partner data within an iteration);
* :class:`AitkenSolver` — dynamic relaxation: ω is re-estimated each
  iteration from consecutive residuals (the secant in 1-D);
* :class:`IQNILSSolver` — the quasi-Newton IQN-ILS scheme: a least-squares
  secant model of the residual surface built from this step's iterates
  and reusing the models of the last :data:`REUSE_STEPS` coupling steps,
  with QR column filtering to drop (near-)linearly-dependent secant pairs.

Every solver runs the same loop (:meth:`CoupledSolver.solve_solution_step`):
evaluate, test the residual against the criterion, stop or update.  All
updates are plain deterministic numpy — results are bitwise identical
across message schedules and execution backends.
"""

from __future__ import annotations

import math
from collections import deque
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
#: IQN-ILS appends the secant columns of up to this many previous
#: coupling steps to its model (the bounded reuse window).
REUSE_STEPS = 2
#: IQN-ILS's QR filter drops columns whose ``|R_jj|`` falls below
#: ``FILTER_EPS × max_j |R_jj|``.
FILTER_EPS = 1e-10


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
            self._observe(y, r)
            if self.criterion.is_satisfied(r):
                return SolveResult(x=y, iterations=k + 1, converged=True)
            x = self._next(x, r)
        return SolveResult(x=y, iterations=self.max_iterations, converged=False)

    def _observe(self, y: np.ndarray, r: np.ndarray) -> None:
        """Bookkeeping hook, called after every evaluation (histories)."""

    def _next(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The next iterate from the current one and its residual."""
        raise NotImplementedError


def _check_omega_initial(omega_initial: float) -> float:
    if not (math.isfinite(omega_initial) and omega_initial != 0.0):
        raise CouplingError(
            f"omega_initial must be finite and nonzero, got {omega_initial}"
        )
    return float(omega_initial)


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
    *omega_initial*), the classical warm start.
    """

    def __init__(
        self, criterion: AbsoluteNorm, omega_initial: float = 0.1, max_iterations: int = 50
    ):
        self.omega_initial = _check_omega_initial(omega_initial)
        super().__init__(criterion, max_iterations)

    def initialize(self) -> None:
        super().initialize()
        self._omega = self.omega_initial
        self._r_prev: Optional[np.ndarray] = None
        #: ω used at each iteration of the current step (diagnostic).
        self.omega_history: List[float] = []

    def initialize_solution_step(self) -> None:
        super().initialize_solution_step()
        self._r_prev = None
        self.omega_history = []
        # Warm start: keep the converged ω's sign, cap its magnitude.
        cap = abs(self.omega_initial)
        self._omega = float(np.sign(self._omega) or 1.0) * min(abs(self._omega), cap)

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


class IQNILSSolver(CoupledSolver):
    """IQN-ILS: interface quasi-Newton with least-squares secant model.

    Each iteration pair contributes a secant column ``ΔR_i = r_i - r_{i-1}``
    / ``ΔY_i = y_i - y_{i-1}``; the update solves the least-squares problem
    ``min_c ||r_k + V c||`` and steps ``x_{k+1} = x_k + W c + r_k`` — a
    Newton step on the residual surface spanned by the observed secants.

    The columns of the last :data:`REUSE_STEPS` coupling steps are appended
    to the model, which cuts the first iterations of a step once the
    interface Jacobian is roughly constant between steps.  Reused or
    converged-step columns make the least squares singular, so the QR
    filter drops columns below :data:`FILTER_EPS` (relative) and rebuilds
    the QR until the model is numerically full-rank.  *omega_initial* is
    the relaxation of a model-free iteration (no columns yet).
    """

    def __init__(
        self, criterion: AbsoluteNorm, omega_initial: float = 0.1, max_iterations: int = 50
    ):
        self.omega_initial = _check_omega_initial(omega_initial)
        super().__init__(criterion, max_iterations)

    def initialize(self) -> None:
        super().initialize()
        self._reused: deque = deque(maxlen=REUSE_STEPS)
        #: Columns dropped by the QR filter over the run (diagnostic).
        self.filtered_columns = 0
        self._v_cols: List[np.ndarray] = []  # newest first
        self._w_cols: List[np.ndarray] = []

    def initialize_solution_step(self) -> None:
        super().initialize_solution_step()
        self._v_cols = []
        self._w_cols = []
        self._r_prev: Optional[np.ndarray] = None
        self._y_prev: Optional[np.ndarray] = None

    def finalize_solution_step(self) -> None:
        super().finalize_solution_step()
        if self._v_cols:
            self._reused.append((self._v_cols, self._w_cols))

    def _observe(self, y: np.ndarray, r: np.ndarray) -> None:
        if self._r_prev is not None:
            self._v_cols.insert(0, r - self._r_prev)
            self._w_cols.insert(0, y - self._y_prev)
        self._r_prev = np.array(r)
        self._y_prev = np.array(y)

    def _next(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        v_cols, w_cols = list(self._v_cols), list(self._w_cols)
        for v_old, w_old in reversed(self._reused):
            v_cols.extend(v_old)
            w_cols.extend(w_old)
        if not v_cols:
            return x + self.omega_initial * r
        # At most len(r) secant columns can be independent on this
        # interface; truncate (newest first) so the QR stays square.
        v = np.stack(v_cols[: r.shape[0]], axis=1)
        w = np.stack(w_cols[: r.shape[0]], axis=1)
        # QR filtering: drop near-dependent columns until full rank.
        while True:
            q, rmat = np.linalg.qr(v)
            diag = np.abs(np.diag(rmat))
            bad = np.nonzero(diag <= FILTER_EPS * float(diag.max()))[0]
            if bad.size == 0 or v.shape[1] == 1:
                break
            keep = np.setdiff1d(np.arange(v.shape[1]), bad)
            self.filtered_columns += bad.size
            v = v[:, keep]
            w = w[:, keep]
        if np.abs(np.diag(rmat)).min() == 0.0:
            # Model fully degenerate (converged columns): fall back.
            return x + self.omega_initial * r
        c = _solve_upper(rmat, q.T @ (-r))
        return x + w @ c + r


def _solve_upper(rmat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back-substitution on an upper-triangular system (numpy-only)."""
    n = rmat.shape[0]
    c = np.zeros(n)
    for i in range(n - 1, -1, -1):
        c[i] = (b[i] - rmat[i, i + 1 :] @ c[i + 1 :]) / rmat[i, i]
    return c

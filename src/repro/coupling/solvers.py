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
  secant model of the residual surface built from this step's iterates,
  optionally reusing the models of up to *reuse_steps* previous coupling
  steps (bounded window), with QR column filtering to drop
  (near-)linearly-dependent secant pairs.

Every solver runs the same loop (:meth:`CoupledSolver.solve_solution_step`):
evaluate, record the residual into the convergence criterion, stop or
update.  All updates are plain deterministic numpy — results are bitwise
identical across message schedules and execution backends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.coupling.component import Component
from repro.coupling.criteria import ConvergenceCriterion
from repro.coupling.interface import InterfaceSpec
from repro.errors import CouplingError

#: Type of the interface operator a solver iterates on: one coupled
#: evaluation, ``y = F(x)``.
Operator = Callable[[np.ndarray], np.ndarray]


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
    #: 2-norm of the interface residual per iteration.
    residual_norms: List[float] = field(default_factory=list)


class CoupledSolver(Component):
    """Base class: the evaluate / check / update loop of one coupling step.

    Parameters
    ----------
    criterion :
        The convergence criterion (its lifecycle is driven by this
        solver).
    max_iterations :
        Evaluation budget per coupling step.
    strict :
        Raise :class:`~repro.errors.CouplingError` when the budget is
        exhausted unconverged (default: return ``converged=False``).
    """

    def __init__(
        self,
        criterion: ConvergenceCriterion,
        max_iterations: int = 50,
        strict: bool = False,
    ):
        super().__init__()
        if max_iterations < 1:
            raise CouplingError(f"max_iterations must be >= 1, got {max_iterations}")
        self.criterion = criterion
        self.max_iterations = int(max_iterations)
        self.strict = bool(strict)
        #: Iterations of every completed coupling step, in step order.
        self.iterations_per_step: List[int] = []

    # -- lifecycle cascades to the criterion -----------------------------------

    def initialize(self) -> None:
        super().initialize()
        self.criterion.initialize()

    def initialize_solution_step(self) -> None:
        super().initialize_solution_step()
        self.criterion.initialize_solution_step()

    def finalize_solution_step(self) -> None:
        super().finalize_solution_step()
        self.criterion.finalize_solution_step()

    def finalize(self) -> None:
        super().finalize()
        self.criterion.finalize()

    # -- the loop ---------------------------------------------------------------

    def solve_solution_step(
        self,
        x0: np.ndarray,
        operate: Operator,
        spec: Optional[InterfaceSpec] = None,
    ) -> SolveResult:
        """Iterate the coupling step to convergence from initial guess
        *x0*; returns the :class:`SolveResult` with the final evaluation."""
        self._require_in_step("solve_solution_step")
        x = np.array(x0, dtype=float)
        y = x
        norms: List[float] = []
        converged = False
        iterations = 0
        for k in range(self.max_iterations):
            y = np.asarray(operate(x), dtype=float)
            if y.shape != x.shape:
                raise CouplingError(
                    f"operator returned shape {y.shape}, iterate is {x.shape}"
                )
            r = y - x
            iterations = k + 1
            self.criterion.update(r, spec)
            norms.append(float(np.linalg.norm(r)))
            self._observe(k, x, y, r)
            if self.criterion.is_satisfied():
                converged = True
                break
            x = self._next(k, x, y, r)
        if not converged and self.strict:
            raise CouplingError(
                f"{type(self).__name__}: coupling step {self.step_index} did not "
                f"converge in {self.max_iterations} iterations "
                f"(last residual {norms[-1]:.3e})"
            )
        self.iterations_per_step.append(iterations)
        return SolveResult(
            x=y, iterations=iterations, converged=converged, residual_norms=norms
        )

    # -- solver-specific pieces -------------------------------------------------

    def _observe(self, k: int, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> None:
        """Bookkeeping hook, called after every evaluation (histories)."""

    def _next(self, k: int, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The next iterate from the current evaluation."""
        raise NotImplementedError


class GaussSeidelSolver(CoupledSolver):
    """Explicit fixed point with constant relaxation: ``x_{k+1} = x_k + ω r_k``
    (ω = 1 is plain Gauss-Seidel substitution)."""

    def __init__(
        self,
        criterion: ConvergenceCriterion,
        omega: float = 1.0,
        max_iterations: int = 50,
        strict: bool = False,
    ):
        super().__init__(criterion, max_iterations, strict)
        if not 0 < omega <= 2.0:
            raise CouplingError(f"omega must be in (0, 2], got {omega}")
        self.omega = float(omega)

    def _next(self, k: int, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        return x + self.omega * r


class AitkenSolver(CoupledSolver):
    """Aitken dynamic relaxation: ``ω_k`` re-estimated every iteration,

    .. math::

        \\omega_k = -\\omega_{k-1}
            \\frac{r_{k-1} \\cdot (r_k - r_{k-1})}{\\lVert r_k - r_{k-1} \\rVert^2},

    clipped to ``[-omega_max, omega_max]``.  The first iteration of a step
    reuses the last step's final ω (sign kept, magnitude capped at
    *omega_initial*), the classical warm start.
    """

    def __init__(
        self,
        criterion: ConvergenceCriterion,
        omega_initial: float = 0.1,
        omega_max: float = 2.0,
        max_iterations: int = 50,
        strict: bool = False,
    ):
        super().__init__(criterion, max_iterations, strict)
        if omega_initial == 0.0:
            raise CouplingError("omega_initial must be nonzero")
        self.omega_initial = float(omega_initial)
        self.omega_max = float(abs(omega_max))
        self._omega = float(omega_initial)
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

    def _next(self, k: int, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        if self._r_prev is not None:
            dr = r - self._r_prev
            denom = float(dr @ dr)
            if denom > 0.0:
                omega = -self._omega * float(self._r_prev @ dr) / denom
                self._omega = float(np.clip(omega, -self.omega_max, self.omega_max))
        self._r_prev = np.array(r)
        self.omega_history.append(self._omega)
        return x + self._omega * r


class IQNILSSolver(CoupledSolver):
    """IQN-ILS: interface quasi-Newton with least-squares secant model.

    Each iteration pair contributes a secant column ``ΔR_i = r_i - r_{i-1}``
    / ``ΔY_i = y_i - y_{i-1}``; the update solves the least-squares problem
    ``min_c ||r_k + V c||`` and steps ``x_{k+1} = x_k + W c + r_k`` — a
    Newton step on the residual surface spanned by the observed secants.

    Parameters
    ----------
    reuse_steps :
        Bounded reuse window: secant columns from up to this many previous
        coupling steps are appended to the model (0 = none).  Reuse cuts
        the first iterations of a step dramatically once the interface
        Jacobian is roughly constant between steps.
    filter_eps :
        QR filtering threshold: columns whose ``|R_jj|`` falls below
        ``filter_eps × max_j |R_jj|`` are dropped (and the QR rebuilt)
        until the model is numerically full-rank — without it, reused or
        converged-step columns make the least squares singular.
    omega_initial :
        Relaxation of the model-free first iteration of a step when no
        reused columns exist yet.
    """

    def __init__(
        self,
        criterion: ConvergenceCriterion,
        reuse_steps: int = 2,
        filter_eps: float = 1e-10,
        omega_initial: float = 0.1,
        max_iterations: int = 50,
        strict: bool = False,
    ):
        super().__init__(criterion, max_iterations, strict)
        if reuse_steps < 0:
            raise CouplingError(f"reuse_steps must be >= 0, got {reuse_steps}")
        if not 0 <= filter_eps < 1:
            raise CouplingError(f"filter_eps must be in [0, 1), got {filter_eps}")
        self.reuse_steps = int(reuse_steps)
        self.filter_eps = float(filter_eps)
        self.omega_initial = float(omega_initial)
        self._v_cols: List[np.ndarray] = []  # newest first
        self._w_cols: List[np.ndarray] = []
        self._r_prev: Optional[np.ndarray] = None
        self._y_prev: Optional[np.ndarray] = None
        self._reused: deque = deque(maxlen=max(self.reuse_steps, 1))
        #: Columns dropped by the QR filter over the run (diagnostic).
        self.filtered_columns = 0

    def initialize_solution_step(self) -> None:
        super().initialize_solution_step()
        self._v_cols = []
        self._w_cols = []
        self._r_prev = None
        self._y_prev = None

    def finalize_solution_step(self) -> None:
        super().finalize_solution_step()
        if self.reuse_steps > 0 and self._v_cols:
            self._reused.append((list(self._v_cols), list(self._w_cols)))

    def _observe(self, k: int, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> None:
        if self._r_prev is not None:
            self._v_cols.insert(0, r - self._r_prev)
            self._w_cols.insert(0, y - self._y_prev)
        self._r_prev = np.array(r)
        self._y_prev = np.array(y)

    def _model_columns(self) -> tuple:
        v_cols = list(self._v_cols)
        w_cols = list(self._w_cols)
        if self.reuse_steps > 0:
            for v_old, w_old in reversed(self._reused):
                v_cols.extend(v_old)
                w_cols.extend(w_old)
        return v_cols, w_cols

    def _next(self, k: int, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        v_cols, w_cols = self._model_columns()
        if not v_cols:
            return x + self.omega_initial * r
        # At most len(r) secant columns can be independent on this
        # interface; truncate (newest first) so the QR stays square.
        v_cols, w_cols = v_cols[: r.shape[0]], w_cols[: r.shape[0]]
        v = np.stack(v_cols, axis=1)
        w = np.stack(w_cols, axis=1)
        # QR filtering: drop near-dependent columns until full rank.
        while True:
            q, rmat = np.linalg.qr(v)
            diag = np.abs(np.diag(rmat))
            limit = self.filter_eps * float(diag.max()) if diag.size else 0.0
            bad = np.nonzero(diag <= limit)[0]
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

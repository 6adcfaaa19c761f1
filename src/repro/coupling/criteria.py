"""The convergence criterion of an implicit coupling step.

A coupling step has converged when the 2-norm of its interface residual
``r_k = F(x_k) - x_k`` is at most a fixed tolerance: the one test CCSM's
implicit coupler applies (``CCSMConfig.coupling_tol``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CouplingError


class AbsoluteNorm:
    """``||r_k||_2 <= tol``.

    >>> AbsoluteNorm(tol=1e-6).is_satisfied(np.array([3e-7, 4e-7]))
    True
    """

    def __init__(self, tol: float):
        if not (math.isfinite(tol) and tol > 0):
            raise CouplingError(f"AbsoluteNorm tol must be finite and positive, got {tol}")
        self.tol = float(tol)

    def is_satisfied(self, residual: np.ndarray) -> bool:
        """Whether the interface residual *residual* meets the tolerance."""
        return float(np.linalg.norm(residual, 2)) <= self.tol

"""The predictor: the initial interface guess at the start of a coupling step.

An implicit coupling step is an iteration to the fixed point
``x = F(x)``; the closer the first iterate starts, the fewer iterations
the solver burns.  A :class:`Predictor` extrapolates the converged
interface vectors of prior coupling steps in step index.

The first steps of a run, before enough history exists, degrade
gracefully to the highest extrapolation order the history supports (a
quadratic predictor acts linearly on step 1 and constantly on step 0).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.errors import CouplingError


class Predictor:
    """Polynomial extrapolation of the converged interface, newest last.

    *order* 0 reuses the last converged vector; 1 is linear,
    ``2 x_{n-1} - x_{n-2}``; 2 is quadratic (Lagrange),
    ``3 x_{n-1} - 3 x_{n-2} + x_{n-3}``.  Only the last ``order + 1``
    converged vectors are kept.
    """

    def __init__(self, order: int):
        if order not in (0, 1, 2):
            raise CouplingError(f"predictor order must be 0, 1 or 2, got {order}")
        self.order = order
        self._history: Deque[np.ndarray] = deque(maxlen=order + 1)

    def predict(self) -> Optional[np.ndarray]:
        """The initial iterate for the coming step, or ``None`` before any
        history exists (the caller then starts from the current state)."""
        n = len(self._history)
        if n == 0:
            return None
        h = list(self._history)
        if n == 1 or self.order == 0:
            return h[-1].copy()
        if n == 2 or self.order == 1:
            return 2.0 * h[-1] - h[-2]
        return 3.0 * h[-1] - 3.0 * h[-2] + h[-3]

    def update(self, converged: np.ndarray) -> None:
        """Record a coupling step's converged interface vector."""
        self._history.append(np.array(converged, dtype=float))

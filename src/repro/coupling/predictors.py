"""The predictor: the initial interface guess at the start of a coupling step.

An implicit coupling step is an iteration to the fixed point
``x = F(x)``; the closer the first iterate starts, the fewer iterations
the solver burns.  A :class:`Predictor` extrapolates the converged
interface vectors of prior coupling steps in step index.

The first steps of a run, before enough history exists, degrade
gracefully to the highest extrapolation order the history supports (the
predictor acts linearly on step 2 and reuses the last converged vector on
step 1, which the step-start state already is).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np


class Predictor:
    """Quadratic (Lagrange) extrapolation of the converged interface,
    ``3 x_{n-1} - 3 x_{n-2} + x_{n-3}``, newest last.  Only the last
    three converged vectors are kept."""

    def __init__(self) -> None:
        self._history: Deque[np.ndarray] = deque(maxlen=3)

    def predict(self) -> Optional[np.ndarray]:
        """The initial iterate for the coming step, or ``None`` before any
        history exists (the caller then starts from the current state)."""
        h = self._history
        if not h:
            return None
        if len(h) == 1:
            return h[-1].copy()
        if len(h) == 2:
            return 2.0 * h[-1] - h[-2]
        return 3.0 * h[-1] - 3.0 * h[-2] + h[-3]

    def update(self, converged: np.ndarray) -> None:
        """Record a coupling step's converged interface vector."""
        self._history.append(np.array(converged, dtype=float))

"""The convergence criterion (repro.coupling.criteria)."""

import numpy as np
import pytest

from repro.coupling import AbsoluteNorm
from repro.errors import CouplingError


class TestAbsoluteNorm:
    def test_threshold(self):
        c = AbsoluteNorm(tol=1e-3)
        assert not c.is_satisfied(np.array([1.0, 0.0]))
        assert c.is_satisfied(np.array([1e-4, 0.0]))
        # The 2-norm of the whole vector, not its largest entry.
        assert not c.is_satisfied(np.array([8e-4, 8e-4]))

    def test_bad_tol(self):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(CouplingError, match="positive"):
                AbsoluteNorm(tol=tol)

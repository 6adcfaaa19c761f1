"""The interface predictor (repro.coupling.predictors)."""

import numpy as np
import pytest

from repro.coupling import Predictor
from repro.errors import CouplingError

CONSTANT, LINEAR, QUADRATIC = 0, 1, 2


def fed(order, vectors):
    predictor = Predictor(order)
    for v in vectors:
        predictor.update(np.asarray(v, dtype=float))
    return predictor


class TestHistoryHandling:
    def test_no_history_predicts_none(self):
        assert Predictor(CONSTANT).predict() is None

    def test_history_length_bounded_by_order(self):
        """Only the last ``order + 1`` steps count: a linear predictor fed
        a sequence that bends early extrapolates its straight tail."""
        p = fed(LINEAR, [[100.0], [-50.0], [2.0], [3.0]])
        np.testing.assert_array_equal(p.predict(), [4.0])

    def test_prediction_is_a_copy(self):
        p = fed(CONSTANT, [[1.0, 2.0]])
        out = p.predict()
        out[0] = 99.0
        np.testing.assert_array_equal(p.predict(), [1.0, 2.0])

    def test_order_validated(self):
        with pytest.raises(CouplingError, match="order"):
            Predictor(3)


class TestExactness:
    """Each order must reproduce its own polynomial exactly."""

    def test_constant(self):
        p = fed(CONSTANT, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(p.predict(), [3.0, 4.0])

    def test_linear_on_linear_sequence(self):
        seq = [[1.0 + 2.0 * k] for k in range(3)]
        p = fed(LINEAR, seq)
        np.testing.assert_allclose(p.predict(), [1.0 + 2.0 * 3])

    def test_quadratic_on_quadratic_sequence(self):
        seq = [[float(k * k)] for k in range(4)]
        p = fed(QUADRATIC, seq)
        np.testing.assert_allclose(p.predict(), [16.0])

    def test_linear_formula(self):
        p = fed(LINEAR, [[1.0], [4.0]])
        np.testing.assert_allclose(p.predict(), [2 * 4.0 - 1.0])

    def test_quadratic_formula(self):
        p = fed(QUADRATIC, [[1.0], [2.0], [5.0]])
        np.testing.assert_allclose(p.predict(), [3 * 5.0 - 3 * 2.0 + 1.0])


class TestGracefulDegradation:
    """Before the full history exists, predict at the best order available."""

    def test_quadratic_acts_constant_on_one_step(self):
        p = fed(QUADRATIC, [[7.0]])
        np.testing.assert_array_equal(p.predict(), [7.0])

    def test_quadratic_acts_linear_on_two_steps(self):
        p = fed(QUADRATIC, [[1.0], [3.0]])
        np.testing.assert_allclose(p.predict(), [5.0])

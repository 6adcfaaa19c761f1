"""The interface predictor (repro.coupling.predictors)."""

import numpy as np

from repro.coupling import Predictor


def fed(vectors):
    predictor = Predictor()
    for v in vectors:
        predictor.update(np.asarray(v, dtype=float))
    return predictor


class TestHistoryHandling:
    def test_no_history_predicts_none(self):
        assert Predictor().predict() is None

    def test_history_length_bounded_by_order(self):
        """Only the last ``order + 1 = 3`` steps count: a sequence that
        bends early is extrapolated from its quadratic tail."""
        p = fed([[100.0], [-50.0], [0.0], [1.0], [4.0]])
        np.testing.assert_allclose(p.predict(), [9.0])

    def test_prediction_is_a_copy(self):
        p = fed([[1.0, 2.0]])
        out = p.predict()
        out[0] = 99.0
        np.testing.assert_array_equal(p.predict(), [1.0, 2.0])


class TestExactness:
    """The extrapolation reproduces a polynomial of degree two or less
    exactly."""

    def test_linear_on_linear_sequence(self):
        seq = [[1.0 + 2.0 * k] for k in range(3)]
        np.testing.assert_allclose(fed(seq).predict(), [1.0 + 2.0 * 3])

    def test_quadratic_on_quadratic_sequence(self):
        seq = [[float(k * k)] for k in range(4)]
        np.testing.assert_allclose(fed(seq).predict(), [16.0])

    def test_quadratic_formula(self):
        p = fed([[1.0], [2.0], [5.0]])
        np.testing.assert_allclose(p.predict(), [3 * 5.0 - 3 * 2.0 + 1.0])

    def test_linear_formula(self):
        """The formula a two-step history uses."""
        np.testing.assert_allclose(fed([[1.0], [4.0]]).predict(), [2 * 4.0 - 1.0])


class TestGracefulDegradation:
    """Before the full history exists, predict at the best order available."""

    def test_quadratic_acts_constant_on_one_step(self):
        np.testing.assert_array_equal(fed([[7.0]]).predict(), [7.0])

    def test_quadratic_acts_linear_on_two_steps(self):
        np.testing.assert_allclose(fed([[1.0], [3.0]]).predict(), [5.0])

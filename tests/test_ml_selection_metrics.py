"""Unit tests for the regression metrics."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.ml import (
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    r2_score,
    relative_error,
    root_mean_squared_error,
)


class TestMetrics:
    def test_relative_error_basic(self):
        assert relative_error(100.0, 110.0) == pytest.approx(0.1)
        assert relative_error(100.0, 90.0) == pytest.approx(0.1)

    def test_relative_error_zero_truth(self):
        assert relative_error(0.0, 5.0) == 5.0
        assert relative_error(0.0, 0.0) == 0.0

    def test_relative_error_negative_truth(self):
        assert relative_error(-50.0, -55.0) == pytest.approx(0.1)

    def test_mean_relative_error(self):
        assert mean_relative_error([10.0, 20.0], [11.0, 22.0]) == pytest.approx(0.1)

    def test_mse_rmse(self):
        assert mean_squared_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5)
        assert root_mean_squared_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_mae(self):
        assert mean_absolute_error([1.0, 2.0], [2.0, 0.0]) == pytest.approx(1.5)

    def test_r2_perfect_and_mean(self, rng):
        y = rng.normal(size=100)
        assert r2_score(y, y) == pytest.approx(1.0)
        assert r2_score(y, np.full(100, y.mean())) == pytest.approx(0.0, abs=1e-12)

    def test_r2_constant_truth(self):
        assert r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            mean_squared_error([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            mean_squared_error([], [])

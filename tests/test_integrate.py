"""Unit tests for quadrature and root finding."""

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError, QueryExecutionError
from repro.integrate import (
    integrate_product,
    simpson_integrate,
    simpson_weights,
)
from repro.reference import adaptive_quad, bisect


class TestSimpsonWeights:
    def test_pattern(self):
        np.testing.assert_array_equal(
            simpson_weights(5), [1.0, 4.0, 2.0, 4.0, 1.0]
        )

    def test_sum(self):
        # Composite Simpson weights sum to 3 * (n-1) / ... sanity: integrating
        # f=1 over [0, n-1] with h=1 gives n-1.
        n = 9
        assert simpson_weights(n).sum() / 3.0 == pytest.approx(n - 1)

    def test_even_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            simpson_weights(4)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            simpson_weights(1)


class TestSimpsonIntegrate:
    def test_polynomial_exact(self):
        # Simpson is exact for cubics.
        result = simpson_integrate(lambda x: x**3, 0.0, 2.0, n_points=3)
        assert result == pytest.approx(4.0)

    def test_sine(self):
        result = simpson_integrate(np.sin, 0.0, math.pi, n_points=257)
        assert result == pytest.approx(2.0, abs=1e-8)

    def test_zero_width(self):
        assert simpson_integrate(np.sin, 1.0, 1.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            simpson_integrate(np.sin, 2.0, 1.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            simpson_integrate(np.sin, 0.0, math.inf)


class TestAdaptiveQuad:
    def test_gaussian(self):
        norm = 1.0 / math.sqrt(2 * math.pi)
        result = adaptive_quad(
            lambda x: norm * math.exp(-0.5 * x * x), -8.0, 8.0
        )
        assert result == pytest.approx(1.0, abs=1e-8)

    def test_agrees_with_simpson(self):
        f_vec = lambda x: np.exp(-x) * np.sin(3 * x)  # noqa: E731
        f_scalar = lambda x: math.exp(-x) * math.sin(3 * x)  # noqa: E731
        a = simpson_integrate(f_vec, 0.0, 4.0, n_points=513)
        b = adaptive_quad(f_scalar, 0.0, 4.0)
        assert a == pytest.approx(b, abs=1e-6)

    def test_zero_width(self):
        assert adaptive_quad(math.sin, 1.0, 1.0) == 0.0


class TestIntegrateProduct:
    def test_weighted_integral(self):
        # ∫ x * 1 dx over [0,1] = 0.5
        result = integrate_product(
            lambda x: np.ones_like(x), lambda x: x, 0.0, 1.0
        )
        assert result == pytest.approx(0.5)

    def test_none_weight_is_plain_integral(self):
        result = integrate_product(lambda x: 2 * x, None, 0.0, 1.0)
        assert result == pytest.approx(1.0)


class TestBisect:
    def test_sqrt_two(self):
        root = bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-10)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_root_at_endpoint(self):
        assert bisect(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_decreasing_function(self):
        root = bisect(lambda x: 1.0 - x, 0.0, 5.0, tol=1e-10)
        assert root == pytest.approx(1.0, abs=1e-8)

    def test_no_bracket_raises(self):
        with pytest.raises(QueryExecutionError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidParameterError):
            bisect(lambda x: x, 1.0, 0.0)

    def test_monotone_cdf_style(self):
        # The percentile use-case: find t with F(t) = p.
        cdf = lambda t: 1.0 - math.exp(-t)  # noqa: E731
        p = 0.75
        root = bisect(lambda t: cdf(t) - p, 0.0, 50.0, tol=1e-12)
        assert root == pytest.approx(-math.log(1 - p), abs=1e-9)

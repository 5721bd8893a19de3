"""Unit tests for quadrature and root finding."""

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError, QueryExecutionError
from repro.integrate import (
    bracketed_roots,
    integrate_product,
    simpson_integrate,
    simpson_weights,
)
from repro.ml.kde import KernelDensityEstimator
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


# -- the engine's bracketed secant --------------------------------------------

#: Evaluations a solve may take on the engine's CDFs; bisection to the
#: same 1e-9 over these brackets takes 21-42.
MAX_EVALUATIONS = 16
PS = np.linspace(0.01, 0.99, 41)


class Counted:
    """``f`` that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t):
        self.calls += 1
        return self.f(t)


def kde(x, bandwidth="scott") -> KernelDensityEstimator:
    return KernelDensityEstimator(bandwidth=bandwidth).fit(np.asarray(x, float))


def percentile_problem(density: KernelDensityEstimator, p: float):
    """``(f, lo, hi)`` for ``F(a) = p`` over the density's support, as
    the engine poses it."""
    lo, hi = density.support
    base = density.cdf(np.asarray([lo]))[0]
    total = density.cdf(np.asarray([hi]))[0] - base
    return (lambda t: (density.cdf(np.asarray(t)) - base) / total - p), lo, hi


def solve_counted(f, lo, hi, tol=1e-9):
    """One root with the ends handed in, as the engine does; the count is
    every ``f`` call the solver makes."""
    counted = Counted(f)
    ends = (f(np.asarray([lo])), f(np.asarray([hi])))
    root = bracketed_roots(counted, [lo], [hi], *ends, tol=tol)[0]
    return root, counted.calls


def assert_no_slower_than_bisection(f, lo, hi, tol=1e-9):
    """The root is within ``tol`` of bisection's, in no more calls, both
    counting the two end evaluations."""
    counted = Counted(f)
    ends = counted(np.asarray([lo])), counted(np.asarray([hi]))
    root = bracketed_roots(counted, [lo], [hi], *ends, tol=tol)[0]
    halving = Counted(lambda t: float(f(np.asarray([t]))[0]))
    assert abs(root - bisect(halving, lo, hi, tol=tol)) <= tol, (lo, hi)
    assert counted.calls <= halving.calls, (lo, hi)


def assert_fast_and_bisection_close(density, tol=1e-9):
    for p in PS:
        f, lo, hi = percentile_problem(density, p)
        root, calls = solve_counted(f, lo, hi, tol)
        want = bisect(lambda t: float(f(np.asarray([t]))[0]), lo, hi, tol=tol)
        assert abs(root - want) <= tol, (p, root, want)
        assert calls <= MAX_EVALUATIONS, (p, calls)


class TestBracketedRoots:
    def test_bimodal_with_a_flat_gap(self):
        rng = np.random.default_rng(0)
        density = kde(np.r_[rng.normal(20.0, 1.5, 500), rng.normal(80.0, 1.5, 500)])
        # The CDF is nearly flat between the modes.
        pdf = density.pdf(np.asarray([20.0, 50.0]))
        assert pdf[1] < 1e-3 * pdf[0]
        assert_fast_and_bisection_close(density)

    @pytest.mark.parametrize("rows", [[42.0, 42.0, 42.001], [10.0, 11.0, 60.0]])
    def test_near_step_three_row_group(self, rows):
        assert_fast_and_bisection_close(kde(rows))

    def test_large_magnitude(self):
        """At x ~ 2.45e6 a tol of 1e-9 is two ulps: the clip to
        ``[lo + tol/2, hi - tol/2]`` still closes the bracket from both
        sides."""
        rng = np.random.default_rng(1)
        density = kde(2.45e6 + rng.uniform(0.0, 1800.0, 10_000))
        assert_fast_and_bisection_close(density)

    def test_lock_step_batch_matches_each_solved_alone(self):
        """Brackets that converge at very different speeds share the
        calls, and each gets exactly the root it gets alone."""
        rng = np.random.default_rng(2)
        problems = [
            percentile_problem(kde(np.r_[rng.normal(20, 1.5, 500),
                                         rng.normal(80, 1.5, 500)]), 0.45),
            percentile_problem(kde([42.0, 42.0, 42.001]), 0.7),
            percentile_problem(kde(2.45e6 + rng.uniform(0, 1800, 2000)), 0.2),
            (lambda t: np.asarray(t) - 1.0, 0.0, 2.0),  # exact on step one
        ]
        lo = np.asarray([lo for _, lo, _ in problems])
        hi = np.asarray([hi for _, _, hi in problems])

        def f(t):
            return np.asarray(
                [fk(t[k:k + 1])[0] for k, (fk, _, _) in enumerate(problems)]
            )

        counted = Counted(f)
        roots = bracketed_roots(counted, lo, hi, f(lo), f(hi), tol=1e-9)
        alone = [solve_counted(fk, a, b) for fk, a, b in problems]
        assert [root for root, _ in alone] == roots.tolist()
        assert alone[-1] == (1.0, 1)
        assert counted.calls == max(calls for _, calls in alone) <= MAX_EVALUATIONS

    def test_no_slower_than_bisection_where_a_secant_crawls(self):
        """Narrow modes around a gap that is flat to machine precision:
        a bare Illinois step crawls across it (~160 calls); the midpoint
        fallback keeps every solve within bisection's count."""
        rng = np.random.default_rng(0)
        density = kde(
            np.r_[rng.normal(20.0, 1.5, 500), rng.normal(80.0, 1.5, 500)], 0.3
        )
        for p in PS:
            assert_no_slower_than_bisection(*percentile_problem(density, p))

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (-3.0, 5.0), (0.25, 0.9)])
    @pytest.mark.parametrize(
        "f",
        [
            lambda t: np.cbrt(np.asarray(t) - 0.3),  # infinite slope at the root
            lambda t: np.where(np.asarray(t) < 0.3, -1.0, 2.0) + np.asarray(t),  # a jump
        ],
        ids=["cube_root", "jump"],
    )
    def test_no_slower_than_bisection_where_no_secant_helps(self, f, bracket):
        assert_no_slower_than_bisection(f, *bracket)

    def test_root_at_an_end(self):
        f = lambda t: np.asarray(t)  # noqa: E731
        roots = bracketed_roots(f, [0.0, -1.0], [1.0, 0.0], [0.0, -1.0], [1.0, 0.0])
        assert roots.tolist() == [0.0, 0.0]

    def test_reversed_bracket_rejected(self):
        with pytest.raises(InvalidParameterError):
            bracketed_roots(lambda t: t, [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0])

    def test_no_bracket_raises(self):
        with pytest.raises(QueryExecutionError):
            bracketed_roots(lambda t: t * t + 1.0, [-1.0], [1.0], [2.0], [2.0])

    def test_max_iter_gives_the_midpoint(self):
        # One secant step moves hi to 0.5; the open bracket's midpoint.
        root = bracketed_roots(
            lambda t: np.sign(t - 0.3), [0.0], [1.0], [-1.0], [1.0], max_iter=1
        )
        assert root.tolist() == [0.25]

"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import ColumnSetModel, DBEstConfig
from repro.integrate import simpson_integrate
from repro.ml import KernelDensityEstimator, relative_error
from repro.ml.tree import DecisionTreeRegressor
from repro.reference import bisect
from repro.sampling import (
    hash_sample_mask,
    reservoir_sample_indices,
    stratified_sample_indices,
)
from repro.sql import parse_query
from repro.storage import Table

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSamplingProperties:
    @_settings
    @given(n=st.integers(1, 5000), k=st.integers(1, 500))
    def test_reservoir_size_and_uniqueness(self, n, k):
        indices = reservoir_sample_indices(n, k, rng=np.random.default_rng(0))
        assert indices.shape[0] == min(n, k)
        assert np.unique(indices).shape[0] == indices.shape[0]
        assert indices.min() >= 0 and indices.max() < n

    @_settings
    @given(
        strata=arrays(np.int64, st.integers(1, 300), elements=st.integers(0, 10)),
        cap=st.integers(1, 50),
    )
    def test_stratified_cap_invariant(self, strata, cap):
        indices = stratified_sample_indices(strata, cap, rng=np.random.default_rng(0))
        _values, counts = np.unique(strata[indices], return_counts=True)
        assert (counts <= cap).all()
        # Every non-empty stratum is represented.
        assert set(np.unique(strata[indices]).tolist()) == set(
            np.unique(strata).tolist()
        )

    @_settings
    @given(
        keys=arrays(np.int64, st.integers(1, 500), elements=st.integers(0, 50)),
        fraction=st.floats(0.05, 1.0),
        seed=st.integers(0, 100),
    )
    def test_hash_sampling_key_consistency(self, keys, fraction, seed):
        mask = hash_sample_mask(keys, fraction, seed=seed)
        for value in np.unique(keys):
            decisions = mask[keys == value]
            assert decisions.all() or not decisions.any()


class TestKDEProperties:
    @_settings
    @given(
        data=arrays(
            np.float64,
            st.integers(10, 400),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_cdf_monotone_and_normalised(self, data):
        assume(np.ptp(data) > 1e-6)
        kde = KernelDensityEstimator().fit(data)
        lo, hi = kde.support
        grid = np.linspace(lo, hi, 50)
        cdf = kde.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert kde.integrate(lo, hi) == pytest.approx(1.0, abs=2e-2)

    @_settings
    @given(
        data=arrays(
            np.float64,
            st.integers(20, 300),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        split=st.floats(0.1, 0.9),
    )
    def test_integral_additivity(self, data, split):
        assume(np.ptp(data) > 1e-6)
        kde = KernelDensityEstimator().fit(data)
        lo, hi = kde.support
        mid = lo + split * (hi - lo)
        total = kde.integrate(lo, hi)
        parts = kde.integrate(lo, mid) + kde.integrate(mid, hi)
        assert parts == pytest.approx(total, abs=1e-9)

    @_settings
    @given(
        data=arrays(
            np.float64,
            st.integers(20, 300),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_pdf_nonnegative(self, data):
        assume(np.ptp(data) > 1e-6)
        kde = KernelDensityEstimator().fit(data)
        lo, hi = kde.support
        assert np.all(kde.pdf(np.linspace(lo, hi, 64)) >= 0)


class TestTreeProperties:
    @_settings
    @given(
        x=arrays(
            np.float64, st.integers(20, 500),
            elements=st.floats(0, 100, allow_nan=False),
        ),
        depth=st.integers(0, 6),
    )
    def test_predictions_within_target_range(self, x, depth):
        y = np.sin(x / 10.0) * 50.0
        tree = DecisionTreeRegressor(max_depth=depth, min_samples_leaf=2).fit(x, y)
        pred = tree.predict(x)
        # A regression tree predicts leaf means, so it can never leave
        # the convex hull of the training targets.
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class TestIntegrationProperties:
    @_settings
    @given(
        a=st.floats(-10, 10, allow_nan=False),
        width=st.floats(0.1, 20, allow_nan=False),
        c0=finite_floats,
        c1=st.floats(-100, 100, allow_nan=False),
    )
    def test_simpson_exact_for_linear(self, a, width, c0, c1):
        b = a + width
        result = simpson_integrate(lambda x: c0 + c1 * x, a, b, n_points=5)
        expected = c0 * (b - a) + c1 * (b * b - a * a) / 2.0
        assert result == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @_settings
    @given(root=st.floats(-100, 100, allow_nan=False))
    def test_bisect_finds_linear_root(self, root):
        found = bisect(lambda x: x - root, root - 50.0, root + 50.0, tol=1e-10)
        assert found == pytest.approx(root, abs=1e-7)


class TestModelInvariants:
    @_settings
    @given(
        lo=st.floats(0, 40, allow_nan=False),
        width=st.floats(5, 50, allow_nan=False),
    )
    def test_sum_equals_count_times_avg(self, lo, width):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 100, size=2000)
        y = 2.0 * x + rng.normal(0, 1, size=2000)
        model = ColumnSetModel.train(
            x, y, table_name="t", x_columns=("x",), y_column="y",
            population_size=10_000,
            config=DBEstConfig(regressor="linear", random_seed=1),
        )
        ranges = {"x": (lo, lo + width)}
        count = model.count(ranges)
        average = model.avg(ranges)
        total = model.sum_(ranges)
        if count > 0 and not np.isnan(average):
            assert total == pytest.approx(count * average, rel=1e-9)

    @_settings
    @given(
        p1=st.floats(0.05, 0.45, allow_nan=False),
        p2=st.floats(0.55, 0.95, allow_nan=False),
    )
    def test_percentile_monotonicity(self, p1, p2):
        rng = np.random.default_rng(7)
        x = rng.normal(50, 10, size=3000)
        model = ColumnSetModel.train(
            x, None, table_name="t", x_columns=("x",), y_column=None,
            population_size=3000, config=DBEstConfig(random_seed=1),
        )
        assert model.percentile(p1) <= model.percentile(p2)

    @_settings
    @given(
        lo=st.floats(0, 50, allow_nan=False),
        width=st.floats(1, 50, allow_nan=False),
    )
    def test_count_nonnegative_and_bounded(self, lo, width):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 100, size=2000)
        model = ColumnSetModel.train(
            x, None, table_name="t", x_columns=("x",), y_column=None,
            population_size=5000, config=DBEstConfig(random_seed=1),
        )
        count = model.count({"x": (lo, lo + width)})
        assert 0.0 <= count <= 5000 * 1.01


class TestMetricProperties:
    @_settings
    @given(truth=finite_floats, estimate=finite_floats)
    def test_relative_error_nonnegative(self, truth, estimate):
        assert relative_error(truth, estimate) >= 0.0

    @_settings
    @given(truth=finite_floats)
    def test_relative_error_zero_iff_exact(self, truth):
        assert relative_error(truth, truth) == 0.0


class TestSQLProperties:
    @_settings
    @given(
        lo=st.floats(-1e3, 1e3, allow_nan=False),
        width=st.floats(0.0, 1e3, allow_nan=False),
        func=st.sampled_from(["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV"]),
    )
    def test_roundtrip_random_queries(self, lo, width, func):
        hi = lo + width
        sql = f"SELECT {func}(y) FROM t WHERE x BETWEEN {lo!r} AND {hi!r};"
        query = parse_query(sql)
        again = parse_query(query.to_sql())
        assert query.aggregates == again.aggregates
        assert query.ranges == again.ranges


class TestTableProperties:
    @_settings
    @given(
        data=arrays(
            np.float64, st.integers(1, 200),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_filter_then_concat_partition(self, data):
        table = Table({"x": data}, name="t")
        threshold = float(np.median(data))
        low = table.filter(table["x"] <= threshold)
        high = table.filter(table["x"] > threshold)
        assert low.n_rows + high.n_rows == table.n_rows
        recombined = np.sort(np.concatenate([low["x"], high["x"]]))
        np.testing.assert_array_equal(recombined, np.sort(data))

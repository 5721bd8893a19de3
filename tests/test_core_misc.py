"""Unit tests for config validation, parallel helpers, join sampling,
aggregate dispatch, and the result container."""

import numpy as np
import pytest

from repro.core import DBEstConfig, QueryResult, answer_aggregate
from repro.core.joins import precompute_join_sample, sampled_join_sample
from repro.core.model import ColumnSetModel
from repro.core.parallel import map_parallel
from repro.errors import InvalidParameterError, UnsupportedQueryError
from repro.sql.ast import AggregateCall
from repro.storage import Table


class TestConfig:
    def test_defaults_valid(self):
        config = DBEstConfig()
        assert config.regressor == "ensemble"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"default_sample_size": 0},
            {"regressor": "nope"},
            {"integration_points": 4},
            {"integration_points": 1},
            {"parallel_mode": "fibers"},
            {"n_workers": 0},
            {"min_group_rows": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            DBEstConfig(**kwargs)


class TestParallel:
    def test_sequential_equals_parallel(self):
        items = list(range(20))
        fn = lambda i: i * i  # noqa: E731
        assert map_parallel(fn, items, workers=1) == map_parallel(
            fn, items, workers=4, mode="thread"
        )

    def test_order_preserved(self):
        result = map_parallel(lambda i: i, list(range(100)), workers=8)
        assert result == list(range(100))

    def test_invalid_workers(self):
        with pytest.raises(InvalidParameterError):
            map_parallel(lambda i: i, [1], workers=0)

    def test_invalid_mode(self):
        with pytest.raises(InvalidParameterError):
            map_parallel(lambda i: i, [1, 2], workers=2, mode="fibers")

    def test_single_item_runs_inline(self):
        assert map_parallel(lambda i: i + 1, [41], workers=8) == [42]


class TestJoinSampling:
    @pytest.fixture
    def tables(self, rng):
        fact = Table(
            {"k": rng.integers(0, 50, size=30_000).astype(np.int64),
             "v": rng.normal(size=30_000)},
            name="fact",
        )
        dim = Table(
            {"k": np.arange(50, dtype=np.int64),
             "w": rng.normal(size=50)},
            name="dim",
        )
        return fact, dim

    def test_precompute_exact_cardinality(self, tables, rng):
        fact, dim = tables
        sample, population = precompute_join_sample(
            fact, dim, "k", "k", 1000, rng=rng
        )
        assert population == 30_000  # every fact row matches exactly one dim row
        assert sample.n_rows == 1000
        assert "w" in sample.column_names

    def test_sampled_join_estimates_cardinality(self, tables, rng):
        fact, dim = tables
        _sample, estimate = sampled_join_sample(
            fact, dim, "k", "k", 1000, key_fraction=0.5, rng=rng
        )
        assert estimate == pytest.approx(30_000, rel=0.35)

    def test_sampled_join_invalid_fraction(self, tables, rng):
        fact, dim = tables
        with pytest.raises(InvalidParameterError):
            sampled_join_sample(fact, dim, "k", "k", 100, key_fraction=0.0)


class TestAggregateDispatch:
    @pytest.fixture
    def model(self, rng):
        x = rng.uniform(0, 10, size=4000)
        y = 4.0 * x + rng.normal(0, 0.1, size=4000)
        return ColumnSetModel.train(
            x, y, table_name="t", x_columns=("x",), y_column="y",
            population_size=4000, config=DBEstConfig(regressor="plr"),
        )

    def test_count_dispatch(self, model):
        value = answer_aggregate(model, AggregateCall("COUNT", "y"), {"x": (2, 8)})
        assert value == pytest.approx(2400, rel=0.1)

    def test_avg_on_x_is_density_based(self, model):
        value = answer_aggregate(model, AggregateCall("AVG", "x"), {"x": (2.0, 8.0)})
        assert value == pytest.approx(5.0, rel=0.05)

    def test_avg_on_y_is_regression_based(self, model):
        value = answer_aggregate(model, AggregateCall("AVG", "y"), {"x": (2.0, 8.0)})
        assert value == pytest.approx(20.0, rel=0.05)

    def test_variance_dispatch_both_ways(self, model):
        var_x = answer_aggregate(
            model, AggregateCall("VARIANCE", "x"), {"x": (2.0, 8.0)}
        )
        var_y = answer_aggregate(
            model, AggregateCall("VARIANCE", "y"), {"x": (2.0, 8.0)}
        )
        # y = 4x, so Var(y) = 16 Var(x).
        assert var_y == pytest.approx(16.0 * var_x, rel=0.2)

    def test_unknown_column_rejected(self, model):
        with pytest.raises(UnsupportedQueryError):
            answer_aggregate(model, AggregateCall("SUM", "zzz"), {"x": (2, 8)})

    def test_percentile_must_target_x(self, model):
        with pytest.raises(UnsupportedQueryError):
            answer_aggregate(
                model, AggregateCall("PERCENTILE", "y", 0.5), {"x": (2, 8)}
            )


class TestQueryResult:
    def test_scalar_accessors(self):
        result = QueryResult(values={"AVG(y)": 4.2})
        assert result.scalar() == 4.2
        assert result.scalar("AVG(y)") == 4.2

    def test_scalar_requires_single_unnamed(self):
        result = QueryResult(values={"A": 1.0, "B": 2.0})
        with pytest.raises(KeyError):
            result.scalar()
        assert result.scalar("B") == 2.0

    def test_groups_accessor(self):
        result = QueryResult(values={"SUM(y)": {1: 10.0, 2: 20.0}})
        assert result.groups()[2] == 20.0
        with pytest.raises(KeyError):
            result.scalar()

    def test_groups_rejects_scalar(self):
        result = QueryResult(values={"AVG(y)": 1.0})
        with pytest.raises(KeyError):
            result.groups()

"""Unit tests for ColumnSetModel: the density+regression model unit."""

import numpy as np
import pytest

from repro.core import ColumnSetModel, DBEstConfig
from repro.errors import (
    InvalidParameterError,
    ModelTrainingError,
    UnsupportedQueryError,
)


@pytest.fixture
def linear_model(rng):
    """Model over x ~ U(0,100), y = 3x + 7 + noise, N = 1e6 'population'."""
    x = rng.uniform(0.0, 100.0, size=8000)
    y = 3.0 * x + 7.0 + rng.normal(0.0, 2.0, size=8000)
    return ColumnSetModel.train(
        x,
        y,
        table_name="t",
        x_columns=("x",),
        y_column="y",
        population_size=1_000_000,
        config=DBEstConfig(regressor="plr", random_seed=3),
    )


class TestTraining:
    def test_empty_sample_rejected(self):
        with pytest.raises(ModelTrainingError):
            ColumnSetModel.train(
                np.asarray([]), None, table_name="t", x_columns=("x",),
                y_column=None, population_size=10,
            )

    def test_column_count_mismatch(self, rng):
        with pytest.raises(ModelTrainingError):
            ColumnSetModel.train(
                rng.uniform(size=(100, 2)), None, table_name="t",
                x_columns=("x",), y_column=None, population_size=10,
            )

    def test_xy_length_mismatch(self, rng):
        with pytest.raises(ModelTrainingError):
            ColumnSetModel.train(
                rng.uniform(size=100), rng.uniform(size=50), table_name="t",
                x_columns=("x",), y_column="y", population_size=10,
            )

    def test_density_only_model(self, rng):
        model = ColumnSetModel.train(
            rng.uniform(size=1000), None, table_name="t", x_columns=("x",),
            y_column=None, population_size=1000,
        )
        assert model.regressor is None
        assert model.count({"x": (0.2, 0.8)}) > 0

    def test_regression_aggregate_requires_y(self, rng):
        model = ColumnSetModel.train(
            rng.uniform(size=1000), None, table_name="t", x_columns=("x",),
            y_column=None, population_size=1000,
        )
        with pytest.raises(UnsupportedQueryError):
            model.avg({"x": (0.2, 0.8)})

    @pytest.mark.parametrize(
        "regressor", ["gboost", "xgboost", "plr", "linear", "tree", "ensemble"]
    )
    def test_all_regressor_backends_train(self, rng, regressor):
        x = rng.uniform(0, 10, size=1500)
        y = 2.0 * x + rng.normal(0, 0.1, size=1500)
        model = ColumnSetModel.train(
            x, y, table_name="t", x_columns=("x",), y_column="y",
            population_size=1500,
            config=DBEstConfig(regressor=regressor, random_seed=3),
        )
        assert model.avg({"x": (2.0, 8.0)}) == pytest.approx(10.0, rel=0.15)


class TestAggregates:
    def test_count_accuracy(self, linear_model):
        # Uniform density: 20% of the domain holds ~20% of a 1M population.
        estimate = linear_model.count({"x": (20.0, 40.0)})
        assert estimate == pytest.approx(200_000, rel=0.05)

    def test_avg_accuracy(self, linear_model):
        # E[y | 20 <= x <= 40] = 3*30 + 7 = 97 for uniform x.
        assert linear_model.avg({"x": (20.0, 40.0)}) == pytest.approx(97.0, rel=0.02)

    def test_sum_equals_count_times_avg(self, linear_model):
        ranges = {"x": (10.0, 60.0)}
        total = linear_model.sum_(ranges)
        assert total == pytest.approx(
            linear_model.count(ranges) * linear_model.avg(ranges)
        )

    def test_variance_y_accuracy(self, linear_model):
        # Var(3x + 7 + eps) on x ~ U(20, 40): 9 * (20^2/12) + 4 = 304.
        estimate = linear_model.variance_y({"x": (20.0, 40.0)})
        assert estimate == pytest.approx(304.0, rel=0.15)

    def test_stddev_is_sqrt_of_variance(self, linear_model):
        ranges = {"x": (20.0, 40.0)}
        assert linear_model.stddev_y(ranges) == pytest.approx(
            np.sqrt(linear_model.variance_y(ranges))
        )

    def test_variance_x_accuracy(self, linear_model):
        # Var(x) for x ~ U(20, 40) is 400/12.
        estimate = linear_model.variance_x({"x": (20.0, 40.0)})
        assert estimate == pytest.approx(400.0 / 12.0, rel=0.15)

    def test_percentile_median(self, linear_model):
        # Median of U(0, 100) is 50.
        assert linear_model.percentile(0.5) == pytest.approx(50.0, abs=2.0)

    def test_percentile_monotone_in_p(self, linear_model):
        values = [linear_model.percentile(p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)

    def test_percentile_conditional_on_range(self, linear_model):
        # Median within [20, 40] for uniform x is 30.
        estimate = linear_model.percentile(0.5, {"x": (20.0, 40.0)})
        assert estimate == pytest.approx(30.0, abs=1.5)

    def test_percentile_invalid_p(self, linear_model):
        with pytest.raises(InvalidParameterError):
            linear_model.percentile(1.5)

    def test_empty_range_semantics(self, linear_model):
        ranges = {"x": (500.0, 600.0)}  # far outside the domain
        assert linear_model.count(ranges) == pytest.approx(0.0, abs=1.0)
        assert linear_model.sum_(ranges) == 0.0
        assert np.isnan(linear_model.avg(ranges))
        assert np.isnan(linear_model.variance_y(ranges))

    def test_full_domain_count_is_population(self, linear_model):
        estimate = linear_model.count({"x": (-1000.0, 1000.0)})
        assert estimate == pytest.approx(1_000_000, rel=0.01)

    def test_reversed_range_rejected(self, linear_model):
        with pytest.raises(InvalidParameterError):
            linear_model.count({"x": (40.0, 20.0)})

    def test_predict_y(self, linear_model):
        predictions = linear_model.predict_y(np.asarray([10.0, 50.0]))
        np.testing.assert_allclose(
            predictions, [37.0, 157.0], atol=3.0
        )


class TestMultivariate:
    @pytest.fixture(scope="class")
    def model_2d(self):
        rng = np.random.default_rng(1234)
        x = rng.uniform(0.0, 1.0, size=(12_000, 2))
        y = 5.0 * x[:, 0] + 2.0 * x[:, 1] + rng.normal(0, 0.05, size=12_000)
        # A 33 x 33 tensor grid: these check box plumbing, not
        # quadrature order, and the default 257 x 257 costs ~10 s.
        return ColumnSetModel.train(
            x, y, table_name="t", x_columns=("a", "b"), y_column="y",
            population_size=100_000,
            config=DBEstConfig(
                regressor="xgboost", integration_points=33, random_seed=3
            ),
        )

    def test_count_over_box(self, model_2d):
        estimate = model_2d.count({"a": (0.0, 0.5), "b": (0.0, 0.5)})
        assert estimate == pytest.approx(25_000, rel=0.1)

    def test_avg_over_box(self, model_2d):
        # E[5a + 2b] over a,b ~ U(0.2, 0.8)^2 is 5*0.5 + 2*0.5 = 3.5.
        estimate = model_2d.avg({"a": (0.2, 0.8), "b": (0.2, 0.8)})
        assert estimate == pytest.approx(3.5, rel=0.1)

    def test_unconstrained_dim_defaults_to_domain(self, model_2d):
        # Only constraining a: b integrates over its whole domain.
        constrained = model_2d.count({"a": (0.0, 0.5)})
        assert constrained == pytest.approx(50_000, rel=0.1)

    def test_percentile_rejected_for_2d(self, model_2d):
        with pytest.raises(UnsupportedQueryError):
            model_2d.percentile(0.5)

    def test_variance_x_rejected_for_2d(self, model_2d):
        with pytest.raises(UnsupportedQueryError):
            model_2d.variance_x({"a": (0.0, 1.0)})


class TestIntegrationMethods:
    def test_quad_matches_simpson(self, rng):
        x = rng.uniform(0, 10, size=3000)
        y = x**1.5
        common = dict(
            table_name="t", x_columns=("x",), y_column="y", population_size=3000
        )
        simpson = ColumnSetModel.train(
            x, y, config=DBEstConfig(regressor="plr", integration_method="simpson"),
            **common,
        )
        quad = ColumnSetModel.train(
            x, y, config=DBEstConfig(regressor="plr", integration_method="quad"),
            **common,
        )
        ranges = {"x": (2.0, 8.0)}
        assert simpson.avg(ranges) == pytest.approx(quad.avg(ranges), rel=0.02)
        assert simpson.count(ranges) == pytest.approx(quad.count(ranges), rel=0.02)


class TestIntrospection:
    def test_size_bytes_positive_and_small(self, linear_model):
        size = linear_model.size_bytes()
        assert 0 < size < 5_000_000  # models are compact

    def test_repr(self, linear_model):
        text = repr(linear_model)
        assert "t" in text and "x" in text

    def test_picklable(self, linear_model):
        import pickle

        restored = pickle.loads(pickle.dumps(linear_model))
        assert restored.avg({"x": (20.0, 40.0)}) == pytest.approx(
            linear_model.avg({"x": (20.0, 40.0)})
        )

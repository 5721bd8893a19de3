"""Tests for superset-model resolution: a multivariate model answering
lower-dimensional queries by integrating unconstrained dimensions out."""

import numpy as np
import pytest

from repro import DBEst, DBEstConfig, Table
from repro.core import ColumnSetModel, ModelCatalog, ModelKey
from repro.engines import ExactEngine
from repro.errors import ModelNotFoundError


@pytest.fixture
def table_2d(rng):
    a = rng.uniform(0.0, 1.0, size=30_000)
    b = rng.uniform(0.0, 1.0, size=30_000)
    y = 5.0 * a + 2.0 * b + rng.normal(0, 0.05, size=30_000)
    return Table({"a": a, "b": b, "y": y}, name="t2")


class TestCatalogResolution:
    def test_superset_found(self, rng):
        model = ColumnSetModel.train(
            rng.uniform(size=(500, 2)), rng.uniform(size=500),
            table_name="t", x_columns=("a", "b"), y_column="y",
            population_size=500, config=DBEstConfig(regressor="xgboost"),
        )
        catalog = ModelCatalog()
        catalog.register(ModelKey.make("t", ("a", "b"), "y"), model)
        assert catalog.find("t", ("a",), "y") is model
        assert catalog.find("t", ("b",), "y") is model
        assert catalog.find("t", ("a",), None) is model  # COUNT wildcard

    def test_superset_requires_same_y(self, rng):
        model = ColumnSetModel.train(
            rng.uniform(size=(500, 2)), rng.uniform(size=500),
            table_name="t", x_columns=("a", "b"), y_column="y",
            population_size=500, config=DBEstConfig(regressor="xgboost"),
        )
        catalog = ModelCatalog()
        catalog.register(ModelKey.make("t", ("a", "b"), "y"), model)
        with pytest.raises(ModelNotFoundError):
            catalog.find("t", ("a",), "z")

    def test_exact_match_preferred_over_superset(self, rng):
        wide = ColumnSetModel.train(
            rng.uniform(size=(500, 2)), rng.uniform(size=500),
            table_name="t", x_columns=("a", "b"), y_column="y",
            population_size=500, config=DBEstConfig(regressor="xgboost"),
        )
        narrow = ColumnSetModel.train(
            rng.uniform(size=500), rng.uniform(size=500),
            table_name="t", x_columns=("a",), y_column="y",
            population_size=500, config=DBEstConfig(regressor="plr"),
        )
        catalog = ModelCatalog()
        catalog.register(ModelKey.make("t", ("a", "b"), "y"), wide)
        catalog.register(ModelKey.make("t", ("a",), "y"), narrow)
        assert catalog.find("t", ("a",), "y") is narrow

    def test_tightest_superset_preferred(self, rng):
        def train(columns):
            d = len(columns)
            return ColumnSetModel.train(
                rng.uniform(size=(400, d)), rng.uniform(size=400),
                table_name="t", x_columns=columns, y_column="y",
                population_size=400, config=DBEstConfig(regressor="xgboost"),
            )

        catalog = ModelCatalog()
        two = train(("a", "b"))
        catalog.register(ModelKey.make("t", ("a", "b"), "y"), two)
        # A disjoint 2-D model must not be picked for a query on c alone.
        other = train(("c", "d"))
        catalog.register(ModelKey.make("t", ("c", "d"), "y"), other)
        assert catalog.find("t", ("a",), "y") is two
        assert catalog.find("t", ("c",), "y") is other


class TestEndToEnd:
    def test_univariate_query_on_multivariate_model(self, table_2d):
        truth = ExactEngine()
        truth.register_table(table_2d)
        # 33-point grid per dimension: marginalising b integrates a
        # 33 x 33 tensor instead of the default 257 x 257 (~10 s).
        engine = DBEst(config=DBEstConfig(
            regressor="xgboost", integration_points=33, random_seed=3
        ))
        engine.register_table(table_2d)
        # Only the 2-D model exists.
        engine.build_model("t2", x=("a", "b"), y="y", sample_size=10_000)

        sql = "SELECT AVG(y) FROM t2 WHERE a BETWEEN 0.2 AND 0.8;"
        expected = truth.execute(sql).scalar()
        result = engine.execute(sql)
        assert result.source == "model"
        assert result.scalar() == pytest.approx(expected, rel=0.05)

    def test_count_marginalises_correctly(self, table_2d):
        truth = ExactEngine()
        truth.register_table(table_2d)
        engine = DBEst(config=DBEstConfig(regressor="xgboost", random_seed=3))
        engine.register_table(table_2d)
        engine.build_model("t2", x=("a", "b"), y="y", sample_size=10_000)
        sql = "SELECT COUNT(y) FROM t2 WHERE b BETWEEN 0.0 AND 0.5;"
        expected = truth.execute(sql).scalar()
        assert engine.execute(sql).scalar() == pytest.approx(expected, rel=0.1)

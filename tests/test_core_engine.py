"""End-to-end tests of the DBEst engine façade."""

import pickle

import numpy as np
import pytest

from repro import DBEst, DBEstConfig, Table
from repro.core.joins import join_table_name
from repro.engines import ExactEngine
from repro.errors import (
    InvalidParameterError,
    ModelNotFoundError,
    UnknownTableError,
)


@pytest.fixture
def engine(linear_table, fast_config):
    engine = DBEst(config=fast_config)
    engine.register_table(linear_table)
    engine.build_model("linear", x="x", y="y", sample_size=3000)
    return engine


class TestRegistration:
    def test_unnamed_table_rejected(self, fast_config):
        engine = DBEst(config=fast_config)
        with pytest.raises(InvalidParameterError):
            engine.register_table(Table({"x": np.arange(3)}))

    def test_unknown_table_in_build(self, fast_config):
        engine = DBEst(config=fast_config)
        with pytest.raises(UnknownTableError):
            engine.build_model("ghost", x="x", y="y")


class TestScalarQueries:
    def test_avg_close_to_truth(self, engine, truth_engine):
        sql = "SELECT AVG(y) FROM linear WHERE x BETWEEN 20 AND 60;"
        truth = truth_engine.execute(sql).scalar()
        estimate = engine.execute(sql).scalar()
        assert estimate == pytest.approx(truth, rel=0.05)

    def test_count_close_to_truth(self, engine, truth_engine):
        sql = "SELECT COUNT(y) FROM linear WHERE x BETWEEN 20 AND 60;"
        truth = truth_engine.execute(sql).scalar()
        estimate = engine.execute(sql).scalar()
        assert estimate == pytest.approx(truth, rel=0.1)

    def test_sum_close_to_truth(self, engine, truth_engine):
        sql = "SELECT SUM(y) FROM linear WHERE x BETWEEN 20 AND 60;"
        truth = truth_engine.execute(sql).scalar()
        estimate = engine.execute(sql).scalar()
        assert estimate == pytest.approx(truth, rel=0.1)

    def test_count_star_uses_any_model(self, engine, truth_engine):
        sql = "SELECT COUNT(*) FROM linear WHERE x BETWEEN 20 AND 60;"
        truth = truth_engine.execute(sql).scalar()
        assert engine.execute(sql).scalar() == pytest.approx(truth, rel=0.1)

    def test_multiple_aggregates_in_one_query(self, engine):
        result = engine.execute(
            "SELECT COUNT(y), SUM(y), AVG(y) FROM linear WHERE x BETWEEN 10 AND 90;"
        )
        assert set(result.values) == {"COUNT(y)", "SUM(y)", "AVG(y)"}
        assert result.values["SUM(y)"] == pytest.approx(
            result.values["COUNT(y)"] * result.values["AVG(y)"], rel=1e-6
        )

    def test_result_metadata(self, engine):
        result = engine.execute(
            "SELECT AVG(y) FROM linear WHERE x BETWEEN 10 AND 20;"
        )
        assert result.source == "model"
        assert result.elapsed_seconds > 0
        assert "AVG" in result.sql

    def test_missing_model_raises_without_fallback(self, engine):
        with pytest.raises(ModelNotFoundError):
            engine.execute("SELECT AVG(g) FROM linear WHERE x BETWEEN 0 AND 1;")

    def test_fallback_engine_used(self, linear_table, fast_config, truth_engine):
        engine = DBEst(config=fast_config, fallback=truth_engine)
        engine.register_table(linear_table)
        result = engine.execute(
            "SELECT AVG(y) FROM linear WHERE x BETWEEN 10 AND 20;"
        )
        assert result.source == "fallback"

    def test_percentile(self, engine, truth_engine):
        sql = "SELECT PERCENTILE(x, 0.5) FROM linear WHERE x BETWEEN 0 AND 100;"
        truth = truth_engine.execute(sql).scalar()
        assert engine.execute(sql).scalar() == pytest.approx(truth, abs=3.0)


class TestGroupByQueries:
    @pytest.fixture
    def group_engine(self, linear_table, fast_config):
        engine = DBEst(config=fast_config)
        engine.register_table(linear_table)
        engine.build_model(
            "linear", x="x", y="y", sample_size=4000, group_by="g"
        )
        return engine

    def test_group_by_avg(self, group_engine, truth_engine):
        sql = "SELECT g, AVG(y) FROM linear WHERE x BETWEEN 20 AND 80 GROUP BY g;"
        truth = truth_engine.execute(sql).groups()
        estimate = group_engine.execute(sql).groups()
        assert set(estimate) == set(truth)
        for value, true_avg in truth.items():
            assert estimate[value] == pytest.approx(true_avg, rel=0.15)

    def test_group_by_count_total(self, group_engine, truth_engine):
        sql = "SELECT g, COUNT(y) FROM linear WHERE x BETWEEN 0 AND 100 GROUP BY g;"
        truth = truth_engine.execute(sql).groups()
        estimate = group_engine.execute(sql).groups()
        assert sum(estimate.values()) == pytest.approx(
            sum(truth.values()), rel=0.05
        )

    def test_equality_predicate_selects_one_group(self, group_engine, truth_engine):
        sql = "SELECT AVG(y) FROM linear WHERE x BETWEEN 20 AND 80 AND g = 2;"
        truth = truth_engine.execute(sql).scalar()
        estimate = group_engine.execute(sql).scalar()
        assert estimate == pytest.approx(truth, rel=0.15)

    def test_scalar_accessor_rejects_grouped(self, group_engine):
        result = group_engine.execute(
            "SELECT g, AVG(y) FROM linear WHERE x BETWEEN 20 AND 80 GROUP BY g;"
        )
        with pytest.raises(KeyError):
            result.scalar()
        assert isinstance(result.groups(), dict)


class TestJoinQueries:
    @pytest.fixture
    def join_tables(self, rng):
        fact = Table(
            {
                "k": rng.integers(1, 21, size=20_000).astype(np.int64),
                "m": rng.normal(100.0, 10.0, size=20_000),
            },
            name="fact",
        )
        dim = Table(
            {
                "k": np.arange(1, 21, dtype=np.int64),
                "attr": np.linspace(0.0, 100.0, 20),
            },
            name="dim",
        )
        return fact, dim

    def test_precompute_join_model(self, join_tables, fast_config):
        fact, dim = join_tables
        engine = DBEst(config=fast_config)
        engine.register_table(fact)
        engine.register_table(dim)
        engine.build_join_model(
            "fact", "dim", "k", "k", x="attr", y="m", sample_size=5000
        )
        truth = ExactEngine()
        truth.register_table(fact)
        truth.register_table(dim)
        sql = (
            "SELECT AVG(m) FROM fact JOIN dim ON k = k "
            "WHERE attr BETWEEN 20 AND 80;"
        )
        expected = truth.execute(sql).scalar()
        assert engine.execute(sql).scalar() == pytest.approx(expected, rel=0.05)

    def test_sampled_join_strategy(self, join_tables, fast_config):
        fact, dim = join_tables
        engine = DBEst(config=fast_config)
        engine.register_table(fact)
        engine.register_table(dim)
        engine.build_join_model(
            "fact", "dim", "k", "k", x="attr", y="m",
            sample_size=5000, strategy="sampled", key_fraction=0.5,
        )
        truth = ExactEngine()
        truth.register_table(fact)
        truth.register_table(dim)
        sql = (
            "SELECT COUNT(m) FROM fact JOIN dim ON k = k "
            "WHERE attr BETWEEN 0 AND 100;"
        )
        expected = truth.execute(sql).scalar()
        # Universe sampling with 50% of keys: count estimate is unbiased
        # but noisier; allow a generous tolerance.
        assert engine.execute(sql).scalar() == pytest.approx(expected, rel=0.5)

    def test_unknown_strategy_rejected(self, join_tables, fast_config):
        fact, dim = join_tables
        engine = DBEst(config=fast_config)
        engine.register_table(fact)
        engine.register_table(dim)
        with pytest.raises(InvalidParameterError):
            engine.build_join_model(
                "fact", "dim", "k", "k", x="attr", y="m", strategy="magic"
            )

    def test_builders_do_not_pickle_the_model(self, join_tables,
                                              fast_config, monkeypatch):
        fact, dim = join_tables
        engine = DBEst(config=fast_config)
        engine.register_table(fact)
        engine.register_table(dim)
        calls: list = []
        dumps = pickle.dumps

        def spy(*args, **kwargs):
            calls.append(type(args[0]).__name__)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", spy)
        engine.build_model("fact", x="m", sample_size=2000)
        engine.build_model("fact", x="m", group_by="k", sample_size=2000)
        engine.build_join_model("fact", "dim", "k", "k", x="attr", y="m",
                                sample_size=2000)
        assert len(engine.build_stats) == 3
        assert calls == []

    def test_join_table_name(self):
        assert join_table_name("a", "b") == "a_join_b"


class TestStateManagement:
    def test_build_stats_recorded(self, engine):
        key, stats = next(iter(engine.build_stats.items()))
        assert stats["sample_size"] == 3000
        assert stats["sampling_seconds"] >= 0
        assert stats["training_seconds"] > 0
        # The serialised size is measured when described, not at build.
        assert "model_bytes" not in stats
        row = engine.describe()[0]
        assert row["model_bytes"] == engine.catalog.get(key).size_bytes() > 0

    def test_state_size(self, engine):
        assert engine.state_size_bytes() > 0

    def test_describe(self, engine):
        rows = engine.describe()
        assert rows[0]["table"] == "linear"
        assert "model_bytes" in rows[0]

    def test_bundling_group_models(self, linear_table, fast_config, tmp_path):
        engine = DBEst(config=fast_config)
        engine.register_table(linear_table)
        key = engine.build_model(
            "linear", x="x", y="y", sample_size=4000, group_by="g"
        )
        bundle = engine.bundle_model(key, tmp_path / "bundle.pkl")
        assert not bundle.loaded
        # Queries transparently load the bundle.
        result = engine.execute(
            "SELECT g, AVG(y) FROM linear WHERE x BETWEEN 20 AND 80 GROUP BY g;"
        )
        assert bundle.loaded
        assert len(result.groups()) == 5

    def test_bundle_scalar_model_rejected(self, engine, tmp_path):
        key = next(iter(engine.catalog.keys()))
        with pytest.raises(InvalidParameterError):
            engine.bundle_model(key, tmp_path / "x.pkl")

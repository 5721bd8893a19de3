"""Parity suite: batched group-by evaluation vs the scalar oracle.

The scalar per-group loop is the reference implementation; every
supported aggregate must agree with it to 1e-9 (relative for large
magnitudes) across model groups, raw groups, point-mass columns and
empty ranges.  Fallback triggers and the batch export hooks are covered
here too.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core import DBEstConfig, GroupByModelSet
from repro.core.batched import BatchedGroupEvaluator
from repro.core.groupby import RawGroup
from repro.core.model import ColumnSetModel
from repro.errors import InvalidParameterError, UnsupportedQueryError
from repro.integrate import simpson_weights
from repro.ml.kde import KernelDensityEstimator
from repro.reference import simpson_grid
from repro.sql.ast import AggregateCall


def assert_parity(batched: dict, scalar: dict) -> None:
    """Both paths answered every group within 1e-9 (abs-or-relative)."""
    assert set(batched) == set(scalar)
    for key, expected in scalar.items():
        got = batched[key]
        if math.isnan(expected):
            assert math.isnan(got), f"group {key}: {got} vs nan"
        else:
            bound = 1e-9 * max(1.0, abs(expected))
            assert abs(got - expected) <= bound, (
                f"group {key}: batched {got} vs scalar {expected}"
            )


def make_model_set(regressor: str = "plr", seed: int = 3) -> GroupByModelSet:
    """8 mixed groups: modelled, point-mass-x, and raw."""
    rng = np.random.default_rng(seed)
    n_groups, rows = 8, 150
    n = n_groups * rows
    groups = np.repeat(np.arange(n_groups), rows)
    x = rng.uniform(0.0, 100.0, size=n)
    x[groups == 3] = 42.0  # constant column -> point-mass density
    y = (groups + 1.0) * 0.1 * x + rng.normal(0.0, 1.0, size=n)
    # Starve groups 6 and 7 in the sample so they become raw groups.
    keep = np.ones(n, dtype=bool)
    for value in (6, 7):
        idx = np.flatnonzero(groups == value)
        keep[idx[12:]] = False
    config = DBEstConfig(
        regressor=regressor, min_group_rows=30, random_seed=seed,
        integration_points=65,
    )
    return GroupByModelSet.train(
        sample_x=x[keep], sample_y=y[keep], sample_groups=groups[keep],
        full_groups=groups, full_x=x, full_y=y,
        table_name="t", x_columns=("x",), y_column="y", group_column="g",
        config=config,
    )


@pytest.fixture(scope="module")
def model_set() -> GroupByModelSet:
    return make_model_set()


RANGES = (
    {"x": (20.0, 60.0)},          # interior range
    {"x": (41.0, 43.0)},          # narrow, containing the point mass
    {"x": (-50.0, -10.0)},        # disjoint from the domain
    {"x": (0.0, 100.0)},          # full domain
    {},                           # no predicate
    {"other": (1.0, 2.0)},        # predicate on a non-model column
)


class TestModelRawPartition:
    def test_mixed_set(self, model_set):
        assert len(model_set.models) == 6
        assert set(model_set.raw_groups) == {6, 7}
        assert model_set.batched_evaluator() is not None
        assert model_set.batched_evaluator().n_groups == 8


class TestAggregateParity:
    @pytest.mark.parametrize("func", ["COUNT", "SUM", "AVG", "VARIANCE", "STDDEV"])
    @pytest.mark.parametrize("ranges", RANGES, ids=[str(r) for r in RANGES])
    def test_y_aggregates(self, model_set, func, ranges):
        aggregate = AggregateCall(func, "y")
        assert_parity(
            model_set.answer(aggregate, ranges, batched=True),
            model_set.answer(aggregate, ranges, batched=False),
        )

    @pytest.mark.parametrize("func", ["AVG", "VARIANCE", "STDDEV"])
    @pytest.mark.parametrize("ranges", RANGES, ids=[str(r) for r in RANGES])
    def test_x_aggregates(self, model_set, func, ranges):
        aggregate = AggregateCall(func, "x")
        assert_parity(
            model_set.answer(aggregate, ranges, batched=True),
            model_set.answer(aggregate, ranges, batched=False),
        )

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize(
        "ranges", ({"x": (20.0, 60.0)}, {}), ids=["range", "open"]
    )
    def test_percentile(self, model_set, p, ranges):
        aggregate = AggregateCall("PERCENTILE", "x", p)
        assert_parity(
            model_set.answer(aggregate, ranges, batched=True),
            model_set.answer(aggregate, ranges, batched=False),
        )

    def test_count_star(self, model_set):
        aggregate = AggregateCall("COUNT", None)
        assert_parity(
            model_set.answer(aggregate, {"x": (10.0, 30.0)}, batched=True),
            model_set.answer(aggregate, {"x": (10.0, 30.0)}, batched=False),
        )

    def test_ensemble_regressor_parity(self):
        """Each group integrates against its selected constituent's pieces."""
        model_set = make_model_set(regressor="ensemble", seed=5)
        assert model_set.batched_evaluator() is not None
        for func in ("SUM", "AVG", "VARIANCE"):
            aggregate = AggregateCall(func, "y")
            assert_parity(
                model_set.answer(aggregate, {"x": (15.0, 55.0)}, batched=True),
                model_set.answer(aggregate, {"x": (15.0, 55.0)}, batched=False),
            )

    def test_linear_regressor_parity(self):
        model_set = make_model_set(regressor="linear", seed=9)
        aggregate = AggregateCall("AVG", "y")
        assert_parity(
            model_set.answer(aggregate, {"x": (15.0, 55.0)}, batched=True),
            model_set.answer(aggregate, {"x": (15.0, 55.0)}, batched=False),
        )

    def test_density_only_set_parity(self):
        """y=None sets: COUNT/PERCENTILE work, y-aggregates raise."""
        rng = np.random.default_rng(11)
        groups = np.repeat(np.arange(4), 200)
        x = rng.normal(50.0, 10.0, size=groups.shape[0])
        config = DBEstConfig(regressor="plr", min_group_rows=30, random_seed=11)
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=None, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=None,
            table_name="t", x_columns=("x",), y_column=None, group_column="g",
            config=config,
        )
        aggregate = AggregateCall("COUNT", None)
        assert_parity(
            model_set.answer(aggregate, {"x": (40.0, 60.0)}, batched=True),
            model_set.answer(aggregate, {"x": (40.0, 60.0)}, batched=False),
        )
        with pytest.raises(UnsupportedQueryError):
            model_set.answer(AggregateCall("AVG", "y"), {}, batched=True)


class TestErrorParity:
    def test_reversed_range_raises(self, model_set):
        for batched in (True, False):
            with pytest.raises(InvalidParameterError):
                model_set.answer(
                    AggregateCall("AVG", "y"), {"x": (60.0, 20.0)},
                    batched=batched,
                )

    def test_unsupported_column_raises(self, model_set):
        for batched in (True, False):
            with pytest.raises(UnsupportedQueryError):
                model_set.answer(
                    AggregateCall("SUM", "x"), {"x": (20.0, 60.0)},
                    batched=batched,
                )

    def test_percentile_outside_domain_answers_nan(self, model_set):
        # Every group's clipped range is empty: each answers NaN, as
        # COUNT answers 0, and the set does not raise.
        aggregate = AggregateCall("PERCENTILE", "x", 0.5)
        for batched in (True, False):
            got = model_set.answer(
                aggregate, {"x": (-50.0, -10.0)}, batched=batched
            )
            assert set(got) == set(model_set.models) | set(
                model_set.raw_groups
            )
            assert all(math.isnan(value) for value in got.values())

    def test_bad_percentile_parameter(self, model_set):
        for batched in (True, False):
            with pytest.raises(InvalidParameterError):
                model_set.answer(
                    AggregateCall("PERCENTILE", "x", 1.5), {}, batched=batched
                )


class TestParallelBatched:
    def test_segments_match_sequential_exactly(self, model_set):
        """Sliced CSR segments reproduce the one-pass answers bit-for-bit."""
        for func in ("COUNT", "SUM", "AVG"):
            aggregate = AggregateCall(func, "y")
            sequential = model_set.answer(
                aggregate, {"x": (10.0, 70.0)}, n_workers=1, batched=True
            )
            parallel = model_set.answer(
                aggregate, {"x": (10.0, 70.0)}, n_workers=3, batched=True
            )
            assert sequential == parallel

    def test_split_covers_all_groups(self, model_set):
        evaluator = model_set.batched_evaluator()
        segments = evaluator.split(3)
        covered = set()
        for segment in segments:
            answers = segment.answer(AggregateCall("COUNT", None), {})
            covered.update(answers)
        assert covered == set(model_set.group_values)

    def test_segments_are_picklable(self, model_set):
        for segment in model_set.batched_evaluator().split(3):
            clone = pickle.loads(pickle.dumps(segment))
            assert clone.answer(
                AggregateCall("COUNT", None), {}
            ) == segment.answer(AggregateCall("COUNT", None), {})


class TestFallbacks:
    def test_multivariate_stacks(self):
        # Multivariate predicate sets stack since the multivariate
        # batching PR; the deep parity suite lives in
        # tests/test_batched_multivariate.py.
        rng = np.random.default_rng(2)
        groups = np.repeat(np.arange(3), 300)
        x = rng.uniform(0, 10, size=(groups.shape[0], 2))
        y = x[:, 0] + 2.0 * x[:, 1] + rng.normal(0, 0.1, groups.shape[0])
        config = DBEstConfig(regressor="linear", min_group_rows=30, random_seed=2)
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("a", "b"), y_column="y",
            group_column="g", config=config,
        )
        assert model_set.batched_evaluator() is not None
        got = model_set.answer(
            AggregateCall("AVG", "y"), {"a": (2.0, 8.0)}, batched=True
        )
        expected = model_set.answer(
            AggregateCall("AVG", "y"), {"a": (2.0, 8.0)}, batched=False
        )
        assert set(got) == set(expected)
        for value, answer in expected.items():
            assert abs(got[value] - answer) <= 1e-9 * max(1.0, abs(answer))

    def test_config_knob_disables_batching(self, model_set):
        original = model_set.config.batched_groupby
        try:
            model_set.config.batched_groupby = False
            answers = model_set.answer(AggregateCall("COUNT", None), {})
        finally:
            model_set.config.batched_groupby = original
        assert len(answers) == model_set.n_groups

    def test_pickle_drops_evaluator_cache(self, model_set):
        model_set.batched_evaluator()
        clone = pickle.loads(pickle.dumps(model_set))
        assert clone._batched_built is False
        assert clone._batched_cache is None
        # ...and rebuilds transparently with identical answers.
        aggregate = AggregateCall("AVG", "y")
        assert_parity(
            clone.answer(aggregate, {"x": (20.0, 60.0)}, batched=True),
            model_set.answer(aggregate, {"x": (20.0, 60.0)}, batched=True),
        )


class TestBatchExportHooks:
    def test_kde_export_mixture(self):
        kde = KernelDensityEstimator().fit(
            np.random.default_rng(0).normal(0.0, 1.0, 500)
        )
        mix = kde.export_mixture()
        assert mix.centres.shape == mix.weights.shape
        assert mix.h == kde.h
        assert mix.support == kde.support
        assert mix.reflect is True
        assert mix.point_mass is None

    def test_simpson_weights_cached_and_readonly(self):
        first = simpson_weights(65)
        second = simpson_weights(65)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(InvalidParameterError):
            simpson_weights(64)

    def test_simpson_grid_cached(self):
        nodes, weights = simpson_grid(0.0, 1.0, 9)
        nodes2, weights2 = simpson_grid(0.0, 1.0, 9)
        assert nodes is nodes2 and weights is weights2
        assert weights.sum() == pytest.approx(1.0)  # ∫ 1 dx over [0, 1]
        # Simpson's rule integrates a parabola exactly:
        assert float(weights @ nodes**2) == pytest.approx(1.0 / 3.0)

    def test_avg_x_public_api(self, model_set):
        model = next(iter(model_set.models.values()))
        ranges = {"x": (20.0, 60.0)}
        value = model.avg_x(ranges)
        assert 20.0 <= value <= 60.0
        # Multivariate models refuse instead of crashing.
        rng = np.random.default_rng(0)
        multivariate = ColumnSetModel.train(
            rng.uniform(0, 1, (200, 2)), None, table_name="t",
            x_columns=("a", "b"), y_column=None, population_size=200,
            config=DBEstConfig(regressor="plr"),
        )
        with pytest.raises(UnsupportedQueryError):
            multivariate.avg_x({"a": (0.0, 0.5)})

    def test_plr_export_matches_predict(self):
        from repro.ml.linear import PiecewiseLinearRegressor

        rng = np.random.default_rng(6)
        x = rng.uniform(0, 10, 300)
        y = np.sin(x) + 0.5 * x
        plr = PiecewiseLinearRegressor(n_knots=6).fit(x, y)
        kind, knots, coef = plr.export_batch_state()
        assert kind == "plr"
        grid = np.linspace(0, 10, 50)
        manual = coef[0] + coef[1] * grid + (
            np.maximum(0.0, grid[:, None] - knots[None, :]) @ coef[2:]
        )
        np.testing.assert_allclose(manual, plr.predict(grid), rtol=1e-12)


class TestDeepForestTraversal:
    def test_chain_shaped_tree_beyond_64_levels(self):
        # Exponential y makes variance-reduction splits peel one row per
        # level, producing a chain deeper than any fixed traversal bound;
        # the lock-step pass must still reach every leaf (it is bounded
        # by the largest tree's node count, which no path can exceed).
        from repro.ml.tree import DecisionTreeRegressor

        x = np.arange(300, dtype=np.float64)
        y = np.power(1.5, np.arange(300))
        tree = DecisionTreeRegressor(max_depth=1000, min_samples_leaf=1)
        tree.fit(x, y)
        forest = BatchedGroupEvaluator._stack_forest(
            [tree.export_batch_state()]
        )
        got = BatchedGroupEvaluator._forest_predict(
            forest, np.asarray([0]), x[None, :]
        )
        np.testing.assert_array_equal(got[0], tree.predict(x))


class TestRawOnlySet:
    def test_raw_only_parity(self):
        """Sets made purely of raw groups go through the masked pass."""
        raw_groups = {
            value: RawGroup(
                np.asarray([1.0, 2.0, 3.0]) * (value + 1),
                np.asarray([10.0, 20.0, 30.0]) * (value + 1),
                population_scale=2.0,
            )
            for value in range(3)
        }
        model_set = GroupByModelSet(
            table_name="t", x_columns=("x",), y_column="y", group_column="g",
            models={}, raw_groups=raw_groups,
        )
        for func in ("COUNT", "SUM", "AVG", "VARIANCE", "STDDEV"):
            aggregate = AggregateCall(func, "y")
            for ranges in ({"x": (2.0, 7.0)}, {}, {"x": (100.0, 200.0)}):
                assert_parity(
                    model_set.answer(aggregate, ranges, batched=True),
                    model_set.answer(aggregate, ranges, batched=False),
                )
        aggregate = AggregateCall("PERCENTILE", "x", 0.5)
        assert_parity(
            model_set.answer(aggregate, {}, batched=True),
            model_set.answer(aggregate, {}, batched=False),
        )

"""Parity suite: batched *training* vs the row-wise oracle.

The row-wise fits in :mod:`repro.reference` (``train_model`` on one
sample, ``train_groups`` / ``train_set`` looping it over groups) are the
reference implementation; the batched trainer
(:mod:`repro.core.batched_train`) must produce the same models — KDE
centres/weights/bandwidths, regressor coefficients and knots, residual
variance state — to 1e-12, and the resulting model sets must answer
every aggregate identically, across modelled groups, raw groups and
point-mass columns.  A scalar ``ColumnSetModel.train`` is the batched
trainer over one group and is held to ``reference.train_model`` the
same way; no production train path may call a row-wise ``fit``.  The
shared :class:`GroupPartition` and the segmented quantile kernel are
unit-tested here too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import reference
from repro.core import DBEstConfig, GroupByModelSet
from repro.core.batched_train import (
    GroupPartition,
    segmented_quantiles,
    train_batched_models,
)
from repro.core.model import ColumnSetModel
from repro.errors import ModelTrainingError
from repro.sql.ast import AggregateCall

RTOL = 1e-12
ATOL = 1e-12


def close(got, expected, context: str = "") -> None:
    """1e-12 agreement (the issue's parameter-parity bound)."""
    np.testing.assert_allclose(
        np.asarray(got), np.asarray(expected),
        rtol=RTOL, atol=ATOL, err_msg=context,
    )


def make_data(n_groups: int = 8, rows: int = 150, seed: int = 3):
    """Mixed workload: modelled, point-mass-x and sample-starved groups."""
    rng = np.random.default_rng(seed)
    n = n_groups * rows
    groups = np.repeat(np.arange(n_groups), rows)
    x = rng.uniform(0.0, 100.0, size=n)
    if n_groups > 3:
        x[groups == 3] = 42.0  # constant column -> point-mass density
    y = (groups + 1.0) * 0.1 * x + rng.normal(0.0, 1.0, size=n)
    # Starve the last two groups in the sample so they become raw groups.
    keep = np.ones(n, dtype=bool)
    for value in (n_groups - 2, n_groups - 1):
        idx = np.flatnonzero(groups == value)
        keep[idx[12:]] = False
    return x, y, groups, keep


def train_pair(
    regressor: str = "plr", seed: int = 3, y: bool = True, **config_kwargs
) -> tuple[GroupByModelSet, GroupByModelSet]:
    """The same sample trained by the batched trainer and the oracle."""
    x, ys, groups, keep = make_data(seed=seed)
    config = DBEstConfig(
        regressor=regressor, min_group_rows=30, random_seed=seed,
        integration_points=65, **config_kwargs,
    )
    kwargs = dict(
        sample_x=x[keep],
        sample_y=ys[keep] if y else None,
        sample_groups=groups[keep],
        full_groups=groups, full_x=x, full_y=ys if y else None,
        table_name="t", x_columns=("x",),
        y_column="y" if y else None,
        group_column="g", config=config,
    )
    return GroupByModelSet.train(**kwargs), reference.train_set(**kwargs)


def assert_density_parity(batched, scalar, context: str) -> None:
    close(batched._centres, scalar._centres, f"{context}: centres")
    close(batched._weights, scalar._weights, f"{context}: weights")
    close(batched._h, scalar._h, f"{context}: bandwidth")
    close(batched._support, scalar._support, f"{context}: support")
    assert batched._reflect == scalar._reflect, context
    assert (batched._point_mass is None) == (scalar._point_mass is None), context
    if scalar._point_mass is not None:
        close(batched._point_mass, scalar._point_mass, f"{context}: point mass")
    assert batched.n_train == scalar.n_train, context


def assert_regressor_parity(batched, scalar, context: str) -> None:
    if scalar is None:
        assert batched is None, context
        return
    assert type(batched) is type(scalar), context
    coef = getattr(scalar, "_coef", None)
    if coef is not None:
        close(batched._coef, coef, f"{context}: coefficients")
    knots = getattr(scalar, "_knots", None)
    if knots is not None:
        close(batched._knots, knots, f"{context}: knots")
    # Nonlinear regressors (trees, boosters, ensembles) are fitted by the
    # very same calls in both paths; their predictions must agree exactly.
    grid = np.linspace(0.0, 100.0, 257)
    close(batched.predict(grid), scalar.predict(grid),
          f"{context}: predictions")


def assert_model_parity(batched: ColumnSetModel, scalar: ColumnSetModel,
                        context: str) -> None:
    assert_density_parity(batched.density, scalar.density, context)
    assert_regressor_parity(batched.regressor, scalar.regressor, context)
    close(batched.x_domain, scalar.x_domain, f"{context}: domain")
    assert batched.n_sample == scalar.n_sample, context
    assert batched.population_size == scalar.population_size, context
    if scalar._residual_edges is not None:
        close(batched._residual_edges, scalar._residual_edges,
              f"{context}: residual edges")
        close(batched._residual_var, scalar._residual_var,
              f"{context}: residual variance")
    else:
        assert batched._residual_edges is None, context
    close(batched._residual_var_global, scalar._residual_var_global,
          f"{context}: global residual variance")


def assert_set_parity(batched: GroupByModelSet, scalar: GroupByModelSet) -> None:
    assert set(batched.models) == set(scalar.models)
    assert set(batched.raw_groups) == set(scalar.raw_groups)
    for value, expected in scalar.models.items():
        assert_model_parity(batched.models[value], expected, f"group {value}")
    for value, expected in scalar.raw_groups.items():
        got = batched.raw_groups[value]
        np.testing.assert_array_equal(got.x, expected.x)
        if expected.y is None:
            assert got.y is None
        else:
            np.testing.assert_array_equal(got.y, expected.y)
        assert got.population_scale == expected.population_scale


RANGES = (
    {"x": (20.0, 60.0)},          # interior range
    {"x": (41.0, 43.0)},          # narrow, containing the point mass
    {"x": (-50.0, -10.0)},        # disjoint from the domain
    {},                           # no predicate
)


def assert_answer_parity(batched: GroupByModelSet, scalar: GroupByModelSet,
                         y: bool = True) -> None:
    """Both trainings answer every aggregate identically (1e-9)."""
    aggregates = [AggregateCall("AVG", "x"), AggregateCall("PERCENTILE", "x", 0.5)]
    if y:
        aggregates += [
            AggregateCall(func, "y")
            for func in ("COUNT", "SUM", "AVG", "VARIANCE", "STDDEV")
        ]
    for aggregate in aggregates:
        for ranges in RANGES:
            if aggregate.func == "PERCENTILE" and ranges.get("x") == (-50.0, -10.0):
                continue  # disjoint ranges raise on percentiles (both paths)
            got = batched.answer(aggregate, ranges)
            expected = scalar.answer(aggregate, ranges)
            assert set(got) == set(expected)
            for value, answer in expected.items():
                if math.isnan(answer):
                    assert math.isnan(got[value]), (aggregate, ranges, value)
                else:
                    bound = 1e-9 * max(1.0, abs(answer))
                    assert abs(got[value] - answer) <= bound, (
                        f"{aggregate} {ranges} group {value}: "
                        f"{got[value]} vs {answer}"
                    )


# -- model / answer parity across trainer configurations ---------------------


class TestStackedRegressorParity:
    @pytest.mark.parametrize("regressor", ["plr", "linear"])
    def test_models_and_answers(self, regressor):
        batched, scalar = train_pair(regressor=regressor)
        assert_set_parity(batched, scalar)
        assert_answer_parity(batched, scalar)


class TestNonlinearRegressorParity:
    @pytest.mark.parametrize("regressor", ["tree", "gboost", "xgboost", "ensemble"])
    def test_models_and_answers(self, regressor):
        batched, scalar = train_pair(regressor=regressor)
        assert_set_parity(batched, scalar)
        assert_answer_parity(batched, scalar)

    def test_parallel_chunked_fits(self):
        batched, scalar = train_pair(
            regressor="gboost", n_workers=2, parallel_mode="thread"
        )
        assert_set_parity(batched, scalar)


class TestBandwidthParity:
    @pytest.mark.parametrize("bandwidth", ["scott", "silverman", 0.75])
    def test_kde_state(self, bandwidth):
        batched, scalar = train_pair(kde_bandwidth=bandwidth)
        assert_set_parity(batched, scalar)


class TestBinnedKdeParity:
    def test_large_groups_use_identical_histograms(self):
        # 3 groups above the 5000-row binning threshold: the 2-D bincount
        # must replicate np.histogram's bin-index arithmetic exactly.
        rng = np.random.default_rng(11)
        rows = 5200
        groups = np.repeat(np.arange(3), rows)
        x = rng.normal(50.0, 12.0, size=groups.shape[0])
        y = 2.0 * x + rng.normal(0.0, 1.0, size=groups.shape[0])
        config = DBEstConfig(
            regressor="linear", min_group_rows=30, random_seed=11,
            integration_points=65,
        )
        kwargs = dict(
            sample_x=x, sample_y=y, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("x",), y_column="y",
            group_column="g", config=config,
        )
        batched = GroupByModelSet.train(**kwargs)
        scalar = reference.train_set(**kwargs)
        for value, expected in scalar.models.items():
            got = batched.models[value].density
            np.testing.assert_array_equal(got._centres, expected.density._centres)
            np.testing.assert_array_equal(got._weights, expected.density._weights)
        assert_set_parity(batched, scalar)


class TestDensityOnlyParity:
    def test_no_y_column(self):
        batched, scalar = train_pair(y=False)
        assert_set_parity(batched, scalar)
        assert_answer_parity(batched, scalar, y=False)
        assert all(m.regressor is None for m in batched.models.values())


class TestAllRawSet:
    def test_no_modelled_groups(self):
        x, y, groups, keep = make_data()
        config = DBEstConfig(min_group_rows=10**6, random_seed=3)
        model_set = GroupByModelSet.train(
            sample_x=x[keep], sample_y=y[keep], sample_groups=groups[keep],
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("x",), y_column="y", group_column="g",
            config=config,
        )
        assert model_set.models == {}
        assert len(model_set.raw_groups) == 8


# -- routing: one trainer, multivariate sets ----------------------------------


class TestTrainerRouting:
    def test_batched_is_the_default(self, monkeypatch):
        calls = []
        original = train_batched_models

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            "repro.core.groupby.train_batched_models", spy
        )
        train_pair()
        assert calls

    def test_multivariate_trains_batched(self):
        # Multivariate sets no longer fall out of the batched trainer:
        # train_batched_models returns real product-kernel models (the
        # deep parity suite lives in tests/test_batched_multivariate.py).
        rng = np.random.default_rng(5)
        n = 200
        x = rng.uniform(0.0, 10.0, size=(n, 2))
        groups = np.repeat(np.arange(2), n // 2)
        part = GroupPartition.from_groups(groups)
        models = train_batched_models(
            sample_x=x,
            sample_y=None,
            sample_part=part,
            modelled_mask=np.ones(2, dtype=bool),
            table_name="t",
            x_columns=("a", "b"),
            y_column=None,
            population={0: 100, 1: 100},
            config=DBEstConfig(),
        )
        assert set(models) == {0, 1}
        assert all(model.n_dims == 2 for model in models.values())

    def test_multivariate_set_trains_through_default_path(self, monkeypatch):
        calls = []
        original = train_batched_models

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.core.groupby.train_batched_models", spy)
        rng = np.random.default_rng(5)
        n = 400
        x = rng.uniform(0.0, 10.0, size=(n, 2))
        groups = np.repeat(np.arange(2), n // 2)
        y = x[:, 0] + x[:, 1] + rng.normal(0.0, 0.1, size=n)
        config = DBEstConfig(
            regressor="linear", min_group_rows=30, random_seed=5
        )
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("a", "b"), y_column="y",
            group_column="g", config=config,
        )
        assert len(model_set.models) == 2
        assert calls  # the batched trainer handled the multivariate set


# -- scalar models: one group through the same trainer ------------------------


REGRESSORS = ("plr", "linear", "tree", "gboost", "xgboost", "ensemble")


def scalar_sample(d: int, n: int = 400, seed: int = 17):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, size=(n, d))
    y = 0.3 * x[:, 0] + np.sin(x[:, 0] / 9.0) + rng.normal(0.0, 1.0, size=n)
    if d > 1:
        y = y + 0.5 * x[:, 1]
    return (x[:, 0] if d == 1 else x), y


def train_scalar_pair(regressor: str, d: int, y: bool, n: int = 400):
    """``ColumnSetModel.train`` and ``reference.train_model`` on one sample."""
    x, ys = scalar_sample(d, n)
    columns = ("a",) if d == 1 else ("a", "b")
    args = (x, ys if y else None, "t", columns, "y" if y else None, 50_000,
            DBEstConfig(regressor=regressor, random_seed=17,
                        integration_points=33))
    return ColumnSetModel.train(*args), reference.train_model(*args)


def assert_scalar_answers(got: ColumnSetModel, expected: ColumnSetModel,
                          tol: float) -> None:
    calls = [AggregateCall("COUNT", None)]
    if expected.y_column is not None:
        calls += [AggregateCall(func, "y")
                  for func in ("SUM", "AVG", "VARIANCE", "STDDEV")]
    if expected.n_dims == 1:
        calls += [AggregateCall("AVG", "a"), AggregateCall("VARIANCE", "a"),
                  AggregateCall("PERCENTILE", "a", 0.3)]
    for call in calls:
        for lb, ub in ((20.0, 60.0), (0.0, 100.0), (49.0, 51.5)):
            ranges = {"a": (lb, ub)}
            if expected.n_dims > 1:
                ranges["b"] = (10.0, 90.0)
            want = expected.answer(call, ranges)
            have = got.answer(call, ranges)
            assert abs(have - want) <= tol * max(1.0, abs(want)), (
                f"{call} {ranges}: {have} vs {want}"
            )


class TestScalarModelParity:
    @pytest.mark.parametrize("regressor, d, y", [
        (regressor, d, y)
        for regressor in REGRESSORS for d in (1, 2) for y in (True, False)
        # Refused on both paths (TestMultivariatePlr).
        if (regressor, d, y) != ("plr", 2, True)
    ])
    def test_one_group_trainer_matches_row_wise_fit(self, regressor, d, y):
        got, expected = train_scalar_pair(regressor, d, y)
        if d == 1:
            assert_model_parity(got, expected, f"{regressor} d={d}")
        assert got.x_domain == expected.x_domain
        assert got.n_sample == expected.n_sample
        close(got._residual_var_global, expected._residual_var_global)
        assert_scalar_answers(got, expected, tol=1e-12)

    # plr below 10 rows (its coefficient count) takes the stacked
    # solve's lstsq path (TestRankDeficientStackedFits).
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("regressor", ["plr", "linear", "gboost"])
    def test_tiny_samples(self, regressor, n):
        got, expected = train_scalar_pair(regressor, 1, True, n=n)
        assert_model_parity(got, expected, f"{regressor} n={n}")

    def test_input_checks(self):
        x, y = scalar_sample(1, 50)
        config = DBEstConfig(regressor="linear")
        with pytest.raises(ModelTrainingError, match="empty sample"):
            ColumnSetModel.train(x[:0], None, "t", ("a",), None, 1, config)
        with pytest.raises(ModelTrainingError, match="x-column names"):
            ColumnSetModel.train(x, y, "t", ("a", "b"), "y", 50, config)
        with pytest.raises(ModelTrainingError, match="rows but y has"):
            ColumnSetModel.train(x, y[:-1], "t", ("a",), "y", 50, config)


class TestMultivariatePlr:
    def test_refused_by_every_entry_point(self):
        x, y = scalar_sample(2, 120)
        config = DBEstConfig(regressor="plr", min_group_rows=30)
        message = "PiecewiseLinearRegressor supports 1-D features only"
        with pytest.raises(ModelTrainingError, match=message):
            ColumnSetModel.train(x, y, "t", ("a", "b"), "y", 120, config)
        with pytest.raises(ModelTrainingError, match=message):
            reference.train_model(x, y, "t", ("a", "b"), "y", 120, config)
        groups = np.repeat(np.arange(2), 60)
        with pytest.raises(ModelTrainingError, match=message):
            GroupByModelSet.train(
                sample_x=x, sample_y=y, sample_groups=groups,
                full_groups=groups, full_x=x, full_y=y, table_name="t",
                x_columns=("a", "b"), y_column="y", group_column="g",
                config=config,
            )

    def test_density_only_and_all_raw_sets_train(self):
        x, _ = scalar_sample(2, 120)
        model = ColumnSetModel.train(
            x, None, "t", ("a", "b"), None, 120, DBEstConfig(regressor="plr")
        )
        assert model.regressor is None
        groups = np.repeat(np.arange(2), 60)
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=x[:, 0], sample_groups=groups,
            full_groups=groups, full_x=x, full_y=x[:, 0], table_name="t",
            x_columns=("a", "b"), y_column="y", group_column="g",
            config=DBEstConfig(regressor="plr", min_group_rows=10**6),
        )
        assert model_set.models == {}


class TestRankDeficientStackedFits:
    """Groups with fewer rows than spline coefficients (k = 10 for the
    default 8-knot ``plr``) are rank-deficient: the stacked solve must
    hand them to ``lstsq`` rather than accept a non-minimum-norm fit."""

    def make_set(self, trainer):
        rng = np.random.default_rng(41)
        sizes = (3, 7, 9, 12, 40)
        groups = np.repeat(np.arange(len(sizes)), sizes)
        x = rng.uniform(0.0, 100.0, size=groups.shape[0])
        y = np.sin(x / 16.0) + rng.normal(0.0, 0.1, size=groups.shape[0])
        return trainer(
            sample_x=x, sample_y=y, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=y, table_name="t",
            x_columns=("x",), y_column="y", group_column="g",
            config=DBEstConfig(regressor="plr", min_group_rows=2,
                               random_seed=41, integration_points=65),
        )

    def test_coefficients_and_answers_match_lstsq(self):
        batched = self.make_set(GroupByModelSet.train)
        oracle = self.make_set(reference.train_set)
        assert_set_parity(batched, oracle)
        assert_answer_parity(batched, oracle)


# -- shared partition / kernel helpers ---------------------------------------


class TestGroupPartition:
    def test_matches_boolean_masks(self):
        rng = np.random.default_rng(9)
        groups = rng.integers(0, 12, size=500)
        part = GroupPartition.from_groups(groups)
        assert part.values.tolist() == np.unique(groups).tolist()
        for g, value in enumerate(part.values.tolist()):
            expected = np.flatnonzero(groups == value)
            np.testing.assert_array_equal(part.rows(g), expected)
        assert part.counts.sum() == groups.shape[0]

    def test_superset_values_get_empty_slices(self):
        groups = np.asarray([1, 1, 3, 3, 3])
        part = GroupPartition.from_groups(
            groups, values=np.asarray([0, 1, 2, 3])
        )
        assert part.rows(0).size == 0
        assert part.rows(2).size == 0
        assert part.counts.tolist() == [0, 2, 0, 3]

    def test_stable_order_within_groups(self):
        groups = np.asarray([2, 1, 2, 1, 2])
        part = GroupPartition.from_groups(groups)
        np.testing.assert_array_equal(part.rows(0), [1, 3])
        np.testing.assert_array_equal(part.rows(1), [0, 2, 4])


class TestSegmentedQuantiles:
    def test_bitwise_match_with_np_quantile(self):
        rng = np.random.default_rng(13)
        counts = np.asarray([1, 2, 7, 40, 301])
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        flat = np.concatenate(
            [np.sort(rng.normal(size=c)) for c in counts.tolist()]
        )
        qs = np.asarray([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
        got = segmented_quantiles(flat, starts, counts, qs)
        for g, (start, count) in enumerate(zip(starts, counts)):
            expected = np.quantile(flat[start:start + count], qs)
            np.testing.assert_array_equal(got[g], expected)

    def test_tied_values(self):
        flat = np.asarray([1.0, 1.0, 1.0, 2.0, 2.0])
        got = segmented_quantiles(
            flat, np.asarray([0]), np.asarray([5]), np.asarray([0.25, 0.5])
        )
        np.testing.assert_array_equal(got[0], np.quantile(flat, [0.25, 0.5]))

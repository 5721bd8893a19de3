"""Parity suite: level-synchronous forest training vs per-group fits.

Per-group row-wise fits (``repro.reference.make_regressor(config).fit``
on each group's slice, as ``reference.train_groups`` makes them) are the
reference oracle; the batched forest kernel
(:mod:`repro.core.batched_forest`) must produce **bit-identical** node
arrays — feature / threshold / left / right / value, same dtypes, same
DFS order — for every tree, every boosting round, every constituent,
across 1-D and multivariate fits, every depth, and the degenerate
groups (constant features, single rows, sub-split-size groups) that
stress the stop rules.  A guard pins the train paths: no scalar model,
set, refresh or engine build may call a row-wise density or regressor
``fit``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import reference
from repro.core import DBEst, DBEstConfig, GroupByModelSet
from repro.core.batched_forest import (
    _compute_bins,
    _fit_cart_forest,
    _fit_gboost_forest,
    _fit_xgb_forest,
    _slice_nodes,
    fit_forest_regressors,
)
from repro.core.model import ColumnSetModel
from repro.ml._histogram import BinnedFeatures
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.kde import KernelDensityEstimator, MultivariateKDE
from repro.ml.linear import LinearRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.xgb import XGBRegressor
from repro.storage.table import Table

NODE_KEYS = ("feature", "threshold", "left", "right", "value")

# Group sizes chosen to stress every stop rule: plenty of rows, barely
# above min_samples_split, a single row, three rows, and one constant-x
# group (no splittable bins at all).
GROUP_SIZES = (150, 80, 45, 60, 1, 3, 200, 30)
CONSTANT_GROUP = 3


def make_flat(d: int = 1, seed: int = 3):
    """Flat group-major (x2d, y, offsets) covering the degenerate groups."""
    rng = np.random.default_rng(seed)
    counts = np.asarray(GROUP_SIZES, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    x2d = rng.uniform(0.0, 100.0, size=(n, d))
    lo, hi = int(offsets[CONSTANT_GROUP]), int(offsets[CONSTANT_GROUP + 1])
    x2d[lo:hi, 0] = 42.0  # constant feature -> unsplittable on dim 0
    groups = np.repeat(np.arange(counts.shape[0]), counts)
    y = (groups + 1.0) * 0.1 * x2d[:, 0] + rng.normal(0.0, 1.0, size=n)
    if d > 1:
        y = y + 0.5 * x2d[:, 1]
    return x2d, y, offsets


def scalar_fit(factory, x2d: np.ndarray, y: np.ndarray, offsets, g: int):
    """The oracle: one row-wise fit on group ``g``'s slice."""
    seg = slice(int(offsets[g]), int(offsets[g + 1]))
    model = factory()
    gx = x2d[seg]
    model.fit(gx[:, 0] if gx.shape[1] == 1 else gx, y[seg])
    return model


def assert_tree_nodes_equal(got: DecisionTreeRegressor,
                            expected: DecisionTreeRegressor,
                            context: str) -> None:
    """Bit-exact node arrays, including dtypes and DFS order."""
    for key in NODE_KEYS:
        got_arr, exp_arr = got._nodes[key], expected._nodes[key]
        assert got_arr.dtype == exp_arr.dtype, f"{context}: {key} dtype"
        np.testing.assert_array_equal(got_arr, exp_arr,
                                      err_msg=f"{context}: {key}")


def assert_xgb_tree_equal(got, expected, context: str) -> None:
    for attr in ("_feature_arr", "_threshold_arr", "_left_arr",
                 "_right_arr", "_value_arr"):
        got_arr, exp_arr = getattr(got, attr), getattr(expected, attr)
        assert got_arr.dtype == exp_arr.dtype, f"{context}: {attr} dtype"
        np.testing.assert_array_equal(got_arr, exp_arr,
                                      err_msg=f"{context}: {attr}")


def assert_regressor_equal(got, expected, context: str) -> None:
    assert type(got) is type(expected), context
    if isinstance(expected, DecisionTreeRegressor):
        assert_tree_nodes_equal(got, expected, context)
    elif isinstance(expected, GradientBoostingRegressor):
        assert got._base == expected._base, f"{context}: base"
        assert len(got._trees) == len(expected._trees), context
        for r, (g_tree, e_tree) in enumerate(zip(got._trees, expected._trees)):
            assert_tree_nodes_equal(g_tree, e_tree, f"{context} round {r}")
    elif isinstance(expected, XGBRegressor):
        assert got._base == expected._base, f"{context}: base"
        assert len(got._trees) == len(expected._trees), context
        for r, (g_tree, e_tree) in enumerate(zip(got._trees, expected._trees)):
            assert_xgb_tree_equal(g_tree, e_tree, f"{context} round {r}")
    elif isinstance(expected, EnsembleRegressor):
        assert list(got.models_) == list(expected.models_), context
        for name in expected.models_:
            assert_regressor_equal(got.models_[name], expected.models_[name],
                                   f"{context} constituent {name}")
        assert got._default_name == expected._default_name, context
        assert (got.selector_ is None) == (expected.selector_ is None), context
        assert got._domain == expected._domain, context
    else:  # PLR constituents inside ensembles
        np.testing.assert_array_equal(got._knots, expected._knots, context)
        np.testing.assert_array_equal(got._coef, expected._coef, context)


# -- kernel-level parity: every family, every depth, 1-D and d=2 -------------


class TestBinningParity:
    @pytest.mark.parametrize("d", [1, 2])
    def test_codes_and_edges_match_binned_features(self, d):
        x2d, _, offsets = make_flat(d=d)
        bins = _compute_bins(x2d, offsets, max_bins=256)
        for g in range(offsets.shape[0] - 1):
            seg = slice(int(offsets[g]), int(offsets[g + 1]))
            oracle = BinnedFeatures(
                x2d[seg, 0] if d == 1 else x2d[seg], max_bins=256
            )
            for j in range(d):
                scalar_edges = oracle.edges[j]
                assert bins.n_bins[g, j] == scalar_edges.shape[0] + 1
                np.testing.assert_array_equal(
                    bins.edges[g, j, : scalar_edges.shape[0]], scalar_edges,
                    err_msg=f"group {g} dim {j}: edges",
                )
                assert np.all(
                    np.isinf(bins.edges[g, j, scalar_edges.shape[0]:])
                )
                np.testing.assert_array_equal(
                    bins.codes[seg, j], oracle.codes[:, j],
                    err_msg=f"group {g} dim {j}: codes",
                )


class TestKernelDepths:
    @pytest.mark.parametrize("depth", [1, 2, 4, 6])
    @pytest.mark.parametrize("d", [1, 2])
    def test_cart_forest_matches_scalar_trees(self, depth, d):
        x2d, y, offsets = make_flat(d=d)
        proto = DecisionTreeRegressor(max_depth=depth)
        bins = _compute_bins(x2d, offsets, proto.max_bins)
        rec, pred = _fit_cart_forest(
            bins, y, offsets, max_depth=depth,
            min_samples_leaf=proto.min_samples_leaf,
            min_samples_split=proto.min_samples_split,
        )
        for g in range(offsets.shape[0] - 1):
            oracle = scalar_fit(
                lambda: DecisionTreeRegressor(max_depth=depth),
                x2d, y, offsets, g,
            )
            got = DecisionTreeRegressor.from_fit_state(
                _slice_nodes(rec, g), d, max_depth=depth
            )
            assert_tree_nodes_equal(got, oracle, f"depth {depth} group {g}")
            # Growth-time leaf assignment == post-fit threshold traversal.
            seg = slice(int(offsets[g]), int(offsets[g + 1]))
            gx = x2d[seg, 0] if d == 1 else x2d[seg]
            np.testing.assert_array_equal(pred[seg], oracle.predict(gx),
                                          err_msg=f"group {g}: leaf pred")

    @pytest.mark.parametrize("depth", [2, 4])
    def test_xgb_forest_matches_scalar_rounds(self, depth):
        x2d, y, offsets = make_flat(d=1)
        proto = XGBRegressor(n_estimators=5, max_depth=depth)
        bins = _compute_bins(x2d, offsets, proto.max_bins)
        base, rounds, pred = _fit_xgb_forest(
            bins, y, offsets, n_estimators=5,
            learning_rate=proto.learning_rate, max_depth=depth,
            min_child_weight=proto.min_child_weight,
            reg_lambda=proto.reg_lambda, gamma=proto.gamma,
        )
        for g in range(offsets.shape[0] - 1):
            oracle = scalar_fit(
                lambda: XGBRegressor(n_estimators=5, max_depth=depth),
                x2d, y, offsets, g,
            )
            got = XGBRegressor.from_fit_state(
                float(base[g]), [_slice_nodes(rec, g) for rec in rounds],
                learning_rate=proto.learning_rate, max_depth=depth,
                reg_lambda=proto.reg_lambda, gamma=proto.gamma,
                min_child_weight=proto.min_child_weight,
            )
            assert_regressor_equal(got, oracle, f"depth {depth} group {g}")
            seg = slice(int(offsets[g]), int(offsets[g + 1]))
            np.testing.assert_array_equal(
                pred[seg], oracle.predict(x2d[seg, 0]),
                err_msg=f"group {g}: in-sample booster prediction",
            )

    def test_gboost_forest_matches_scalar_rounds(self):
        x2d, y, offsets = make_flat(d=1)
        proto = GradientBoostingRegressor(n_estimators=5)
        bins = _compute_bins(x2d, offsets, proto.max_bins)
        stage_split = DecisionTreeRegressor(
            max_depth=proto.max_depth,
            min_samples_leaf=proto.min_samples_leaf,
            max_bins=proto.max_bins,
        ).min_samples_split
        base, rounds, pred = _fit_gboost_forest(
            bins, y, offsets, n_estimators=5,
            learning_rate=proto.learning_rate, max_depth=proto.max_depth,
            min_samples_leaf=proto.min_samples_leaf,
            min_samples_split=stage_split,
        )
        for g in range(offsets.shape[0] - 1):
            oracle = scalar_fit(
                lambda: GradientBoostingRegressor(n_estimators=5),
                x2d, y, offsets, g,
            )
            trees = [
                DecisionTreeRegressor.from_fit_state(
                    _slice_nodes(rec, g), 1, max_depth=proto.max_depth,
                    min_samples_leaf=proto.min_samples_leaf,
                )
                for rec in rounds
            ]
            got = GradientBoostingRegressor.from_fit_state(
                float(base[g]), trees, learning_rate=proto.learning_rate,
                max_depth=proto.max_depth,
                min_samples_leaf=proto.min_samples_leaf,
            )
            assert_regressor_equal(got, oracle, f"group {g}")
            seg = slice(int(offsets[g]), int(offsets[g + 1]))
            np.testing.assert_array_equal(
                pred[seg], oracle.predict(x2d[seg, 0]),
                err_msg=f"group {g}: in-sample booster prediction",
            )


class TestFitForestRegressors:
    """The config-driven entry point vs ``reference.make_regressor`` fits."""

    @pytest.mark.parametrize("regressor",
                             ["tree", "gboost", "xgboost", "ensemble"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_node_parity(self, regressor, d):
        x2d, y, offsets = make_flat(d=d)
        config = DBEstConfig(regressor=regressor, random_seed=3)
        result = fit_forest_regressors(x2d, y, offsets, config)
        assert result is not None
        regressors, pred = result
        assert len(regressors) == offsets.shape[0] - 1
        if regressor == "ensemble":
            assert pred is None
        else:
            assert pred is not None and pred.shape == y.shape
        for g in range(offsets.shape[0] - 1):
            oracle = scalar_fit(
                lambda: reference.make_regressor(config), x2d, y, offsets, g
            )
            assert_regressor_equal(regressors[g], oracle,
                                   f"{regressor} d={d} group {g}")

    def test_ensemble_selector_routes_identically(self):
        x2d, y, offsets = make_flat(d=1)
        config = DBEstConfig(regressor="ensemble", random_seed=3)
        regressors, _ = fit_forest_regressors(x2d, y, offsets, config)
        grid = np.linspace(0.0, 100.0, 129)
        for g in (0, 6):  # large groups, where the selector actually trains
            oracle = scalar_fit(
                lambda: reference.make_regressor(config), x2d, y, offsets, g
            )
            for lb, ub in ((0.0, 10.0), (20.0, 80.0), (5.0, 95.0),
                           (None, None)):
                assert regressors[g].select(lb, ub) == oracle.select(lb, ub)
                np.testing.assert_array_equal(
                    regressors[g].predict(grid, lb, ub),
                    oracle.predict(grid, lb, ub),
                )

    def test_non_forest_regressors_return_none(self):
        x2d, y, offsets = make_flat(d=1)
        for regressor in ("plr", "linear"):
            config = DBEstConfig(regressor=regressor, random_seed=3)
            assert fit_forest_regressors(x2d, y, offsets, config) is None

    def test_single_group_and_all_constant(self):
        # Every group constant in x: no edges anywhere, width-0 edge
        # tensor, pure-leaf forest.
        y = np.asarray([1.0, 2.0, 3.0, 4.0])
        x2d = np.full((4, 1), 7.0)
        offsets = np.asarray([0, 4])
        config = DBEstConfig(regressor="tree", random_seed=0)
        regressors, pred = fit_forest_regressors(x2d, y, offsets, config)
        oracle = DecisionTreeRegressor().fit(x2d[:, 0], y)
        assert_tree_nodes_equal(regressors[0], oracle, "all-constant")
        np.testing.assert_array_equal(pred, oracle.predict(x2d[:, 0]))


# -- guard: no train path fits a model row-wise ------------------------------


ROW_WISE_FITS = (
    KernelDensityEstimator, MultivariateKDE, LinearRegressor,
    DecisionTreeRegressor, GradientBoostingRegressor, XGBRegressor,
    EnsembleRegressor,
)


def _guard_fits(monkeypatch) -> None:
    """Make every row-wise ``fit`` raise.  ``PiecewiseLinearRegressor``
    is left alone: an ensemble fits its ``plr`` constituent per group."""
    for cls in ROW_WISE_FITS:
        def forbidden(self, *args, _name=cls.__name__, **kwargs):
            raise AssertionError(f"{_name}.fit called on a train path")

        monkeypatch.setattr(cls, "fit", forbidden)


class TestNoRowWiseFits:
    @pytest.mark.parametrize("regressor, d", [
        (regressor, d)
        for regressor in ("plr", "linear", "tree", "gboost", "xgboost",
                          "ensemble")
        for d in (1, 2)
        if (regressor, d) != ("plr", 2)  # refused: the spline is 1-D only
    ])
    def test_train_paths(self, monkeypatch, regressor, d):
        _guard_fits(monkeypatch)
        rng = np.random.default_rng(5)
        counts = np.asarray(GROUP_SIZES)
        groups = np.repeat(np.arange(counts.shape[0]), counts)
        x = rng.uniform(0.0, 100.0, size=(groups.shape[0], d))
        y = (groups + 1.0) * 0.1 * x[:, 0] + rng.normal(
            0.0, 1.0, size=groups.shape[0]
        )
        columns = ("x",) if d == 1 else ("x", "z")
        features = x[:, 0] if d == 1 else x
        config = DBEstConfig(
            regressor=regressor, min_group_rows=30, random_seed=5,
            integration_points=65,
        )
        for ys, y_column in ((y, "y"), (None, None)):
            model = ColumnSetModel.train(
                features, ys, "t", columns, y_column, 1000, config
            )
            assert (model.regressor is None) == (ys is None)
            model_set = GroupByModelSet.train(
                sample_x=features, sample_y=ys, sample_groups=groups,
                full_groups=groups, full_x=features, full_y=ys,
                table_name="t", x_columns=columns, y_column=y_column,
                group_column="g", config=config, streaming=True,
            )
            assert len(model_set.models) == 6  # groups >= min_group_rows
            dirty = model_set.refresh(
                features[:40], None if ys is None else ys[:40], groups[:40]
            )
            assert dirty == [0]

        engine = DBEst(config=config)
        engine.register_table(Table(
            {"x": x[:, 0], "z": x[:, -1], "y": y, "g": groups}, name="t"
        ))
        engine.build_model("t", x=list(columns), y="y", sample_size=400)
        engine.build_model("t", x=list(columns), y="y", group_by="g",
                           sample_size=400, streaming=True)
        engine.build_model("t", x=list(columns), group_by="g",
                           sample_size=400)
        refreshed = engine.append_rows("t", Table(
            {"x": x[:40, 0], "z": x[:40, -1], "y": y[:40], "g": groups[:40]},
            name="t",
        ))
        assert refreshed

"""Parity suite: batched *multivariate* GROUP BY vs the per-group paths.

Multivariate predicate sets (product-kernel KDEs) train through
:mod:`repro.core.batched_train` and answer through
:mod:`repro.core.batched`.  Batched-trained models must match the
row-wise oracle (``repro.reference.train_set``) to 1e-12 in every
parameter (centres and weights
bit for bit on the binned path); the stacked evaluator, the per-group
loop of one-group evaluators and the tensor-Simpson / ``integrate_box``
oracle of :mod:`repro.reference` must answer COUNT/SUM/AVG/VARIANCE/STDDEV
identically to 1e-9 across binned and unbinned fits, degenerate
(constant) columns, raw groups and empty-box edge cases.  The PR's satellite fixes — pdf chunk budgeting,
KDE config plumbing, ensemble multivariate invariants — are regression
tested here too.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro import reference
from repro.core import DBEstConfig, GroupByModelSet
from repro.core.batched_train import train_batched_models
from repro.core.model import ColumnSetModel
from repro.errors import (
    InvalidParameterError,
    ModelTrainingError,
    UnsupportedQueryError,
)
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.kde import MultivariateKDE, _SQRT_2PI
from repro.sql.ast import AggregateCall

RTOL = 1e-12
ATOL = 1e-12


def close(got, expected, context: str = "") -> None:
    """1e-12 agreement (the issue's parameter-parity bound)."""
    np.testing.assert_allclose(
        np.asarray(got), np.asarray(expected),
        rtol=RTOL, atol=ATOL, err_msg=context,
    )


def make_data(n_groups: int = 6, rows: int = 150, seed: int = 3):
    """Mixed workload: modelled, constant-column and sample-starved groups."""
    rng = np.random.default_rng(seed)
    n = n_groups * rows
    groups = np.repeat(np.arange(n_groups), rows)
    x = np.column_stack([
        rng.uniform(0.0, 100.0, size=n),
        rng.uniform(-5.0, 5.0, size=n),
    ])
    if n_groups > 2:
        x[groups == 2, 1] = 1.5  # constant second column in one group
    y = (groups + 1.0) * 0.1 * x[:, 0] + 2.0 * x[:, 1] \
        + rng.normal(0.0, 1.0, size=n)
    # Starve the last group in the sample so it becomes a raw group.
    keep = np.ones(n, dtype=bool)
    idx = np.flatnonzero(groups == n_groups - 1)
    keep[idx[12:]] = False
    return x, y, groups, keep


def train_pair(
    regressor: str = "linear", seed: int = 3, y: bool = True, **config_kwargs
) -> tuple[GroupByModelSet, GroupByModelSet]:
    """The same multivariate sample through the batched trainer and the
    row-wise oracle."""
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
        table_name="t", x_columns=("a", "b"),
        y_column="y" if y else None,
        group_column="g", config=config,
    )
    return GroupByModelSet.train(**kwargs), reference.train_set(**kwargs)


def assert_density_parity(batched, scalar, context: str) -> None:
    assert isinstance(batched, MultivariateKDE), context
    close(batched._centres, scalar._centres, f"{context}: centres")
    close(batched._weights, scalar._weights, f"{context}: weights")
    close(batched._h, scalar._h, f"{context}: bandwidths")
    close(batched._domain_low, scalar._domain_low, f"{context}: domain low")
    close(batched._domain_high, scalar._domain_high, f"{context}: domain high")
    close(batched._norm, scalar._norm, f"{context}: norm")
    assert batched.n_train == scalar.n_train, context
    assert batched.n_dims == scalar.n_dims, context


def assert_set_parity(batched: GroupByModelSet, scalar: GroupByModelSet) -> None:
    assert set(batched.models) == set(scalar.models)
    assert set(batched.raw_groups) == set(scalar.raw_groups)
    for value, expected in scalar.models.items():
        got = batched.models[value]
        context = f"group {value}"
        assert_density_parity(got.density, expected.density, context)
        close(got.x_domain, expected.x_domain, f"{context}: domain")
        assert got.n_sample == expected.n_sample, context
        assert got.population_size == expected.population_size, context
        if expected.regressor is None:
            assert got.regressor is None, context
        else:
            assert type(got.regressor) is type(expected.regressor), context
            coef = getattr(expected.regressor, "_coef", None)
            if coef is not None:
                close(got.regressor._coef, coef, f"{context}: coefficients")
            grid = np.column_stack([
                np.linspace(0.0, 100.0, 65), np.linspace(-5.0, 5.0, 65)
            ])
            close(got.regressor.predict(grid), expected.regressor.predict(grid),
                  f"{context}: predictions")
        # Multivariate models keep only the global residual scalar.
        assert got._residual_edges is None and expected._residual_edges is None
        close(got._residual_var_global, expected._residual_var_global,
              f"{context}: global residual variance")
    for value, expected in scalar.raw_groups.items():
        got = batched.raw_groups[value]
        np.testing.assert_array_equal(got.x, expected.x)


RANGES = (
    {"a": (20.0, 60.0), "b": (-3.0, 3.0)},   # interior box
    {"a": (20.0, 60.0)},                     # partial predicate (one column)
    {"b": (1.0, 2.0)},                       # narrow, contains the constant
    {"a": (-50.0, -10.0)},                   # disjoint from the domain
    {},                                      # no predicate
)


def assert_answer_parity(batched: GroupByModelSet, scalar: GroupByModelSet,
                         y: bool = True) -> None:
    """Both engines, and the reference for modelled groups, answer every
    aggregate identically (1e-9)."""
    aggregates = [AggregateCall("COUNT", None)]
    if y:
        aggregates += [
            AggregateCall(func, "y")
            for func in ("SUM", "AVG", "VARIANCE", "STDDEV")
        ]
    for aggregate in aggregates:
        for ranges in RANGES:
            got = batched.answer(aggregate, ranges, batched=True)
            expected = scalar.answer(aggregate, ranges, batched=False)
            assert set(got) == set(expected)
            oracle = {
                value: reference.answer(model, aggregate, ranges)
                for value, model in batched.models.items()
            }
            for value, answer in [*expected.items(), *oracle.items()]:
                if math.isnan(answer):
                    assert math.isnan(got[value]), (aggregate, ranges, value)
                else:
                    bound = 1e-9 * max(1.0, abs(answer))
                    assert abs(got[value] - answer) <= bound, (
                        f"{aggregate} {ranges} group {value}: "
                        f"{got[value]} vs {answer}"
                    )


# -- model / answer parity across trainer configurations ---------------------


class TestMultivariateParity:
    @pytest.mark.parametrize("regressor", ["linear", "ensemble", "gboost"])
    def test_models_and_answers(self, regressor):
        batched, scalar = train_pair(regressor=regressor)
        assert_set_parity(batched, scalar)
        assert_answer_parity(batched, scalar)

    @pytest.mark.parametrize("bandwidth", ["scott", "silverman"])
    def test_bandwidth_rules(self, bandwidth):
        batched, scalar = train_pair(kde_bandwidth=bandwidth)
        assert_set_parity(batched, scalar)

    def test_constant_column_bandwidth_fallback_is_summation_robust(self):
        # Constant 1.234: its sequential sum rounds (unlike 1.5 or 42.0),
        # so a sigma == 0.0 test diverges between np.std and segmented
        # reductions.  Both paths must detect degeneracy from min == max
        # and take the max(|x[0]|, 1) * 1e-3 spread fallback.
        rng = np.random.default_rng(31)
        rows = 64
        groups = np.repeat(np.arange(2), rows)
        x = np.column_stack([
            rng.uniform(0.0, 100.0, size=groups.shape[0]),
            np.full(groups.shape[0], 1.234),
        ])
        for bandwidth in ("scott", "silverman"):
            config = DBEstConfig(
                min_group_rows=30, random_seed=31, kde_bandwidth=bandwidth
            )
            kwargs = dict(
                sample_x=x, sample_y=None, sample_groups=groups,
                full_groups=groups, full_x=x, full_y=None,
                table_name="t", x_columns=("a", "b"), y_column=None,
                group_column="g", config=config,
            )
            batched = GroupByModelSet.train(**kwargs)
            scalar = reference.train_set(**kwargs)
            for value in scalar.models:
                got = batched.models[value].density._h
                expected = scalar.models[value].density._h
                close(got, expected, f"{bandwidth} group {value}: bandwidths")
                # The fallback spread, not the 1e-12 floor.
                factor = 0.9 if bandwidth == "silverman" else 1.0
                assert got[1] == pytest.approx(
                    factor * 1.234e-3 * rows ** (-1.0 / 5.0), rel=1e-12
                )

    def test_density_only(self):
        batched, scalar = train_pair(y=False)
        assert_set_parity(batched, scalar)
        assert_answer_parity(batched, scalar, y=False)
        assert all(m.regressor is None for m in batched.models.values())


class TestBinnedMultivariateParity:
    def test_histogramdd_replicated_bit_for_bit(self):
        # Groups above the binning threshold: the flattened-multi-index
        # bincount must replicate each group's own np.histogramdd.
        rng = np.random.default_rng(11)
        rows = 1300
        groups = np.repeat(np.arange(3), rows)
        x = np.column_stack([
            rng.normal(50.0, 12.0, size=groups.shape[0]),
            rng.uniform(0.0, 10.0, size=groups.shape[0]),
        ])
        y = 2.0 * x[:, 0] + x[:, 1] + rng.normal(0.0, 1.0, size=groups.shape[0])
        config = DBEstConfig(
            regressor="linear", min_group_rows=30, random_seed=11,
            integration_points=65, kde_bins_per_dim=16, kde_bin_threshold=1000,
        )
        kwargs = dict(
            sample_x=x, sample_y=y, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("a", "b"), y_column="y",
            group_column="g", config=config,
        )
        batched = GroupByModelSet.train(**kwargs)
        scalar = reference.train_set(**kwargs)
        for value, expected in scalar.models.items():
            got = batched.models[value].density
            assert got._centres.shape[0] <= 16 * 16
            np.testing.assert_array_equal(got._centres, expected.density._centres)
            np.testing.assert_array_equal(got._weights, expected.density._weights)
        assert_set_parity(batched, scalar)
        assert_answer_parity(batched, scalar)


class TestMemoryBounds:
    def test_binned_groups_chunk_under_a_tiny_cell_budget(self, monkeypatch):
        # The dense (groups, bins**d) cell array must never exceed the
        # element budget: with the budget shrunk below one group's cell
        # count the bincount runs one group at a time, bit-identically.
        import repro.core.batched_train as bt

        monkeypatch.setattr(bt, "_BLOCK_ELEMENTS", 300)
        rng = np.random.default_rng(23)
        rows = 1200
        groups = np.repeat(np.arange(3), rows)
        x = rng.normal(0.0, 1.0, size=(groups.shape[0], 2))
        config = DBEstConfig(
            min_group_rows=30, random_seed=23, kde_bins_per_dim=16,
            kde_bin_threshold=1000,
        )
        kwargs = dict(
            sample_x=x, sample_y=None, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=None,
            table_name="t", x_columns=("a", "b"), y_column=None,
            group_column="g", config=config,
        )
        batched = GroupByModelSet.train(**kwargs)
        scalar = reference.train_set(**kwargs)
        for value, expected in scalar.models.items():
            got = batched.models[value].density
            np.testing.assert_array_equal(got._centres, expected.density._centres)
            np.testing.assert_array_equal(got._weights, expected.density._weights)

    def test_nd_grid_cache_evicts_by_element_budget(self, monkeypatch):
        from repro.core.batched import BatchedGroupEvaluator

        batched, _scalar = train_pair()
        evaluator = batched.batched_evaluator()
        one_entry = None
        aggregate = AggregateCall("AVG", "y")
        # Size one entry, then cap the budget at ~two entries and sweep
        # many distinct ranges: the cache must stay within the budget and
        # keep answering correctly after evictions.
        evaluator.answer(aggregate, {"a": (10.0, 90.0)})
        one_entry = next(iter(evaluator._grid_cache.values()))["elements"]
        monkeypatch.setattr(
            BatchedGroupEvaluator, "_ND_GRID_CACHE_ELEMENTS", 2 * one_entry
        )
        for low in np.linspace(5.0, 40.0, 6):
            evaluator.answer(aggregate, {"a": (float(low), float(low) + 30.0)})
        total = sum(
            entry.get("elements", 0)
            for entry in evaluator._grid_cache.values()
        )
        assert total <= 2 * one_entry
        ranges = {"a": (5.0, 35.0)}
        got = batched.answer(aggregate, ranges, batched=True)
        expected = batched.answer(aggregate, ranges, batched=False)
        for value, answer in expected.items():
            if math.isnan(answer):
                assert math.isnan(got[value])
            else:
                assert abs(got[value] - answer) <= 1e-9 * max(1.0, abs(answer))

    def test_oversized_moment_queries_stream_in_blocks(self, monkeypatch):
        # When a single query's grids would blow the element budget, the
        # groups must stream through budget-sized blocks — nothing gets
        # memoised and the answers still match the scalar oracle.
        from repro.core.batched import BatchedGroupEvaluator

        batched, scalar = train_pair()
        evaluator = batched.batched_evaluator()
        monkeypatch.setattr(
            BatchedGroupEvaluator, "_ND_GRID_CACHE_ELEMENTS", 1
        )
        ranges = {"a": (20.0, 60.0), "b": (-3.0, 3.0)}
        for func in ("SUM", "AVG", "VARIANCE"):
            aggregate = AggregateCall(func, "y")
            got = evaluator.answer(aggregate, ranges)
            expected = scalar.answer(aggregate, ranges, batched=False)
            for value, answer in expected.items():
                if math.isnan(answer):
                    assert math.isnan(got[value])
                else:
                    assert abs(got[value] - answer) <= 1e-9 * max(
                        1.0, abs(answer)
                    )
        assert evaluator._grid_cache == {}


class TestUnsupportedAggregates:
    def test_both_paths_refuse_x_moments_and_percentile(self):
        batched, _scalar = train_pair()
        for aggregate in (
            AggregateCall("AVG", "a"),
            AggregateCall("VARIANCE", "a"),
            AggregateCall("STDDEV", "a"),
            AggregateCall("PERCENTILE", "a", 0.5),
        ):
            with pytest.raises(UnsupportedQueryError):
                batched.answer(aggregate, {}, batched=True)
            with pytest.raises(UnsupportedQueryError):
                batched.answer(aggregate, {}, batched=False)

    def test_reversed_range_raises(self):
        batched, _scalar = train_pair()
        with pytest.raises(InvalidParameterError):
            batched.answer(
                AggregateCall("COUNT", None), {"a": (60.0, 20.0)}, batched=True
            )


# -- routing: the one trainer, evaluator stacking ----------------------------


class TestRouting:
    def test_batched_paths_are_the_default(self, monkeypatch):
        calls = []
        original = train_batched_models

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.core.groupby.train_batched_models", spy)
        batched, _scalar = train_pair()
        assert calls  # multivariate training went through the batched trainer
        assert batched.batched_evaluator() is not None

    def test_answer_opt_out_reaches_the_scalar_loop(self):
        x, y, groups, keep = make_data()
        config = DBEstConfig(
            regressor="linear", min_group_rows=30, random_seed=3,
            batched_groupby=False,
        )
        model_set = GroupByModelSet.train(
            sample_x=x[keep], sample_y=y[keep], sample_groups=groups[keep],
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("a", "b"), y_column="y",
            group_column="g", config=config,
        )
        assert len(model_set.models) == 5
        # batched_groupby=False: answer() never builds the evaluator.
        model_set.answer(AggregateCall("COUNT", None), {"a": (20.0, 60.0)})
        assert model_set._batched_built is False

    def test_split_segments_cover_all_groups_and_pickle(self):
        batched, _scalar = train_pair()
        evaluator = batched.batched_evaluator()
        aggregate = AggregateCall("SUM", "y")
        ranges = {"a": (20.0, 60.0), "b": (-3.0, 3.0)}
        expected = evaluator.answer(aggregate, ranges)
        merged: dict = {}
        for segment in evaluator.split(3):
            clone = pickle.loads(pickle.dumps(segment))
            merged.update(clone.answer(aggregate, ranges))
        assert set(merged) == set(expected)
        for value, answer in expected.items():
            if math.isnan(answer):
                assert math.isnan(merged[value])
            else:
                assert abs(merged[value] - answer) <= 1e-12 * max(1.0, abs(answer))


# -- satellite regressions ----------------------------------------------------


class TestPdfChunkBudget:
    def test_chunked_pdf_matches_dense_reference(self):
        # The centre chunks must respect the element budget *per
        # dimension*; correctness of the chunked accumulation is checked
        # against a dense single-pass reference.
        rng = np.random.default_rng(7)
        d = 3
        train = rng.normal(size=(800, d))
        kde = MultivariateKDE(binned=False).fit(train)
        # 900 query points x 800 centres x 3 dims: with the fixed budget
        # (2e6 // (900 * 3) = 740) the centre loop takes multiple chunks.
        points = rng.normal(size=(900, d))
        got = kde.pdf(points)
        z = (points[:, None, :] - kde._centres[None, :, :]) / kde._h
        dense = np.exp(-0.5 * np.sum(z * z, axis=2)) @ kde._weights
        dense /= float(np.prod(kde._h)) * _SQRT_2PI ** d * kde._norm
        np.testing.assert_allclose(got, dense, rtol=1e-12)

    def test_budget_divides_by_dimensionality(self):
        # White-box: the (m, chunk, d) temporary of one chunk never
        # exceeds the 2M-element budget, whatever d is.
        for d, n_points in ((2, 1000), (8, 1000), (16, 4000)):
            chunk = max(1, int(2_000_000 // (max(n_points, 1) * max(d, 1))))
            assert n_points * chunk * d <= 2_000_000 or chunk == 1


class TestConfigPlumbing:
    def test_multivariate_kde_settings_forwarded(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(400, 2))
        config = DBEstConfig(
            kde_bins_per_dim=8, kde_bin_threshold=100, random_seed=9
        )
        model = ColumnSetModel.train(
            x, None, table_name="t", x_columns=("a", "b"), y_column=None,
            population_size=400, config=config,
        )
        assert model.density.bins_per_dim == 8
        assert model.density.bin_threshold == 100
        # 400 rows > threshold 100: binned compression actually engaged.
        assert model.density._centres.shape[0] <= 8 * 8

    def test_univariate_bin_threshold_forwarded(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        config = DBEstConfig(
            kde_bins=32, kde_bin_threshold=100, random_seed=9
        )
        model = ColumnSetModel.train(
            x, None, table_name="t", x_columns=("x",), y_column=None,
            population_size=300, config=config,
        )
        assert model.density.bin_threshold == 100
        assert model.density._centres.shape[0] <= 32

    def test_non_string_bandwidth_raises_for_multivariate(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 2))
        config = DBEstConfig(kde_bandwidth=0.75)
        with pytest.raises(InvalidParameterError):
            ColumnSetModel.train(
                x, None, table_name="t", x_columns=("a", "b"), y_column=None,
                population_size=100, config=config,
            )
        groups = np.repeat(np.arange(2), 50)
        with pytest.raises(InvalidParameterError):
            GroupByModelSet.train(
                sample_x=x, sample_y=None, sample_groups=groups,
                full_groups=groups, full_x=x, full_y=None,
                table_name="t", x_columns=("a", "b"), y_column=None,
                group_column="g",
                config=DBEstConfig(kde_bandwidth=0.75, min_group_rows=10),
            )

    def test_all_raw_set_ignores_float_bandwidth_like_the_scalar_loop(self):
        # No group is modelled, so no density is ever built: the batched
        # trainer must not reject the (1-D-valid) float bandwidth the
        # row-wise loop never consumes either.
        rng = np.random.default_rng(29)
        x = rng.normal(size=(40, 2))
        groups = np.repeat(np.arange(2), 20)
        config = DBEstConfig(kde_bandwidth=0.5, min_group_rows=10**6)
        for trainer in (GroupByModelSet.train, reference.train_set):
            model_set = trainer(
                sample_x=x, sample_y=None, sample_groups=groups,
                full_groups=groups, full_x=x, full_y=None,
                table_name="t", x_columns=("a", "b"), y_column=None,
                group_column="g", config=config,
            )
            assert model_set.models == {}
            assert len(model_set.raw_groups) == 2

    def test_config_validates_new_knobs(self):
        with pytest.raises(InvalidParameterError):
            DBEstConfig(kde_bins_per_dim=1)
        with pytest.raises(InvalidParameterError):
            DBEstConfig(kde_bin_threshold=0)


class TestFromFitState:
    def test_round_trips_a_direct_fit(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(500, 2))
        fitted = MultivariateKDE(bin_threshold=100).fit(x)
        mix = fitted.export_mixture()
        rebuilt = MultivariateKDE.from_fit_state(
            centres=mix.centres, weights=mix.weights, h=mix.h,
            domain_low=mix.domain_low, domain_high=mix.domain_high,
            n_train=mix.n_train, bin_threshold=100,
        )
        assert rebuilt._norm == fitted._norm
        lows = np.asarray([-1.0, -1.0])
        highs = np.asarray([1.0, 1.0])
        assert rebuilt.integrate_box(lows, highs) == fitted.integrate_box(
            lows, highs
        )
        points = rng.normal(size=(50, 2))
        np.testing.assert_array_equal(rebuilt.pdf(points), fitted.pdf(points))


class TestEnsembleMultivariateInvariants:
    def test_domain_and_default_name_recorded(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0.0, 10.0, size=(200, 2))
        y = x[:, 0] + 2.0 * x[:, 1]
        reg = EnsembleRegressor(random_state=17).fit(x, y)
        assert reg._default_name in reg.models_
        # The 1-D path records the observed feature domain; the
        # multivariate path must too (per-dimension bounds).
        assert reg._domain is not None
        for j, (lo, hi) in enumerate(reg._domain):
            assert lo == float(x[:, j].min())
            assert hi == float(x[:, j].max())

    def test_row_mismatch_raises_like_the_1d_path(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0.0, 10.0, size=(200, 2))
        with pytest.raises(ModelTrainingError):
            EnsembleRegressor(random_state=17).fit(x, np.ones(150))

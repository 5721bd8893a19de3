"""Closed-form moment integrals (:mod:`repro.integrate.moments`).

Three bars, for every regressor the engine builds (``linear``, ``plr``,
``tree``, ``gboost``, ``xgboost`` and the ``ensemble`` of ``gboost``,
``xgboost`` and ``plr``):

* **accuracy** - the moments function agrees to 1e-9 relative with
  composite Simpson at 4097 nodes, and so do a model's public COUNT,
  SUM, AVG and VARIANCE answers with
  :func:`repro.reference.piecewise_simpson` (4097 nodes *per smooth
  piece*, so no panel straddles a kink or a jump);
* **parity** - a GROUP BY set's stacked evaluator == its groups' own
  one-group evaluators (``batched=False``) to 1e-9 on ranges the older
  fixtures miss (1 %-wide, inside one piece, across every breakpoint, ending
  exactly on a knot, a split threshold or a residual edge, partly and
  wholly outside the support, a point-mass group, ensemble groups that
  pick different constituents for the same bounds, ``split(3)`` chunks);
* **history independence** - the same query gives the same bits from a
  fresh evaluator, a well-used one, a ``from_mapped`` one and a
  pickled-and-restored one, and from a fresh or a well-used scalar
  model, whose pickle never carries its evaluator - and from eight
  threads making a freshly unpickled model's first calls at once.

The kernel only evaluates centres within ``_WINDOW`` bandwidths of a
point, so it is also held to an every-centre sum; COUNT and PERCENTILE,
which read its mass, to the KDE's four-leg CDF; and centres stored in an
older pickle's (unsorted) order must give the same bits.
"""

from __future__ import annotations

import functools
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtr

from repro import reference
from repro.core import DBEstConfig, GroupByModelSet, ModelKey, answer_aggregate
from repro.core.batched import BatchedGroupEvaluator
from repro.core.model import ColumnSetModel
from repro.errors import UnsupportedQueryError
from repro.integrate import affine_piece_integrals, cumulative_moments
from repro.integrate.moments import _WINDOW, _window
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.kde import KernelDensityEstimator
from repro.obs import disable_metrics, enable_metrics
from repro.serve import ModelStore
from repro.sql.ast import AggregateCall

REFERENCE_NODES = 4097
REFERENCE_RTOL = 1e-9


# -- the kernel itself ---------------------------------------------------------


def _two_mixtures():
    """Two groups, centres ascending within each (the kernel's contract)."""
    rng = np.random.default_rng(0)
    sizes = (37, 90)
    g = np.concatenate([np.sort(rng.normal(0.0, 6.0, n)) for n in sizes])
    w = np.concatenate([rng.dirichlet(np.ones(n)) for n in sizes])
    return g, w, np.asarray([0, sizes[0], sum(sizes)])


def _edge_mixtures():
    """:func:`_two_mixtures` plus a one-centre group and a group with a
    gap wider than two windows around 0."""
    g, w, offsets = _two_mixtures()
    gap = np.asarray([-31.0, -30.0, -29.5, 29.0, 30.0])
    return (
        np.concatenate([g, [1.5], gap]),
        np.concatenate([w, [1.0], np.full(gap.size, 0.2)]),
        np.concatenate([offsets, offsets[-1] + np.asarray([1, 1 + gap.size])]),
    )


def _unwindowed(g, w, offsets, group, t) -> np.ndarray:
    """The kernel with every centre evaluated: the sums the window must
    reproduce."""
    out = np.empty((group.shape[0], 3))
    for p, (k, tp) in enumerate(zip(group.tolist(), t.tolist())):
        gi, wi = g[offsets[k]:offsets[k + 1]], w[offsets[k]:offsets[k + 1]]
        z = tp - gi
        cdf, pdf = ndtr(z), np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        out[p] = (
            wi @ cdf,
            wi @ (gi * cdf - pdf),
            wi @ ((gi * gi + 1.0) * cdf - (tp + gi) * pdf),
        )
    return out


class TestCumulativeMoments:
    def test_differences_match_simpson(self):
        g, w, offsets = _two_mixtures()
        group = np.asarray([0, 0, 1, 1])
        t = np.asarray([-3.0, 4.5, -8.0, 0.25])
        moments = cumulative_moments(g, w, offsets, group, t)
        for k, (lo, hi) in enumerate(((-3.0, 4.5), (-8.0, 0.25))):
            rows = slice(offsets[k], offsets[k + 1])
            u, weights = reference.simpson_grid(lo, hi, REFERENCE_NODES)
            z = u[:, None] - g[rows][None, :]
            pdf = (np.exp(-0.5 * z * z) @ w[rows]) / math.sqrt(2.0 * math.pi)
            got = moments[2 * k + 1] - moments[2 * k]
            for power in range(3):
                assert got[power] == pytest.approx(
                    weights @ (pdf * u**power), rel=REFERENCE_RTOL
                )

    def test_limits(self):
        g, w, offsets = _two_mixtures()
        far = cumulative_moments(
            g, w, offsets, np.asarray([0, 0]), np.asarray([-80.0, 80.0])
        )
        np.testing.assert_array_equal(far[0], 0.0)
        rows = slice(0, offsets[1])
        assert far[1, 0] == pytest.approx(1.0, rel=1e-12)
        assert far[1, 1] == pytest.approx(w[rows] @ g[rows], rel=1e-12)
        assert far[1, 2] == pytest.approx(w[rows] @ (g[rows] ** 2 + 1), rel=1e-12)

    def test_a_pair_has_the_same_bits_alone_or_in_any_batch(self):
        """Memoised values can stand in for fresh ones: each pair reduces
        over its own group's rows only, whatever else is in the call —
        and finds its window by position inside them, by ``searchsorted``
        alone and by the lock-step search in a mixed batch."""
        g, w, offsets = _two_mixtures()
        rng = np.random.default_rng(1)
        group = rng.integers(0, 2, size=40)
        t = rng.normal(0.0, 5.0, size=40)
        start = offsets[:-1][group]
        first, last = _window(g, start, offsets[1:][group], t)
        assert np.unique(first - start).size >= 10
        assert np.unique(last - first).size >= 10
        batch = cumulative_moments(g, w, offsets, group, t)
        mass = cumulative_moments(g, w, offsets, group, t, degree=0)
        np.testing.assert_array_equal(mass[:, 0], batch[:, 0])
        for p in range(40):
            alone = cumulative_moments(g, w, offsets, group[p:p + 1], t[p:p + 1])
            np.testing.assert_array_equal(alone[0], batch[p])
        # ... and on a slice of the stacked arrays (what split() hands out).
        second = group == 1
        sliced = cumulative_moments(
            g[offsets[1]:], w[offsets[1]:], offsets[1:] - offsets[1],
            np.zeros(int(second.sum()), dtype=np.intp), t[second],
        )
        np.testing.assert_array_equal(sliced, batch[second])

    def test_window_matches_the_full_sum(self):
        """Centres beyond ``_WINDOW`` bandwidths are summed as constants.

        ``M0`` matches the every-centre sum to 1e-13 relative, or within
        the ``Φ(-9)·Σw`` of tail mass the window drops where ``M0`` is
        itself that small; ``M1`` / ``M2`` to 1e-13 x ``Σw(g² + 1)``.
        """
        g, w, offsets = _edge_mixtures()
        group, t = [], []
        for k in range(offsets.shape[0] - 1):
            gk = g[offsets[k]:offsets[k + 1]]
            mid = gk[gk.size // 2]
            probes = [
                gk[0] - 40.0, gk[-1] + 40.0,              # far left / right
                gk[0] - _WINDOW, gk[-1] + _WINDOW,        # on an edge
                mid - _WINDOW, mid + _WINDOW, mid, 0.0,
            ]
            group += [k] * len(probes)
            t += probes
        group, t = np.asarray(group), np.asarray(t)
        first, last = _window(g, offsets[:-1][group], offsets[1:][group], t)
        assert (first == last).sum() >= 6          # empty windows
        gap = group == offsets.shape[0] - 2
        assert ((first == last) & gap & (t == 0.0)).any()  # centres both sides
        got = cumulative_moments(g, w, offsets, group, t)
        want = _unwindowed(g, w, offsets, group, t)
        total = np.add.reduceat(w, offsets[:-1])[group]
        scale = np.add.reduceat(w * (g * g + 1.0), offsets[:-1])[group]
        assert np.all(
            np.abs(got[:, 0] - want[:, 0])
            <= np.maximum(1e-13 * want[:, 0], ndtr(-_WINDOW) * total)
        )
        assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= 1e-13 * scale[:, None])
        np.testing.assert_array_equal(
            cumulative_moments(g, w, offsets, group, t, degree=0)[:, 0], got[:, 0]
        )

    def test_no_pairs(self):
        g, w, offsets = _two_mixtures()
        empty = cumulative_moments(
            g, w, offsets, np.empty(0, dtype=np.intp), np.empty(0)
        )
        assert empty.shape == (0, 3)

    def test_affine_piece_integrals(self):
        d = np.asarray([[0.2, 0.1, 0.3], [0.5, -0.4, 0.9]])
        alpha, beta = np.asarray([2.0, -1.0]), np.asarray([0.5, 3.0])
        den, num1, num2 = affine_piece_integrals(d, alpha, beta)
        assert den == pytest.approx(0.7)
        assert num1 == pytest.approx(2 * 0.1 + 0.5 * 0.2 + 0.4 + 3 * 0.5)
        assert num2 == pytest.approx(
            (4 * 0.3 + 2 * 2 * 0.5 * 0.1 + 0.25 * 0.2)
            + (0.9 + 2 * -1 * 3 * -0.4 + 9 * 0.5)
        )


# -- closed form vs the 4097-node reference --------------------------------


def _sample(n: int = 600, seed: int = 2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, n)
    y = 2.0 * x + 25.0 * np.sin(x / 9.0) + rng.normal(0.0, 1.0 + x / 40.0, n)
    return x, y


def _scalar_model(regressor: str, density: str) -> ColumnSetModel:
    x, y = _sample()
    config = DBEstConfig(
        regressor=regressor, random_seed=2,
        # "binned": 64 weighted centres stand in for the 600 points.
        kde_bin_threshold=100 if density == "binned" else 5000, kde_bins=64,
    )
    model = ColumnSetModel.train(x, y, "t", ("x",), "y", 50_000, config)
    if density != "unreflected":
        assert model.density.export_mixture().reflect
        assert (model.density._centres.size == 600) == (density == "reflected")
        return model
    return ColumnSetModel.from_fitted_parts(
        table_name="t", x_columns=("x",), y_column="y", population_size=50_000,
        density=KernelDensityEstimator(boundary="none").fit(x),
        regressor=model.regressor, x_domain=model.x_domain, n_sample=x.size,
        config=config, residual_edges=model._residual_edges,
        residual_var=model._residual_var,
        residual_var_global=model._residual_var_global,
    )


def _force(ensemble: EnsembleRegressor, name: str) -> None:
    """Make every range select the ``name`` constituent."""
    ensemble.selector_ = None
    ensemble._default_name = name


def _assert_matches_reference(model, ranges, rtol) -> None:
    """Public answers against :func:`reference.piecewise_simpson`.

    A VARIANCE is compared through the second moment it is the
    difference of, ``VARIANCE + AVG²``: over a 1 %-wide range the
    difference cancels ~4 of the 16 digits both sides carry.
    """
    n = model.population_size
    for lb, ub in ranges:
        want = reference.piecewise_simpson(model, lb, ub, REFERENCE_NODES)
        den = want["den"]
        query = {"x": (lb, ub)}
        avg_x, avg_y = model.avg_x(query), model.avg(query)
        got_want = {
            "COUNT": (model.count(query), n * den),
            "SUM": (model.sum_(query), n * want["r1"]),
            "AVG(x)": (avg_x, want["x1"] / den),
            "AVG(y)": (avg_y, want["r1"] / den),
            "E[x²]": (model.variance_x(query) + avg_x**2, want["x2"] / den),
            "E[R²] + E[Var(y|x)]": (
                model.variance_y(query) + avg_y**2,
                (want["r2"] + want["res"]) / den,
            ),
        }
        for name, (got, value) in got_want.items():
            assert got == pytest.approx(value, rel=rtol), f"{name} over [{lb}, {ub}]"


REFERENCE_RANGES = (
    (-10.0, 130.0),   # the whole support: every knot, every residual edge
    (12.5, 71.0),
    (40.0, 41.0),     # 1 % of the domain
    (88.0, 250.0),    # partly outside
)


class TestAgainstSimpsonReference:
    @pytest.mark.parametrize("density", ["reflected", "unreflected", "binned"])
    @pytest.mark.parametrize("regressor", ["plr", "linear"])
    def test_integrals(self, regressor, density):
        model = _scalar_model(regressor, density)
        _assert_matches_reference(model, REFERENCE_RANGES, REFERENCE_RTOL)

    @pytest.mark.parametrize("regressor", ["tree", "gboost", "xgboost", "ensemble"])
    def test_piecewise_constant_integrals(self, regressor):
        """Forests, and an ensemble forced onto each constituent in turn.

        The binned density and the ranges short of the whole support
        keep the reference (4097 nodes x up to ~180 pieces) cheap.
        """
        model = _scalar_model(regressor, "binned")
        ensemble = model.regressor if regressor == "ensemble" else None
        for name in ensemble.constituent_names if ensemble else [None]:
            if ensemble:
                _force(ensemble, name)
            _assert_matches_reference(model, REFERENCE_RANGES[1:], REFERENCE_RTOL)

    def test_mass_equals_the_analytic_cdf(self):
        """COUNT is the KDE's CDF mass, and SUM takes the same mass."""
        model = _scalar_model("plr", "reflected")
        for lb, ub in REFERENCE_RANGES:
            query = {"x": (lb, ub)}
            mass = model.density.integrate(*reference.clip(model, lb, ub))
            count = model.count(query)
            assert count == pytest.approx(model.population_size * mass, rel=1e-12)
            assert model.sum_(query) == pytest.approx(
                count * model.avg(query), rel=1e-12
            )

    def test_which_integrands_are_closed_form(self):
        """Every regressor the engine builds; one without pieces refuses
        every query, naming its class."""
        x, y = _sample(400)

        def train(**kwargs):
            return ColumnSetModel.train(
                x, y, "t", ("x",), "y", 1000, DBEstConfig(random_seed=1, **kwargs)
            )

        ranges = {"x": (20.0, 70.0)}
        for regressor in ("plr", "linear", "tree", "gboost", "xgboost", "ensemble"):
            assert math.isfinite(train(regressor=regressor).avg(ranges))
        opaque = _without_pieces(train(regressor="tree"))
        for answer in (opaque.avg, opaque.avg_x, opaque.count):
            with pytest.raises(UnsupportedQueryError, match="_Opaque"):
                answer(ranges)

    def test_integration_points_do_not_matter_in_one_dimension(self):
        x, y = _sample(400)
        ranges = {"x": (20.0, 70.0)}

        def answers(regressor, points, opaque=False):
            model = ColumnSetModel.train(
                x, y, "t", ("x",), "y", 1000,
                DBEstConfig(
                    regressor=regressor, random_seed=1, integration_points=points
                ),
            )
            if opaque:
                model = _without_pieces(model)
            return (
                model.avg(ranges), model.sum_(ranges), model.variance_y(ranges),
                model.avg_x(ranges), model.variance_x(ranges),
            )

        assert answers("plr", 9) == answers("plr", 257)
        assert answers("tree", 9) == answers("tree", 257)
        # A regressor that exports no pieces has no grid to fall back on.
        with pytest.raises(UnsupportedQueryError, match="_Opaque"):
            answers("tree", 9, True)


class _Opaque:
    """A fitted regressor behind an interface with no batch export."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def predict(self, x):
        return self.inner.predict(x)


def _without_pieces(model: ColumnSetModel) -> ColumnSetModel:
    model.regressor = _Opaque(model.regressor)
    return model


# -- batched == scalar on the ranges the older fixtures miss -----------------


def assert_parity(batched: dict, scalar: dict) -> None:
    """The bound of tests/test_batched_groupby.py::assert_parity."""
    assert set(batched) == set(scalar)
    for key, expected in scalar.items():
        got = batched[key]
        if math.isnan(expected):
            assert math.isnan(got), f"group {key}: {got} vs nan"
        else:
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (
                f"group {key}: batched {got} vs scalar {expected}"
            )


def same_bits(left: dict, right: dict) -> bool:
    """``==`` on every group, NaN equal to NaN."""
    return left.keys() == right.keys() and all(
        left[k] == right[k] or (math.isnan(left[k]) and math.isnan(right[k]))
        for k in left
    )


POINT_MASS_GROUP, POINT_MASS_X = 4, 42.0


def make_model_set(regressor: str, seed: int = 6,
                   drop: int | None = None) -> GroupByModelSet:
    """Seven modelled groups (one of them constant in x), unequal sizes;
    ``drop`` trains the same rows without that group."""
    rng = np.random.default_rng(seed)
    sizes = (300, 220, 400, 260, 200, 350, 280)
    groups = np.repeat(np.arange(len(sizes)), sizes)
    x = rng.uniform(0.0, 100.0, size=groups.shape[0])
    x[groups == POINT_MASS_GROUP] = POINT_MASS_X
    y = (groups + 1.0) * 0.3 * x + 10.0 * np.cos(x / 11.0) + rng.normal(
        0.0, 1.0 + x / 50.0
    )
    keep = groups != drop
    groups, x, y = groups[keep], x[keep], y[keep]
    return GroupByModelSet.train(
        sample_x=x, sample_y=y, sample_groups=groups,
        full_groups=groups, full_x=x, full_y=y,
        table_name="t", x_columns=("x",), y_column="y", group_column="g",
        config=DBEstConfig(
            regressor=regressor, min_group_rows=30, random_seed=seed,
            integration_points=65,
        ),
    )


@functools.lru_cache(maxsize=None)
def trained_model_set(regressor: str) -> GroupByModelSet:
    return make_model_set(regressor)


@pytest.fixture(
    scope="module", params=["plr", "linear", "tree", "gboost", "xgboost", "ensemble"]
)
def model_set(request) -> GroupByModelSet:
    return trained_model_set(request.param)


def sweep_ranges(model_set: GroupByModelSet) -> dict[str, dict]:
    """Named ranges cut at group 0's breakpoints: spline knots, split
    thresholds (an ensemble's: its ``gboost`` constituent's) or, for
    ``linear``, the residual edges."""
    model = model_set.models[0]
    edges = model._residual_edges
    regressor = model.regressor
    if isinstance(regressor, EnsembleRegressor):
        regressor = regressor.models_["gboost"]
    breaks = reference.breakpoints(regressor)[0]
    if breaks.size == 0:
        breaks = edges
    lo, hi = model.density.support
    return {
        "one percent": {"x": (40.0, 41.0)},
        "inside one piece": {
            "x": (
                float(0.75 * breaks[2] + 0.25 * breaks[3]),
                float(0.25 * breaks[2] + 0.75 * breaks[3]),
            )
        },
        "every breakpoint": {"x": (float(breaks[0]) - 1.0, float(breaks[-1]) + 1.0)},
        "ends on breakpoints": {"x": (float(breaks[1]), float(breaks[-2]))},
        "ends on residual edges": {"x": (float(edges[0]), float(edges[-1]))},
        "ends on the support": {"x": (lo, hi)},
        "partly below": {"x": (-20.0, 30.0)},
        "partly above": {"x": (80.0, 150.0)},
        "wholly below": {"x": (-50.0, -10.0)},
        "wholly above": {"x": (200.0, 300.0)},
        "ends on the point mass": {"x": (10.0, POINT_MASS_X)},
        "open": {},
    }


CALLS = (
    ("SUM", "y"), ("AVG", "y"), ("VARIANCE", "y"), ("STDDEV", "y"),
    ("AVG", "x"), ("VARIANCE", "x"),
)


class TestBatchedScalarParity:
    @pytest.mark.parametrize("call", CALLS, ids=lambda c: f"{c[0]}({c[1]})")
    def test_sweep(self, model_set, call):
        aggregate = AggregateCall(*call)
        for name, ranges in sweep_ranges(model_set).items():
            batched = model_set.answer(aggregate, ranges, batched=True)
            scalar = model_set.answer(aggregate, ranges, batched=False)
            try:
                assert_parity(batched, scalar)
            except AssertionError as exc:
                raise AssertionError(f"range {name!r}: {exc}") from None

    def test_outside_the_support_is_nan_or_zero(self, model_set):
        for name in ("wholly below", "wholly above"):
            ranges = sweep_ranges(model_set)[name]
            for batched in (True, False):
                for func, column in CALLS:
                    answers = model_set.answer(
                        AggregateCall(func, column), ranges, batched=batched
                    )
                    for value in answers.values():
                        if func == "SUM":
                            assert value == 0.0
                        else:
                            assert math.isnan(value)

    def test_point_mass_group_keeps_its_inclusive_count(self, model_set):
        """BETWEEN is inclusive: a range ending on the constant x value
        holds the whole group, so SUM = population x AVG - the closed
        form's own mass there would be one half."""
        ranges = {"x": (10.0, POINT_MASS_X)}
        for batched in (True, False):
            def answer(func, column, batched=batched):
                return model_set.answer(
                    AggregateCall(func, column), ranges, batched=batched
                )[POINT_MASS_GROUP]

            assert answer("COUNT", "y") == model_set.models[
                POINT_MASS_GROUP
            ].population_size
            assert answer("SUM", "y") == pytest.approx(
                answer("COUNT", "y") * answer("AVG", "y"), rel=1e-12
            )

    def test_sum_is_count_times_avg(self, model_set):
        ranges = {"x": (12.0, 57.0)}
        count = model_set.answer(AggregateCall("COUNT", "y"), ranges)
        avg = model_set.answer(AggregateCall("AVG", "y"), ranges)
        total = model_set.answer(AggregateCall("SUM", "y"), ranges)
        for key in total:
            assert total[key] == pytest.approx(count[key] * avg[key], rel=1e-12)

    def test_count_is_the_four_leg_cdf_mass(self, model_set):
        """COUNT reads ``M0`` over the mirrored centres: batched == scalar,
        and both equal the KDE's reflected four-leg CDF difference, to
        1e-12 relative."""
        aggregate = AggregateCall("COUNT", "y")
        for name, ranges in sweep_ranges(model_set).items():
            batched = model_set.answer(aggregate, ranges, batched=True)
            scalar = model_set.answer(aggregate, ranges, batched=False)
            for value, model in model_set.models.items():
                a, b = reference.clip(model, *reference.bounds(model, ranges)[0])
                mass = max(0.0, model.density.integrate(a, b)) if b > a else 0.0
                old = model.population_size * mass
                assert scalar[value] == pytest.approx(old, rel=1e-12), name
                assert batched[value] == pytest.approx(scalar[value], rel=1e-12), name

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.93])
    def test_percentile_moves_within_the_bisection_tolerance(self, p):
        """PERCENTILE bisects ``M0``; against the four-leg CDF it moves by
        no more than the bisection's own tolerance, 1e-9."""
        model_set = trained_model_set("plr")
        aggregate = AggregateCall("PERCENTILE", "x", p)
        # Every range meets the point-mass group's support, or both
        # paths refuse it.
        for ranges in ({"x": (20.0, 60.0)}, {"x": (41.5, 43.0)}, {}):
            batched = model_set.answer(aggregate, ranges, batched=True)
            scalar = model_set.answer(aggregate, ranges, batched=False)
            assert_parity(batched, scalar)
            for value, model in model_set.models.items():
                old = reference.four_leg_percentile(model, p, ranges)
                assert abs(scalar[value] - old) <= 1e-9, (value, ranges)

    def test_ensemble_groups_pick_different_constituents(self):
        """The sweep holds bounds for which the groups of one ensemble set
        select different constituents - all three of them overall."""
        model_set = trained_model_set("ensemble")
        mixed, picked = 0, set()
        for ranges in sweep_ranges(model_set).values():
            names = {
                model.regressor.select(*reference.bounds(model, ranges)[0])
                for model in model_set.models.values()
            }
            mixed += len(names) > 1
            picked |= names
        assert mixed >= 6
        assert picked == {"gboost", "xgboost", "plr"}

    def test_sets_without_pieces_use_the_scalar_loop(self):
        """The set does not stack, and its per-group loop refuses the
        query, naming the regressor class."""
        model_set = make_model_set("tree")
        for model in model_set.models.values():
            _without_pieces(model)
        assert BatchedGroupEvaluator.build(model_set) is None
        for batched in (True, False):
            with pytest.raises(UnsupportedQueryError, match="_Opaque"):
                model_set.answer(
                    AggregateCall("COUNT", "y"), {"x": (20.0, 70.0)},
                    batched=batched,
                )

    def test_split_chunks_give_the_same_bits(self, model_set):
        evaluator = model_set.batched_evaluator()
        for call in CALLS:
            for ranges in sweep_ranges(model_set).values():
                whole = evaluator.answer(AggregateCall(*call), ranges)
                chunked: dict = {}
                for part in evaluator.split(3):
                    chunked.update(part.answer(AggregateCall(*call), ranges))
                assert same_bits(whole, chunked)


# -- the PERCENTILE solve --------------------------------------------------------


class TestPercentileSolve:
    """PERCENTILE by the bracketed secant against the KDE's own CDF
    bisected (``reference.four_leg_percentile``), at the engine's sizes."""

    PS = (0.01, 0.25, 0.5, 0.9, 0.999)

    def test_scalar_model_on_a_ten_thousand_row_sample(self):
        rng = np.random.default_rng(11)
        x = np.r_[rng.normal(30.0, 4.0, 6000), rng.gamma(2.0, 6.0, 4000) + 55.0]
        y = 0.5 * x + rng.normal(0.0, 1.0, x.shape[0])
        config = DBEstConfig(regressor="plr", random_seed=11)
        model = ColumnSetModel.train(x, y, "t", ("x",), "y", 300_000, config)
        for ranges in ({}, {"x": (28.0, 29.0)}, {"x": (20.0, 90.0)}):
            for p in self.PS:
                got = model.answer(AggregateCall("PERCENTILE", "x", p), ranges)
                want = reference.four_leg_percentile(model, p, ranges)
                assert abs(got - want) <= 1e-9, (ranges, p)

    def test_two_hundred_group_set(self):
        rng = np.random.default_rng(5)
        groups = np.repeat(np.arange(200), 40)
        skew = rng.uniform(0.8, 1.2, 200)[groups]
        x = rng.uniform(0.0, 100.0, groups.shape[0]) ** skew
        y = x + rng.normal(0.0, 1.0, groups.shape[0])
        model_set = GroupByModelSet.train(
            sample_x=x, sample_y=y, sample_groups=groups,
            full_groups=groups, full_x=x, full_y=y,
            table_name="t", x_columns=("x",), y_column="y", group_column="g",
            config=DBEstConfig(regressor="plr", min_group_rows=30, random_seed=5),
        )
        for ranges, p in (({}, 0.05), ({}, 0.95), ({"x": (20.0, 45.0)}, 0.5)):
            aggregate = AggregateCall("PERCENTILE", "x", p)
            batched = model_set.answer(aggregate, ranges, batched=True)
            scalar = model_set.answer(aggregate, ranges, batched=False)
            assert_parity(batched, scalar)
            for value, model in model_set.models.items():
                want = reference.four_leg_percentile(model, p, ranges)
                assert abs(batched[value] - want) <= 1e-9, (value, ranges, p)

    def test_a_point_mass_answers_its_point(self):
        """Its CDF is a unit step, inclusive at both range ends: a range
        that starts on the point (which no bracket around the point can
        solve) answers it too, and a range that misses it, or is empty
        like COUNT's, has no answer."""
        model_set = trained_model_set("plr")
        aggregate = AggregateCall("PERCENTILE", "x", 0.3)
        below = model_set.models[POINT_MASS_GROUP].density.support[0]
        for ranges, want in (
            ({}, POINT_MASS_X),
            ({"x": (10.0, POINT_MASS_X)}, POINT_MASS_X),
            ({"x": (POINT_MASS_X, 50.0)}, POINT_MASS_X),
            ({"x": (POINT_MASS_X, POINT_MASS_X)}, None),
            ({"x": (10.0, 0.5 * (below + POINT_MASS_X))}, None),
        ):
            for batched in (True, False):
                got = model_set.answer(aggregate, ranges, batched=batched)
                got = got[POINT_MASS_GROUP]
                assert got == want if want is not None else math.isnan(got)

    def test_a_range_starting_on_the_point_matches_the_oracle(self):
        model_set = trained_model_set("plr")
        model = model_set.models[POINT_MASS_GROUP]
        ranges = {"x": (POINT_MASS_X, 50.0)}
        want = reference.four_leg_percentile(model, 0.3, ranges)
        assert want == POINT_MASS_X
        got = model_set.answer(AggregateCall("PERCENTILE", "x", 0.3), ranges)
        assert got[POINT_MASS_GROUP] == want

    def test_a_group_with_an_empty_range_answers_nan_alone(self):
        """x BETWEEN 10 AND 41 ends below the point-mass group's support
        (COUNT gives it 0): that group answers NaN, and every other group
        answers as in a set trained without it."""
        model_set = trained_model_set("plr")
        without = make_model_set("plr", drop=POINT_MASS_GROUP)
        ranges = {"x": (10.0, 41.0)}
        count = model_set.answer(AggregateCall("COUNT", "x"), ranges)
        assert count[POINT_MASS_GROUP] == 0.0
        aggregate = AggregateCall("PERCENTILE", "x", 0.3)
        batched = model_set.answer(aggregate, ranges, batched=True)
        assert_parity(batched, model_set.answer(aggregate, ranges,
                                                batched=False))
        assert math.isnan(batched[POINT_MASS_GROUP])
        others = without.answer(aggregate, ranges)
        assert set(others) == set(batched) - {POINT_MASS_GROUP}
        for value, model in model_set.models.items():
            want = reference.four_leg_percentile(model, 0.3, ranges)
            if value == POINT_MASS_GROUP:
                assert math.isnan(want)
                continue
            assert abs(batched[value] - others[value]) <= 1e-9, value
            assert abs(batched[value] - want) <= 1e-9, value

    def test_evaluations_per_solve_are_recorded(self):
        model_set = trained_model_set("plr")
        registry = enable_metrics()
        try:
            for p in (0.1, 0.5, 0.9):
                model_set.answer(
                    AggregateCall("PERCENTILE", "x", p), {"x": (20.0, 60.0)}
                )
            snap = registry.snapshot()["histograms"]["repro_percentile_evaluations"]
        finally:
            disable_metrics()
        assert snap["count"] == 3
        assert 3 <= snap["sum"] <= 3 * 16


# -- history independence ------------------------------------------------------


class TestHistoryIndependence:
    QUERY = {"x": (23.0, 67.5)}

    def _answers(self, evaluator) -> list[dict]:
        return [
            evaluator.answer(AggregateCall(*call), self.QUERY) for call in CALLS
        ]

    def test_same_bits_whatever_was_asked_before(self, model_set):
        fresh = self._answers(BatchedGroupEvaluator.build(model_set))

        used = BatchedGroupEvaluator.build(model_set)
        rng = np.random.default_rng(8)
        for lb, width in zip(rng.uniform(-10, 90, 50), rng.uniform(0.5, 60, 50)):
            call = CALLS[int(rng.integers(len(CALLS)))]
            used.answer(AggregateCall(*call), {"x": (float(lb), float(lb + width))})
        assert used.grid_cache_stats()["entries"] == used._GRID_CACHE_MAX

        mapped = BatchedGroupEvaluator.from_mapped(
            *BatchedGroupEvaluator.build(model_set).export_mapped_state()
        )
        warm = BatchedGroupEvaluator.build(model_set)
        self._answers(warm)
        restored = pickle.loads(pickle.dumps(warm))
        assert restored.grid_cache_stats() == {"entries": 0, "hits": 0, "misses": 0}
        assert restored._pieces == {}

        for other in (used, mapped, restored):
            for want, got in zip(fresh, self._answers(other)):
                assert same_bits(want, got)

    def test_memoised_equals_fresh(self, model_set):
        evaluator = BatchedGroupEvaluator.build(model_set)
        first = self._answers(evaluator)
        before = evaluator.grid_cache_stats()
        again = self._answers(evaluator)
        after = evaluator.grid_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + len(CALLS)
        for want, got in zip(first, again):
            assert same_bits(want, got)

    def test_derived_tables_are_not_persisted(self, model_set):
        evaluator = BatchedGroupEvaluator.build(model_set)
        _, before = evaluator.export_mapped_state()
        self._answers(evaluator)
        _, after = evaluator.export_mapped_state()
        assert before.keys() == after.keys()
        assert len(pickle.dumps(evaluator)) == len(
            pickle.dumps(BatchedGroupEvaluator.build(model_set))
        )

    @staticmethod
    def _scalar_answers(model: ColumnSetModel, ranges: dict) -> list[float]:
        return [
            answer(ranges)
            for answer in (
                model.sum_, model.avg, model.variance_y, model.avg_x,
                model.variance_x,
            )
        ]

    def test_scalar_model_same_bits_whatever_was_asked_before(self, model_set):
        model = model_set.models[0]
        fresh = pickle.loads(pickle.dumps(model))
        want = self._scalar_answers(fresh, self.QUERY)

        used = pickle.loads(pickle.dumps(model))
        rng = np.random.default_rng(9)
        for lb, width in zip(rng.uniform(-10, 90, 50), rng.uniform(0.5, 60, 50)):
            self._scalar_answers(used, {"x": (float(lb), float(lb + width))})
        assert self._scalar_answers(used, self.QUERY) == want
        assert self._scalar_answers(fresh, self.QUERY) == want

    SCALAR_CALLS = CALLS + (
        ("COUNT", "y"), ("STDDEV", "x"), ("PERCENTILE", "x", 0.3),
    )

    def _every_answer(self, model: ColumnSetModel) -> list[float]:
        return [
            answer_aggregate(model, AggregateCall(*call), self.QUERY)
            for call in self.SCALAR_CALLS
        ]

    def test_scalar_pickle_does_not_carry_the_tables(self, model_set):
        """``size_bytes`` and every store record hash what the model is,
        not which queries it answered."""
        model = pickle.loads(pickle.dumps(model_set.models[0]))
        assert "_evaluator" not in model.__dict__
        before, size = pickle.dumps(model), model.size_bytes()
        self._every_answer(model)
        rng = np.random.default_rng(10)
        for lb, width in zip(rng.uniform(-10, 90, 50), rng.uniform(0.5, 60, 50)):
            ranges = {"x": (float(lb), float(lb + width))}
            model.sum_(ranges), model.avg(ranges), model.variance_y(ranges)
        assert model._evaluator._pieces
        assert pickle.dumps(model) == before
        assert model.size_bytes() == size
        assert "_evaluator" not in pickle.loads(before).__dict__

    def test_store_size_does_not_depend_on_served_queries(self, model_set, tmp_path):
        key = ModelKey.make("t", ("x",), "y")
        store = ModelStore.write(
            {key: model_set.models[0]}, tmp_path / "a", store_format="mmap"
        )
        size = store.total_size_bytes()
        served = store.get(key)

        def rewritten(name: str) -> int:
            path = tmp_path / name
            return ModelStore.write({key: served}, path, store_format="mmap")

        unserved = rewritten("b").total_size_bytes()
        self._every_answer(served)
        assert store.total_size_bytes() == size
        assert rewritten("c").total_size_bytes() == unserved

    def test_concurrent_first_calls_match_sequential(self, model_set, monkeypatch):
        """Eight threads open a freshly unpickled model at once, each
        with a different first aggregate: one evaluator is built and
        every answer has the sequential bits."""
        blob = pickle.dumps(model_set.models[0])
        want = self._every_answer(pickle.loads(blob))
        builds = []
        build = BatchedGroupEvaluator.build.__func__

        def counted(cls, one_model_set):
            builds.append(1)
            return build(cls, one_model_set)

        monkeypatch.setattr(BatchedGroupEvaluator, "build", classmethod(counted))
        model = pickle.loads(blob)
        calls = [AggregateCall(*call) for call in self.SCALAR_CALLS]
        start = threading.Barrier(8)
        got: dict = {}

        def worker(i: int) -> None:
            start.wait()
            order = list(range(i, len(calls))) + list(range(i))
            got[i] = {
                k: answer_aggregate(model, calls[k], self.QUERY) for k in order
            }

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        for i in range(8):
            answers = [got[i][k] for k in range(len(calls))]
            assert same_bits(dict(enumerate(want)), dict(enumerate(answers)))


# -- centre order ----------------------------------------------------------------


class TestLegacyCentreOrder:
    """A fit stores each KDE's centres ascending; a set pickled before
    that may hold them in sample order.  The kernel sorts such groups
    once, on first use, and answers with the same bits."""

    CALLS = (
        ("COUNT", "y"), ("SUM", "y"), ("AVG", "x"), ("AVG", "y"),
        ("VARIANCE", "y"), ("PERCENTILE", "x", 0.3),
    )
    RANGES = ({"x": (12.0, 57.0)}, {"x": (41.5, 43.0)}, {"x": (10.0, POINT_MASS_X)}, {})

    @staticmethod
    def _shuffled(model_set: GroupByModelSet) -> GroupByModelSet:
        legacy = pickle.loads(pickle.dumps(model_set))
        rng = np.random.default_rng(12)
        for model in legacy.models.values():
            kde = model.density
            order = rng.permutation(kde._centres.size)
            kde._centres, kde._weights = kde._centres[order], kde._weights[order]
        return legacy

    def test_shuffled_centres_answer_the_same(self, tmp_path):
        model_set = trained_model_set("plr")
        legacy = self._shuffled(model_set)
        assert all(
            np.all(np.diff(m.density._centres) >= 0)
            for m in model_set.models.values()
        )
        assert sum(
            np.any(np.diff(m.density._centres) < 0) for m in legacy.models.values()
        ) == len(legacy.models) - 1            # all but the point mass
        key = ModelKey.make("t", ("x",), "y", "g")
        store = ModelStore.write({key: legacy}, tmp_path / "s", store_format="mmap")
        evaluators = (
            BatchedGroupEvaluator.build(model_set),
            BatchedGroupEvaluator.build(legacy),
            store.get(key).batched_evaluator(),
        )
        for call in self.CALLS:
            aggregate = AggregateCall(*call)
            for ranges in self.RANGES:
                want, *others = (e.answer(aggregate, ranges) for e in evaluators)
                for got in others:
                    assert same_bits(want, got), (call, ranges)
                for value, model in model_set.models.items():
                    scalar = answer_aggregate(model, aggregate, ranges)
                    again = answer_aggregate(legacy.models[value], aggregate, ranges)
                    assert scalar == again or (math.isnan(scalar) and math.isnan(again))

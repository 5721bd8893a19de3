"""Reference fits and integrals that the engine is checked against.

The engine never imports this module; tests and benchmarks do.  The
integrals take one :class:`~repro.core.model.ColumnSetModel` and
integrate it with generic quadrature, one point at a time, so they share
no code with the closed form (:mod:`repro.integrate.moments`) or the
batched grids (:mod:`repro.core.batched`) that they check:

* :func:`quad_fraction` / :func:`quad_moments` - adaptive QUADPACK
  (:func:`adaptive_quad`, the method the paper names) of ``D``, ``f·D``
  and ``f²·D`` over a 1-D range;
* :func:`box_fraction` / :func:`box_moments` - the box mass from the
  product-kernel KDE's own ``integrate_box``, and the moments on a
  tensor-Simpson grid over the box;
* :func:`piecewise_simpson` - composite Simpson at 4097 nodes on every
  smooth piece of a 1-D integrand, accurate to ~1e-12;
* :func:`four_leg_percentile` - PERCENTILE by bisecting the KDE's own
  reflected CDF;
* :func:`answer` - a whole aggregate from the functions above;
* :func:`adaptive_quad`, :func:`simpson_grid` and :func:`bisect` - the
  point-wise quadrature and root finding they are built on.

The fits are the row-wise ones the batched trainer
(:mod:`repro.core.batched_train`) replaces:

* :func:`train_model` - one density ``fit`` and one regressor ``fit`` on
  one sample, then :func:`fit_residual_variance` from ``predict``;
* :func:`train_groups` - :func:`train_model` per group, with the
  arguments of :func:`~repro.core.batched_train.train_batched_models`;
* :func:`train_set` - a ``GroupByModelSet`` whose models come from
  :func:`train_groups`, with the raw groups and populations built
  independently of ``GroupByModelSet.train``;
* :func:`selector_labels` - an ensemble's range-selector training data,
  with one ``predict`` per constituent and range.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np
from scipy import integrate as _scipy_integrate

from repro.core.batched_train import GroupPartition
from repro.core.config import DBEstConfig
from repro.core.groupby import GroupByModelSet, RawGroup
from repro.core.model import _EMPTY_DENSITY, ColumnSetModel, Ranges
from repro.errors import (
    InvalidParameterError,
    ModelTrainingError,
    QueryExecutionError,
    UnsupportedQueryError,
)
from repro.integrate import simpson_weights
from repro.integrate.quadrature import _check_interval
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.kde import KernelDensityEstimator, MultivariateKDE
from repro.ml.linear import LinearRegressor, PiecewiseLinearRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.xgb import XGBRegressor
from repro.sql.ast import AggregateCall


# -- generic quadrature and root finding --------------------------------------


def adaptive_quad(
    f: Callable[[float], float],
    lb: float,
    ub: float,
    epsabs: float = 1e-8,
    epsrel: float = 1e-6,
) -> float:
    """Adaptive Gauss–Kronrod integration (QUADPACK via scipy).

    This is the integration method named in the paper.  The integrand is
    called point-wise.
    """
    _check_interval(lb, ub)
    if ub == lb:
        return 0.0
    value, _abserr = _scipy_integrate.quad(
        f, lb, ub, epsabs=epsabs, epsrel=epsrel, limit=200
    )
    return float(value)


@lru_cache(maxsize=4096)
def _simpson_grid_cached(lb: float, ub: float, n_points: int) -> tuple:
    nodes = np.linspace(lb, ub, n_points)
    weights = simpson_weights(n_points) * ((ub - lb) / (n_points - 1) / 3.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def simpson_grid(lb: float, ub: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``(nodes, weights)`` Simpson grid over ``[lb, ub]``.

    ``weights`` already include the ``h / 3`` spacing factor, so an
    integral is just ``weights @ f(nodes)``.  The oracles ask for the
    same (range, resolution) pairs over and over, so grids are memoised.
    Both arrays are read-only views of the cache; copy before mutating.
    """
    _check_interval(lb, ub)  # simpson_weights checks n_points
    return _simpson_grid_cached(float(lb), float(ub), int(n_points))


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> float:
    """Find a root of ``f`` in ``[lo, hi]`` by bisection, as in the paper.

    Requires ``f(lo)`` and ``f(hi)`` to bracket zero (opposite signs or one
    of them exactly zero).  Converges linearly; ``max_iter`` of 200 is far
    beyond what a ``tol`` of 1e-8 over any realistic domain needs.  The
    engine's :func:`repro.integrate.roots.bracketed_roots` keeps this
    contract with secant steps; this loop shares no code with it.
    """
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise InvalidParameterError(f"bisection interval reversed: [{lo}, {hi}]")
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise QueryExecutionError(
            f"bisection interval [{lo}, {hi}] does not bracket a root "
            f"(f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g})"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or (hi - lo) < tol:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -- model helpers ---------------------------------------------------------------


def bounds(model: ColumnSetModel, ranges: Ranges) -> list[tuple[float, float]]:
    """Per-x-column (lb, ub), defaulting unconstrained dims to the domain."""
    out = []
    for column, (dlo, dhi) in zip(model.x_columns, model.x_domain):
        lb, ub = ranges.get(column, (dlo, dhi))
        if ub < lb:
            raise InvalidParameterError(f"range on {column!r} reversed: [{lb}, {ub}]")
        out.append((float(lb), float(ub)))
    return out


def clip(model: ColumnSetModel, lb: float, ub: float) -> tuple[float, float]:
    """A 1-D range clipped to the density's support."""
    lo, hi = model.density.support
    return max(lb, lo), min(ub, hi)


def regressor_for(model: ColumnSetModel, lb: float, ub: float):
    """The regressor answering over ``[lb, ub]``: for an ensemble, the
    constituent its range selector picks."""
    regressor = model.regressor
    if regressor is None:
        raise UnsupportedQueryError(f"model on {model.x_columns} has no regressor")
    if isinstance(regressor, EnsembleRegressor):
        regressor = regressor.models_[regressor.select(lb, ub)]
    return regressor


# -- 1-D: adaptive quadrature --------------------------------------------------


def quad_fraction(model: ColumnSetModel, lb: float, ub: float) -> float:
    """``∫ D(x) dx`` over the clipped range."""
    a, b = clip(model, lb, ub)
    if b <= a:
        return 0.0
    return max(0.0, adaptive_quad(lambda t: float(model.density.pdf(t)[0]), a, b))


def quad_moments(
    model: ColumnSetModel, lb: float, ub: float, use_regressor: bool
) -> tuple[float, float, float]:
    """``(∫D, ∫fD, ∫f²D)`` over the clipped range, f = R(x) or identity."""
    a, b = clip(model, lb, ub)
    if b <= a:
        return 0.0, 0.0, 0.0
    pdf = lambda t: float(model.density.pdf(t)[0])  # noqa: E731
    if use_regressor:
        regressor = regressor_for(model, lb, ub)
        f = lambda t: float(regressor.predict(np.asarray([t]))[0])  # noqa: E731
    else:
        f = lambda t: t  # noqa: E731
    den = adaptive_quad(pdf, a, b)
    num1 = adaptive_quad(lambda t: f(t) * pdf(t), a, b)
    num2 = adaptive_quad(lambda t: f(t) ** 2 * pdf(t), a, b)
    return den, num1, num2


def _expected_residual_variance(
    model: ColumnSetModel, box: list[tuple[float, float]], den: float
) -> float:
    """E[Var(y|x)] over the range on the model's Simpson grid."""
    if model.n_dims != 1 or model._residual_edges is None:
        return model._residual_var_global
    a, b = clip(model, *box[0])
    if b <= a or den <= _EMPTY_DENSITY:
        return model._residual_var_global
    nodes, w = simpson_grid(a, b, model.integration_points)
    return float(w @ (model.density.pdf(nodes) * model.residual_variance(nodes))) / den


# -- multivariate: tensor Simpson ------------------------------------------------


def box_grid(
    model: ColumnSetModel, box: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray] | None:
    """(points, weights) tensor-Simpson grid over a box, or None if empty."""
    clipped = []
    for (lb, ub), (dlo, dhi) in zip(box, model.x_domain):
        a, b = max(lb, dlo), min(ub, dhi)
        if b <= a:
            return None
        clipped.append((a, b))
    d = len(clipped)
    # Keep total grid size manageable: m^d <= ~70k points.
    m = min(model.integration_points, max(9, int(round(70_000 ** (1.0 / d)))))
    if m % 2 == 0:
        m -= 1
    axes, weights = [], []
    for a, b in clipped:
        nodes, w = simpson_grid(a, b, m)
        axes.append(nodes)
        weights.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    w = weights[0]
    for wj in weights[1:]:
        w = np.multiply.outer(w, wj)
    return points, w.ravel()


def box_fraction(model: ColumnSetModel, box: list[tuple[float, float]]) -> float:
    """``∫ D`` over the box clipped to the domain, by ``integrate_box``."""
    lows = np.asarray([max(lb, dlo) for (lb, _), (dlo, _) in zip(box, model.x_domain)])
    highs = np.asarray([min(ub, dhi) for (_, ub), (_, dhi) in zip(box, model.x_domain)])
    if np.any(highs <= lows):
        return 0.0
    return max(0.0, model.density.integrate_box(lows, highs))


def box_moments(
    model: ColumnSetModel, box: list[tuple[float, float]]
) -> tuple[float, float, float]:
    """``(∫D, ∫RD, ∫R²D)`` over the box on its tensor-Simpson grid."""
    grid = box_grid(model, box)
    if grid is None:
        return 0.0, 0.0, 0.0
    points, w = grid
    d = model.density.pdf(points)
    f = model.predict_y(points)
    return float(w @ d), float(w @ (d * f)), float(w @ (d * f * f))


# -- 1-D: piecewise Simpson and the four-leg CDF ---------------------------------


def breakpoints(regressor) -> tuple[np.ndarray, bool]:
    """``(breaks, constant)``: a spline's knots (affine between them) or a
    forest's distinct split thresholds (constant between them)."""
    state = regressor.export_batch_state()
    if state[0] == "forest":
        return np.unique(state[5][state[4] >= 0]), True
    return (state[1] if state[0] == "plr" else np.empty(0)), False


def piecewise_simpson(
    model: ColumnSetModel, lb: float, ub: float, nodes: int = 4097
) -> dict[str, float]:
    """Composite Simpson with ``nodes`` nodes on every smooth piece.

    The range is cut at the regressor's breakpoints and the
    residual-variance edges first, so no panel straddles a kink or a
    jump (across a jump a 4097-node rule is only O(1/4096) accurate).
    A forest is constant on each piece ``(t[k-1], t[k]]``, so it takes
    the value at the piece midpoint: the left-end node sits on
    ``t[k-1]``, where ``predict`` returns the left neighbour's value.
    Returns ``den`` (∫D), ``x1`` / ``x2`` (∫xD, ∫x²D), ``r1`` / ``r2``
    (∫RD, ∫R²D) and ``res`` (∫σ²D).
    """
    a, b = clip(model, lb, ub)
    regressor = regressor_for(model, lb, ub)
    knots, constant = breakpoints(regressor)
    breaks = np.concatenate([knots, model._residual_edges])
    cuts = np.concatenate(([a], np.sort(breaks[(breaks > a) & (breaks < b)]), [b]))
    if constant:
        levels = regressor.predict(0.5 * (cuts[:-1] + cuts[1:]))
    total = dict.fromkeys(("den", "x1", "x2", "r1", "r2", "res"), 0.0)
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        x, weights = simpson_grid(float(lo), float(hi), nodes)
        wd = weights * model.density.pdf(x)
        r = np.full_like(x, levels[k]) if constant else regressor.predict(x)
        sigma2 = model.residual_variance(np.asarray([0.5 * (lo + hi)]))[0]
        total["den"] += wd.sum()
        total["x1"] += wd @ x
        total["x2"] += wd @ (x * x)
        total["r1"] += wd @ r
        total["r2"] += wd @ (r * r)
        total["res"] += sigma2 * wd.sum()
    return total


def four_leg_percentile(model: ColumnSetModel, p: float, ranges: Ranges) -> float:
    """PERCENTILE by bisecting the KDE's own reflected four-leg CDF."""
    density = model.density
    lo, hi = density.support
    if ranges:
        lo, hi = clip(model, *bounds(model, ranges)[0])
    if hi <= lo:
        return math.nan
    point = getattr(density, "_point_mass", None)
    if point is not None:
        # A unit step reaches every p at the point, when the range holds
        # it (both ends inclusive, COUNT's rule).
        return point if lo <= point <= hi else math.nan
    total = density.integrate(lo, hi)
    if total <= _EMPTY_DENSITY:
        return math.nan
    base = density.cdf(np.asarray([lo]))[0]
    return bisect(
        lambda t: (density.cdf(np.asarray([t]))[0] - base) / total - p,
        lo, hi, tol=1e-9,
    )


# -- training: the row-wise fit and the per-group loop --------------------------


def make_regressor(config: DBEstConfig):
    """Instantiate the configured regression model."""
    seed = config.random_seed
    if config.regressor == "ensemble":
        return EnsembleRegressor(random_state=seed)
    if config.regressor == "gboost":
        return GradientBoostingRegressor(random_state=seed)
    if config.regressor == "xgboost":
        return XGBRegressor(random_state=seed)
    if config.regressor == "plr":
        return PiecewiseLinearRegressor()
    if config.regressor == "linear":
        return LinearRegressor()
    if config.regressor == "tree":
        return DecisionTreeRegressor()
    raise InvalidParameterError(f"unknown regressor {config.regressor!r}")


def fit_residual_variance(
    model: ColumnSetModel, x_matrix: np.ndarray, y: np.ndarray
) -> None:
    """Estimate Var(y | x) from training residuals.

    Equation 8 of the paper (Var(y) ≈ E[R²] − E[R]²) only measures the
    variance *of the regression function* and systematically misses
    the conditional noise Var(y|x).  By the law of total variance,
    Var(y) = E[Var(y|x)] + Var(E[y|x]); we estimate the first term as
    a piecewise-constant function of x over quantile bins so
    ``variance_y`` can add its density-weighted expectation.
    """
    features = x_matrix[:, 0] if x_matrix.shape[1] == 1 else x_matrix
    residuals = y - model.predict_y(features)
    model._residual_var_global = float(np.mean(residuals**2))
    if x_matrix.shape[1] != 1:
        return
    x = x_matrix[:, 0]
    n_bins = max(4, min(64, x.shape[0] // 50))
    edges = np.unique(
        np.quantile(x, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    )
    codes = np.searchsorted(edges, x, side="left")
    counts = np.bincount(codes, minlength=edges.shape[0] + 1)
    sums = np.bincount(
        codes, weights=residuals**2, minlength=edges.shape[0] + 1
    )
    with np.errstate(invalid="ignore"):
        per_bin = np.where(counts > 0, sums / np.maximum(counts, 1),
                           model._residual_var_global)
    model._residual_edges = edges
    model._residual_var = per_bin


def train_model(
    x: np.ndarray,
    y: np.ndarray | None,
    table_name: str,
    x_columns: tuple[str, ...] | list[str],
    y_column: str | None,
    population_size: int,
    config: DBEstConfig | None = None,
) -> "ColumnSetModel":
    """Fit density and regression models from sample arrays, row-wise.

    The per-group fit the GROUP BY trainer replaces: one
    ``KernelDensityEstimator`` / ``MultivariateKDE`` ``fit`` and one
    regressor ``fit`` on this sample alone.

    ``x`` is (n,) for one predicate column or (n, d) for multivariate
    predicates; ``y`` may be None for density-only models (queries
    that aggregate the predicate column itself).
    """
    config = config or DBEstConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x_matrix = x[:, None]
    else:
        x_matrix = x
    n, d = x_matrix.shape
    if n == 0:
        raise ModelTrainingError("cannot train a model on an empty sample")
    if len(tuple(x_columns)) != d:
        raise ModelTrainingError(
            f"{len(tuple(x_columns))} x-column names for {d}-dim features"
        )

    if d == 1:
        density = KernelDensityEstimator(
            bandwidth=config.kde_bandwidth,
            binned=config.kde_binned,
            n_bins=config.kde_bins,
            bin_threshold=config.kde_bin_threshold,
        ).fit(x_matrix[:, 0])
    else:
        if not isinstance(config.kde_bandwidth, str):
            raise InvalidParameterError(
                f"multivariate predicates need a bandwidth rule name, "
                f"got the fixed bandwidth {config.kde_bandwidth!r}; "
                f"the product-kernel KDE has one bandwidth per dimension"
            )
        density = MultivariateKDE(
            bandwidth=config.kde_bandwidth,
            binned=config.kde_binned,
            bins_per_dim=config.kde_bins_per_dim,
            bin_threshold=config.kde_bin_threshold,
        ).fit(x_matrix)

    regressor = None
    if y is not None and y_column is not None:
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.shape[0] != n:
            raise ModelTrainingError(
                f"x has {n} rows but y has {y.shape[0]}"
            )
        regressor = make_regressor(config)
        features = x_matrix[:, 0] if d == 1 else x_matrix
        regressor.fit(features, y)

    domain = [
        (float(x_matrix[:, j].min()), float(x_matrix[:, j].max()))
        for j in range(d)
    ]
    model = ColumnSetModel(
        table_name=table_name,
        x_columns=tuple(x_columns),
        y_column=y_column,
        population_size=population_size,
        density=density,
        regressor=regressor,
        x_domain=domain,
        n_sample=n,
        integration_points=config.integration_points,
    )
    if regressor is not None:
        fit_residual_variance(model, x_matrix, y)
    return model


def train_groups(
    sample_x: np.ndarray,
    sample_y: np.ndarray | None,
    sample_part: GroupPartition,
    modelled_mask: np.ndarray,
    table_name: str,
    x_columns: tuple[str, ...],
    y_column: str | None,
    population: dict,
    config: DBEstConfig,
) -> dict:
    """:func:`~repro.core.batched_train.train_batched_models` as a loop:
    :func:`train_model` on each modelled group's rows."""
    values = sample_part.values.tolist()
    models: dict = {}
    for g in np.flatnonzero(modelled_mask).tolist():
        rows = sample_part.rows(g)
        gx = sample_x[rows, :]
        models[values[g]] = train_model(
            gx[:, 0] if gx.shape[1] == 1 else gx,
            None if sample_y is None else np.asarray(sample_y)[rows],
            table_name=table_name,
            x_columns=x_columns,
            y_column=y_column,
            population_size=population[values[g]],
            config=config,
        )
    return models


def train_set(
    sample_x: np.ndarray,
    sample_y: np.ndarray | None,
    sample_groups: np.ndarray,
    full_groups: np.ndarray,
    full_x: np.ndarray,
    full_y: np.ndarray | None,
    table_name: str,
    x_columns: tuple[str, ...] | list[str],
    y_column: str | None,
    group_column: str,
    config: DBEstConfig | None = None,
    population_scale: float = 1.0,
) -> GroupByModelSet:
    """A ``GroupByModelSet`` as ``GroupByModelSet.train`` builds it, with
    every model fitted by :func:`train_groups` (no streaming state)."""
    config = config or DBEstConfig()
    x = np.asarray(sample_x, dtype=np.float64)
    x = x[:, None] if x.ndim == 1 else x
    full_part = GroupPartition.from_groups(full_groups)
    sample_part = GroupPartition.from_groups(
        sample_groups, values=full_part.values
    )
    modelled = sample_part.counts >= config.min_group_rows
    values = full_part.values.tolist()
    population = {
        value: int(round(count * population_scale))
        for value, count in zip(values, full_part.counts.tolist())
    }
    models = train_groups(
        x, sample_y, sample_part, modelled, table_name, tuple(x_columns),
        y_column, population, config,
    )
    fx = np.asarray(full_x, dtype=np.float64)
    raw_groups = {}
    for g in np.flatnonzero(~modelled).tolist():
        rows = full_part.rows(g)
        raw_groups[values[g]] = RawGroup(
            fx[rows], None if full_y is None else np.asarray(full_y)[rows],
            population_scale=population_scale,
        )
    return GroupByModelSet(
        table_name, x_columns, y_column, group_column, models, raw_groups,
        config,
    )


# -- whole answers -----------------------------------------------------------------


def answer(model: ColumnSetModel, aggregate: AggregateCall, ranges: Ranges) -> float:
    """One aggregate from the oracles: adaptive quadrature over a 1-D
    range, tensor Simpson over a multivariate box, the four-leg CDF for
    PERCENTILE."""
    func = aggregate.func
    if func == "PERCENTILE":
        return four_leg_percentile(model, aggregate.parameter, ranges)
    box = bounds(model, ranges)
    one_d = model.n_dims == 1
    if func in ("COUNT", "SUM"):
        fraction = quad_fraction(model, *box[0]) if one_d else box_fraction(model, box)
        count = model.population_size * fraction
        if func == "COUNT":
            return count
    on_y = aggregate.column == model.y_column
    if one_d:
        den, num1, num2 = quad_moments(model, *box[0], use_regressor=on_y)
    else:
        den, num1, num2 = box_moments(model, box)
    if den <= _EMPTY_DENSITY:
        return 0.0 if func == "SUM" else math.nan
    mean = num1 / den
    if func == "AVG":
        return mean
    if func == "SUM":
        return count * mean if count > 0.0 else 0.0
    variance = num2 / den - mean**2
    if on_y:
        variance += _expected_residual_variance(model, box, den)
    variance = max(0.0, variance)
    return variance if func == "VARIANCE" else math.sqrt(variance)


# -- the ensemble's range-selector labels ------------------------------------


def selector_labels(
    ensemble: EnsembleRegressor, x: np.ndarray, y: np.ndarray
) -> tuple[list[list[float]], list[str], dict[str, float]]:
    """``EnsembleRegressor._label_ranges`` for a fitted 1-D ensemble as
    the loop that predicts every constituent on each range's rows."""
    lo, hi = float(x.min()), float(x.max())
    rng = np.random.default_rng(ensemble.random_state)

    features: list[list[float]] = []
    labels: list[str] = []
    global_scores = {name: 0.0 for name in ensemble.models_}
    for _ in range(ensemble.n_eval_queries):
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        in_range = (x >= a) & (x <= b)
        if int(in_range.sum()) < ensemble.min_eval_points:
            continue
        truth = float(y[in_range].mean())
        xs = x[in_range]
        best_name, best_err = None, np.inf
        for name, model in ensemble.models_.items():
            estimate = float(np.mean(model.predict(xs)))
            err = abs(estimate - truth)
            global_scores[name] += err
            if err < best_err:
                best_err, best_name = err, name
        features.append([a, b])
        labels.append(best_name)
    return features, labels, global_scores

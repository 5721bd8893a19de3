"""The column-set model: one density estimator + one regression model.

This is DBEst's unit of state.  For a column pair ``(x, y)`` of table
``T`` with ``N`` rows, the model holds a KDE ``D(x)`` fitted on a small
uniform sample and a regression model ``R(x) ~ y``, and answers every
supported aggregate through the integral formulas of paper §2.3.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.core.config import DBEstConfig
from repro.errors import (
    InvalidParameterError,
    ModelTrainingError,
    UnsupportedQueryError,
)
from repro.integrate import (
    adaptive_quad,
    affine_piece_integrals,
    bisect_many,
    cumulative_moments,
    simpson_grid,
)
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.kde import KernelDensityEstimator, MultivariateKDE
from repro.ml.linear import LinearRegressor, PiecewiseLinearRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.xgb import XGBRegressor

_EMPTY_DENSITY = 1e-12


def _make_regressor(config: DBEstConfig):
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


class ColumnSetModel:
    """Density estimator + regression model over one column set.

    Build with :meth:`train`; answer aggregates with the ``count`` /
    ``avg`` / ``sum_`` / ``variance_*`` / ``percentile`` methods, or let
    :func:`repro.core.aggregates.answer_aggregate` dispatch from a parsed
    aggregate call.
    """

    def __init__(
        self,
        table_name: str,
        x_columns: tuple[str, ...],
        y_column: str | None,
        population_size: int,
        density,
        regressor,
        x_domain: list[tuple[float, float]],
        n_sample: int,
        integration_points: int = 257,
        integration_method: str = "simpson",
    ) -> None:
        self.table_name = table_name
        self.x_columns = tuple(x_columns)
        self.y_column = y_column
        self.population_size = int(population_size)
        self.density = density
        self.regressor = regressor
        self.x_domain = list(x_domain)
        self.n_sample = int(n_sample)
        self.integration_points = integration_points
        self.integration_method = integration_method
        # Residual-variance function for the law-of-total-variance
        # correction (see variance_y): piecewise-constant sigma^2(x) over
        # quantile bins of the 1-D training feature, plus a global scalar
        # fallback for multivariate models.
        self._residual_edges: np.ndarray | None = None
        self._residual_var: np.ndarray | None = None
        self._residual_var_global: float = 0.0

    # -- training -----------------------------------------------------------

    @classmethod
    def train(
        cls,
        x: np.ndarray,
        y: np.ndarray | None,
        table_name: str,
        x_columns: tuple[str, ...] | list[str],
        y_column: str | None,
        population_size: int,
        config: DBEstConfig | None = None,
    ) -> "ColumnSetModel":
        """Fit density and regression models from sample arrays.

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
            regressor = _make_regressor(config)
            features = x_matrix[:, 0] if d == 1 else x_matrix
            regressor.fit(features, y)

        domain = [
            (float(x_matrix[:, j].min()), float(x_matrix[:, j].max()))
            for j in range(d)
        ]
        model = cls(
            table_name=table_name,
            x_columns=tuple(x_columns),
            y_column=y_column,
            population_size=population_size,
            density=density,
            regressor=regressor,
            x_domain=domain,
            n_sample=n,
            integration_points=config.integration_points,
            integration_method=config.integration_method,
        )
        if regressor is not None:
            model._fit_residual_variance(x_matrix, y)
        return model

    @classmethod
    def from_fitted_parts(
        cls,
        *,
        table_name: str,
        x_columns: tuple[str, ...],
        y_column: str | None,
        population_size: int,
        density,
        regressor,
        x_domain: list[tuple[float, float]],
        n_sample: int,
        config: DBEstConfig,
        residual_edges: np.ndarray | None = None,
        residual_var: np.ndarray | None = None,
        residual_var_global: float = 0.0,
    ) -> "ColumnSetModel":
        """Assemble a model from pre-fitted components.

        The batched trainer (:mod:`repro.core.batched_train`) fits every
        group's density, regressor and residual-variance state in shared
        vectorised passes and builds the per-group model objects through
        this constructor; the result matches :meth:`train` on the same
        sample.  ``residual_*`` may be omitted for density-only models.
        """
        model = cls(
            table_name=table_name,
            x_columns=tuple(x_columns),
            y_column=y_column,
            population_size=population_size,
            density=density,
            regressor=regressor,
            x_domain=list(x_domain),
            n_sample=n_sample,
            integration_points=config.integration_points,
            integration_method=config.integration_method,
        )
        model._residual_edges = residual_edges
        model._residual_var = residual_var
        model._residual_var_global = float(residual_var_global)
        return model

    def _fit_residual_variance(self, x_matrix: np.ndarray, y: np.ndarray) -> None:
        """Estimate Var(y | x) from training residuals.

        Equation 8 of the paper (Var(y) ≈ E[R²] − E[R]²) only measures the
        variance *of the regression function* and systematically misses
        the conditional noise Var(y|x).  By the law of total variance,
        Var(y) = E[Var(y|x)] + Var(E[y|x]); we estimate the first term as
        a piecewise-constant function of x over quantile bins so
        ``variance_y`` can add its density-weighted expectation.
        """
        features = x_matrix[:, 0] if x_matrix.shape[1] == 1 else x_matrix
        residuals = y - self._predict(features, None, None)
        self._residual_var_global = float(np.mean(residuals**2))
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
                               self._residual_var_global)
        self._residual_edges = edges
        self._residual_var = per_bin

    def residual_variance(self, x: np.ndarray) -> np.ndarray:
        """σ²(x): estimated conditional variance of y at the given points."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self._residual_edges is None or self._residual_var is None:
            return np.full(x.shape[0], self._residual_var_global)
        codes = np.searchsorted(self._residual_edges, x, side="left")
        return self._residual_var[codes]

    # -- helpers -----------------------------------------------------------

    @property
    def n_dims(self) -> int:
        return len(self.x_columns)

    def _predict(
        self, grid: np.ndarray, lb: float | None, ub: float | None
    ) -> np.ndarray:
        if self.regressor is None:
            raise UnsupportedQueryError(
                f"model on {self.x_columns} has no regression model; "
                "regression-based aggregates need a y column"
            )
        if isinstance(self.regressor, EnsembleRegressor):
            return self.regressor.predict(grid, lb=lb, ub=ub)
        return self.regressor.predict(grid)

    def predict_y(self, x: np.ndarray) -> np.ndarray:
        """Point prediction of y given x (imputation / what-if analytics)."""
        x = np.asarray(x, dtype=np.float64)
        return self._predict(x, None, None)

    def _clip_1d(self, lb: float, ub: float) -> tuple[float, float]:
        lo, hi = self.density.support
        return max(lb, lo), min(ub, hi)

    def _normalise_ranges(
        self, ranges: dict[str, tuple[float, float]]
    ) -> list[tuple[float, float]]:
        """Per-x-column (lb, ub), defaulting unconstrained dims to the domain."""
        out = []
        for column, (dlo, dhi) in zip(self.x_columns, self.x_domain):
            lb, ub = ranges.get(column, (dlo, dhi))
            if ub < lb:
                raise InvalidParameterError(
                    f"range on {column!r} reversed: [{lb}, {ub}]"
                )
            out.append((float(lb), float(ub)))
        return out

    # -- 1-D integral machinery ----------------------------------------------

    def _fraction_1d(
        self, lb: float, ub: float, mass: float | None = None
    ) -> float:
        """``∫ D(x) dx`` over the (clipped) query range: ``M0(ub) - M0(lb)``.

        ``mass`` is that integral when the caller already holds it (the
        ``∫D`` of :meth:`_closed_form_moments_1d`); a constant
        column keeps its inclusive point-mass rule either way.
        """
        lb, ub = self._clip_1d(lb, ub)
        if ub <= lb:
            return 0.0
        if self.integration_method == "quad":
            return max(
                0.0, adaptive_quad(lambda t: float(self.density.pdf(t)[0]), lb, ub)
            )
        if getattr(self.density, "_point_mass", None) is not None:
            return self.density.integrate(lb, ub)
        if mass is None:
            base, top = self._mass_below(np.asarray([lb, ub]))
            mass = top - base
        return max(0.0, mass)

    # -- closed form (repro.integrate.moments) ------------------------------

    def __getstate__(self) -> dict:
        # The piece tables are derived state: a pickle (and so
        # size_bytes and every store record) does not depend on which
        # queries the model has answered.
        state = self.__dict__.copy()
        state.pop("_pieces", None)
        return state

    def _table(self, key, build):
        """Query-independent closed-form state, derived on first use.

        Held in ``self._pieces`` (absent after unpickling, never
        persisted); every entry is what any later ``build()`` would
        return, so answers do not depend on query history.
        """
        pieces = self.__dict__.setdefault("_pieces", {})
        if key not in pieces:
            pieces[key] = build()
        return pieces[key]

    def _unit_mixture(self) -> dict:
        """The KDE in its unit-bandwidth coordinate ``u = (x - x0) / h``,
        laid out and sorted as in the batched evaluator."""

        def build() -> dict:
            mix = self.density.export_mixture()
            lo, hi = mix.support
            centres, weights = mix.centres, mix.weights
            if mix.reflect:
                centres = np.concatenate(
                    [2.0 * lo - centres[::-1], centres, 2.0 * hi - centres[::-1]]
                )
                weights = np.concatenate([weights[::-1], weights, weights[::-1]])
            x0 = 0.5 * (lo + hi)
            inv_h = 1.0 / mix.h
            g = centres * inv_h - x0 * inv_h
            if (g[1:] < g[:-1]).any():
                order = np.argsort(g, kind="stable")
                g, weights = g[order], weights[order]
            return {
                "x0": x0, "inv_h": inv_h, "w": weights, "g": g,
                "offsets": np.asarray([0, weights.shape[0]]),
            }

        return self._table("unit", build)

    def _cumulative(self, u: np.ndarray, degree: int = 2) -> np.ndarray:
        unit = self._unit_mixture()
        return cumulative_moments(
            unit["g"], unit["w"], unit["offsets"],
            np.zeros(u.shape[0], dtype=np.intp), u, degree,
        )

    def _mass_below(self, x: np.ndarray) -> np.ndarray:
        """``M0`` at points ``x``, whose differences are the KDE's mass."""
        point = getattr(self.density, "_point_mass", None)
        if point is not None:
            return (x >= point).astype(np.float64)
        unit = self._unit_mixture()
        return self._cumulative((x - unit["x0"]) * unit["inv_h"], degree=0)[:, 0]

    def _piece_table(self, breaks: np.ndarray, **coefficients) -> dict:
        """Breakpoints (unit coordinates) plus per-piece coefficients.

        ``moments`` holds the cumulative mixture moments at each
        breakpoint: NaN until the first range that covers it, then
        written once by :meth:`_range_pieces`.
        """
        unit = self._unit_mixture()
        return {
            "cuts": (breaks - unit["x0"]) * unit["inv_h"],
            "moments": np.full((breaks.shape[0], 3), np.nan),
            **coefficients,
        }

    def _regressor_pieces(self, regressor) -> dict | None:
        """Piece table on which ``R(u) = alpha·u + beta``, or None.

        ``linear`` / ``plr`` are affine between knots; ``tree`` /
        ``gboost`` / ``xgboost`` are constant between their sorted
        distinct split thresholds, the piece ``(t[k-1], t[k]]`` taking
        ``predict(t[k])`` (``x <= t`` goes left) and the last piece
        ``predict(+inf)``.  Regressors that export no such state get
        None and stay on the grid.
        """
        export = getattr(regressor, "export_batch_state", None)
        state = export() if export is not None else None
        kind = state[0] if state is not None else None
        x0 = self._unit_mixture()["x0"]
        h = self.density.h
        if kind == "linear":
            coef = state[1]
            breaks, slope = np.empty(0), coef[1:2]
            value = coef[:1] + coef[1:2] * x0
        elif kind == "plr":
            breaks, coef = state[1], state[2]
            hinge = coef[2:]
            slope = coef[1] + np.concatenate(([0.0], np.cumsum(hinge)))
            value = (coef[0] + coef[1] * x0) + np.concatenate(
                ([0.0], np.cumsum(hinge * (x0 - breaks)))
            )
        elif kind == "forest":
            breaks = np.unique(state[5][state[4] >= 0])
            value = regressor.predict(np.append(breaks, np.inf))
            slope = np.zeros_like(value)
        else:
            return None
        return self._piece_table(breaks, alpha=h * slope, beta=value)

    def _moment_table(
        self, use_regressor: bool, lb: float | None, ub: float | None
    ) -> dict | None:
        """The piece table the 1-D moment integrals use, or None (grid).

        The rule of :mod:`repro.integrate.moments`: a Gaussian KDE under
        ``integration_method="simpson"``, and either the identity
        integrand or a regressor with pieces (:meth:`_regressor_pieces`);
        an ensemble uses the constituent ``select(lb, ub)`` picks.
        """
        if (
            self.n_dims != 1
            or self.integration_method != "simpson"
            or not isinstance(self.density, KernelDensityEstimator)
        ):
            return None
        if not use_regressor:
            return self._table("identity", lambda: self._piece_table(
                np.empty(0), alpha=np.full(1, self.density.h),
                beta=np.full(1, self._unit_mixture()["x0"]),
            ))
        regressor, name = self.regressor, None
        if isinstance(regressor, EnsembleRegressor):
            name = regressor.select(lb, ub)
            regressor = regressor.models_[name]
        return self._table(
            ("regressor", name), lambda: self._regressor_pieces(regressor)
        )

    def _range_ends(self, a: float, b: float) -> tuple[float, float, np.ndarray]:
        """``(ta, tb, ends)``: a clipped range in unit coordinates and the
        cumulative moments at its two ends."""
        unit = self._unit_mixture()
        ta, tb = (a - unit["x0"]) * unit["inv_h"], (b - unit["x0"]) * unit["inv_h"]
        return ta, tb, self._cumulative(np.asarray([ta, tb]))

    def _range_pieces(
        self, table: dict, ta: float, tb: float, ends: np.ndarray
    ) -> tuple[slice, np.ndarray]:
        """Moment differences across the table's pieces inside ``[ta, tb]``.

        Returns ``(pieces, d)``: ``d[k]`` belongs to piece
        ``pieces.start + k``.  Breakpoint cells the range covers are
        filled on first use and read ever after.
        """
        cuts = table["cuts"]
        first = int(np.searchsorted(cuts, ta, side="right"))
        last = int(np.searchsorted(cuts, tb, side="left"))
        cells = table["moments"][first:last]
        missing = np.isnan(cells[:, 0])
        if missing.any():
            cells[missing] = self._cumulative(cuts[first:last][missing])
        d = np.diff(np.concatenate([ends[:1], cells, ends[1:]]), axis=0)
        return slice(first, last + 1), d

    def _closed_form_moments_1d(
        self, lb: float, ub: float, table: dict
    ) -> tuple[float, float, float]:
        a, b = self._clip_1d(lb, ub)
        if b <= a:
            return 0.0, 0.0, 0.0
        pieces, d = self._range_pieces(table, *self._range_ends(a, b))
        den, num1, num2 = affine_piece_integrals(
            d, table["alpha"][pieces], table["beta"][pieces]
        )
        return float(den), float(num1), float(num2)

    def _grid_moments_1d(
        self, lb: float, ub: float, use_regressor: bool
    ) -> tuple[float, float, float]:
        """(∫D, ∫fD, ∫f²D) over the range, f = R(x) or identity."""
        table = self._moment_table(use_regressor, lb, ub)
        if table is not None:
            return self._closed_form_moments_1d(lb, ub, table)
        a, b = self._clip_1d(lb, ub)
        if b <= a:
            return 0.0, 0.0, 0.0
        m = self.integration_points
        if self.integration_method == "quad":
            pdf = lambda t: float(self.density.pdf(t)[0])  # noqa: E731
            if use_regressor:
                f = lambda t: float(  # noqa: E731
                    self._predict(np.asarray([t]), lb, ub)[0]
                )
            else:
                f = lambda t: t  # noqa: E731
            den = adaptive_quad(pdf, a, b)
            num1 = adaptive_quad(lambda t: f(t) * pdf(t), a, b)
            num2 = adaptive_quad(lambda t: f(t) ** 2 * pdf(t), a, b)
            return den, num1, num2
        nodes, w = simpson_grid(a, b, m)
        d = self.density.pdf(nodes)
        f = self._predict(nodes, lb, ub) if use_regressor else nodes
        den = float(w @ d)
        num1 = float(w @ (d * f))
        num2 = float(w @ (d * f * f))
        return den, num1, num2

    # -- multivariate integral machinery ------------------------------------

    def _box_grid(
        self, bounds: list[tuple[float, float]]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(points, weights) tensor-Simpson grid over a box, or None if empty."""
        clipped = []
        for (lb, ub), (dlo, dhi) in zip(bounds, self.x_domain):
            a, b = max(lb, dlo), min(ub, dhi)
            if b <= a:
                return None
            clipped.append((a, b))
        d = len(clipped)
        # Keep total grid size manageable: m^d <= ~70k points.
        m = min(self.integration_points, max(9, int(round(70_000 ** (1.0 / d)))))
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

    def _fraction_nd(self, bounds: list[tuple[float, float]]) -> float:
        lows = np.asarray([max(lb, dlo) for (lb, _), (dlo, _) in zip(bounds, self.x_domain)])
        highs = np.asarray([min(ub, dhi) for (_, ub), (_, dhi) in zip(bounds, self.x_domain)])
        if np.any(highs <= lows):
            return 0.0
        return max(0.0, self.density.integrate_box(lows, highs))

    def _grid_moments_nd(
        self, bounds: list[tuple[float, float]]
    ) -> tuple[float, float, float]:
        grid = self._box_grid(bounds)
        if grid is None:
            return 0.0, 0.0, 0.0
        points, w = grid
        d = self.density.pdf(points)
        f = self._predict(points, None, None)
        return (
            float(w @ d),
            float(w @ (d * f)),
            float(w @ (d * f * f)),
        )

    # -- aggregates (paper §2.3) ----------------------------------------------

    def count(self, ranges: dict[str, tuple[float, float]]) -> float:
        """COUNT ≈ N · ∫ D(x) dx  (Equation 1)."""
        bounds = self._normalise_ranges(ranges)
        if self.n_dims == 1:
            frac = self._fraction_1d(*bounds[0])
        else:
            frac = self._fraction_nd(bounds)
        return self.population_size * frac

    def avg(self, ranges: dict[str, tuple[float, float]]) -> float:
        """AVG(y) ≈ ∫ D·R dx / ∫ D dx  (Equation 6 / 10)."""
        den, num1, _ = self._moments(ranges, use_regressor=True)
        if den <= _EMPTY_DENSITY:
            return float("nan")
        return num1 / den

    def avg_x(self, ranges: dict[str, tuple[float, float]]) -> float:
        """Density-based AVG of the predicate column: E[x] over the range.

        No regressor is involved — the identity function is integrated
        against the density, the same construction as Equation 2's
        moments.
        """
        if self.n_dims != 1:
            raise UnsupportedQueryError(
                "density-based AVG is only defined for one predicate column"
            )
        den, num1, _ = self._grid_moments_1d(
            *self._normalise_ranges(ranges)[0], use_regressor=False
        )
        return num1 / den if den > 0 else float("nan")

    def sum_(self, ranges: dict[str, tuple[float, float]]) -> float:
        """SUM(y) = COUNT · AVG  (Equation 7), computed consistently.

        Where the moment integrals are closed-form (1-D, every regressor
        the engine builds) COUNT's mass is the ``∫D`` AVG already
        divides by; regressors without pieces and multivariate boxes
        take COUNT from its own mass and AVG from the Simpson grid.
        Either way SUM = COUNT × AVG is an exact identity.
        """
        bounds = self._normalise_ranges(ranges)[0]
        table = self._moment_table(True, *bounds)
        if table is not None:
            den, num1, _ = self._closed_form_moments_1d(*bounds, table)
            count = self.population_size * self._fraction_1d(*bounds, mass=den)
            average = num1 / den if den > _EMPTY_DENSITY else float("nan")
        else:
            count = self.count(ranges)
            if count <= 0.0:
                return 0.0
            average = self.avg(ranges)
        if count <= 0.0 or np.isnan(average):
            return 0.0
        return count * average

    def variance_y(self, ranges: dict[str, tuple[float, float]]) -> float:
        """VARIANCE(y) via the law of total variance.

        Equation 8 (E[R²] − E[R]²) gives the explained part, Var(E[y|x]);
        the density-weighted expectation of the fitted residual-variance
        function adds the unexplained part, E[Var(y|x)].
        """
        den, num1, num2 = self._moments(ranges, use_regressor=True)
        if den <= _EMPTY_DENSITY:
            return float("nan")
        explained = num2 / den - (num1 / den) ** 2
        return max(0.0, explained + self._expected_residual_variance(ranges, den))

    def _expected_residual_variance(
        self, ranges: dict[str, tuple[float, float]], den: float
    ) -> float:
        """E[Var(y|x)] over the query range, density weighted."""
        if self.n_dims != 1 or self._residual_edges is None:
            return self._residual_var_global
        a, b = self._clip_1d(*self._normalise_ranges(ranges)[0])
        if b <= a or den <= _EMPTY_DENSITY:
            return self._residual_var_global
        if self._moment_table(False, a, b) is not None:
            # sigma^2(x) is constant between residual edges: E[Var(y|x)]
            # is each bin's variance weighted by the bin's mass.
            table = self._table(
                "residual", lambda: self._piece_table(self._residual_edges)
            )
            bins, d = self._range_pieces(table, *self._range_ends(a, b))
            return float(self._residual_var[bins] @ d[:, 0]) / den
        nodes, w = simpson_grid(a, b, self.integration_points)
        d = self.density.pdf(nodes)
        sigma2 = self.residual_variance(nodes)
        return float(w @ (d * sigma2)) / den

    def stddev_y(self, ranges: dict[str, tuple[float, float]]) -> float:
        """STDDEV(y)  (Equation 9)."""
        variance = self.variance_y(ranges)
        return float(np.sqrt(variance)) if not np.isnan(variance) else variance

    def variance_x(self, ranges: dict[str, tuple[float, float]]) -> float:
        """Density-based VARIANCE(x)  (Equation 2)."""
        if self.n_dims != 1:
            raise UnsupportedQueryError(
                "density-based VARIANCE is only defined for one predicate column"
            )
        den, num1, num2 = self._grid_moments_1d(
            *self._normalise_ranges(ranges)[0], use_regressor=False
        )
        if den <= _EMPTY_DENSITY:
            return float("nan")
        return max(0.0, num2 / den - (num1 / den) ** 2)

    def stddev_x(self, ranges: dict[str, tuple[float, float]]) -> float:
        """Density-based STDDEV(x)  (Equation 3)."""
        variance = self.variance_x(ranges)
        return float(np.sqrt(variance)) if not np.isnan(variance) else variance

    def percentile(
        self,
        p: float,
        ranges: dict[str, tuple[float, float]] | None = None,
    ) -> float:
        """PERCENTILE(x, p): solve F(a) = p by bisection  (Equations 4–5).

        With a range predicate present, the CDF is conditioned on the
        range, matching the paper's sensitivity experiments that vary
        query ranges for all aggregate functions.
        """
        if self.n_dims != 1:
            raise UnsupportedQueryError("PERCENTILE needs a single predicate column")
        if not 0.0 < p < 1.0:
            raise InvalidParameterError(f"percentile p must be in (0, 1), got {p}")
        lo, hi = self.density.support
        if ranges:
            (lb, ub) = self._normalise_ranges(ranges)[0]
            lo, hi = max(lo, lb), min(hi, ub)
        if hi < lo:
            raise InvalidParameterError(f"integration bounds reversed: [{lo}, {hi}]")
        base, top = self._mass_below(np.asarray([lo, hi]))
        total = top - base
        if getattr(self.density, "_point_mass", None) is not None:
            total = self.density.integrate(lo, hi)  # BETWEEN is inclusive
        if total <= _EMPTY_DENSITY:
            return float("nan")
        root = bisect_many(
            lambda t: (self._mass_below(t) - base) / total - p, [lo], [hi], tol=1e-9
        )
        return float(root[0])

    def _moments(
        self, ranges: dict[str, tuple[float, float]], use_regressor: bool
    ) -> tuple[float, float, float]:
        bounds = self._normalise_ranges(ranges)
        if self.n_dims == 1:
            return self._grid_moments_1d(*bounds[0], use_regressor=use_regressor)
        if not use_regressor:
            raise UnsupportedQueryError(
                "density-based moments are only defined for one predicate column"
            )
        return self._grid_moments_nd(bounds)

    # -- introspection ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialized model size — the paper's "space overhead" metric."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    def __repr__(self) -> str:
        return (
            f"ColumnSetModel(table={self.table_name!r}, x={self.x_columns}, "
            f"y={self.y_column!r}, N={self.population_size}, n={self.n_sample})"
        )

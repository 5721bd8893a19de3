"""The column-set model: one density estimator + one regression model.

This is DBEst's unit of state.  For a column pair ``(x, y)`` of table
``T`` with ``N`` rows, the model holds a KDE ``D(x)`` fitted on a small
uniform sample and a regression model ``R(x) ~ y``, and answers every
supported aggregate through the integral formulas of paper §2.3.  The
integrals are the GROUP BY evaluator's (:mod:`repro.core.batched`): a
model answers as a set of one group.
"""

from __future__ import annotations

import pickle
import threading
from types import SimpleNamespace

import numpy as np

from repro.core.config import DBEstConfig
from repro.errors import ModelTrainingError, UnsupportedQueryError
from repro.sql.ast import AggregateCall

Ranges = dict[str, tuple[float, float]]

_EMPTY_DENSITY = 1e-12


class ColumnSetModel:
    """Density estimator + regression model over one column set.

    Build with :meth:`train`, which fits the sample as a one-group set
    through the GROUP BY trainer; answer a parsed aggregate call with
    :meth:`answer`, or one aggregate with the ``count`` / ``avg`` /
    ``sum_`` / ``variance_*`` / ``percentile`` shorthands.  Every answer
    comes from a one-group :class:`~repro.core.batched.BatchedGroupEvaluator`
    over this model, stacked on first use and dropped from pickles.
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
        that aggregate the predicate column itself).  The sample is
        trained as a set of one group by the GROUP BY trainer
        (:func:`~repro.core.batched_train.train_batched_models`), so a
        scalar model and every group of a set come from the same fit.
        """
        from repro.core.batched_train import GroupPartition, train_batched_models

        config = config or DBEstConfig()
        x = np.asarray(x, dtype=np.float64)
        x_matrix = x[:, None] if x.ndim == 1 else x
        n, d = x_matrix.shape
        if n == 0:
            raise ModelTrainingError("cannot train a model on an empty sample")
        if len(tuple(x_columns)) != d:
            raise ModelTrainingError(
                f"{len(tuple(x_columns))} x-column names for {d}-dim features"
            )
        if y is not None and y_column is not None:
            y = np.asarray(y, dtype=np.float64).ravel()
            if y.shape[0] != n:
                raise ModelTrainingError(
                    f"x has {n} rows but y has {y.shape[0]}"
                )
        one_group = GroupPartition(
            order=np.arange(n), offsets=np.asarray([0, n]), values=np.zeros(1)
        )
        (model,) = train_batched_models(
            x_matrix, y, one_group, np.ones(1, dtype=bool),
            table_name=table_name, x_columns=tuple(x_columns),
            y_column=y_column, population={0.0: population_size},
            config=config,
        ).values()
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
        vectorised passes and builds the per-group model objects (and
        :meth:`train`'s one) through this constructor.  ``residual_*``
        may be omitted for density-only models.
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
        residuals = y - self.predict_y(features)
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

    def predict_y(self, x: np.ndarray) -> np.ndarray:
        """Point prediction of y given x (imputation / what-if analytics)."""
        if self.regressor is None:
            raise UnsupportedQueryError(
                f"model on {self.x_columns} has no regression model; "
                "regression-based aggregates need a y column"
            )
        return self.regressor.predict(np.asarray(x, dtype=np.float64))

    # -- aggregates (paper §2.3) ----------------------------------------------

    def __getstate__(self) -> dict:
        # The evaluator is derived state: a pickle (and so size_bytes
        # and every store record) does not depend on which queries the
        # model has answered.
        state = self.__dict__.copy()
        state.pop("_evaluator", None)
        state.pop("_evaluator_lock", None)  # locks do not pickle
        return state

    def _one_group(self):
        """This model stacked as a one-group ``BatchedGroupEvaluator``.

        Built on first use under a lock (the serving layer answers one
        model from many threads) and never persisted.
        """
        evaluator = self.__dict__.get("_evaluator")
        if evaluator is None:
            # setdefault is atomic under the GIL: concurrent first
            # callers agree on one lock.
            lock = self.__dict__.setdefault("_evaluator_lock", threading.Lock())
            with lock:
                evaluator = self.__dict__.get("_evaluator")
                if evaluator is None:
                    from repro.core.batched import BatchedGroupEvaluator

                    evaluator = BatchedGroupEvaluator.build(SimpleNamespace(
                        models={0: self}, raw_groups={},
                        x_columns=self.x_columns, y_column=self.y_column,
                    ))
                    if evaluator is None:
                        raise UnsupportedQueryError(
                            f"model on {self.x_columns} has no closed form: "
                            f"a {type(self.regressor).__name__} regressor "
                            f"over a {type(self.density).__name__} density"
                        )
                    self._evaluator = evaluator
        return evaluator

    def answer(self, aggregate: AggregateCall, ranges: Ranges) -> float:
        """One aggregate over ``ranges`` (column name -> (lb, ub)).

        Columns without an entry default to their full domain.  A
        density-based aggregate (COUNT, PERCENTILE, AVG / VARIANCE /
        STDDEV of the predicate column) integrates D alone; SUM, and AVG
        / VARIANCE / STDDEV of the dependent column, integrate R against
        it.
        """
        (value,) = self._one_group().answer(aggregate, ranges).values()
        return value

    def count(self, ranges: Ranges) -> float:
        """COUNT ≈ N · ∫ D(x) dx  (Equation 1)."""
        return self.answer(AggregateCall("COUNT", None), ranges)

    def avg(self, ranges: Ranges) -> float:
        """AVG(y) ≈ ∫ D·R dx / ∫ D dx  (Equation 6 / 10)."""
        return self.answer(AggregateCall("AVG", self.y_column), ranges)

    def avg_x(self, ranges: Ranges) -> float:
        """Density-based AVG of the predicate column: E[x] over the range."""
        return self.answer(AggregateCall("AVG", self.x_columns[0]), ranges)

    def sum_(self, ranges: Ranges) -> float:
        """SUM(y) = COUNT · AVG  (Equation 7), both from the same ``∫D``."""
        return self.answer(AggregateCall("SUM", self.y_column), ranges)

    def variance_y(self, ranges: Ranges) -> float:
        """VARIANCE(y) via the law of total variance.

        Equation 8 (E[R²] − E[R]²) gives the explained part, Var(E[y|x]);
        the density-weighted expectation of the fitted residual-variance
        function adds the unexplained part, E[Var(y|x)].
        """
        return self.answer(AggregateCall("VARIANCE", self.y_column), ranges)

    def stddev_y(self, ranges: Ranges) -> float:
        """STDDEV(y)  (Equation 9)."""
        return self.answer(AggregateCall("STDDEV", self.y_column), ranges)

    def variance_x(self, ranges: Ranges) -> float:
        """Density-based VARIANCE(x)  (Equation 2)."""
        return self.answer(AggregateCall("VARIANCE", self.x_columns[0]), ranges)

    def stddev_x(self, ranges: Ranges) -> float:
        """Density-based STDDEV(x)  (Equation 3)."""
        return self.answer(AggregateCall("STDDEV", self.x_columns[0]), ranges)

    def percentile(self, p: float, ranges: Ranges | None = None) -> float:
        """PERCENTILE(x, p): solve F(a) = p by bisection  (Equations 4–5).

        With a range predicate present, the CDF is conditioned on the
        range, matching the paper's sensitivity experiments that vary
        query ranges for all aggregate functions.
        """
        call = AggregateCall("PERCENTILE", self.x_columns[0], p)
        return self.answer(call, ranges or {})

    # -- introspection ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialized model size — the paper's "space overhead" metric."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    def __repr__(self) -> str:
        return (
            f"ColumnSetModel(table={self.table_name!r}, x={self.x_columns}, "
            f"y={self.y_column!r}, N={self.population_size}, n={self.n_sample})"
        )

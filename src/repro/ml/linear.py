"""Linear and piecewise-linear regression.

The paper's implementation "used various regression models from piece-wise
linear models to XGBoost" (§3).  :class:`PiecewiseLinearRegressor` fits a
continuous linear spline on a hinge basis — the classic piecewise-linear
model — and :class:`LinearRegressor` is ordinary least squares, used as a
cheap constituent and in tests as a known-answer reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError, ModelTrainingError


class LinearRegressor:
    """Ordinary least squares on (n,) or (n, d) features with intercept."""

    def __init__(self) -> None:
        self._coef: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegressor":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ModelTrainingError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]}"
            )
        design = np.column_stack([np.ones(X.shape[0]), X])
        self._coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return self

    @classmethod
    def from_coef(cls, coef: np.ndarray) -> "LinearRegressor":
        """Construct a fitted model from ``[intercept, slopes...]``.

        Used by the batched trainer, which solves all groups' normal
        equations in one stacked pass and assembles the per-group models
        from the coefficient rows.
        """
        model = cls()
        model._coef = np.asarray(coef, dtype=np.float64).ravel()
        if model._coef.shape[0] < 2:
            raise ModelTrainingError(
                f"linear coefficients need >= 2 entries, got {model._coef.shape[0]}"
            )
        return model

    @property
    def is_fitted(self) -> bool:
        return self._coef is not None

    @property
    def intercept(self) -> float:
        if self._coef is None:
            raise ModelTrainingError("linear model used before fit()")
        return float(self._coef[0])

    @property
    def slope(self) -> np.ndarray:
        if self._coef is None:
            raise ModelTrainingError("linear model used before fit()")
        return self._coef[1:]

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._coef is None:
            raise ModelTrainingError("linear model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        return self._coef[0] + X @ self._coef[1:]

    def export_batch_state(self) -> tuple:
        """``("linear", coef)`` for stacking into batched evaluators.

        ``coef`` is ``[intercept, slopes...]``; a prediction at ``x`` is
        ``coef[0] + x @ coef[1:]`` for 1-D and multivariate fits alike —
        callers stack groups of equal feature width into one affine pass.
        """
        if self._coef is None:
            raise ModelTrainingError("linear model used before fit()")
        return ("linear", self._coef)


class PiecewiseLinearRegressor:
    """Continuous linear spline: OLS on a hinge (ReLU) basis.

    Knots are placed at interior quantiles of the training feature, so the
    spline spends its flexibility where the data is dense.  Only supports
    1-D features — which is exactly how DBEst's column-pair models use it.
    """

    def __init__(self, n_knots: int = 8) -> None:
        if n_knots < 1:
            raise InvalidParameterError(f"n_knots must be >= 1, got {n_knots}")
        self.n_knots = n_knots
        self._knots: np.ndarray | None = None
        self._coef: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PiecewiseLinearRegressor":
        x = np.asarray(X, dtype=np.float64)
        if x.ndim == 2:
            if x.shape[1] != 1:
                raise ModelTrainingError(
                    "PiecewiseLinearRegressor supports 1-D features only"
                )
            x = x[:, 0]
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ModelTrainingError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]}"
            )
        quantiles = np.linspace(0.0, 1.0, self.n_knots + 2)[1:-1]
        self._knots = np.unique(np.quantile(x, quantiles))
        design = self._design(x)
        self._coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return self

    @classmethod
    def from_state(
        cls, knots: np.ndarray, coef: np.ndarray, n_knots: int = 8
    ) -> "PiecewiseLinearRegressor":
        """Construct a fitted spline from its knot and coefficient arrays.

        ``coef`` is ``[intercept, slope, hinge coefficients...]`` with one
        hinge coefficient per knot (the :meth:`export_batch_state`
        layout); ``n_knots`` records the *requested* knot count, which may
        exceed ``len(knots)`` when quantile knots collided.  Used by the
        batched trainer to assemble per-group models from stacked solves.
        """
        model = cls(n_knots=n_knots)
        model._knots = np.asarray(knots, dtype=np.float64).ravel()
        model._coef = np.asarray(coef, dtype=np.float64).ravel()
        if model._coef.shape[0] != model._knots.shape[0] + 2:
            raise ModelTrainingError(
                f"{model._coef.shape[0]} coefficients do not match "
                f"{model._knots.shape[0]} knots (+ intercept and slope)"
            )
        return model

    def _design(self, x: np.ndarray) -> np.ndarray:
        hinges = np.maximum(0.0, x[:, None] - self._knots[None, :])
        return np.column_stack([np.ones(x.shape[0]), x, hinges])

    @property
    def is_fitted(self) -> bool:
        return self._coef is not None

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._coef is None:
            raise ModelTrainingError("piecewise-linear model used before fit()")
        x = np.asarray(X, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, 0]
        # Column by column rather than ``design @ coef``: a BLAS product
        # blocks rows, so a row's bits would depend on the other rows in
        # the call.  The ensemble selector relies on row-wise predictions.
        out = self._coef[0] + self._coef[1] * x
        for knot, coef in zip(self._knots.tolist(), self._coef[2:].tolist()):
            out += coef * np.maximum(0.0, x - knot)
        return out

    def export_batch_state(self) -> tuple:
        """``("plr", knots, coef)`` for stacking into batched evaluators.

        ``coef`` is ``[intercept, slope, hinge coefficients...]`` with one
        hinge coefficient per knot; a prediction at ``x`` is
        ``coef[0] + coef[1]*x + sum_j coef[2+j]*max(0, x - knots[j])``.
        """
        if self._coef is None:
            raise ModelTrainingError("piecewise-linear model used before fit()")
        return ("plr", self._knots, self._coef)

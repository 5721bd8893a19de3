"""Machine-learning substrate implemented from scratch on numpy.

scikit-learn and XGBoost are not available in this environment, so every
model DBEst depends on lives here:

* :class:`KernelDensityEstimator` / :class:`MultivariateKDE` — Gaussian
  kernel density estimation with analytic CDFs and a binned fast path.
* :class:`DecisionTreeRegressor` — CART with histogram-based splits.
* :class:`GradientBoostingRegressor` — classic first-order boosting.
* :class:`XGBRegressor` — second-order (XGBoost-style) boosting with L2
  regularisation and minimum-gain pruning.
* :class:`PiecewiseLinearRegressor` — linear-spline regression.
* :class:`DecisionTreeClassifier` — gini classifier used by the ensemble's
  per-query-range model selector.
* :class:`EnsembleRegressor` — constituent regressors plus a learned
  classifier that routes each query range to the best constituent
  (paper §3 "Regression Model Selection").
"""

from repro.ml.classifier import DecisionTreeClassifier
from repro.ml.ensemble import EnsembleRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.histogram_density import HistogramDensity
from repro.ml.kde import KernelDensityEstimator, MultivariateKDE, scott_bandwidth
from repro.ml.linear import LinearRegressor, PiecewiseLinearRegressor
from repro.ml.metrics import (
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    r2_score,
    relative_error,
    root_mean_squared_error,
)
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.xgb import XGBRegressor

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "EnsembleRegressor",
    "GradientBoostingRegressor",
    "HistogramDensity",
    "KernelDensityEstimator",
    "LinearRegressor",
    "MultivariateKDE",
    "PiecewiseLinearRegressor",
    "XGBRegressor",
    "mean_absolute_error",
    "mean_relative_error",
    "mean_squared_error",
    "r2_score",
    "relative_error",
    "root_mean_squared_error",
    "scott_bandwidth",
]

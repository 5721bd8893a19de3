"""Ensemble regressor with a learned per-query-range model selector.

Paper §3 ("Regression Model Selection"): DBEst trains several constituent
regressors (GBoost, XGBoost, piecewise-linear), evaluates each on random
range queries over the independent attribute's domain, and trains a
classifier that, given a query's range ``[lb, ub]``, picks the constituent
that answers that region best.  This module reproduces that design.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from functools import partial

import numpy as np

from repro.errors import ModelTrainingError
from repro.ml.classifier import DecisionTreeClassifier
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import PiecewiseLinearRegressor
from repro.ml.xgb import XGBRegressor


def default_constituents() -> dict[str, Callable[[], object]]:
    """The constituent set the paper describes: GBoost + XGBoost (+ PLR).

    Factories are ``functools.partial`` objects so fitted ensembles stay
    picklable (model catalogs and bundles are serialised with pickle).
    """
    return {
        "gboost": partial(
            GradientBoostingRegressor,
            n_estimators=60, learning_rate=0.15, max_depth=4,
        ),
        "xgboost": partial(
            XGBRegressor,
            n_estimators=60, learning_rate=0.15, max_depth=4, reg_lambda=1.0,
        ),
        "plr": partial(PiecewiseLinearRegressor, n_knots=8),
    }


class EnsembleRegressor:
    """Constituent regressors routed by a learned range classifier.

    Parameters
    ----------
    constituents:
        Mapping of name to zero-argument factory producing an estimator
        with ``fit``/``predict``.  Defaults to GBoost + XGBoost + PLR.
    n_eval_queries:
        Number of random range queries used to label training data for
        the selector classifier.
    min_eval_points:
        Ranges that select fewer training points than this are rediscarded
        when building selector labels.
    random_state:
        Seed for query generation.
    """

    def __init__(
        self,
        constituents: Mapping[str, Callable[[], object]] | None = None,
        n_eval_queries: int = 60,
        min_eval_points: int = 5,
        random_state: int | None = None,
    ) -> None:
        factories = (
            default_constituents() if constituents is None else dict(constituents)
        )
        if not factories:
            raise ModelTrainingError("ensemble needs at least one constituent")
        self._factories = factories
        self.n_eval_queries = n_eval_queries
        self.min_eval_points = min_eval_points
        self.random_state = random_state
        self.models_: dict[str, object] = {}
        self.selector_: DecisionTreeClassifier | None = None
        self._default_name: str | None = None
        # Observed feature domain, recorded by every fit path: (lo, hi)
        # for 1-D fits, a tuple of per-dimension (lo, hi) pairs for
        # multivariate fits, None only before fit().
        self._domain: tuple | None = None

    # -- fitting ---------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "EnsembleRegressor":
        """Fit constituents, then train the per-range selector."""
        x = np.asarray(X, dtype=np.float64)
        if x.ndim == 2:
            if x.shape[1] != 1:
                # Multivariate: fall back to a single best constituent.
                return self._fit_multivariate(x, y)
            x = x[:, 0]
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ModelTrainingError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]}"
            )

        self.models_ = {name: factory() for name, factory in self._factories.items()}
        for model in self.models_.values():
            model.fit(x, y)
        return self._fit_selector(x, y)

    def _fit_selector(self, x: np.ndarray, y: np.ndarray) -> "EnsembleRegressor":
        """Label random range queries and train the per-range selector.

        Runs on ``self.models_`` already fitted to ``(x, y)`` — the tail
        of the 1-D :meth:`fit` path, split out so
        :meth:`from_fitted_constituents` can reuse it verbatim.
        """
        lo, hi = float(x.min()), float(x.max())
        self._domain = (lo, hi)
        rng = np.random.default_rng(self.random_state)

        features: list[list[float]] = []
        labels: list[str] = []
        global_scores = {name: 0.0 for name in self.models_}
        for _ in range(self.n_eval_queries):
            a, b = np.sort(rng.uniform(lo, hi, size=2))
            in_range = (x >= a) & (x <= b)
            if int(in_range.sum()) < self.min_eval_points:
                continue
            truth = float(y[in_range].mean())
            xs = x[in_range]
            best_name, best_err = None, np.inf
            for name, model in self.models_.items():
                estimate = float(np.mean(model.predict(xs)))
                err = abs(estimate - truth)
                global_scores[name] += err
                if err < best_err:
                    best_err, best_name = err, name
            features.append([a, b])
            labels.append(best_name)

        self._default_name = min(global_scores, key=global_scores.get)
        if len(set(labels)) >= 2:
            self.selector_ = DecisionTreeClassifier(max_depth=4, min_samples_leaf=2)
            self.selector_.fit(np.asarray(features), np.asarray(labels))
        else:
            self.selector_ = None
        return self

    def _fit_multivariate(self, X: np.ndarray, y: np.ndarray) -> "EnsembleRegressor":
        """d>1 features: fit tree constituents only, keep the global best.

        Records the same fitted invariants as the 1-D path — the observed
        feature ``_domain`` (per-dimension bounds) and ``_default_name`` —
        so export and introspection code never has to special-case
        multivariate ensembles, and validates the row counts with the
        same error the 1-D path raises.
        """
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ModelTrainingError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]}"
            )
        self.models_ = {}
        for name, factory in self._factories.items():
            model = factory()
            try:
                model.fit(X, y)
            except ModelTrainingError:
                continue  # e.g. PLR rejects multivariate input
            self.models_[name] = model
        return self._finish_multivariate(X, y)

    def _finish_multivariate(
        self, X: np.ndarray, y: np.ndarray
    ) -> "EnsembleRegressor":
        """Pick the global-best constituent and record multivariate domain.

        The tail of :meth:`_fit_multivariate`, run on ``self.models_``
        already fitted to ``(X, y)``; split out so
        :meth:`from_fitted_constituents` can reuse it verbatim.
        """
        if not self.models_:
            raise ModelTrainingError("no constituent accepted multivariate input")
        errors = {
            name: float(np.mean((model.predict(X) - y) ** 2))
            for name, model in self.models_.items()
        }
        self._default_name = min(errors, key=errors.get)
        self.selector_ = None
        self._domain = tuple(
            (float(X[:, j].min()), float(X[:, j].max()))
            for j in range(X.shape[1])
        )
        return self

    @classmethod
    def from_fitted_constituents(
        cls,
        models: Mapping[str, object],
        X: np.ndarray,
        y: np.ndarray,
        *,
        constituents: Mapping[str, Callable[[], object]] | None = None,
        n_eval_queries: int = 60,
        min_eval_points: int = 5,
        random_state: int | None = None,
    ) -> "EnsembleRegressor":
        """An ensemble from constituents fitted elsewhere on ``(X, y)``.

        The batched forest trainer fits each group's tree/booster
        constituents through the shared level-synchronous kernel and the
        PLR constituent per group; this installs them (in the same order
        :meth:`fit` would create them) and runs the identical selector /
        best-constituent stage, so the result is indistinguishable from a
        scalar :meth:`fit` on the same rows.
        """
        ens = cls(
            constituents=constituents,
            n_eval_queries=n_eval_queries,
            min_eval_points=min_eval_points,
            random_state=random_state,
        )
        x = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        ens.models_ = dict(models)
        if x.ndim == 2:
            if x.shape[1] != 1:
                return ens._finish_multivariate(x, y)
            x = x[:, 0]
        return ens._fit_selector(x, y)

    def __setstate__(self, state: dict) -> None:
        # The unpickler interns attribute names but not the keyword names
        # of the factory partials.  Intern both, so a loaded ensemble
        # holds the same key objects as a fitted one and re-pickles to
        # the same bytes.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._factories = {
            name: partial(
                factory.func, *factory.args,
                **{sys.intern(k): v for k, v in factory.keywords.items()},
            ) if isinstance(factory, partial) else factory
            for name, factory in self._factories.items()
        }

    # -- prediction --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return bool(self.models_)

    def select(self, lb: float | None = None, ub: float | None = None) -> str:
        """Name of the constituent to use for the query range [lb, ub]."""
        if not self.models_:
            raise ModelTrainingError("ensemble used before fit()")
        if self.selector_ is None or lb is None or ub is None:
            return self._default_name
        label = self.selector_.predict(np.asarray([[lb, ub]]))[0]
        return str(label)

    def predict(
        self,
        X: np.ndarray,
        lb: float | None = None,
        ub: float | None = None,
    ) -> np.ndarray:
        """Predict with the constituent chosen for the given query range."""
        name = self.select(lb, ub)
        return self.models_[name].predict(X)

    def export_constituent_states(self) -> dict[str, tuple] | None:
        """Batch state for every constituent, keyed by name, or None.

        Batched group-by evaluators stack each constituent across groups
        so a query can route every group through its *selected* model and
        still evaluate each constituent family in one vectorised pass.
        Returns None when any constituent cannot export a stackable state
        (multivariate fits, unknown estimator types).
        """
        if not self.models_:
            raise ModelTrainingError("ensemble used before fit()")
        states: dict[str, tuple] = {}
        for name, model in self.models_.items():
            export = getattr(model, "export_batch_state", None)
            state = export() if export is not None else None
            if state is None:
                return None
            states[name] = state
        return states

    @property
    def constituent_names(self) -> list[str]:
        return list(self.models_)

"""Gradient boosting regression (Friedman's GBoost).

First-order gradient boosting with squared loss: each stage fits a CART
tree to the current residuals and is added with a shrinkage factor.
Optional stochastic row subsampling per stage implements Friedman's
"stochastic gradient boosting" variant the paper cites ([21]).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError, ModelTrainingError
from repro.ml._histogram import BinnedFeatures
from repro.ml.tree import DecisionTreeRegressor


class GradientBoostingRegressor:
    """Boosted regression trees with squared loss.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages.
    learning_rate:
        Shrinkage applied to each stage's contribution.
    max_depth, min_samples_leaf, max_bins:
        Passed through to each stage's :class:`DecisionTreeRegressor`.
    subsample:
        Fraction of rows drawn (without replacement) per stage; 1.0
        disables subsampling.
    random_state:
        Seed for the subsampling generator.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        max_bins: int = 256,
        subsample: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        if n_estimators <= 0:
            raise InvalidParameterError(
                f"n_estimators must be positive, got {n_estimators}"
            )
        if not 0.0 < learning_rate <= 1.0:
            raise InvalidParameterError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if not 0.0 < subsample <= 1.0:
            raise InvalidParameterError(
                f"subsample must be in (0, 1], got {subsample}"
            )
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.subsample = subsample
        self.random_state = random_state
        self._base: float = 0.0
        self._trees: list[DecisionTreeRegressor] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit the boosted ensemble to (n,) or (n, d) features."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        binned = BinnedFeatures(X, max_bins=self.max_bins)
        if y.shape[0] != binned.n_rows:
            raise ModelTrainingError(
                f"X has {binned.n_rows} rows but y has {y.shape[0]}"
            )
        rng = np.random.default_rng(self.random_state)
        self._base = float(y.mean())
        self._trees = []

        prediction = np.full(y.shape[0], self._base)
        n = y.shape[0]
        for _ in range(self.n_estimators):
            residual = y - prediction
            if self.subsample < 1.0:
                k = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=k, replace=False)
            else:
                rows = None
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_bins=self.max_bins,
            )
            tree.fit(None, residual, binned=binned, sample_indices=rows)
            # Update with the tree's prediction over *all* rows so later
            # stages see the full-ensemble residual.
            prediction += self.learning_rate * tree.predict(X)
            self._trees.append(tree)
        return self

    @classmethod
    def from_fit_state(
        cls,
        base: float,
        trees: list[DecisionTreeRegressor],
        *,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        max_bins: int = 256,
        random_state: int | None = None,
    ) -> "GradientBoostingRegressor":
        """A fitted booster from pre-built per-stage trees.

        The batched forest fitter grows every group's boosting rounds in
        shared level-synchronous passes; this rebuilds a regressor
        identical to a scalar :meth:`fit` on the same rows.
        """
        model = cls(
            n_estimators=len(trees),
            learning_rate=learning_rate,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_bins=max_bins,
            random_state=random_state,
        )
        model._base = float(base)
        model._trees = list(trees)
        return model

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    @property
    def n_stages(self) -> int:
        return len(self._trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted values for (n,) or (n, d) inputs."""
        if not self._trees:
            raise ModelTrainingError("gradient boosting model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0] if X.ndim > 0 else 1
        out = np.full(n, self._base)
        for tree in self._trees:
            out = out + self.learning_rate * tree.predict(X)
        return out

    def export_batch_state(self) -> tuple | None:
        """Flat ``("forest", ...)`` state for stacking into batched evaluators.

        Concatenates every stage's node arrays (child indices stay
        tree-local; ``offsets`` maps tree ordinals to flat node ranges) so
        a batched evaluator can traverse many groups' boosters in
        lock-step.  Returns None for multivariate fits.
        """
        if not self._trees:
            raise ModelTrainingError("gradient boosting model used before fit()")
        per_tree = [tree.export_batch_state() for tree in self._trees]
        if any(state is None for state in per_tree):
            return None
        counts = [state[4].shape[0] for state in per_tree]
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return (
            "forest",
            self._base,
            self.learning_rate,
            offsets,
            np.concatenate([state[4] for state in per_tree]),
            np.concatenate([state[5] for state in per_tree]),
            np.concatenate([state[6] for state in per_tree]),
            np.concatenate([state[7] for state in per_tree]),
            np.concatenate([state[8] for state in per_tree]),
        )

    def staged_predict(self, X: np.ndarray, every: int = 1):
        """Yield predictions after each ``every`` stages (for diagnostics)."""
        X = np.asarray(X, dtype=np.float64)
        out = np.full(X.shape[0], self._base)
        for stage, tree in enumerate(self._trees, start=1):
            out = out + self.learning_rate * tree.predict(X)
            if stage % every == 0:
                yield out.copy()

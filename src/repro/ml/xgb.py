"""XGBoost-style second-order gradient boosting.

Implements the regularised objective of Chen & Guestrin's XGBoost ([12] in
the paper) for squared loss: split gain

    gain = 1/2 * [ GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) ] − γ

and leaf weight ``−G/(H+λ)``, where G/H are gradient/hessian sums.  With
squared loss the hessian is 1 per row, but the regularisation terms (λ, γ)
and the gain-based pruning still make this a genuinely different learner
from the CART/GBM pair, which is what the paper's ensemble exploits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError, ModelTrainingError
from repro.ml._histogram import BinnedFeatures, sequential_sum


class _XGBTree:
    """A single regularised tree trained on (gradient, hessian) pairs."""

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
    ) -> None:
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def fit(
        self,
        binned: BinnedFeatures,
        grad: np.ndarray,
        hess: np.ndarray,
        indices: np.ndarray,
    ) -> "_XGBTree":
        root = self._add_node()
        self._grow(root, binned, grad, hess, indices, depth=0)
        self._feature_arr = np.asarray(self.feature, dtype=np.int32)
        self._threshold_arr = np.asarray(self.threshold, dtype=np.float64)
        self._left_arr = np.asarray(self.left, dtype=np.int32)
        self._right_arr = np.asarray(self.right, dtype=np.int32)
        self._value_arr = np.asarray(self.value, dtype=np.float64)
        return self

    def _grow(
        self,
        node: int,
        binned: BinnedFeatures,
        grad: np.ndarray,
        hess: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> None:
        # Sequential (not pairwise) node sums: matches the bincount
        # accumulation order of the batched forest fitter bit-for-bit.
        g_sum = sequential_sum(grad[indices])
        h_sum = sequential_sum(hess[indices])
        self.value[node] = -g_sum / (h_sum + self.reg_lambda)
        if depth >= self.max_depth or h_sum < 2 * self.min_child_weight:
            return
        split = self._best_split(binned, grad, hess, indices, g_sum, h_sum)
        if split is None:
            return
        feature, split_bin = split
        go_left = binned.codes[indices, feature] <= split_bin
        self.feature[node] = feature
        self.threshold[node] = binned.threshold(feature, split_bin)
        left = self._add_node()
        right = self._add_node()
        self.left[node] = left
        self.right[node] = right
        self._grow(left, binned, grad, hess, indices[go_left], depth + 1)
        self._grow(right, binned, grad, hess, indices[~go_left], depth + 1)

    def _best_split(
        self,
        binned: BinnedFeatures,
        grad: np.ndarray,
        hess: np.ndarray,
        indices: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, int] | None:
        lam = self.reg_lambda
        parent = g_sum * g_sum / (h_sum + lam)
        best_gain = 0.0
        best: tuple[int, int] | None = None
        node_grad = grad[indices]
        node_hess = hess[indices]
        for feature in range(binned.n_features):
            n_bins = binned.n_bins(feature)
            if n_bins < 2:
                continue
            codes = binned.codes[indices, feature]
            g_hist = np.bincount(codes, weights=node_grad, minlength=n_bins)
            h_hist = np.bincount(codes, weights=node_hess, minlength=n_bins)
            gl = np.cumsum(g_hist)[:-1]
            hl = np.cumsum(h_hist)[:-1]
            gr = g_sum - gl
            hr = h_sum - hl
            valid = (hl >= self.min_child_weight) & (hr >= self.min_child_weight)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(
                    valid,
                    0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent)
                    - self.gamma,
                    -np.inf,
                )
            split_bin = int(np.argmax(gain))
            if gain[split_bin] > best_gain:
                best_gain = float(gain[split_bin])
                best = (feature, split_bin)
        return best

    @classmethod
    def from_arrays(
        cls,
        nodes: dict[str, np.ndarray],
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
    ) -> "_XGBTree":
        """A fitted tree from flat node arrays (batched forest fitter)."""
        tree = cls(max_depth, min_child_weight, reg_lambda, gamma)
        tree.feature = nodes["feature"].tolist()
        tree.threshold = nodes["threshold"].tolist()
        tree.left = nodes["left"].tolist()
        tree.right = nodes["right"].tolist()
        tree.value = nodes["value"].tolist()
        tree._feature_arr = np.ascontiguousarray(nodes["feature"], dtype=np.int32)
        tree._threshold_arr = np.ascontiguousarray(
            nodes["threshold"], dtype=np.float64
        )
        tree._left_arr = np.ascontiguousarray(nodes["left"], dtype=np.int32)
        tree._right_arr = np.ascontiguousarray(nodes["right"], dtype=np.int32)
        tree._value_arr = np.ascontiguousarray(nodes["value"], dtype=np.float64)
        return tree

    def predict(self, X: np.ndarray, max_depth: int) -> np.ndarray:
        position = np.zeros(X.shape[0], dtype=np.int32)
        for _ in range(max_depth + 1):
            feature = self._feature_arr[position]
            internal = feature >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            feats = feature[rows]
            thresholds = self._threshold_arr[position[rows]]
            go_left = X[rows, feats] <= thresholds
            children = np.where(
                go_left,
                self._left_arr[position[rows]],
                self._right_arr[position[rows]],
            )
            position[rows] = children
        return self._value_arr[position]


class XGBRegressor:
    """Second-order boosted trees with L2 and min-gain regularisation.

    Parameters mirror the XGBoost library's most important knobs:
    ``reg_lambda`` (L2 on leaf weights), ``gamma`` (minimum split gain),
    ``min_child_weight`` (minimum hessian per child), ``subsample``
    (per-stage row sampling).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 5.0,
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
        if reg_lambda < 0 or gamma < 0:
            raise InvalidParameterError("reg_lambda and gamma must be >= 0")
        if not 0.0 < subsample <= 1.0:
            raise InvalidParameterError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.max_bins = max_bins
        self.subsample = subsample
        self.random_state = random_state
        self._base = 0.0
        self._trees: list[_XGBTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "XGBRegressor":
        """Fit the boosted ensemble to (n,) or (n, d) features."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(y, dtype=np.float64).ravel()
        binned = BinnedFeatures(X, max_bins=self.max_bins)
        if y.shape[0] != binned.n_rows:
            raise ModelTrainingError(
                f"X has {binned.n_rows} rows but y has {y.shape[0]}"
            )
        rng = np.random.default_rng(self.random_state)
        self._base = float(y.mean())
        self._trees = []

        n = y.shape[0]
        prediction = np.full(n, self._base)
        hess = np.ones(n)
        all_rows = np.arange(n, dtype=np.intp)
        for _ in range(self.n_estimators):
            grad = prediction - y  # d/dpred of 0.5*(pred-y)^2
            if self.subsample < 1.0:
                k = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=k, replace=False)
            else:
                rows = all_rows
            tree = _XGBTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
            )
            tree.fit(binned, grad, hess, rows)
            prediction += self.learning_rate * tree.predict(X, self.max_depth)
            self._trees.append(tree)
        return self

    @classmethod
    def from_fit_state(
        cls,
        base: float,
        tree_nodes: list[dict[str, np.ndarray]],
        *,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 5.0,
        max_bins: int = 256,
        random_state: int | None = None,
    ) -> "XGBRegressor":
        """A fitted booster from per-stage flat node arrays.

        The batched forest fitter grows every group's boosting rounds in
        shared level-synchronous passes and hands each group its slice of
        the stacked node arrays; this rebuilds a regressor identical to a
        scalar :meth:`fit` on the same rows.
        """
        model = cls(
            n_estimators=len(tree_nodes),
            learning_rate=learning_rate,
            max_depth=max_depth,
            reg_lambda=reg_lambda,
            gamma=gamma,
            min_child_weight=min_child_weight,
            max_bins=max_bins,
            random_state=random_state,
        )
        model._base = float(base)
        model._trees = [
            _XGBTree.from_arrays(
                nodes, max_depth, min_child_weight, reg_lambda, gamma
            )
            for nodes in tree_nodes
        ]
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
            raise ModelTrainingError("XGB model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        out = np.full(X.shape[0], self._base)
        for tree in self._trees:
            out = out + self.learning_rate * tree.predict(X, self.max_depth)
        return out

    def export_batch_state(self) -> tuple | None:
        """Flat ``("forest", ...)`` state for stacking into batched evaluators.

        Same layout as :meth:`GradientBoostingRegressor.export_batch_state
        <repro.ml.gbm.GradientBoostingRegressor.export_batch_state>`:
        concatenated node arrays with tree-local child indices and a flat
        node-offset table.  Returns None for multivariate fits.
        """
        if not self._trees:
            raise ModelTrainingError("XGB model used before fit()")
        features = [tree._feature_arr for tree in self._trees]
        for feature in features:
            if np.any(feature[feature >= 0] != 0):
                return None
        counts = [feature.shape[0] for feature in features]
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return (
            "forest",
            self._base,
            self.learning_rate,
            offsets,
            np.concatenate(features),
            np.concatenate([tree._threshold_arr for tree in self._trees]),
            np.concatenate([tree._left_arr for tree in self._trees]),
            np.concatenate([tree._right_arr for tree in self._trees]),
            np.concatenate([tree._value_arr for tree in self._trees]),
        )

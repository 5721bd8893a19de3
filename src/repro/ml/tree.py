"""CART regression tree with histogram split finding.

This is the base learner for both boosting implementations and is usable
standalone.  Split search works on pre-binned features (see
``_histogram.py``): per node, per feature, the bin histogram of counts and
label sums gives every candidate split's variance reduction in one
``cumsum``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelTrainingError
from repro.ml._histogram import BinnedFeatures, sequential_sum


@dataclass
class _FlatTree:
    """Arrays describing the tree: feature < 0 marks a leaf."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def finalize(self) -> dict[str, np.ndarray]:
        return {
            "feature": np.asarray(self.feature, dtype=np.int32),
            "threshold": np.asarray(self.threshold, dtype=np.float64),
            "left": np.asarray(self.left, dtype=np.int32),
            "right": np.asarray(self.right, dtype=np.int32),
            "value": np.asarray(self.value, dtype=np.float64),
        }


class DecisionTreeRegressor:
    """Least-squares regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root at depth 0).
    min_samples_leaf:
        Minimum training rows on each side of a split.
    min_samples_split:
        Minimum rows in a node for it to be considered for splitting.
    max_bins:
        Histogram resolution used for split finding.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 10,
        min_samples_split: int = 20,
        max_bins: int = 256,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_bins = max_bins
        self._nodes: dict[str, np.ndarray] | None = None
        self.n_features = 0

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        binned: BinnedFeatures | None = None,
        sample_indices: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Fit to features ``X`` (n,) or (n, d) and targets ``y``.

        ``binned`` lets a booster share one binning across all its trees;
        ``sample_indices`` restricts training to a row subset (subsampling).
        """
        y = np.asarray(y, dtype=np.float64).ravel()
        if binned is None:
            binned = BinnedFeatures(X, max_bins=self.max_bins)
        if y.shape[0] != binned.n_rows:
            raise ModelTrainingError(
                f"X has {binned.n_rows} rows but y has {y.shape[0]}"
            )
        self.n_features = binned.n_features
        indices = (
            np.arange(binned.n_rows, dtype=np.intp)
            if sample_indices is None
            else np.asarray(sample_indices, dtype=np.intp)
        )
        if indices.size == 0:
            raise ModelTrainingError("cannot fit a tree to zero rows")

        tree = _FlatTree()
        root = tree.add_node()
        self._grow(tree, root, binned, y, indices, depth=0)
        self._nodes = tree.finalize()
        return self

    def _grow(
        self,
        tree: _FlatTree,
        node: int,
        binned: BinnedFeatures,
        y: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> None:
        node_y = y[indices]
        n = indices.shape[0]
        # Sequential (not pairwise) node sum: the batched forest fitter
        # accumulates the same statistic with np.bincount, which adds in
        # input order; matching that order keeps both paths bit-identical.
        node_sum = sequential_sum(node_y)
        tree.value[node] = node_sum / n
        if depth >= self.max_depth or n < self.min_samples_split:
            return
        split = self._best_split(binned, node_y, indices, node_sum)
        if split is None:
            return
        feature, split_bin = split
        go_left = binned.codes[indices, feature] <= split_bin
        left_idx = indices[go_left]
        right_idx = indices[~go_left]

        tree.feature[node] = feature
        tree.threshold[node] = binned.threshold(feature, split_bin)
        left = tree.add_node()
        right = tree.add_node()
        tree.left[node] = left
        tree.right[node] = right
        self._grow(tree, left, binned, y, left_idx, depth + 1)
        self._grow(tree, right, binned, y, right_idx, depth + 1)

    def _best_split(
        self,
        binned: BinnedFeatures,
        node_y: np.ndarray,
        indices: np.ndarray,
        total_sum: float,
    ) -> tuple[int, int] | None:
        """Best (feature, split_bin) by variance reduction, or None."""
        n = indices.shape[0]
        parent_score = total_sum * total_sum / n
        best_gain = 1e-12
        best: tuple[int, int] | None = None
        for feature in range(binned.n_features):
            n_bins = binned.n_bins(feature)
            if n_bins < 2:
                continue
            codes = binned.codes[indices, feature]
            counts = np.bincount(codes, minlength=n_bins).astype(np.float64)
            sums = np.bincount(codes, weights=node_y, minlength=n_bins)
            left_counts = np.cumsum(counts)[:-1]
            left_sums = np.cumsum(sums)[:-1]
            right_counts = n - left_counts
            right_sums = total_sum - left_sums
            valid = (left_counts >= self.min_samples_leaf) & (
                right_counts >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                score = np.where(
                    valid,
                    left_sums**2 / left_counts + right_sums**2 / right_counts,
                    -np.inf,
                )
            split_bin = int(np.argmax(score))
            gain = float(score[split_bin]) - parent_score
            if gain > best_gain:
                best_gain = gain
                best = (feature, split_bin)
        return best

    @classmethod
    def from_fit_state(
        cls,
        nodes: dict[str, np.ndarray],
        n_features: int,
        *,
        max_depth: int = 6,
        min_samples_leaf: int = 10,
        min_samples_split: int = 20,
        max_bins: int = 256,
    ) -> "DecisionTreeRegressor":
        """A fitted tree from pre-built flat node arrays.

        The batched forest fitter (:mod:`repro.core.batched_forest`)
        grows every group's tree level-synchronously and emits the same
        arrays :meth:`_FlatTree.finalize` produces; this wraps them in a
        regressor indistinguishable from a scalar :meth:`fit`.
        """
        tree = cls(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split,
            max_bins=max_bins,
        )
        tree._nodes = nodes
        tree.n_features = n_features
        return tree

    # -- prediction ----------------------------------------------------------

    def __setstate__(self, state: dict) -> None:
        # The unpickler interns attribute names but not nested dict keys.
        # Intern both, so a loaded tree holds the same key objects as a
        # fitted one and re-pickles to the same bytes.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        if self._nodes is not None:
            self._nodes = {sys.intern(k): v for k, v in self._nodes.items()}

    @property
    def is_fitted(self) -> bool:
        return self._nodes is not None

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted values for (n,) or (n, d) inputs."""
        if self._nodes is None:
            raise ModelTrainingError("tree used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        nodes = self._nodes
        position = np.zeros(X.shape[0], dtype=np.int32)
        # Each pass advances every row one level; depth bounds iterations.
        for _ in range(self.max_depth + 1):
            feature = nodes["feature"][position]
            internal = feature >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            feats = feature[rows]
            thresholds = nodes["threshold"][position[rows]]
            go_left = X[rows, feats] <= thresholds
            children = np.where(
                go_left,
                nodes["left"][position[rows]],
                nodes["right"][position[rows]],
            )
            position[rows] = children
        return nodes["value"][position]

    def export_batch_state(self) -> tuple | None:
        """``("forest", base, lr, offsets, feature, threshold, left, right,
        value)`` for stacking into batched evaluators, or None.

        A single tree is a one-tree forest with base 0 and unit learning
        rate.  Only 1-D models are stackable (every internal node must
        split feature 0); multivariate fits return None so callers fall
        back to per-model :meth:`predict`.
        """
        if self._nodes is None:
            raise ModelTrainingError("tree used before fit()")
        nodes = self._nodes
        internal = nodes["feature"] >= 0
        if np.any(nodes["feature"][internal] != 0):
            return None
        offsets = np.asarray([0, nodes["feature"].shape[0]], dtype=np.int64)
        return (
            "forest",
            0.0,
            1.0,
            offsets,
            nodes["feature"],
            nodes["threshold"],
            nodes["left"],
            nodes["right"],
            nodes["value"],
        )

    @property
    def n_nodes(self) -> int:
        if self._nodes is None:
            return 0
        return int(self._nodes["feature"].shape[0])

    @property
    def n_leaves(self) -> int:
        if self._nodes is None:
            return 0
        return int(np.sum(self._nodes["feature"] < 0))

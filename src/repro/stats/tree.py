"""CART decision trees (classification and regression).

These are the base learners behind :mod:`repro.stats.boosting`, which in turn
stands in for the XGBoost base classifiers that ECONOMY-K trains per
time-point. Splits are found exactly by scanning every sorted feature column
of a node at once with vectorised prefix statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.preprocessing import LabelEncoder
from ..exceptions import DataError, NotFittedError

__all__ = ["DecisionTreeRegressor", "DecisionTreeClassifier"]


@dataclass
class _Node:
    """A tree node; leaves have ``feature == -1`` and carry ``value``."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: np.ndarray | float = 0.0


def _validate_matrix(features: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets)
    if features.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {features.shape}")
    if features.shape[0] != targets.shape[0]:
        raise DataError("features and targets must have equal length")
    if features.shape[0] == 0:
        raise DataError("cannot fit a tree on zero samples")
    return features, targets


def _best_split_mse(
    features: np.ndarray, targets: np.ndarray, min_samples_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, score-gain) of a node under MSE reduction.

    Scores every column in one 2-D pass and returns ``None`` when no valid
    split exists. Uses prefix sums over the column-sorted targets: for a
    split after position i, the impurity drop is proportional to
    ``S_l^2 / n_l + S_r^2 / n_r`` (larger is better). Each column's
    ``cumsum`` is a sequential add, so every gain has the bits a
    column-by-column scan gives. Within a column the first maximum wins (a
    NaN gain, if any, is that column's maximum); across columns the first
    column with the strictly largest gain wins, and a NaN gain never does.
    """
    n, n_features = features.shape
    if n < 2 or n_features == 0:
        return None
    order = np.argsort(features, axis=0, kind="stable")
    sorted_values = np.take_along_axis(features, order, axis=0)
    prefix = np.cumsum(targets[order], axis=0)
    total = prefix[-1]
    positions = np.arange(1, n)
    # Valid split positions: enough samples each side, and a value change.
    valid = (positions >= min_samples_leaf) & (positions <= n - min_samples_leaf)
    valid = valid[:, None] & (sorted_values[1:] > sorted_values[:-1])
    left_sum = prefix[:-1]
    left_count = positions.astype(float)[:, None]
    right_count = n - left_count
    gain = left_sum**2 / left_count + (total - left_sum) ** 2 / right_count
    gain = np.where(valid, gain, -np.inf)
    rows = gain.argmax(axis=0)
    column_gain = gain[rows, np.arange(n_features)]
    feature = int(np.where(np.isnan(column_gain), -np.inf, column_gain).argmax())
    if not column_gain[feature] > -np.inf:
        return None
    row = rows[feature]
    threshold = 0.5 * (sorted_values[row, feature] + sorted_values[row + 1, feature])
    return feature, threshold, float(column_gain[feature])


class DecisionTreeRegressor:
    """Exact-split CART regression tree minimising squared error."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ) -> None:
        if max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self._root: _Node | None = None

    def _build(self, features: np.ndarray, targets: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(targets.mean()))
        if depth >= self.max_depth or len(targets) < self.min_samples_split:
            return node
        split = _best_split_mse(features, targets, self.min_samples_leaf)
        if split is None:
            return node
        best_feature, best_threshold, best_gain = split
        baseline = targets.sum() ** 2 / len(targets)
        if best_gain <= baseline + 1e-12:
            return node
        mask = features[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(features[mask], targets[mask], depth + 1)
        node.right = self._build(features[~mask], targets[~mask], depth + 1)
        return node

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``(features, targets)``."""
        features, targets = _validate_matrix(features, targets)
        self._root = self._build(features, targets.astype(float), depth=0)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Mean target of the leaf each row falls into."""
        if self._root is None:
            raise NotFittedError("DecisionTreeRegressor used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.empty(features.shape[0])
        for i, row in enumerate(features):
            node = self._root
            while node.feature >= 0:
                assert node.left is not None and node.right is not None
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class DecisionTreeClassifier:
    """Exact-split CART classification tree minimising Gini impurity."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ) -> None:
        if max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self._root: _Node | None = None
        self._encoder = LabelEncoder()

    @property
    def classes_(self) -> np.ndarray:
        """Distinct class labels seen during fit."""
        if self._encoder.classes_ is None:
            raise NotFittedError("DecisionTreeClassifier used before fit")
        return self._encoder.classes_

    def _gini(self, counts: np.ndarray) -> float:
        total = counts.sum()
        if total == 0:
            return 0.0
        proportions = counts / total
        return float(1.0 - np.sum(proportions**2))

    def _best_split_gini(
        self, column: np.ndarray, one_hot: np.ndarray
    ) -> tuple[float, float] | None:
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        sorted_one_hot = one_hot[order]
        n = len(sorted_values)
        prefix = np.cumsum(sorted_one_hot, axis=0)
        total = prefix[-1]
        positions = np.arange(1, n)
        valid = (positions >= self.min_samples_leaf) & (
            positions <= n - self.min_samples_leaf
        )
        valid &= sorted_values[1:] > sorted_values[:-1]
        if not valid.any():
            return None
        left = prefix[:-1]
        right = total[None, :] - left
        left_n = positions.astype(float)
        right_n = n - left_n
        left_gini = 1.0 - np.sum(left**2, axis=1) / left_n**2
        right_gini = 1.0 - np.sum(right**2, axis=1) / right_n**2
        weighted = (left_n * left_gini + right_n * right_gini) / n
        weighted = np.where(valid, weighted, np.inf)
        best = int(weighted.argmin())
        threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
        return threshold, float(weighted[best])

    def _build(self, features: np.ndarray, one_hot: np.ndarray, depth: int) -> _Node:
        counts = one_hot.sum(axis=0)
        node = _Node(value=counts / counts.sum())
        parent_gini = self._gini(counts)
        if (
            depth >= self.max_depth
            or len(one_hot) < self.min_samples_split
            or parent_gini == 0.0
        ):
            return node
        best_impurity = np.inf
        best_feature = -1
        best_threshold = 0.0
        for feature in range(features.shape[1]):
            split = self._best_split_gini(features[:, feature], one_hot)
            if split is not None and split[1] < best_impurity:
                best_threshold, best_impurity = split
                best_feature = feature
        if best_feature < 0 or best_impurity >= parent_gini - 1e-12:
            return node
        mask = features[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._build(features[mask], one_hot[mask], depth + 1)
        node.right = self._build(features[~mask], one_hot[~mask], depth + 1)
        return node

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on ``(features, labels)``."""
        features, labels = _validate_matrix(features, labels)
        encoded = self._encoder.fit_transform(labels)
        n_classes = len(self._encoder.classes_)
        one_hot = np.zeros((len(encoded), n_classes))
        one_hot[np.arange(len(encoded)), encoded] = 1.0
        self._root = self._build(features, one_hot, depth=0)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Leaf class-frequency vector per row."""
        if self._root is None:
            raise NotFittedError("DecisionTreeClassifier used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        out = np.empty((features.shape[0], len(self.classes_)))
        for i, row in enumerate(features):
            node = self._root
            while node.feature >= 0:
                assert node.left is not None and node.right is not None
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most frequent class of the leaf each row falls into."""
        probabilities = self.predict_proba(features)
        return self._encoder.inverse_transform(probabilities.argmax(axis=1))

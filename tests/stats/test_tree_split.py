"""Bit-identity of the one-pass regression-tree split search.

``_best_split_mse`` scores every feature column of a node in one 2-D pass.
The reference below is the search it replaced: a 1-D scan per column and a
per-feature loop that keeps the first feature with the strictly largest
gain. Both must grow the same trees, down to the float64 bits of every
threshold and leaf value, so ECONOMY-K's boosted classifiers reproduce
their outputs exactly.
"""

import numpy as np
import pytest

from repro.stats import boosting
from repro.stats.boosting import GradientBoostingClassifier
from repro.stats.tree import DecisionTreeRegressor, _Node, _best_split_mse


def reference_column_split(column, targets, min_samples_leaf):
    """Reference: best (threshold, gain) of one column, or ``None``."""
    order = np.argsort(column, kind="stable")
    sorted_values = column[order]
    sorted_targets = targets[order]
    n = len(sorted_targets)
    prefix = np.cumsum(sorted_targets)
    total = prefix[-1]
    positions = np.arange(1, n)
    valid = (positions >= min_samples_leaf) & (positions <= n - min_samples_leaf)
    valid &= sorted_values[1:] > sorted_values[:-1]
    if not valid.any():
        return None
    left_sum = prefix[:-1]
    left_count = positions.astype(float)
    right_count = n - left_count
    gain = left_sum**2 / left_count + (total - left_sum) ** 2 / right_count
    gain = np.where(valid, gain, -np.inf)
    best = int(gain.argmax())
    threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
    return threshold, float(gain[best])


def reference_split(features, targets, min_samples_leaf):
    """Reference: the per-feature loop, first strictly largest gain wins."""
    best_gain = -np.inf
    best_feature = -1
    best_threshold = 0.0
    for feature in range(features.shape[1]):
        split = reference_column_split(
            features[:, feature], targets, min_samples_leaf
        )
        if split is not None and split[1] > best_gain:
            best_threshold, best_gain = split
            best_feature = feature
    if best_feature < 0:
        return None
    return best_feature, best_threshold, best_gain


class ReferenceTree(DecisionTreeRegressor):
    """A regression tree grown with the per-feature reference search."""

    def _build(self, features, targets, depth):
        node = _Node(value=float(targets.mean()))
        if depth >= self.max_depth or len(targets) < self.min_samples_split:
            return node
        split = reference_split(features, targets, self.min_samples_leaf)
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


def bits(value):
    return int(np.float64(value).view(np.uint64))


def signature(node):
    """Pre-order (feature, threshold bits, value bits) of every node."""
    out = [(node.feature, bits(node.threshold), bits(node.value))]
    if node.feature >= 0:
        out += signature(node.left) + signature(node.right)
    return out


def make_matrix(rng, n, n_features):
    """Columns of mixed kinds: ties, NaN, +-inf, constants, continuous."""
    columns = []
    for _ in range(n_features):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            column = rng.normal(size=n)
        elif kind == 1:
            column = rng.integers(0, 4, size=n).astype(float)
        elif kind == 2:
            column = np.round(rng.normal(size=n), 1)
        elif kind == 3:
            column = np.full(n, 1.5)
        elif kind == 4:
            column = rng.normal(size=n)
            column[rng.random(n) < 0.2] = np.nan
        else:
            column = rng.integers(0, 3, size=n).astype(float)
            column[rng.random(n) < 0.15] = np.inf
            column[rng.random(n) < 0.15] = -np.inf
        columns.append(column)
    if not columns:
        return np.empty((n, 0))
    matrix = np.stack(columns, axis=1)
    if n_features > 1 and rng.random() < 0.3:
        # A duplicated column ties every gain with an earlier feature.
        matrix[:, -1] = matrix[:, 0]
    return matrix


def make_targets(rng, n):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:  # softmax-residual-like values in (-1, 1)
        return np.round(rng.uniform(-1.0, 1.0, size=n), 2)
    return rng.integers(-1, 2, size=n).astype(float)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestTreeSplit:
    @pytest.mark.parametrize("seed", range(8))
    def test_trees_bit_identical_to_per_feature_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n = int(rng.integers(1, 31))
            features = make_matrix(rng, n, int(rng.integers(0, 41)))
            targets = make_targets(rng, n)
            params = dict(
                max_depth=int(rng.integers(1, 5)),
                min_samples_leaf=int(rng.integers(1, 5)),
            )
            fast = DecisionTreeRegressor(**params).fit(features, targets)
            slow = ReferenceTree(**params).fit(features, targets)
            assert signature(fast._root) == signature(slow._root)

    @pytest.mark.parametrize("seed", range(4))
    def test_node_split_matches_reference(self, seed):
        # Non-finite targets give NaN gains in some columns and inf gains in
        # others; a NaN must lose just as in the loop.
        rng = np.random.default_rng([seed, 1])
        for _ in range(300):
            n = int(rng.integers(1, 31))
            features = make_matrix(rng, n, int(rng.integers(0, 41)))
            targets = make_targets(rng, n)
            if rng.random() < 0.4:
                targets[rng.integers(n)] = rng.choice([np.nan, np.inf])
            leaf = int(rng.integers(1, 5))
            expected = reference_split(features, targets, leaf)
            actual = _best_split_mse(features, targets, leaf)
            if expected is None:
                assert actual is None
            else:
                assert actual[0] == expected[0]
                assert bits(actual[1]) == bits(expected[1])
                assert bits(actual[2]) == bits(expected[2])

    def test_equal_gains_pick_the_first_feature(self):
        column = np.array([0.0, 1.0, 2.0, 3.0])
        features = np.stack([np.zeros(4), column, column], axis=1)
        split = _best_split_mse(features, np.array([0.0, 0.0, 1.0, 1.0]), 1)
        assert split[:2] == (1, 1.5)

    def test_nan_gain_never_wins(self):
        # Column 0 sorts the inf target first (inf - inf: NaN gain), column 1
        # sorts it last (an inf gain).
        features = np.array([[0.0, 2.0], [1.0, 0.0], [2.0, 1.0]])
        targets = np.array([np.inf, 0.0, 0.0])
        assert reference_split(features, targets, 1) == (1, 0.5, np.inf)
        assert _best_split_mse(features, targets, 1) == (1, 0.5, np.inf)

    def test_no_valid_split(self):
        assert _best_split_mse(np.empty((5, 0)), np.ones(5), 1) is None
        assert _best_split_mse(np.ones((1, 3)), np.ones(1), 1) is None
        assert _best_split_mse(np.ones((6, 3)), np.arange(6.0), 1) is None
        assert _best_split_mse(np.arange(4.0)[:, None], np.arange(4.0), 3) is None


class TestBoostedLogits:
    @pytest.mark.parametrize("subsample", [1.0, 0.8])
    def test_logits_bit_identical_to_reference_trees(self, subsample, monkeypatch):
        rng = np.random.default_rng(int(subsample * 10))
        cases = []
        for _ in range(30):
            n = int(rng.integers(4, 31))
            n_classes = int(rng.integers(2, 5))
            features = np.round(rng.normal(size=(n, int(rng.integers(1, 25)))), 1)
            labels = rng.integers(0, n_classes, size=n)
            seed = int(rng.integers(0, 1000))
            cases.append((features, labels, seed))

        def logits():
            out = []
            for features, labels, seed in cases:
                model = GradientBoostingClassifier(
                    n_estimators=5, subsample=subsample, seed=seed
                ).fit(features, labels)
                out.append(model._logits(features))
            return out

        fast = logits()
        monkeypatch.setattr(boosting, "DecisionTreeRegressor", ReferenceTree)
        slow = logits()
        for actual, expected in zip(fast, slow):
            assert np.array_equal(
                actual.view(np.uint64), expected.view(np.uint64)
            )

"""Bit-identity of the vectorised SFA binning and SVM projection.

``_information_gain_boundaries`` scores every candidate threshold once per
column. The reference below is the greedy loop it replaced: it rescores
every candidate with :func:`repro.stats.information_gain` for each boundary
it places. Both must return the same float64 bits, ties included, so the
WEASEL-family grid reproduces its outputs exactly.
"""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.stats import information_gain
from repro.stats import svm
from repro.transform import SFATransformer, fourier_coefficients
from repro.transform.sfa import (
    _equi_depth_boundaries,
    _information_gain_boundaries,
)


def greedy_boundaries(column, labels, n_bins):
    """Reference: rescore every candidate for every boundary placed."""
    order = np.argsort(column, kind="stable")
    sorted_values = column[order]
    distinct = sorted_values[1:] > sorted_values[:-1]
    candidates = 0.5 * (sorted_values[1:] + sorted_values[:-1])[distinct]
    if candidates.size == 0:
        return _equi_depth_boundaries(column, n_bins)
    if candidates.size > 64:
        candidates = candidates[
            np.linspace(0, candidates.size - 1, 64).astype(int)
        ]
    boundaries = []
    for _ in range(n_bins - 1):
        best_gain = -np.inf
        best_candidate = None
        for candidate in candidates:
            if any(abs(candidate - b) < 1e-12 for b in boundaries):
                continue
            gain = information_gain(column, labels, candidate)
            if gain > best_gain:
                best_gain = gain
                best_candidate = float(candidate)
        if best_candidate is None:
            break
        boundaries.append(best_candidate)
    for value in _equi_depth_boundaries(column, n_bins):
        if len(boundaries) >= n_bins - 1:
            break
        if all(abs(value - b) > 1e-12 for b in boundaries):
            boundaries.append(float(value))
    return np.sort(np.asarray(boundaries))


def project_with_clip(alpha, upper):
    """Reference: the bisection with a fresh ``np.clip`` every step."""
    low = alpha.min() - upper
    high = alpha.max()
    for _ in range(100):
        shift = 0.5 * (low + high)
        total = np.clip(alpha - shift, 0.0, upper).sum()
        if total > 1.0:
            low = shift
        else:
            high = shift
        if high - low < 1e-12:
            break
    return np.clip(alpha - 0.5 * (low + high), 0.0, upper)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def make_column(kind, rng, n):
    if kind == "continuous":  # > 64 candidates: the subsample
        return rng.normal(size=n)
    if kind == "ties":
        return rng.integers(0, 6, size=n).astype(float)
    if kind == "near-duplicates":  # candidates within 1e-12 of each other
        base = rng.integers(0, 4, size=n).astype(float)
        return base + rng.integers(0, 3, size=n) * 1e-13
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "few-distinct":  # fewer candidates than n_bins - 1
        return rng.integers(0, 2, size=n).astype(float)
    if kind == "nan":
        column = rng.normal(size=n)
        column[rng.random(n) < 0.2] = np.nan
        return column
    if kind == "infinite":
        column = rng.integers(0, 3, size=n).astype(float)
        column[rng.random(n) < 0.1] = np.inf
        column[rng.random(n) < 0.1] = -np.inf
        return column
    raise AssertionError(kind)


KINDS = [
    "continuous",
    "ties",
    "near-duplicates",
    "constant",
    "few-distinct",
    "nan",
    "infinite",
]


class TestInformationGainBoundaries:
    @pytest.mark.parametrize("n_bins", [2, 4, 6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_greedy_reference(self, kind, n_bins):
        rng = np.random.default_rng([KINDS.index(kind), n_bins])
        for n_classes in range(1, 15):
            # Few windows per class give many near-tied gains; more than
            # 65 windows give more than 64 candidates.
            for n in (int(rng.integers(20, 40)), int(rng.integers(70, 160))):
                column = make_column(kind, rng, n)
                labels = rng.integers(0, n_classes, size=n)
                assert_same_bits(
                    _information_gain_boundaries(column, labels, n_bins),
                    greedy_boundaries(column, labels, n_bins),
                )

    @pytest.mark.parametrize(
        "column, labels",
        [
            (
                [0, 0, 2, 3, 1, 4, 4, 5, 3, 5, 5, 5, 2, 5, 4, 4, 2, 5, 4, 4],
                [2, 9, 11, 7, 9, 8, 0, 2, 9, 11, 10, 7, 10, 8, 3, 13, 0, 6,
                 8, 4],
            ),
            (
                [2, 4, 2, 0, 5, 2, 2, 0, 1, 1, 3, 4, 1, 4, 4, 3, 2, 4, 5, 0,
                 5, 0, 0, 5, 5],
                [9, 3, 8, 1, 4, 9, 5, 11, 4, 8, 1, 6, 6, 1, 6, 6, 6, 7, 4,
                 11, 6, 6, 5, 3, 2],
            ),
        ],
    )
    def test_more_than_8_classes(self, column, labels):
        # Summing zero-count classes too would regroup numpy's pairwise
        # sum above 8 terms and pick different boundaries here.
        column, labels = np.asarray(column, dtype=float), np.asarray(labels)
        assert_same_bits(
            _information_gain_boundaries(column, labels, 4),
            greedy_boundaries(column, labels, 4),
        )

    @pytest.mark.parametrize("n_bins", [2, 4, 6])
    def test_string_labels(self, n_bins):
        rng = np.random.default_rng(n_bins)
        names = np.array(["walk", "run", "sit", "stand", "lie", "cycle"])
        for kind in KINDS:
            column = make_column(kind, rng, 90)
            labels = names[rng.integers(0, names.size, size=90)]
            assert_same_bits(
                _information_gain_boundaries(column, labels, n_bins),
                greedy_boundaries(column, labels, n_bins),
            )

    def test_mirror_image_ties_resolve_to_first_candidate(self):
        # Splits at 1.5 and 4.5 have mirror-image class counts: equal gain.
        column = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        labels = np.array([0, 1, 1, 1, 0])
        boundaries = _information_gain_boundaries(column, labels, 2)
        assert_same_bits(boundaries, greedy_boundaries(column, labels, 2))
        assert boundaries.tolist() == [1.5]

    @pytest.mark.parametrize("n_classes", [2, 9, 14])
    def test_sfa_fit_matches_reference_per_coefficient(self, n_classes):
        rng = np.random.default_rng(n_classes)
        windows = rng.normal(size=(150, 24)).cumsum(axis=1)
        labels = rng.integers(0, n_classes, size=150)
        sfa = SFATransformer(word_length=6, alphabet_size=4).fit(
            windows, labels
        )
        coefficients = fourier_coefficients(windows, 6)
        for position in range(6):
            assert_same_bits(
                sfa.boundaries_[position],
                greedy_boundaries(coefficients[:, position], labels, 4),
            )


class TestSFALabelLength:
    @pytest.mark.parametrize("n_labels", [0, 9, 11, 20])
    def test_label_count_must_match_windows(self, n_labels):
        windows = np.random.default_rng(0).normal(size=(10, 16))
        with pytest.raises(DataError, match="labels"):
            SFATransformer().fit(windows, np.zeros(n_labels, dtype=int))

    def test_equi_depth_ignores_labels(self):
        windows = np.random.default_rng(0).normal(size=(10, 16))
        sfa = SFATransformer(binning="equi-depth").fit(windows, np.zeros(3))
        assert sfa.boundaries_.shape == (4, 3)


class TestBoxSimplexProjection:
    def test_bit_identical_to_clip_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            nu = float(rng.uniform(0.01, 1.0))
            upper = max(1.0 / max(nu * n, 1.0), 1.0 / n + 1e-12)
            alpha = rng.normal(scale=float(rng.uniform(1e-3, 10.0)), size=n)
            assert_same_bits(
                svm._project_box_simplex(alpha, upper),
                project_with_clip(alpha, upper),
            )

    def test_one_class_svm_fit_unchanged(self, monkeypatch):
        rows = np.random.default_rng(1).normal(size=(60, 5))
        fitted = svm.OneClassSVM(nu=0.2).fit(rows)
        monkeypatch.setattr(svm, "_project_box_simplex", project_with_clip)
        reference = svm.OneClassSVM(nu=0.2).fit(rows)
        assert_same_bits(fitted._alpha, reference._alpha)
        assert fitted._rho == reference._rho

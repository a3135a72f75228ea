"""Bit-identity of the vectorised SFA binning and SVM projection.

``_information_gain_boundaries`` scores every candidate threshold once per
column. The reference below is the greedy loop it replaced: it rescores
every candidate with :func:`repro.stats.information_gain` for each boundary
it places. Both must return the same float64 bits, ties included, so the
WEASEL-family grid reproduces its outputs exactly.

``_project_box_simplex`` takes each bisection decision it can prove without
numpy; ``project_with_clip`` runs every step in numpy. Both must return the
same bits, so TEASER's one-class SVM filters are unchanged.
"""

import numpy as np
import pytest

from repro.data import train_test_split
from repro.etsc import TEASER
from repro.exceptions import DataError
from repro.stats import information_gain
from repro.stats import svm
from repro.transform import SFATransformer, fourier_coefficients
from repro.transform.sfa import (
    _equi_depth_boundaries,
    _information_gain_boundaries,
)
from tests.conftest import make_sinusoid_dataset


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


def fit_upper(nu, n):
    """The box bound ``OneClassSVM.fit`` projects onto for ``n`` rows."""
    upper = 1.0 / max(nu * n, 1.0)
    if upper * n < 1.0:
        upper = 1.0 / n + 1e-12
    return upper


def teaser_features(rng, n_rows, n_classes):
    """TEASER's OC-SVM input: class probabilities plus the top-two margin."""
    probabilities = rng.dirichlet(np.full(n_classes, 0.5), size=n_rows)
    ordered = np.sort(probabilities, axis=1)
    margin = ordered[:, -1:] - ordered[:, -2:-1]
    return np.concatenate([probabilities, margin], axis=1)


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

    def test_n_one_and_all_equal_alpha(self):
        for n in (1, 2, 3, 9, 64, 257):
            for nu in (0.05, 0.5, 1.0):
                upper = fit_upper(nu, n)
                for value in (1.0 / n, 0.0, -3.5, 2e5):
                    alpha = np.full(n, value)
                    assert_same_bits(
                        svm._project_box_simplex(alpha, upper),
                        project_with_clip(alpha, upper),
                    )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 49, 98, 257])
    def test_box_exactly_fills_the_simplex(self, n):
        # n * upper == 1 up to rounding: nu = 1 gives upper = 1/n, and
        # fit relaxes a box that rounds too tight to 1/n + 1e-12. The root
        # then sits at the bottom of the bracket.
        rng = np.random.default_rng(n)
        for upper in (1.0 / n, fit_upper(1.0, n)):
            for _ in range(20):
                alpha = rng.normal(scale=0.5, size=n)
                assert_same_bits(
                    svm._project_box_simplex(alpha, upper),
                    project_with_clip(alpha, upper),
                )

    def test_plateau_falls_back_to_numpy(self, monkeypatch):
        # With upper = 1 the total is exactly 1 for every shift in [0, 4]:
        # the first coordinate sits at the cap and the others at 0. No
        # margin can certify a decision on that plateau, so numpy takes it.
        shifts = []
        numpy_step = svm._bisection_total

        def counting_step(alpha, shift, upper, out):
            shifts.append(shift)
            return numpy_step(alpha, shift, upper, out)

        monkeypatch.setattr(svm, "_bisection_total", counting_step)
        for alpha in (np.array([5.0, 0.0, 0.0]), np.array([0.0, 5.0])):
            assert_same_bits(
                svm._project_box_simplex(alpha, 1.0),
                project_with_clip(alpha, 1.0),
            )
        assert shifts
        assert all(0.0 <= shift <= 4.0 for shift in shifts)

    def test_typical_steps_are_certified(self, monkeypatch):
        # The speed contract: away from plateaus, almost every decision is
        # proved, so the numpy step is rare.
        calls = []
        numpy_step = svm._bisection_total

        def counting_step(*args):
            calls.append(args[1])
            return numpy_step(*args)

        monkeypatch.setattr(svm, "_bisection_total", counting_step)
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha = rng.normal(scale=0.3, size=4)
            svm._project_box_simplex(alpha, fit_upper(0.1, 4))
        assert len(calls) < 40

    @pytest.mark.parametrize("exponent", [-9, -6, -3, 0, 3, 6])
    def test_magnitudes(self, exponent):
        rng = np.random.default_rng(exponent + 10)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            upper = fit_upper(float(rng.uniform(0.01, 1.0)), n)
            alpha = rng.normal(scale=10.0 ** exponent, size=n)
            alpha += rng.normal(scale=10.0 ** exponent)
            assert_same_bits(
                svm._project_box_simplex(alpha, upper),
                project_with_clip(alpha, upper),
            )

    @pytest.mark.parametrize("n", [8, 9, 15, 16, 17, 127, 128, 129, 257])
    def test_pairwise_summation_sizes(self, n):
        # numpy sums up to 8 values in sequence, larger arrays in 8-way
        # blocks: the certificate must hold for any summation order.
        rng = np.random.default_rng(n)
        for nu in (0.02, 0.1, 0.5, 1.0):
            upper = fit_upper(nu, n)
            for _ in range(10):
                alpha = 1.0 / n + rng.normal(scale=upper, size=n)
                assert_same_bits(
                    svm._project_box_simplex(alpha, upper),
                    project_with_clip(alpha, upper),
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha(self, bad):
        rng = np.random.default_rng(3)
        for n in (1, 3, 9):
            alpha = rng.normal(size=n)
            alpha[rng.integers(n)] = bad
            with np.errstate(invalid="ignore"):
                assert_same_bits(
                    svm._project_box_simplex(alpha, 0.5),
                    project_with_clip(alpha, 0.5),
                )

    def test_teaser_shaped_fits_unchanged(self, monkeypatch):
        rng = np.random.default_rng(7)
        cases = [
            teaser_features(rng, int(rng.integers(3, 5)), int(rng.integers(2, 4)))
            for _ in range(12)
        ]
        fitted = [svm.OneClassSVM(nu=0.1).fit(rows) for rows in cases]
        monkeypatch.setattr(svm, "_project_box_simplex", project_with_clip)
        for rows, model in zip(cases, fitted):
            reference = svm.OneClassSVM(nu=0.1).fit(rows)
            assert_same_bits(model._alpha, reference._alpha)
            assert model._rho == reference._rho


class TestTeaserFilterBits:
    def test_teaser_matches_reference_projection(self, monkeypatch):
        train, test = train_test_split(make_sinusoid_dataset(24), 0.25)
        fitted = TEASER(n_prefixes=3).train(train)
        monkeypatch.setattr(svm, "_project_box_simplex", project_with_clip)
        reference = TEASER(n_prefixes=3).train(train)

        filters = [f for f in fitted._filters if f is not None]
        assert filters, "no prefix trained a one-class filter"
        for model, expected in zip(fitted._filters, reference._filters):
            assert (model is None) == (expected is None)
            if model is not None:
                assert_same_bits(model._alpha, expected._alpha)
                assert model._rho == expected._rho
        assert fitted.v_ == reference.v_
        assert [
            (p.label, p.prefix_length) for p in fitted.predict(test)
        ] == [(p.label, p.prefix_length) for p in reference.predict(test)]

"""Symbolic Fourier Approximation (SFA) with information-gain binning.

WEASEL turns each sliding window into a short *word* over a small alphabet:

1. the window is approximated by its first Fourier coefficients
   (:func:`fourier_coefficients`);
2. each retained coefficient is discretised into one symbol using per-
   coefficient bin boundaries learned on the training windows — either
   equi-depth quantiles or, as in WEASEL, boundaries chosen to maximise
   information gain against the class labels (:class:`SFATransformer`).

Words are encoded as integers in base ``alphabet_size`` so downstream code
can hash and count them cheaply.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError, NotFittedError

__all__ = ["fourier_coefficients", "SFATransformer"]


def fourier_coefficients(
    windows: np.ndarray, n_coefficients: int, drop_mean: bool = True
) -> np.ndarray:
    """Truncated real-valued DFT features of each window row.

    Interleaves real and imaginary parts of the lowest-frequency DFT bins
    into ``n_coefficients`` columns. With ``drop_mean`` the DC bin (window
    mean) is skipped, making words invariant to vertical offset — WEASEL's
    default behaviour.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if n_coefficients < 1:
        raise DataError(
            f"n_coefficients must be >= 1, got {n_coefficients}"
        )
    spectrum = np.fft.rfft(windows, axis=1)
    if drop_mean:
        spectrum = spectrum[:, 1:]
    if spectrum.shape[1] == 0:
        # Window of length 1 with DC dropped: no information left.
        return np.zeros((windows.shape[0], n_coefficients))
    interleaved = np.empty((windows.shape[0], 2 * spectrum.shape[1]))
    interleaved[:, 0::2] = spectrum.real
    interleaved[:, 1::2] = spectrum.imag
    if interleaved.shape[1] >= n_coefficients:
        return interleaved[:, :n_coefficients]
    padded = np.zeros((windows.shape[0], n_coefficients))
    padded[:, : interleaved.shape[1]] = interleaved
    return padded


def _equi_depth_boundaries(column: np.ndarray, n_bins: int) -> np.ndarray:
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.quantile(column, quantiles)


def _entropies(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of a class-count matrix.

    Bit-identical to :func:`repro.stats.information_gain`'s per-subset
    entropy: rows are grouped by which classes they contain, so each row
    sums exactly the classes ``np.unique`` would report, in class order.
    Padding with zero-count classes instead would change the grouping of
    numpy's pairwise ``np.sum`` once more than 8 classes are present.
    """
    entropies = np.zeros(counts.shape[0])
    # One opaque key per row's class-presence pattern: far cheaper to
    # group than np.unique(axis=0) on the boolean matrix.
    packed = np.packbits(counts > 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    for index, row in enumerate(first):
        present = np.flatnonzero(counts[row])
        if present.size == 0:
            continue  # empty subset
        rows = np.flatnonzero(inverse == index)
        proportions = counts[np.ix_(rows, present)] / sizes[rows, None]
        entropies[rows] = -np.sum(proportions * np.log2(proportions), axis=1)
    return entropies


def _information_gain_boundaries(
    column: np.ndarray, labels: np.ndarray, n_bins: int
) -> np.ndarray:
    """Information-gain boundaries, as in WEASEL's binning.

    Candidates are the midpoints of a value-sorted subsample. Each one is
    scored once: its gain depends only on the column, the labels and the
    candidate itself, never on the boundaries already placed. Taking the
    ``n_bins - 1`` best from one stable ranking, skipping candidates
    within 1e-12 of a chosen boundary, therefore picks exactly what a
    greedy loop that rescores every candidate per boundary would pick,
    ties going to the first candidate.
    """
    order = np.argsort(column, kind="stable")
    sorted_values = column[order]
    # Candidate thresholds: midpoints between distinct consecutive values.
    distinct = sorted_values[1:] > sorted_values[:-1]
    candidates = 0.5 * (sorted_values[1:] + sorted_values[:-1])[distinct]
    if candidates.size == 0:
        return _equi_depth_boundaries(column, n_bins)
    if candidates.size > 64:
        # Subsample candidates evenly to bound the O(candidates * n) cost.
        candidates = candidates[
            np.linspace(0, candidates.size - 1, 64).astype(int)
        ]
    # Class counts left of every candidate (values <= candidate) from one
    # cumulative count matrix over the sorted labels. NaN values sort last
    # and fall right of every split; a NaN candidate, the midpoint of -inf
    # and inf, has nothing on its left.
    classes, codes = np.unique(labels, return_inverse=True)
    cumulative = np.zeros((column.size + 1, classes.size), dtype=np.int64)
    cumulative[np.arange(1, column.size + 1), codes.ravel()[order]] = 1
    np.cumsum(cumulative, axis=0, out=cumulative)
    split_at = np.searchsorted(sorted_values, candidates, side="right")
    split_at[np.isnan(candidates)] = 0
    left = cumulative[split_at]
    sizes = np.concatenate([split_at, column.size - split_at, [column.size]])
    entropies = _entropies(
        np.vstack([left, cumulative[-1] - left, cumulative[-1:]]), sizes
    )
    left_entropy, right_entropy = entropies[:-1].reshape(2, -1)
    left_size, right_size = sizes[:-1].reshape(2, -1)
    weighted = (
        left_size * left_entropy + right_size * right_entropy
    ) / column.size
    gains = entropies[-1] - weighted

    boundaries: list[float] = []
    for candidate in candidates[np.argsort(-gains, kind="stable")]:
        if len(boundaries) == n_bins - 1:
            break
        if any(abs(candidate - b) < 1e-12 for b in boundaries):
            continue
        boundaries.append(float(candidate))
        if not np.isfinite(candidate):
            # Never within 1e-12 of itself, so it stays the best candidate
            # for every remaining boundary.
            boundaries += boundaries[-1:] * (n_bins - 1 - len(boundaries))
    if len(boundaries) < n_bins - 1:
        # Fill any remaining slots with equi-depth cuts.
        for value in _equi_depth_boundaries(column, n_bins):
            if len(boundaries) >= n_bins - 1:
                break
            if all(abs(value - b) > 1e-12 for b in boundaries):
                boundaries.append(float(value))
    return np.sort(np.asarray(boundaries))


class SFATransformer:
    """Learn per-coefficient bins and map windows to integer words.

    Parameters
    ----------
    word_length:
        Number of Fourier coefficients retained (symbols per word).
    alphabet_size:
        Number of bins per coefficient.
    binning:
        ``"information-gain"`` (WEASEL) or ``"equi-depth"``.
    drop_mean:
        Skip the DC coefficient (offset invariance).
    """

    def __init__(
        self,
        word_length: int = 4,
        alphabet_size: int = 4,
        binning: str = "information-gain",
        drop_mean: bool = True,
    ) -> None:
        if word_length < 1:
            raise DataError(f"word_length must be >= 1, got {word_length}")
        if alphabet_size < 2:
            raise DataError(
                f"alphabet_size must be >= 2, got {alphabet_size}"
            )
        if binning not in ("information-gain", "equi-depth"):
            raise DataError(f"unknown binning {binning!r}")
        self.word_length = word_length
        self.alphabet_size = alphabet_size
        self.binning = binning
        self.drop_mean = drop_mean
        self.boundaries_: np.ndarray | None = None  # (word_length, bins-1)

    def fit(
        self, windows: np.ndarray, labels: np.ndarray | None = None
    ) -> "SFATransformer":
        """Learn the discretisation boundaries from training windows.

        ``labels`` (one class per window) are required for information-gain
        binning and ignored for equi-depth.
        """
        coefficients = fourier_coefficients(
            windows, self.word_length, self.drop_mean
        )
        use_ig = self.binning == "information-gain"
        if use_ig:
            if labels is None:
                raise DataError("information-gain binning requires labels")
            labels = np.asarray(labels)
            if labels.shape[:1] != coefficients.shape[:1]:
                raise DataError(
                    f"got {labels.size} labels for {len(coefficients)} windows"
                )
        boundaries = np.empty((self.word_length, self.alphabet_size - 1))
        for position in range(self.word_length):
            column = coefficients[:, position]
            if use_ig:
                bins = _information_gain_boundaries(
                    column, labels, self.alphabet_size
                )
            else:
                bins = _equi_depth_boundaries(column, self.alphabet_size)
            if bins.size < self.alphabet_size - 1:
                padded = np.full(self.alphabet_size - 1, np.inf)
                padded[: bins.size] = bins
                bins = padded
            boundaries[position] = bins
        self.boundaries_ = boundaries
        return self

    def transform_symbols(self, windows: np.ndarray) -> np.ndarray:
        """Map windows to symbol matrices of shape ``(n, word_length)``."""
        if self.boundaries_ is None:
            raise NotFittedError("SFATransformer used before fit")
        coefficients = fourier_coefficients(
            windows, self.word_length, self.drop_mean
        )
        symbols = np.empty(coefficients.shape, dtype=np.int64)
        for position in range(self.word_length):
            symbols[:, position] = np.searchsorted(
                self.boundaries_[position], coefficients[:, position]
            )
        return symbols

    def transform_words(self, windows: np.ndarray) -> np.ndarray:
        """Map windows to integer word codes in base ``alphabet_size``."""
        symbols = self.transform_symbols(windows)
        weights = self.alphabet_size ** np.arange(self.word_length, dtype=np.int64)
        return symbols @ weights

    def fit_transform_words(
        self, windows: np.ndarray, labels: np.ndarray | None = None
    ) -> np.ndarray:
        """Fit the bins then encode the same windows as words."""
        return self.fit(windows, labels).transform_words(windows)

    @property
    def vocabulary_size(self) -> int:
        """Number of representable words, ``alphabet_size ** word_length``."""
        return int(self.alphabet_size**self.word_length)

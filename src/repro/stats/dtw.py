"""Dynamic Time Warping and the classic 1-NN-DTW classifier.

The bake-off literature the paper builds on treats 1-NN with DTW as *the*
historical baseline for time-series classification. It is provided here as
a framework extension: :func:`dtw_distance` implements the standard dynamic
program with an optional Sakoe-Chiba band, and :class:`DTWClassifier` wraps
k-NN-DTW in the :class:`~repro.core.base.FullTSClassifier` interface so it
can serve as yet another STRUT backend.

The dynamic program is evaluated anti-diagonal by anti-diagonal: every
cell on diagonal ``i + j = d`` depends only on diagonals ``d - 1`` and
``d - 2``, so a whole diagonal is one numpy slice update and the inner
``for j`` loop disappears. The same sweep vectorises across *pairs* —
:func:`dtw_distance_matrix` runs the recurrence for a block of row/column
pairs simultaneously on a 2-D frontier, which is where the bulk of the
1-NN-DTW speedup comes from.

Both public functions validate their inputs here and dispatch the DP to
the active kernel backend (see :mod:`repro.stats.backends`): ``numpy``
runs the batched sweep above, ``naive`` the scalar reference recurrence
(bit-identical by conformance contract), ``numpy32`` the same sweep at
float32 with a tighter memory budget.
"""

from __future__ import annotations

import numpy as np

from ..core.base import FullTSClassifier
from ..data.dataset import TimeSeriesDataset
from ..exceptions import DataError, NotFittedError
from .backends import KernelBackend, get_backend

__all__ = ["dtw_distance", "dtw_distance_matrix", "DTWClassifier"]


def dtw_distance(
    first: np.ndarray,
    second: np.ndarray,
    window: int | None = None,
    max_dist: float | None = None,
    backend: "str | KernelBackend | None" = None,
) -> float:
    """DTW distance between two 1-D series.

    ``window`` is the Sakoe-Chiba band half-width in time-points (``None``
    = unconstrained). The returned value is the square root of the summed
    squared pointwise costs along the optimal warping path; for equal-length
    series it never exceeds the Euclidean distance (warping can only lower
    the alignment cost) and it is zero exactly for identical series.

    ``max_dist`` is an optional early-abandon bound (e.g. the best
    neighbour distance known so far in a 1-NN scan): as soon as every
    partial path already exceeds it, the computation stops and ``inf`` is
    returned — the exact distance is never needed once it cannot win.

    ``backend`` overrides the active kernel backend for this call.
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.ndim != 1 or second.ndim != 1:
        raise DataError("dtw_distance expects 1-D series")
    n, m = len(first), len(second)
    if n == 0 or m == 0:
        raise DataError("dtw_distance needs non-empty series")
    if window is not None:
        if window < 0:
            raise DataError(f"window must be >= 0, got {window}")
        # The band must be wide enough to connect (0, 0) to (n-1, m-1).
        window = max(window, abs(n - m))
    if max_dist is not None and max_dist < 0:
        raise DataError(f"max_dist must be >= 0, got {max_dist}")
    max_sq = None if max_dist is None else float(max_dist) ** 2
    squared = get_backend(backend).dtw(first, second, window, max_sq)
    return float(np.sqrt(squared))


def dtw_distance_matrix(
    rows: np.ndarray,
    others: np.ndarray | None = None,
    window: int | None = None,
    backend: "str | KernelBackend | None" = None,
) -> np.ndarray:
    """All-pairs DTW distances between the rows of two matrices.

    All pairs share one ``(n, m)`` grid shape, so the vectorised backends
    advance every pair at once on a ``(pairs, n + 1)`` frontier, with
    pair blocks sized to the backend's cost-tensor memory budget.
    ``backend`` overrides the active kernel backend for this call.
    """
    rows = np.asarray(rows, dtype=float)
    others = rows if others is None else np.asarray(others, dtype=float)
    if rows.ndim != 2 or others.ndim != 2:
        raise DataError("dtw_distance_matrix expects 2-D matrices")
    symmetric = others is rows
    n, m = rows.shape[1], others.shape[1]
    if n == 0 or m == 0:
        raise DataError("dtw_distance needs non-empty series")
    if window is not None:
        if window < 0:
            raise DataError(f"window must be >= 0, got {window}")
        window = max(window, abs(n - m))
    return get_backend(backend).dtw_matrix(rows, others, window, symmetric)


class DTWClassifier(FullTSClassifier):
    """k-NN classification under DTW distance (default: 1-NN-DTW).

    Multivariate series use the "independent DTW" convention: per-variable
    DTW distances are summed.

    Parameters
    ----------
    n_neighbors:
        Neighbourhood size (1 reproduces the classic baseline).
    window:
        Sakoe-Chiba band half-width; ``None`` is unconstrained, small
        values are dramatically faster and often more accurate.
    """

    def __init__(self, n_neighbors: int = 1, window: int | None = None) -> None:
        if n_neighbors < 1:
            raise DataError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = n_neighbors
        self.window = window
        self._train_values: np.ndarray | None = None
        self._train_labels: np.ndarray | None = None

    def clone(self) -> "DTWClassifier":
        """Unfitted copy with identical hyperparameters."""
        return DTWClassifier(n_neighbors=self.n_neighbors, window=self.window)

    @property
    def classes_(self) -> np.ndarray:
        """Distinct class labels seen during training."""
        if self._train_labels is None:
            raise NotFittedError("DTWClassifier used before train")
        return np.unique(self._train_labels)

    def train(self, dataset: TimeSeriesDataset) -> "DTWClassifier":
        """Memorise the training series."""
        if dataset.n_instances < self.n_neighbors:
            raise DataError(
                f"need at least {self.n_neighbors} training instances"
            )
        self._train_values = dataset.values.copy()
        self._train_labels = dataset.labels.copy()
        return self

    def _distances(self, dataset: TimeSeriesDataset) -> np.ndarray:
        assert self._train_values is not None
        if dataset.n_variables != self._train_values.shape[1]:
            raise DataError(
                f"trained on {self._train_values.shape[1]} variables, "
                f"got {dataset.n_variables}"
            )
        total = np.zeros((dataset.n_instances, self._train_values.shape[0]))
        for variable in range(dataset.n_variables):
            total += dtw_distance_matrix(
                dataset.values[:, variable, :],
                self._train_values[:, variable, :],
                self.window,
            )
        return total

    def predict(self, dataset: TimeSeriesDataset) -> np.ndarray:
        """Majority label among the k DTW-nearest training series."""
        if self._train_labels is None:
            raise NotFittedError("DTWClassifier used before train")
        distances = self._distances(dataset)
        order = np.argsort(distances, axis=1, kind="stable")[
            :, : self.n_neighbors
        ]
        neighbor_labels = self._train_labels[order]
        predictions = np.empty(dataset.n_instances, dtype=int)
        for i, votes in enumerate(neighbor_labels):
            values, counts = np.unique(votes, return_counts=True)
            predictions[i] = int(values[counts.argmax()])
        return predictions

"""One-Class SVM with an RBF kernel.

TEASER filters each prefix classifier's probabilistic predictions through a
One-Class SVM trained only on the correctly classified training instances;
samples the OC-SVM rejects are considered not-yet-reliable. This module
implements the standard nu-OC-SVM dual

    minimise   (1/2) a' K a
    subject to 0 <= a_i <= 1 / (nu * n),  sum(a) = 1

by projected gradient descent, with the simplex-with-box projection solved
by bisection. For the small per-prefix training sets TEASER produces this is
fast and dependable.

The bisection's step decisions (``sum(clip(alpha - shift, 0, upper)) > 1``)
are certified rather than recomputed wherever that is provable: one
vectorised check brackets the root between two shifts beyond which every
decision is known, and only steps inside that band run the numpy step. The
sequence of shifts, the decisions and so ``alpha`` and ``rho`` keep the
bits of the plain bisection (``docs/performance.md``, "One-class SVM
projection"). ``fit`` rejects non-finite rows, which would otherwise
bisect on NaN and leave a model that rejects every row.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from ..exceptions import DataError, NotFittedError
from .distance import pairwise_squared_euclidean

__all__ = ["OneClassSVM", "rbf_kernel"]

_EPS = float(np.finfo(float).eps)


def rbf_kernel(rows: np.ndarray, others: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix ``exp(-gamma * ||a - b||^2)``."""
    if gamma <= 0:
        raise DataError(f"gamma must be positive, got {gamma}")
    return np.exp(-gamma * pairwise_squared_euclidean(rows, others))


def _bisection_total(
    alpha: np.ndarray, shift: float, upper: float, out: np.ndarray
) -> float:
    """One numpy bisection step: ``sum(clip(alpha - shift, 0, upper))``."""
    np.subtract(alpha, shift, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, upper, out=out)
    return out.sum()


def _root_estimate(alpha: np.ndarray, upper: float) -> float:
    """Approximate shift at which ``sum(clip(alpha - shift, 0, upper))`` is 1.

    The total is piecewise linear and non-increasing in the shift, with
    knots at ``a_i - upper`` and ``a_i``. Prefix sums over the sorted
    ``alpha`` give it at any shift in ``O(log n)``, so a binary search over
    the knots finds the segment where it crosses one and the root is
    interpolated there. The estimate only centres the certified band, so
    rounding here costs speed, never bits.
    """
    values = np.sort(alpha).tolist()
    prefix = list(itertools.accumulate(values, initial=0.0))
    knots = sorted([value - upper for value in values] + values)
    n = len(values)

    def total(shift: float) -> float:
        inside = bisect.bisect_right(values, shift)
        capped = bisect.bisect_left(values, shift + upper)
        return (
            (n - capped) * upper
            + (prefix[capped] - prefix[inside])
            - (capped - inside) * shift
        )

    # total(knots[-1]) is exactly zero: the last knot is max(alpha).
    left, right = 0, len(knots) - 1
    above = total(knots[left])
    if above <= 1.0:
        return knots[left]
    below = 0.0
    while right - left > 1:
        middle = (left + right) // 2
        value = total(knots[middle])
        if value > 1.0:
            left, above = middle, value
        else:
            right, below = middle, value
    return knots[left] + (above - 1.0) / (above - below) * (
        knots[right] - knots[left]
    )


def _certified_band(
    alpha: np.ndarray, upper: float, low: float, high: float
) -> tuple[float, float]:
    """Shifts ``(s_lo, s_hi)`` beyond which every bisection decision is known.

    For a shift ``s`` numpy computes ``c_i = min(max(fl(a_i - s), 0), upper)``
    element by element and sums them. Rounding is monotone, so every
    ``c_i`` and hence their exact sum ``S(s)`` are non-increasing in ``s``.
    The ``c_i`` are non-negative, so a float sum in any order lies within a
    relative ``(n - 1) * eps / 2`` (to first order) of ``S``. Evaluating the
    same ``c_i`` at a trial shift and finding the sum above ``1 + margin``
    therefore proves ``S`` is large enough there for numpy's total to exceed
    one at every shift ``s <= s_lo``; below ``1 - margin`` proves it is at
    most one for every ``s >= s_hi``. Both need ``margin`` just over
    ``(n - 1) * eps``; it is taken four times larger plus slack. The band
    widens geometrically around the root estimate until both sides are
    proved or it spans the bracket. A side left unproved returns an
    infinite bound; a non-finite bracket proves nothing.
    """
    s_lo, s_hi = -math.inf, math.inf
    if not math.isfinite(high - low):
        return s_lo, s_hi
    guess = _root_estimate(alpha, upper)
    margin = 4.0 * (alpha.size + 4) * _EPS
    width = margin * (1.0 + max(abs(low), abs(high)))
    while True:
        trial = np.array([guess - width, guess + width])
        totals = np.minimum(
            np.maximum(alpha - trial[:, None], 0.0), upper
        ).sum(axis=1)
        if s_lo == -math.inf and totals[0] > 1.0 + margin:
            s_lo = float(trial[0])
        if s_hi == math.inf and totals[1] < 1.0 - margin:
            s_hi = float(trial[1])
        if (s_lo > -math.inf and s_hi < math.inf) or width >= high - low:
            return s_lo, s_hi
        width *= 16.0


def _project_box_simplex(alpha: np.ndarray, upper: float) -> np.ndarray:
    """Project onto ``{0 <= a_i <= upper, sum(a) = 1}`` by bisection.

    The projection is ``clip(alpha - shift, 0, upper)`` for the unique shift
    making the coordinates sum to one; ``sum`` is monotone in the shift so
    bisection converges quickly. Steps outside the certified band take
    their known decision; the rest, and every step for non-finite
    ``alpha``, run the numpy step.
    """
    low = float(alpha.min()) - upper
    high = float(alpha.max())
    s_lo, s_hi = _certified_band(alpha, upper, low, high)
    clipped = np.empty_like(alpha)
    for _ in range(100):
        shift = 0.5 * (low + high)
        if shift < s_lo:
            total_above_one = True
        elif shift > s_hi:
            total_above_one = False
        else:
            total_above_one = _bisection_total(alpha, shift, upper, clipped) > 1.0
        if total_above_one:
            low = shift
        else:
            high = shift
        if high - low < 1e-12:
            break
    return np.clip(alpha - 0.5 * (low + high), 0.0, upper)


class OneClassSVM:
    """nu-parameterised One-Class SVM (RBF kernel).

    Parameters
    ----------
    nu:
        Upper bound on the fraction of training outliers and lower bound on
        the fraction of support vectors, in ``(0, 1]``.
    gamma:
        RBF width; ``None`` selects the "scale" heuristic
        ``1 / (d * var(X))``.
    max_iter:
        Projected-gradient iterations.
    """

    def __init__(
        self,
        nu: float = 0.1,
        gamma: float | None = None,
        max_iter: int = 300,
    ) -> None:
        if not 0.0 < nu <= 1.0:
            raise DataError(f"nu must be in (0, 1], got {nu}")
        self.nu = nu
        self.gamma = gamma
        self.max_iter = max_iter
        self._rows: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._rho: float = 0.0
        self._gamma: float = 1.0

    def fit(self, rows: np.ndarray) -> "OneClassSVM":
        """Learn the support of the (single-class) training rows."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise DataError(f"expected a 2-D matrix, got shape {rows.shape}")
        n = rows.shape[0]
        if n == 0:
            raise DataError("cannot fit OneClassSVM on zero samples")
        if not np.isfinite(rows).all():
            raise DataError("cannot fit OneClassSVM on non-finite rows")
        if self.gamma is None:
            variance = rows.var()
            self._gamma = 1.0 / (rows.shape[1] * variance) if variance > 0 else 1.0
        else:
            self._gamma = self.gamma
        self._rows = rows

        upper = 1.0 / max(self.nu * n, 1.0)
        if upper * n < 1.0:
            # Box too tight to sum to one (tiny n); relax to feasibility.
            upper = 1.0 / n + 1e-12
        kernel = rbf_kernel(rows, rows, self._gamma)
        alpha = np.full(n, 1.0 / n)
        alpha = _project_box_simplex(alpha, upper)
        # Lipschitz constant of the gradient is the top kernel eigenvalue;
        # the trace upper-bounds it cheaply (diagonal of RBF is all ones).
        step = 1.0 / max(float(np.trace(kernel)) / n * n, 1.0)
        for _ in range(self.max_iter):
            gradient = kernel @ alpha
            updated = _project_box_simplex(alpha - step * gradient, upper)
            if np.abs(updated - alpha).max() < 1e-10:
                alpha = updated
                break
            alpha = updated
        self._alpha = alpha

        # At the exact optimum rho equals the score of any margin support
        # vector; with an approximate solver that estimate is biased, so we
        # calibrate rho to the nu-quantile of the training scores instead —
        # this preserves exactly the nu semantics (fraction of training
        # points rejected) that the consumers of this class rely on.
        scores = kernel @ alpha
        self._rho = float(np.quantile(scores, self.nu))
        return self

    def decision_function(self, rows: np.ndarray) -> np.ndarray:
        """Signed distance to the learned boundary (positive = inlier)."""
        if self._rows is None or self._alpha is None:
            raise NotFittedError("OneClassSVM used before fit")
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        kernel = rbf_kernel(rows, self._rows, self._gamma)
        return kernel @ self._alpha - self._rho

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """+1 for inliers, -1 for outliers."""
        return np.where(self.decision_function(rows) >= 0.0, 1, -1)

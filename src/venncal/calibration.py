"""Score-to-probability calibration.

Three calibrators over binary-class scores: isotonic regression fitted by
the pool-adjacent-violators algorithm (PAVA), sigmoid (Platt) scaling, and
inductive Venn-Abers probability intervals derived from a pair of isotonic
fits.

All PAVA arithmetic keeps block weights and label sums as exact integers
(stored in float64, which is exact well past any realistic calibration-set
size) and compares block means by cross-multiplication.  Fitted values are
produced by a single division per block, so any two code paths that agree
on the block partition produce bit-identical probabilities.  This is what
lets the incremental Venn-Abers evaluator guarantee exact agreement with
the per-point re-fit reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IsotonicFit",
    "PlattFit",
    "ProbabilityInterval",
    "VennAbersCalibrator",
    "apply_platt",
    "fit_platt",
    "isotonic_calibrate",
    "pava",
    "regularized_point",
]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _as_score_label_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.ndim != 1 or y.ndim != 1:
        raise ValueError("scores and labels must be one-dimensional")
    if s.size != y.size:
        raise ValueError(f"length mismatch: {s.size} scores vs {y.size} labels")
    if s.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores contain non-finite values")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return s, y


def _pool_by_score(scores: np.ndarray, labels: np.ndarray):
    """Pool exact score ties into weighted points.

    Returns (distinct_scores, weights, label_sums); distinct_scores is
    sorted ascending, weights are tie counts and label_sums the per-tie
    positive counts.  Both are integer-valued float64 arrays.
    """
    distinct, inverse = np.unique(scores, return_inverse=True)
    weights = np.bincount(inverse, minlength=distinct.size).astype(np.float64)
    label_sums = np.bincount(inverse, weights=labels, minlength=distinct.size)
    return distinct, weights, label_sums


def _pava_pooled(weights: np.ndarray, label_sums: np.ndarray) -> np.ndarray:
    """PAVA on pre-pooled weighted points; returns one fitted value per point.

    Merging is non-strict (equal block means pool), so the block partition
    is canonical.  Comparisons cross-multiply integer sums, avoiding any
    rounding in the merge decisions.
    """
    n = weights.size
    # parallel stacks of block (weight sum, label sum, start index)
    bw: list[float] = []
    by: list[float] = []
    bs: list[int] = []
    for i in range(n):
        cw = weights[i]
        cy = label_sums[i]
        start = i
        while bw and by[-1] * cw >= cy * bw[-1]:
            cw += bw.pop()
            cy += by.pop()
            start = bs.pop()
        bw.append(cw)
        by.append(cy)
        bs.append(start)
    fitted = np.empty(n, dtype=np.float64)
    ends = bs[1:] + [n]
    for (w, y, s), e in zip(zip(bw, by, bs), ends):
        fitted[s:e] = y / w
    return fitted


# ---------------------------------------------------------------------------
# isotonic regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotonicFit:
    """Non-decreasing step function fitted to (score, label) pairs.

    breakpoints holds the sorted distinct calibration scores,
    fitted_values the non-decreasing least-squares fit at each breakpoint,
    and weights the tie count behind each breakpoint.
    """

    breakpoints: np.ndarray
    fitted_values: np.ndarray
    weights: np.ndarray


def pava(scores, labels) -> IsotonicFit:
    """Weighted least-squares isotonic fit of labels against scores.

    Exact score ties are pooled into single weighted points before the
    pool-adjacent-violators pass, so the result is a function of score.
    Runs in O(n log n) (dominated by the sort).
    """
    s, y = _as_score_label_arrays(scores, labels)
    distinct, weights, label_sums = _pool_by_score(s, y)
    fitted = _pava_pooled(weights, label_sums)
    for arr in (distinct, fitted, weights):
        arr.setflags(write=False)
    return IsotonicFit(breakpoints=distinct, fitted_values=fitted, weights=weights)


def isotonic_calibrate(fit: IsotonicFit, s):
    """Evaluate the step function at s (scalar or array).

    Uses the value of the greatest breakpoint <= s; inputs below the first
    breakpoint clamp to the first fitted value, inputs above the last to
    the last.
    """
    if fit.breakpoints.size == 0:
        raise ValueError("empty isotonic fit")
    idx = np.searchsorted(fit.breakpoints, s, side="right") - 1
    idx = np.maximum(idx, 0)
    return fit.fitted_values[idx]


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlattFit:
    """Sigmoid calibration map p(s) = 1 / (1 + exp(slope * s + intercept)).

    target_positive and target_negative are the smoothed regression
    targets used during fitting: (n_pos + 1) / (n_pos + 2) for positives
    and 1 / (n_neg + 2) for negatives.
    """

    slope: float
    intercept: float
    target_positive: float
    target_negative: float


_PLATT_MAX_ITERATIONS = 10_000
_PLATT_TOLERANCE = 1e-8


def _platt_loss_and_grad(s, t, slope, intercept):
    z = slope * s + intercept
    # p = 1 / (1 + e^z); log p = -log(1 + e^z); log(1 - p) = z + log p
    log_p = -np.logaddexp(0.0, z)
    log_1mp = z + log_p
    loss = -float(np.sum(t * log_p + (1.0 - t) * log_1mp))
    p = np.exp(log_p)
    resid = t - p
    grad = np.array([float(np.dot(resid, s)), float(np.sum(resid))])
    curv = p * (1.0 - p)
    hess = np.array(
        [
            [float(np.dot(curv, s * s)), float(np.dot(curv, s))],
            [float(np.dot(curv, s)), float(np.sum(curv))],
        ]
    )
    return loss, grad, hess


def fit_platt(scores, labels) -> PlattFit:
    """Fit the sigmoid by minimising cross-entropy against smoothed targets.

    Damped Newton iteration: the 2x2 Hessian is regularised and the step
    halved until the loss does not increase.  Stops when the gradient norm
    falls to 1e-8 or after 10 000 steps.

    Raises ValueError when only one class is present (the smoothed targets
    degenerate).
    """
    s, y = _as_score_label_arrays(scores, labels)
    n_pos = float(np.sum(y))
    n_neg = float(y.size - n_pos)
    if n_pos == 0.0 or n_neg == 0.0:
        raise ValueError("fit_platt requires both classes in the calibration data")
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    t = np.where(y == 1.0, t_pos, t_neg)

    slope = 0.0
    intercept = math.log((n_neg + 1.0) / (n_pos + 1.0))
    loss, grad, hess = _platt_loss_and_grad(s, t, slope, intercept)
    damping = 1e-12
    for _ in range(_PLATT_MAX_ITERATIONS):
        if math.hypot(grad[0], grad[1]) <= _PLATT_TOLERANCE:
            break
        h = hess + damping * np.eye(2)
        try:
            step = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError:
            damping = max(damping * 10.0, 1e-8)
            continue
        # Newton direction on a convex loss; backtrack if it overshoots
        scale = 1.0
        for _ in range(60):
            new_slope = slope - scale * step[0]
            new_intercept = intercept - scale * step[1]
            new_loss, new_grad, new_hess = _platt_loss_and_grad(s, t, new_slope, new_intercept)
            if new_loss <= loss + 1e-12:
                break
            scale *= 0.5
        else:
            damping = max(damping * 10.0, 1e-8)
            continue
        slope, intercept = new_slope, new_intercept
        loss, grad, hess = new_loss, new_grad, new_hess
        damping = max(damping / 10.0, 1e-12)
    return PlattFit(
        slope=float(slope),
        intercept=float(intercept),
        target_positive=t_pos,
        target_negative=t_neg,
    )


def apply_platt(fit: PlattFit, s):
    """Evaluate 1 / (1 + exp(slope * s + intercept)) for scalar or array s."""
    z = fit.slope * np.asarray(s, dtype=np.float64) + fit.intercept
    out = np.exp(-np.logaddexp(0.0, z))
    if np.ndim(s) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Venn-Abers
# ---------------------------------------------------------------------------

def regularized_point(p0, p1):
    """Collapse intervals [p0, p1] to the single estimate p1 / (1 - p0 + p1).

    Takes scalars or arrays and returns the same shape.  Equal endpoints
    map to themselves; total uncertainty [0, 1] maps to the neutral 0.5.
    Raises ValueError naming the first pair outside 0 <= p0 <= p1 <= 1.
    """
    lo, hi = np.broadcast_arrays(np.asarray(p0, dtype=np.float64), np.asarray(p1, dtype=np.float64))
    bad = ~((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        raise ValueError(f"invalid interval [{lo.ravel()[i]}, {hi.ravel()[i]}]")
    point = hi / (1.0 - lo + hi)
    return float(point) if point.ndim == 0 else point


@dataclass(frozen=True)
class ProbabilityInterval:
    """Lower/upper probability for the positive class plus the point estimate."""

    p0: float
    p1: float
    point: float


class VennAbersCalibrator:
    """Inductive Venn-Abers calibrator over a held-out calibration set.

    For a test score s, two isotonic fits are computed on the calibration
    pairs augmented with (s, 0) and with (s, 1); the fitted values at the
    augmented point give the interval [p0, p1] and the regularized point
    estimate follows from it.  A tied test score joins its tie group before
    the fit, so evaluation is order-independent.

    The default evaluator reuses precomputed prefix/suffix block stacks of
    the calibration sequence and only re-merges around the insertion point;
    it is exact (bit-identical to `interval_naive`, which re-runs PAVA from
    scratch) because all block accounting is integer-valued.
    """

    def __init__(self, calibration_scores, calibration_labels):
        s, y = _as_score_label_arrays(calibration_scores, calibration_labels)
        s = s.copy()
        y = y.copy()
        s.setflags(write=False)
        y.setflags(write=False)
        self.calibration_scores = s
        self.calibration_labels = y
        self._distinct, self._weights, self._label_sums = _pool_by_score(s, y)
        self._build_states()

    def _build_states(self) -> None:
        """Persistent PAVA block stacks for every prefix and suffix.

        A block is a tuple (weight_sum, label_sum, link); prefix links point
        to the block on the left, suffix links to the block on the right.
        Sharing makes the whole construction O(n).
        """
        w = self._weights
        a = self._label_sums
        k = w.size
        left_states: list = [None] * (k + 1)
        top = None
        for j in range(k):
            cw = w[j]
            cy = a[j]
            while top is not None and top[1] * cw >= cy * top[0]:
                cw += top[0]
                cy += top[1]
                top = top[2]
            top = (cw, cy, top)
            left_states[j + 1] = top
        right_states: list = [None] * (k + 1)
        top = None
        for j in range(k - 1, -1, -1):
            cw = w[j]
            cy = a[j]
            while top is not None and cy * top[0] >= top[1] * cw:
                cw += top[0]
                cy += top[1]
                top = top[2]
            top = (cw, cy, top)
            right_states[j] = top
        self._left_states = left_states
        self._right_states = right_states

    # -- evaluation ---------------------------------------------------------

    def _fitted_at_insert(self, position: int, tied: bool, label: float) -> float:
        if tied:
            cw = self._weights[position] + 1.0
            cy = self._label_sums[position] + label
            left = self._left_states[position]
            right = self._right_states[position + 1]
        else:
            cw = 1.0
            cy = label
            left = self._left_states[position]
            right = self._right_states[position]
        while True:
            merged = False
            while left is not None and left[1] * cw >= cy * left[0]:
                cw += left[0]
                cy += left[1]
                left = left[2]
                merged = True
            while right is not None and cy * right[0] >= right[1] * cw:
                cw += right[0]
                cy += right[1]
                right = right[2]
                merged = True
            if not merged:
                return float(cy / cw)

    def interval_naive(self, s_test: float) -> ProbabilityInterval:
        """Reference path: re-pool and re-run PAVA for each augmented set."""
        s = float(s_test)
        if not math.isfinite(s):
            raise ValueError("test score must be finite")
        out = []
        for label in (0.0, 1.0):
            aug_s = np.append(self.calibration_scores, s)
            aug_y = np.append(self.calibration_labels, label)
            distinct, weights, sums = _pool_by_score(aug_s, aug_y)
            fitted = _pava_pooled(weights, sums)
            out.append(float(fitted[np.searchsorted(distinct, s)]))
        p0, p1 = out
        return ProbabilityInterval(p0=p0, p1=p1, point=regularized_point(p0, p1))

    def intervals(self, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays of (p0, p1, point) for many test scores (fast exact path).

        A score at sorted position j among the K distinct calibration scores
        falls in cell 2*j + tied: the merge runs once per distinct cell (at
        most 2K+1) and label, and its results are scattered to the scores.
        """
        s = np.asarray(scores, dtype=np.float64).ravel()
        if not np.all(np.isfinite(s)):
            raise ValueError("test scores must be finite")
        position = np.searchsorted(self._distinct, s)
        tied = self._distinct[np.minimum(position, self._distinct.size - 1)] == s
        cells, inverse = np.unique(2 * position + tied, return_inverse=True)
        p0, p1 = (
            np.array([self._fitted_at_insert(c // 2, c % 2 == 1, label) for c in cells.tolist()], dtype=np.float64)
            for label in (0.0, 1.0)
        )
        return p0[inverse], p1[inverse], regularized_point(p0, p1)[inverse]

"""Score-to-probability calibration.

Three calibrators over binary-class scores: isotonic regression fitted by
the pool-adjacent-violators algorithm (PAVA), sigmoid (Platt) scaling, and
inductive Venn-Abers probability intervals derived from a pair of isotonic
fits.

`_label_runs` first pools each maximal run of consecutive calibration
scores with equal label means into one point; no PAVA fit of a prefix, a
suffix or the whole set splits such a run.  `_push` is the merge rule:
`_prefix_fits` loops it over the runs, and the isotonic fit and both
Venn-Abers stack directions come from that.  A Venn-Abers cell pushes the
part of a run beside its test score with it, and
`VennAbersCalibrator._fitted_between`, the one other place that merges
blocks, merges the test point with the prefix stack on its left and the
suffix stack on its right, by the same rule.  Block weights and label sums
are exact integers (stored in float64, which is exact well past any
realistic calibration-set size) and block means are compared by
cross-multiplication.  Fitted values are produced by a single division per
block, so any two code paths that agree on the block partition produce
bit-identical probabilities.  This is what lets the incremental Venn-Abers
evaluator guarantee exact agreement with its reference, two isotonic refits.

A Venn-Abers calibrator answers from a table of its 2K+1 cells (K distinct
calibration scores; a test score lies below, between or above them, or
ties one).  Each cell's (p0, p1, point) is computed by the merges above
the first time a score falls in it and read back from the table after
that, so a fixed calibrator does each cell's Python work once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from venncal.data import Frozen, finite, labelled

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


def _label_runs(weights: np.ndarray, label_sums: np.ndarray):
    """Pool each maximal run of consecutive points with equal label means.

    Returns (bounds, run_weights, run_label_sums): run r holds points
    bounds[r] to bounds[r + 1] - 1, and bounds ends with the point count.
    Means are compared by cross-multiplying integer sums, so no comparison
    rounds.  Every PAVA fit of a prefix, a suffix or the whole sequence keeps
    a run, or the part of it that it holds, in one block: were point i to end
    a block below point i + 1 of its run, mean_i <= f_i < f_{i+1} <= mean_{i+1}
    = mean_i.  So stacks built over runs partition the points as stacks built
    point by point, with the same integer sums in every block.
    """
    change = label_sums[1:] * weights[:-1] != label_sums[:-1] * weights[1:]
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    return (
        np.append(starts, weights.size),
        np.add.reduceat(weights, starts),
        np.add.reduceat(label_sums, starts),
    )


def _push(top, cw: float, cy: float):
    """Push a block of weight cw and label sum cy onto the PAVA stack whose top block is top.

    A block is a tuple (weight_sum, label_sum, block on its left), and None
    is the empty stack.  Merging is non-strict (equal block means pool), so
    the partition is canonical, and cross-multiplies integer sums, so no
    merge decision rounds.  Returns the new top block; top is not changed.
    """
    while top is not None and top[1] * cw >= cy * top[0]:
        cw += top[0]
        cy += top[1]
        top = top[2]
    return (cw, cy, top)


def _prefix_fits(weights: np.ndarray, label_sums: np.ndarray) -> list:
    """PAVA block stacks of every prefix of pre-pooled weighted points.

    fits[j] is the top block of the fit of the first j points (see `_push`);
    fits[0] is None.  Prefixes share their lower blocks, so the construction
    is O(n).  The sums are Python floats: numpy's IEEE arithmetic with less
    overhead per operation.
    """
    fits: list = [None]
    for cw, cy in zip(weights.tolist(), label_sums.tolist()):
        fits.append(_push(fits[-1], cw, cy))
    return fits


# ---------------------------------------------------------------------------
# isotonic regression
# ---------------------------------------------------------------------------

@dataclass
class IsotonicFit(Frozen):
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
    The fit is the last prefix stack of `_prefix_fits` over the label runs
    (`_label_runs`).  Runs in O(n log n) (dominated by the sort).
    """
    s, y = labelled(scores, labels, "scores", "score")
    distinct, weights, label_sums = _pool_by_score(s, y)
    _, run_weights, run_label_sums = _label_runs(weights, label_sums)
    means, block_weights = [], []
    top = _prefix_fits(run_weights, run_label_sums)[-1]
    while top is not None:  # right to left
        w, y_sum, top = top
        means.append(y_sum / w)
        block_weights.append(w)
    # a point lies in the first block whose running weight reaches the point's
    # running weight; both are exact integer sums, so the search is exact
    fitted = np.array(means[::-1])[np.searchsorted(np.cumsum(block_weights[::-1]), np.cumsum(weights))]
    return IsotonicFit(breakpoints=distinct, fitted_values=fitted, weights=weights)


def isotonic_calibrate(fit: IsotonicFit, s):
    """Evaluate the step function at s (scalar or array).

    Uses the value of the greatest breakpoint <= s; inputs below the first
    breakpoint clamp to the first fitted value, inputs above the last to
    the last.  A non-finite s is rejected.
    """
    if fit.breakpoints.size == 0:
        raise ValueError("empty isotonic fit")
    finite(s, "test scores")
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
    s, y = labelled(scores, labels, "scores", "score")
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
    """Evaluate 1 / (1 + exp(slope * s + intercept)) for scalar or array s; s must be finite."""
    s = finite(s, "test scores")
    z = fit.slope * s + fit.intercept
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


@dataclass(eq=False)  # compared and hashed by identity, as each fills its own cell table
class VennAbersCalibrator(Frozen):
    """Inductive Venn-Abers calibrator over a held-out calibration set.

    For a test score s, two isotonic fits are computed on the calibration
    pairs augmented with (s, 0) and with (s, 1); the fitted values at the
    augmented point give the interval [p0, p1] and the regularized point
    estimate follows from it.  A tied test score joins its tie group before
    the fit, so evaluation is order-independent.

    `intervals` reuses the PAVA block stacks (from `_prefix_fits`) of every
    prefix and suffix of the calibration sequence that ends at a label run's
    bound (`_label_runs`).  A test score inside a run pushes the run's part
    on its side onto the stack at the run's bound, then merges between the
    two stacks.  It is exact (bit-identical to `interval_naive`, two `pava`
    refits) because all block accounting is integer-valued.

    Its fields are read-only copies of the calibration set, and every array
    derived from them is read-only too; only the cell table is written.  A
    copy or an unpickled calibrator is rebuilt from its fields, with an
    empty cell table.
    """

    calibration_scores: np.ndarray
    calibration_labels: np.ndarray

    def __post_init__(self):
        s, y = labelled(self.calibration_scores, self.calibration_labels, "scores", "score")
        object.__setattr__(self, "calibration_scores", s.copy())
        object.__setattr__(self, "calibration_labels", y.copy())
        super().__post_init__()
        self._distinct, weights, label_sums = _pool_by_score(s, y)
        self._bounds, run_weights, run_label_sums = _label_runs(weights, label_sums)
        # exact integer sums of the first j points: a tie group's, and a run's part beside a test score
        self._cum_weights = np.concatenate(([0.0], np.cumsum(weights)))
        self._cum_label_sums = np.concatenate(([0.0], np.cumsum(label_sums)))
        for derived in (self._distinct, self._bounds, self._cum_weights, self._cum_label_sums):
            derived.setflags(write=False)
        # _left_states[r] is the stack of the points left of run r's start, _right_states[r] of
        # those from it on; suffix stacks are prefix stacks of the reversed runs with negated label
        # sums, which turns the merge comparison around; negation is exact
        self._left_states = _prefix_fits(run_weights, run_label_sums)
        self._right_states = _prefix_fits(run_weights[::-1], -run_label_sums[::-1])[::-1]
        # rows p0, p1, point of cell 2 * position + tied, 24 * (2K+1) bytes; nan until the cell is asked for
        self._cells = np.full((3, 2 * self._distinct.size + 1), np.nan)

    # -- evaluation ---------------------------------------------------------

    def _fitted_between(self, left, right, cw: float, cy: float) -> float:
        """Fitted value of a block of weight cw and label sum cy merged between the prefix stack
        left and the suffix stack right.

        A zero label sum on the suffix side is -0.0 when negated (a run's sum)
        but +0.0 when taken as a difference of cumulative sums (a run's part
        beside a test score).  No output bit depends on which: the comparisons
        treat both alike, and cy starts at +0.0 or above, so cy - right[1] is
        the same float either way.
        """
        while True:
            merged = False
            while left is not None and left[1] * cw >= cy * left[0]:
                cw += left[0]
                cy += left[1]
                left = left[2]
                merged = True
            while right is not None and cy * right[0] >= -right[1] * cw:
                cw += right[0]
                cy -= right[1]
                right = right[2]
                merged = True
            if not merged:
                return cy / cw

    def _fill(self, position: np.ndarray, tied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p0 and p1 of the cells of test scores at sorted positions, tied or not to the point there."""
        after = position + tied  # the first calibration point right of the score and its tie group
        bounds, cum_w, cum_y = self._bounds, self._cum_weights, self._cum_label_sums
        left_run = np.searchsorted(bounds, position, side="right") - 1  # the last run bound at or left of it
        right_run = np.searchsorted(bounds, after)  # the first run bound at or right of it
        start, end = bounds[left_run], bounds[right_run]
        rows = zip(
            left_run.tolist(), (cum_w[position] - cum_w[start]).tolist(), (cum_y[position] - cum_y[start]).tolist(),
            right_run.tolist(), (cum_w[end] - cum_w[after]).tolist(), (cum_y[after] - cum_y[end]).tolist(),
            (cum_w[after] - cum_w[position] + 1.0).tolist(), (cum_y[after] - cum_y[position]).tolist(),
        )
        left_states, right_states, fitted = self._left_states, self._right_states, self._fitted_between
        p0, p1 = [], []
        for r, left_w, left_y, q, right_w, right_y, cw, cy in rows:
            left = _push(left_states[r], left_w, left_y) if left_w else left_states[r]
            right = _push(right_states[q], right_w, right_y) if right_w else right_states[q]
            p0.append(fitted(left, right, cw, cy))
            p1.append(fitted(left, right, cw, cy + 1.0))
        return np.array(p0, dtype=np.float64), np.array(p1, dtype=np.float64)

    def interval_naive(self, s_test: float) -> ProbabilityInterval:
        """Reference path, the definition: isotonic fits from scratch of the
        calibration set plus (s_test, 0) and plus (s_test, 1), read at s_test."""
        s = float(finite(s_test, "test score"))
        scores = np.append(self.calibration_scores, s)
        p0, p1 = (
            float(isotonic_calibrate(pava(scores, np.append(self.calibration_labels, label)), s))
            for label in (0.0, 1.0)
        )
        return ProbabilityInterval(p0=p0, p1=p1, point=regularized_point(p0, p1))

    def intervals(self, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays of (p0, p1, point) for many test scores (fast exact path).

        A score at sorted position j among the K distinct calibration scores
        falls in cell 2*j + tied.  A cell no earlier call has asked for is
        filled in the calibrator's table: the merge runs once for it and
        each label.  Every score is then read from the table, so a repeat
        call on filled cells runs no merge.  p0 and p1 are written before
        point, and a cell counts as filled once its point is not nan, so a
        concurrent reader never takes a half-written cell.
        """
        s = finite(scores, "test scores").ravel()
        position = np.searchsorted(self._distinct, s)
        tied = self._distinct[np.minimum(position, self._distinct.size - 1)] == s
        cells = 2 * position + tied
        table = self._cells
        point = table[2].take(cells)
        missing = np.isnan(point)
        if missing.any():
            new = np.flatnonzero(np.bincount(cells[missing]))  # np.unique would hash: several times slower
            p0, p1 = self._fill(new >> 1, new & 1)
            table[0, new] = p0
            table[1, new] = p1
            table[2, new] = regularized_point(p0, p1)
            point = table[2].take(cells)
        return table[0].take(cells), table[1].take(cells), point

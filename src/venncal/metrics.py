"""Predictive and calibration metrics.

Covers the aggregate table columns (accuracy, AUC, precision, recall,
positive-prediction count) and the calibration-quality side: reliability
bins, expected calibration error (ECE) over all instances, and ECE-1, the
same error restricted to instances predicted positive (p >= 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from venncal.data import Frozen, bounded, labelled, require

__all__ = [
    "BIN_MODES",
    "ClassificationMetrics",
    "EvaluationReport",
    "ReliabilityBins",
    "auc",
    "classification_metrics",
    "ece",
    "evaluate",
    "minority_bins",
    "reliability_bins",
]

DECISION_THRESHOLD = 0.5
BIN_MODES = ("width", "frequency")  # equal-width bins, or edges at probability quantiles


def _check_inputs(probabilities, labels, m: int = 1, mode: str = BIN_MODES[0]):
    """The probabilities and labels as float arrays, once they and the bin settings are valid."""
    p, y = labelled(probabilities, labels, "probabilities", "probability")
    require(p, (p >= 0.0) & (p <= 1.0), "probabilities must lie in [0, 1]")  # labelled took nan and inf
    bounded(m, "m", low=1)
    bounded(mode, "mode", choices=BIN_MODES)
    return p, y


# ---------------------------------------------------------------------------
# threshold metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    precision: float | None  # None when there are no positive predictions
    recall: float
    positive_prediction_count: int


def classification_metrics(probabilities, labels) -> ClassificationMetrics:
    """Confusion-matrix metrics with predict-positive iff p >= 0.5."""
    return _classification_metrics(*_check_inputs(probabilities, labels))


def _classification_metrics(p: np.ndarray, y: np.ndarray) -> ClassificationMetrics:
    pred = p >= DECISION_THRESHOLD
    pos = y == 1.0
    tp = int(np.count_nonzero(pred & pos))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(pos)) - tp
    tn = p.size - tp - fp - fn
    n_pred = tp + fp
    precision = tp / n_pred if n_pred > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    return ClassificationMetrics(
        accuracy=(tp + tn) / p.size,
        precision=precision,
        recall=recall,
        positive_prediction_count=n_pred,
    )


def auc(probabilities, labels) -> float:
    """Area under the ROC curve as the Mann-Whitney pair statistic.

    Fraction of (positive, negative) pairs where the positive instance
    scores higher, ties counted one half.  Computed via midranks in
    O(n log n); exactly equal to brute-force pair counting.  A positive
    scoring s has the 1-based midrank (below + at_or_below + 1) / 2, where
    two binary searches in the sorted scores count the scores < s and
    <= s; it is a half-integer, exact in float64 below 2^52.
    """
    return _auc(*_check_inputs(probabilities, labels))


def _auc(p: np.ndarray, y: np.ndarray) -> float:
    positives = p[y == 1.0]
    n_pos = positives.size
    n_neg = p.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc requires both classes")
    ordered = np.sort(p)
    below = np.searchsorted(ordered, positives, side="left")
    at_or_below = np.searchsorted(ordered, positives, side="right")
    midranks = (below + at_or_below + 1) / 2.0
    rank_sum_pos = float(np.sum(midranks))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# reliability and calibration error
# ---------------------------------------------------------------------------

@dataclass
class ReliabilityBins(Frozen):
    """Per-bin reliability data: counts, mean prediction, fraction positive.

    mean_prediction / fraction_positive are NaN for empty bins; counts sum
    to the number of instances.
    """

    bin_edges: np.ndarray  # M + 1 edges partitioning [0, 1]
    counts: np.ndarray
    mean_prediction: np.ndarray  # "mop"
    fraction_positive: np.ndarray  # "foc"

    @property
    def n_instances(self) -> int:
        return int(self.counts.sum())


def _width_edges(m: int) -> np.ndarray:
    return np.arange(m + 1, dtype=np.float64) / m


def _frequency_edges(p: np.ndarray, m: int) -> np.ndarray:
    inner = np.quantile(p, np.arange(1, m, dtype=np.float64) / m)
    return np.concatenate(([0.0], inner, [1.0]))


def reliability_bins(probabilities, labels, m: int = 10, mode: str = "width") -> ReliabilityBins:
    """Bin class-1 probabilities into m bins over [0, 1].

    mode "width" (default) uses equal-width half-open bins with the last
    bin closed at 1.0; mode "frequency" places edges at probability
    quantiles instead.  Empty bins are kept with count 0.
    """
    return _reliability_bins(*_check_inputs(probabilities, labels, m, mode), m, mode)


def _reliability_bins(p: np.ndarray, y: np.ndarray, m: int, mode: str) -> ReliabilityBins:
    edges = _frequency_edges(p, m) if mode == "frequency" else _width_edges(m)
    idx = np.searchsorted(edges, p, side="right") - 1
    np.minimum(idx, m - 1, out=idx)  # p == 1.0 joins the last bin; p >= 0.0 == edges[0], so idx >= 0
    counts = np.bincount(idx, minlength=m)
    with np.errstate(invalid="ignore"):
        mop = np.bincount(idx, weights=p, minlength=m) / counts
        foc = np.bincount(idx, weights=y, minlength=m) / counts
    return ReliabilityBins(bin_edges=edges, counts=counts, mean_prediction=mop, fraction_positive=foc)


def ece(bins: ReliabilityBins) -> float:
    """Expected calibration error: count-weighted mean |foc - mop|, summed in no order that a CPU path can move."""
    n = bins.n_instances
    if n == 0:
        raise ValueError("ece of empty bins")
    occupied = bins.counts > 0
    gaps = np.abs(bins.fraction_positive[occupied] - bins.mean_prediction[occupied])
    return math.fsum((bins.counts[occupied] * gaps).tolist()) / n  # rounded once; np.dot's order followed BLAS


def minority_bins(probabilities, labels, m: int = 10, mode: str = "width") -> ReliabilityBins | None:
    """Reliability bins of the positive predictions only (p >= 0.5); None if there are none."""
    return _minority_bins(*_check_inputs(probabilities, labels, m, mode), m, mode)


def _minority_bins(p: np.ndarray, y: np.ndarray, m: int, mode: str) -> ReliabilityBins | None:
    keep = p >= DECISION_THRESHOLD
    if not np.any(keep):
        return None
    return _reliability_bins(p[keep], y[keep], m, mode)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationReport:
    """Everything the experiment tables need from one set of predictions."""

    n_instances: int
    accuracy: float
    auc: float
    precision: float | None
    recall: float
    positive_prediction_count: int
    ece: float
    ece1: float | None


def evaluate(probabilities, labels, m: int = 10, mode: str = "width") -> EvaluationReport:
    """Compute the full report for one prediction set.

    The inputs and bin settings are checked once, here; every metric then
    reads the same checked arrays.  Each field equals what the public
    function of its name returns on the same arguments.
    """
    p, y = _check_inputs(probabilities, labels, m, mode)
    cls = _classification_metrics(p, y)
    bins_minority = _minority_bins(p, y, m, mode)
    return EvaluationReport(
        n_instances=int(p.size),
        accuracy=cls.accuracy,
        auc=_auc(p, y),
        precision=cls.precision,
        recall=cls.recall,
        positive_prediction_count=cls.positive_prediction_count,
        ece=ece(_reliability_bins(p, y, m, mode)),
        ece1=ece(bins_minority) if bins_minority is not None else None,
    )

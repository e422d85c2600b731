"""Predictive and calibration metrics.

Covers the aggregate table columns (accuracy, AUC, precision, recall,
positive-prediction count) and the calibration-quality side: reliability
bins, expected calibration error (ECE) over all instances, and ECE-1, the
same error restricted to instances predicted positive (p >= 0.5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
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


def _check_inputs(probabilities, labels):
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size != y.size:
        raise ValueError(f"length mismatch: {p.size} probabilities vs {y.size} labels")
    if p.size == 0:
        raise ValueError("empty input")
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
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
    p, y = _check_inputs(probabilities, labels)
    pred = p >= DECISION_THRESHOLD
    pos = y == 1.0
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
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
    O(n log n); exactly equal to brute-force pair counting.
    """
    p, y = _check_inputs(probabilities, labels)
    n_pos = int(np.sum(y == 1.0))
    n_neg = p.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc requires both classes")
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    boundaries = np.flatnonzero(np.diff(sorted_p) != 0.0) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [p.size]))
    midranks = (starts + ends - 1) / 2.0 + 1.0  # 1-based midrank per tie run
    ranks = np.empty(p.size, dtype=np.float64)
    ranks[order] = np.repeat(midranks, ends - starts)
    rank_sum_pos = float(np.sum(ranks[y == 1.0]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# reliability and calibration error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReliabilityBins:
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
    p, y = _check_inputs(probabilities, labels)
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode == "width":
        edges = _width_edges(m)
    elif mode == "frequency":
        edges = _frequency_edges(p, m)
    else:
        raise ValueError(f"unknown bin mode: {mode!r}")
    idx = np.searchsorted(edges, p, side="right") - 1
    idx = np.clip(idx, 0, m - 1)  # p == 1.0 joins the last bin
    counts = np.bincount(idx, minlength=m)
    with np.errstate(invalid="ignore"):
        mop = np.bincount(idx, weights=p, minlength=m) / counts
        foc = np.bincount(idx, weights=y, minlength=m) / counts
    for arr in (edges, counts, mop, foc):
        arr.setflags(write=False)
    return ReliabilityBins(bin_edges=edges, counts=counts, mean_prediction=mop, fraction_positive=foc)


def ece(bins: ReliabilityBins) -> float:
    """Expected calibration error: count-weighted mean |foc - mop|."""
    n = bins.n_instances
    if n == 0:
        raise ValueError("ece of empty bins")
    occupied = bins.counts > 0
    gaps = np.abs(bins.fraction_positive[occupied] - bins.mean_prediction[occupied])
    return float(np.dot(bins.counts[occupied], gaps) / n)


def minority_bins(probabilities, labels, m: int = 10, mode: str = "width") -> ReliabilityBins | None:
    """Reliability bins of the positive predictions only (p >= 0.5); None if there are none."""
    p, y = _check_inputs(probabilities, labels)
    keep = p >= DECISION_THRESHOLD
    if not np.any(keep):
        return None
    return reliability_bins(p[keep], y[keep], m=m, mode=mode)


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

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(probabilities, labels, m: int = 10, mode: str = "width") -> EvaluationReport:
    """Compute the full report for one prediction set."""
    p, y = _check_inputs(probabilities, labels)
    cls = classification_metrics(p, y)
    bins_minority = minority_bins(p, y, m=m, mode=mode)
    return EvaluationReport(
        n_instances=int(p.size),
        accuracy=cls.accuracy,
        auc=auc(p, y),
        precision=cls.precision,
        recall=cls.recall,
        positive_prediction_count=cls.positive_prediction_count,
        ece=ece(reliability_bins(p, y, m=m, mode=mode)),
        ece1=ece(bins_minority) if bins_minority is not None else None,
    )

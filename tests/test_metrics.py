"""Metric tests; AUC is checked against brute-force pair counting."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venncal.metrics import (
    BIN_MODES,
    ReliabilityBins,
    auc,
    classification_metrics,
    ece,
    evaluate,
    minority_bins,
    reliability_bins,
)

from support import brute_force_auc


# ---------------------------------------------------------------------------
# classification metrics
# ---------------------------------------------------------------------------

def test_perfect_classifier():
    m = classification_metrics([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0])
    assert m.accuracy == 1.0
    assert m.precision == 1.0
    assert m.recall == 1.0
    assert m.positive_prediction_count == 2


def test_all_predicted_positive():
    m = classification_metrics([0.6, 0.6, 0.6], [1, 0, 0])
    assert m.precision == pytest.approx(1 / 3)
    assert m.recall == 1.0
    assert m.positive_prediction_count == 3


def test_no_positive_predictions():
    m = classification_metrics([0.4, 0.4], [1, 0])
    assert m.positive_prediction_count == 0
    assert m.precision is None
    assert m.recall == 0.0


def test_threshold_is_inclusive():
    m = classification_metrics([0.5], [1])
    assert m.positive_prediction_count == 1
    assert m.recall == 1.0


def test_classification_consistency_properties():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        p = rng.random(n)
        y = rng.integers(0, 2, size=n)
        m = classification_metrics(p, y)
        tp_fp = int(np.sum(p >= 0.5))
        assert m.positive_prediction_count == tp_fp
        correct = int(np.sum((p >= 0.5) == (y == 1)))
        assert m.accuracy * n == pytest.approx(correct)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        classification_metrics([], [])


@pytest.mark.parametrize(
    "probabilities, labels, message",
    [
        ([0.5], [0, 1], r"labels must be one per probability: expected shape \(1,\), got \(2,\)"),
        ([0.5, 1.5], [0, 1], r"probabilities must lie in \[0, 1\]"),
        ([0.5, np.nan], [0, 1], "probabilities must be finite, got nan at index 1"),
        ([0.5, 0.7], [0, 2], "labels must be 0 or 1"),
        # a probability column counted each row twice: accuracy 2.0 and 8 positive predictions of 4 rows
        ([[0.9], [0.8], [0.2], [0.6]], [1, 1, 0, 0], r"must be a non-empty 1-d array, got shape \(4, 1\)$"),
        ([0.9, 0.8], [[1], [0]], r"must be one per probability: expected shape \(2,\), got \(2, 1\)$"),
        (0.9, 1, r"must be a non-empty 1-d array, got shape \(\)$"),
    ],
)
def test_bad_inputs_name_the_quantity(probabilities, labels, message):
    with pytest.raises(ValueError, match=message):
        classification_metrics(probabilities, labels)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------

def test_auc_worked_example():
    # 4 pairs: 3 wins, 1 loss
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_separated():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        auc([0.1, 0.9], [1, 1])


def test_auc_matches_brute_force():
    rng = np.random.default_rng(777)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        p = rng.integers(0, 20, size=n) / 19.0  # heavy ties
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        assert abs(auc(p, y) - brute_force_auc(p, y)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.integers(0, 8).map(lambda i: i / 8), st.floats(0.0, 1.0)), st.integers(0, 1)),
        min_size=2,
        max_size=60,
    ).filter(lambda points: len({y for _, y in points}) == 2)
)
def test_auc_property_equals_pair_counting(points):
    p, y = [s for s, _ in points], [label for _, label in points]
    assert auc(p, y) == brute_force_auc(p, y)


# ---------------------------------------------------------------------------
# reliability bins
# ---------------------------------------------------------------------------

def test_reliability_bins_worked_example():
    bins = reliability_bins([0.95, 0.95, 0.85, 0.05], [1, 0, 1, 0])
    assert bins.counts.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 1, 2]
    assert bins.mean_prediction[9] == pytest.approx(0.95)
    assert bins.fraction_positive[9] == pytest.approx(0.5)
    assert bins.mean_prediction[8] == pytest.approx(0.85)
    assert bins.fraction_positive[8] == pytest.approx(1.0)
    assert bins.mean_prediction[0] == pytest.approx(0.05)
    assert bins.fraction_positive[0] == pytest.approx(0.0)


def test_reliability_single_instance():
    bins = reliability_bins([0.95], [1])
    assert bins.counts.sum() == 1
    assert bins.fraction_positive[9] == 1.0
    assert bins.mean_prediction[9] == pytest.approx(0.95)


def test_reliability_boundaries():
    bins = reliability_bins([0.0, 0.1, 0.3, 1.0], [0, 0, 0, 1])
    assert bins.counts[0] == 1  # 0.0 in [0, .1)
    assert bins.counts[1] == 1  # 0.1 in [.1, .2)
    assert bins.counts[3] == 1  # 0.3 in [.3, .4)
    assert bins.counts[9] == 1  # 1.0 closes the last bin


def test_reliability_perfectly_calibrated_binary():
    bins = reliability_bins([0.0, 1.0, 1.0, 0.0], [0, 1, 1, 0])
    occupied = bins.counts > 0
    gaps = np.abs(bins.fraction_positive[occupied] - bins.mean_prediction[occupied])
    assert np.all(gaps == 0.0)


def test_reliability_counts_sum_and_mop_within_edges():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 500))
        p = rng.random(n)
        y = rng.integers(0, 2, size=n)
        bins = reliability_bins(p, y)
        assert bins.counts.sum() == n
        for lo, hi, count, mop in zip(bins.bin_edges[:-1], bins.bin_edges[1:], bins.counts, bins.mean_prediction):
            if count:
                assert lo <= mop <= hi


def test_reliability_frequency_mode():
    rng = np.random.default_rng(8)
    p = rng.random(1000)
    y = rng.integers(0, 2, size=1000)
    bins = reliability_bins(p, y, m=10, mode="frequency")
    assert bins.counts.sum() == 1000
    # quantile edges give near-equal occupancy on continuous data
    assert bins.counts.min() >= 80
    # most probabilities at 0.0 make the first quantile edges 0.0 too; every 0.0 then joins
    # the last bin that starts at 0.0, and 1.0 closes the last bin
    p = np.array([0.0] * 6 + [0.4, 0.7, 1.0, 1.0])
    bins = reliability_bins(p, [0] * 6 + [0, 1, 1, 1], m=4, mode="frequency")
    assert bins.bin_edges.tolist() == [0.0, 0.0, 0.0, 0.625, 1.0]
    assert bins.counts.tolist() == [0, 0, 7, 3]
    assert bins.fraction_positive[2:].tolist() == [0.0, 1.0]


def test_reliability_unknown_mode_rejected():
    p, y = [0.2, 0.7], [0, 1]
    assert [reliability_bins(p, y, mode=mode).n_instances for mode in BIN_MODES] == [2, 2]
    with pytest.raises(ValueError, match="^mode must be 'width' or 'frequency', got 'quantile'$"):
        reliability_bins(p, y, mode="quantile")
    with pytest.raises(ValueError, match="^mode must be 'width' or 'frequency', got 'quantile'$"):
        evaluate(p, y, mode="quantile")


# ---------------------------------------------------------------------------
# ECE / ECE-1
# ---------------------------------------------------------------------------

def test_reliability_and_ece_reject_degenerate_bins():
    with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
        reliability_bins([0.5], [1], m=0)
    empty = ReliabilityBins(
        bin_edges=np.array([0.0, 1.0]),
        counts=np.array([0]),
        mean_prediction=np.array([np.nan]),
        fraction_positive=np.array([np.nan]),
    )
    with pytest.raises(ValueError, match="^ece of empty bins$"):
        ece(empty)


def test_ece_worked_example():
    bins = reliability_bins([0.95, 0.95, 0.85, 0.05], [1, 0, 1, 0])
    assert ece(bins) == pytest.approx(0.5 * 0.45 + 0.25 * 0.15 + 0.25 * 0.05, abs=1e-12)
    assert ece(bins) == pytest.approx(0.275, abs=1e-12)


def test_ece_perfectly_calibrated_is_zero():
    bins = reliability_bins([0.0, 0.0, 1.0], [0, 0, 1])
    assert ece(bins) == 0.0


def test_ece_permutation_invariant_and_bounded():
    rng = np.random.default_rng(21)
    p = rng.random(200)
    y = rng.integers(0, 2, size=200)
    value = ece(reliability_bins(p, y))
    perm = rng.permutation(200)
    assert ece(reliability_bins(p[perm], y[perm])) == pytest.approx(value, abs=1e-15)
    assert 0.0 <= value <= 1.0


def test_ece_minority_worked_example():
    bins = minority_bins([0.95, 0.95, 0.3], [1, 0, 0])
    assert bins.n_instances == 2
    assert ece(bins) == pytest.approx(0.45, abs=1e-12)


def test_ece_minority_absent_when_no_positive_predictions():
    # ECE-1 is undefined, not zero, without positive predictions
    assert minority_bins([0.4, 0.2], [1, 0]) is None


def test_minority_bins_check_m_and_mode_without_positive_predictions():
    # the bin settings are checked before the p >= 0.5 cut, not only when it keeps a row
    with pytest.raises(ValueError, match="^mode must be 'width' or 'frequency', got 'quantile'$"):
        minority_bins([0.1, 0.2], [0, 1], mode="quantile")
    with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
        minority_bins([0.1, 0.2], [0, 1], m=0)


def test_ece_minority_perfectly_calibrated_subset():
    assert ece(minority_bins([1.0, 1.0, 0.2], [1, 1, 1])) == 0.0
    # the cut is p >= 0.5, so a prediction of exactly 0.5 is in it
    assert minority_bins([0.5, 1.0, 0.2], [1, 1, 1]).n_instances == 2


def test_minority_foc_equals_fraction_correct():
    # on the p >= 0.5 subset, predicting class 1 everywhere makes the
    # fraction of label-1 equal to the fraction of correct predictions
    rng = np.random.default_rng(3)
    p = rng.random(300)
    y = rng.integers(0, 2, size=300)
    keep = p >= 0.5
    bins = reliability_bins(p[keep], y[keep])
    for lo, hi, count, foc in zip(bins.bin_edges[:-1], bins.bin_edges[1:], bins.counts, bins.fraction_positive):
        if count:
            sel = (p >= 0.5) & (p >= lo) & (p < hi if hi < 1 else p <= 1.0)
            correct = np.mean((p[sel] >= 0.5) == (y[sel] == 1))
            assert foc == pytest.approx(correct)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def test_evaluate_report_roundtrip():
    rng = np.random.default_rng(77)
    continuous = rng.random(500)
    y = (rng.random(500) < continuous).astype(int)
    # the continuous scores, then the same rounded to 21 distinct values held by both classes
    for p in (continuous, np.round(continuous * 20) / 20):
        report = evaluate(p, y)
        assert report.n_instances == 500
        # evaluate checks its inputs once and calls the metrics' cores: each
        # field is the public function's value, bit for bit
        assert report.auc == auc(p, y)
        assert report.ece == ece(reliability_bins(p, y))
        assert report.ece1 == ece(minority_bins(p, y))
        cls = classification_metrics(p, y)
        assert (report.accuracy, report.precision, report.recall, report.positive_prediction_count) == (
            cls.accuracy, cls.precision, cls.recall, cls.positive_prediction_count)
    d = asdict(report)
    assert set(d) == {
        "n_instances",
        "accuracy",
        "auc",
        "precision",
        "recall",
        "positive_prediction_count",
        "ece",
        "ece1",
    }


def test_evaluate_calibration_errors_equal_the_public_functions_for_every_bin_setting():
    """For every bin count and mode, with probabilities at exactly 0, 0.5 and 1 and a set with no
    positive predictions, evaluate's ECE and ECE-1 equal the public functions' bits."""
    rng = np.random.default_rng(12)
    continuous = np.concatenate([rng.random(300), [0.5, 0.5, 1.0, 1.0, 0.0, np.nextafter(0.5, 0.0)]])
    sets = {
        "continuous with 0, 0.5 and 1": continuous,
        "on a 21-value grid": np.round(continuous * 20) / 20,
        "no positive predictions": continuous / 2.01,
    }
    for name, p in sets.items():
        y = (rng.random(p.size) < p).astype(int)
        for mode in BIN_MODES:
            for m in range(1, 13):
                report = evaluate(p, y, m, mode)
                minority = minority_bins(p, y, m, mode)
                assert report.ece == ece(reliability_bins(p, y, m, mode)), (name, mode, m)
                assert report.ece1 == (None if minority is None else ece(minority)), (name, mode, m)
    assert minority_bins(sets["no positive predictions"], y) is None

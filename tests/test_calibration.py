"""Calibration-core tests.

The isotonic results are checked against an independent dynamic-programming
oracle that enumerates every monotone step-function fit over the pooled
points, and at scale against a textbook PAVA on fractions, so every expected
value here is computed, not asserted from hope.
"""

from __future__ import annotations

import hashlib
import pickle
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venncal.calibration import (
    IsotonicFit,
    PlattFit,
    VennAbersCalibrator,
    apply_platt,
    fit_platt,
    isotonic_calibrate,
    pava,
    regularized_point,
)
from venncal.metrics import ece, reliability_bins

from support import exact_pava, monotone_lsq_oracle, textbook_pava


# ---------------------------------------------------------------------------
# oracle built on the shared references: Venn-Abers by refit
# ---------------------------------------------------------------------------

def oracle_interval(cal_scores, cal_labels, s_test):
    out = []
    for label in (0.0, 1.0):
        aug_s = list(cal_scores) + [s_test]
        aug_y = list(cal_labels) + [label]
        distinct, fit, _ = monotone_lsq_oracle(aug_s, aug_y)
        out.append(fit[distinct.index(s_test)])
    return out[0], out[1]


# ---------------------------------------------------------------------------
# PAVA
# ---------------------------------------------------------------------------

def test_pava_three_point_pool():
    fit = pava([1.0, 2.0, 3.0], [0, 1, 0])
    assert np.allclose(fit.breakpoints, [1.0, 2.0, 3.0])
    # oracle: SSE 0.5, achieved uniquely at [0, 0.5, 0.5]
    _, oracle_fit, sse = monotone_lsq_oracle([1.0, 2.0, 3.0], [0, 1, 0])
    assert sse == Fraction(1, 2)
    assert oracle_fit == [0.0, 0.5, 0.5]
    assert fit.fitted_values.tolist() == oracle_fit


def test_pava_monotone_input_is_identity():
    fit = pava([0.1, 0.2, 0.7, 0.9], [0, 0, 1, 1])
    assert fit.fitted_values.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_pava_all_positive_labels():
    fit = pava([0.3, 0.1, 0.9], [1, 1, 1])
    assert fit.fitted_values.tolist() == [1.0, 1.0, 1.0]


def test_pava_pools_exact_ties():
    fit = pava([0.5, 0.5, 0.2], [1, 0, 0])
    assert fit.breakpoints.tolist() == [0.2, 0.5]
    assert fit.weights.tolist() == [1.0, 2.0]
    assert fit.fitted_values.tolist() == [0.0, 0.5]


def test_pava_matches_dp_oracle_on_random_instances():
    rng = np.random.default_rng(1234)
    for _ in range(400):
        n = int(rng.integers(1, 11))
        # coarse score grid to exercise tie pooling
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        fit = pava(scores, labels)
        distinct, oracle_fit, _ = monotone_lsq_oracle(scores, labels)
        assert fit.breakpoints.tolist() == distinct
        assert fit.fitted_values.tolist() == oracle_fit


@pytest.mark.parametrize("case", [
    "2000 continuous", "20-value grid", "all labels 0", "all labels 1",
    "2000 continuous at 3.4% positives", "20-value grid at 3.4% positives",
])
def test_pava_matches_textbook_pava_at_scale(case):
    """The exhaustive oracle stops at about 10 distinct points; this one reaches long blocks.

    Labels drawn as P(y = 1) = score form short runs of equal label means;
    at a 3.4% positive share, as in a fault log, most runs are long.
    """
    rng = np.random.default_rng(77)
    scores = rng.random(2000)
    if case.startswith("20-value grid"):
        scores = np.floor(scores * 20) / 20
    labels = (rng.random(scores.size) < (0.034 if case.endswith("3.4% positives") else scores)).astype(np.int64)
    if case.startswith("all labels"):
        labels[:] = int(case[-1])
    fit = pava(scores, labels)
    assert fit.fitted_values.tolist() == textbook_pava(scores, labels)


def test_pava_conservation_and_monotonicity():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        fit = pava(scores, labels)
        assert np.all(np.diff(fit.fitted_values) >= 0)
        assert np.all((fit.fitted_values >= 0) & (fit.fitted_values <= 1))
        total = float(np.dot(fit.weights, fit.fitted_values))
        assert total == pytest.approx(labels.sum(), abs=1e-9)


def test_pava_rejects_bad_input():
    with pytest.raises(ValueError):
        pava([], [])
    with pytest.raises(ValueError):
        pava([np.nan], [0])
    with pytest.raises(ValueError):
        pava([0.1, 0.2], [0, 2])
    with pytest.raises(ValueError):
        pava([0.1], [0, 1])
    with pytest.raises(ValueError, match=r"^scores must be a non-empty 1-d array, got shape \(1, 2\)$"):
        pava([[0.1, 0.2]], [0, 1])


# ---------------------------------------------------------------------------
# isotonic evaluation
# ---------------------------------------------------------------------------

def test_isotonic_calibrate_clamps_below():
    fit = pava([1.0, 2.0, 3.0], [0, 1, 0])
    assert isotonic_calibrate(fit, 0.5) == 0.0


def test_isotonic_calibrate_at_breakpoint():
    fit = pava([1.0, 2.0, 3.0], [0, 1, 0])
    assert isotonic_calibrate(fit, 2.0) == 0.5


def test_isotonic_calibrate_between_and_above():
    fit = pava([1.0, 2.0, 3.0], [0, 1, 0])
    assert isotonic_calibrate(fit, 2.5) == 0.5
    assert isotonic_calibrate(fit, 99.0) == 0.5


def test_isotonic_calibrate_rejects_empty_fit():
    empty = IsotonicFit(breakpoints=np.array([]), fitted_values=np.array([]), weights=np.array([]))
    with pytest.raises(ValueError, match="^empty isotonic fit$"):
        isotonic_calibrate(empty, 0.5)


@pytest.mark.parametrize(
    "fit, apply", [(pava, isotonic_calibrate), (fit_platt, apply_platt)], ids=["isotonic", "platt"]
)
def test_calibrators_reject_non_finite_test_scores(fit, apply):
    """Isotonic returned its top fitted value (1.0 here) for nan and inf; Platt returned nan with a warning."""
    calibrator = fit([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1])
    for score, got in (
        (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
        ([0.5, np.nan], "nan at index 1"), (np.array([[0.5], [np.inf]]), "inf at index (1, 0)"),
    ):
        with pytest.raises(ValueError, match=f"^test scores must be finite, got {re.escape(got)}$"):
            apply(calibrator, score)


def test_isotonic_calibrate_vectorised():
    fit = pava([1.0, 2.0, 3.0], [0, 1, 0])
    out = isotonic_calibrate(fit, np.array([0.0, 2.0, 2.5]))
    assert out.tolist() == [0.0, 0.5, 0.5]


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------

def test_platt_symmetric_input_zero_intercept():
    fit = fit_platt([-1.0, 1.0], [0, 1])
    assert abs(fit.intercept) < 1e-6
    assert fit.slope <= 0.0


def test_platt_identity_at_zero_parameters():
    fit = PlattFit(slope=0.0, intercept=0.0, target_positive=0.75, target_negative=0.25)
    assert apply_platt(fit, -3.0) == 0.5
    assert apply_platt(fit, 7.5) == 0.5


def test_platt_separable_outputs_bounded_by_targets():
    scores = [0.0, 0.0, 1.0, 1.0]
    labels = [0, 0, 1, 1]
    fit = fit_platt(scores, labels)
    assert fit.target_negative == 0.25
    assert fit.target_positive == 0.75
    lo = apply_platt(fit, 0.0)
    hi = apply_platt(fit, 1.0)
    # with two distinct scores the sigmoid can hit both targets exactly
    assert lo == pytest.approx(0.25, abs=1e-6)
    assert hi == pytest.approx(0.75, abs=1e-6)
    # dense grid search confirms no (slope, intercept) does better
    def loss(a, b):
        z = a * np.asarray(scores) + b
        logp = -np.logaddexp(0.0, z)
        t = np.array([0.25, 0.25, 0.75, 0.75])
        return -np.sum(t * logp + (1 - t) * (z + logp))

    fitted_loss = loss(fit.slope, fit.intercept)
    grid = [
        loss(a, b)
        for a in np.linspace(-30, 5, 141)
        for b in np.linspace(-10, 10, 81)
    ]
    assert fitted_loss <= min(grid) + 1e-9


def test_platt_gradient_matches_finite_differences_at_optimum():
    rng = np.random.default_rng(7)
    scores = rng.random(60)
    labels = (rng.random(60) < scores).astype(int)
    fit = fit_platt(scores, labels)
    t = np.where(np.asarray(labels) == 1, fit.target_positive, fit.target_negative)

    def loss(a, b):
        z = a * scores + b
        logp = -np.logaddexp(0.0, z)
        return -float(np.sum(t * logp + (1 - t) * (z + logp)))

    eps = 1e-6
    g_slope = (loss(fit.slope + eps, fit.intercept) - loss(fit.slope - eps, fit.intercept)) / (2 * eps)
    g_intercept = (loss(fit.slope, fit.intercept + eps) - loss(fit.slope, fit.intercept - eps)) / (2 * eps)
    assert abs(g_slope) < 1e-4
    assert abs(g_intercept) < 1e-4


def test_platt_monotone_when_slope_nonzero():
    fit = fit_platt([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    grid = np.linspace(-2, 3, 50)
    probs = apply_platt(fit, grid)
    assert np.all(np.diff(probs) > 0)


def test_platt_limits_and_midpoint():
    fit = PlattFit(slope=-2.0, intercept=0.6, target_positive=0.9, target_negative=0.1)
    assert apply_platt(fit, 1e6) == pytest.approx(1.0)
    assert apply_platt(fit, -fit.intercept / fit.slope) == pytest.approx(0.5)


def test_platt_single_class_rejected():
    with pytest.raises(ValueError):
        fit_platt([0.1, 0.9], [1, 1])


# ---------------------------------------------------------------------------
# Venn-Abers
# ---------------------------------------------------------------------------

WORKED_SCORES = [0.1, 0.2, 0.3, 0.4, 0.6, 0.9]
WORKED_LABELS = [0, 0, 1, 1, 1, 1]


def test_venn_abers_worked_example():
    cal = VennAbersCalibrator(WORKED_SCORES, WORKED_LABELS)
    (p0,), (p1,), (point,) = cal.intervals([0.8])
    # cross-checked against the exhaustive monotone-fit oracle
    assert oracle_interval(WORKED_SCORES, WORKED_LABELS, 0.8) == (0.75, 1.0)
    assert p0 == 0.75
    assert p1 == 1.0
    assert point == pytest.approx(0.8, abs=1e-15)


def test_venn_abers_empty_information_case():
    cal = VennAbersCalibrator([0.5, 0.5], [0, 1])
    (p0,), (p1,), (point,) = cal.intervals([0.5])
    assert p0 <= 0.5 <= p1
    assert p0 == pytest.approx(1 / 3)
    assert p1 == pytest.approx(2 / 3)
    assert point == pytest.approx(0.5)


def test_venn_abers_all_positive_labels():
    cal = VennAbersCalibrator([0.2, 0.5, 0.8], [1, 1, 1])
    _, p1, _ = cal.intervals([0.0, 0.5, 1.0])
    assert p1.tolist() == [1.0, 1.0, 1.0]


def test_venn_abers_fast_path_bit_identical_to_naive():
    """intervals equals interval_naive, and both equal float() of the Fraction oracle, which shares no code
    with venncal: interval_naive pools label runs through the same code as the fast path."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        # half the runs use a coarse grid to force ties
        if rng.random() < 0.5:
            scores = rng.integers(0, 8, size=n) / 7.0
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        cal = VennAbersCalibrator(scores, labels)
        for s in [float(rng.random()), float(scores[int(rng.integers(0, n))]), -0.5, 1.5]:
            (p0,), (p1,), (point,) = cal.intervals([s])
            slow = cal.interval_naive(s)
            assert p0 == slow.p0
            assert p1 == slow.p1
            assert point == slow.point
            assert bits(p0, p1) == bits(*map(float, exact_interval(scores.tolist(), labels.tolist(), s))), s


def test_venn_abers_matches_dp_oracle():
    rng = np.random.default_rng(5150)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        scores = rng.integers(0, 5, size=n) / 4.0
        labels = rng.integers(0, 2, size=n)
        cal = VennAbersCalibrator(scores, labels)
        # a grid score, an untied one between grid values, and one below and
        # one above every calibration score (an empty left or right stack)
        grid_score = float(rng.integers(0, 5)) / 4.0
        untied_score = (float(rng.integers(0, 4)) + 0.5) / 4.0
        for s_test in (grid_score, untied_score, -0.5, 1.5):
            (p0,), (p1,), _ = cal.intervals([s_test])
            assert (p0, p1) == oracle_interval(scores, labels, s_test)


def test_venn_abers_interval_ordering_property():
    rng = np.random.default_rng(31337)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        scores = rng.random(n).round(2)
        labels = rng.integers(0, 2, size=n)
        cal = VennAbersCalibrator(scores, labels)
        for s in rng.random(4):
            (p0,), (p1,), (point,) = cal.intervals([float(s)])
            assert 0.0 <= p0 <= p1 <= 1.0
            assert 0.0 <= point <= 1.0


def test_venn_abers_point_monotone_in_test_score():
    rng = np.random.default_rng(404)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        scores = rng.random(n).round(2)
        labels = rng.integers(0, 2, size=n)
        cal = VennAbersCalibrator(scores, labels)
        grid = np.sort(rng.random(12))
        points = [cal.intervals([float(s)])[2][0] for s in grid]
        assert all(points[i] <= points[i + 1] + 1e-12 for i in range(len(points) - 1))


# coarse grid values force ties; the wide floats reach past every calibration score
GRID_SCORES = st.integers(0, 8).map(lambda i: i / 8)
ANY_SCORES = st.one_of(GRID_SCORES, st.floats(0.0, 1.0), st.floats(-5.0, 5.0))
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)


def bits(*values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def calibration_and_batch(draw):
    """A calibration set with ties and a test batch mixing tied, untied,
    repeated and out-of-range scores."""
    scores = draw(st.lists(st.one_of(GRID_SCORES, st.floats(0.0, 1.0)), min_size=1, max_size=30))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    batch = draw(st.lists(st.one_of(st.sampled_from(scores), ANY_SCORES), min_size=1, max_size=40))
    batch += batch[: draw(st.integers(0, len(batch)))]
    return VennAbersCalibrator(scores, labels), np.asarray(batch)


@PROPERTY_SETTINGS
@given(calibration_and_batch())
def test_venn_abers_intervals_property_matches_naive(case):
    cal, batch = case
    p0, p1, point = cal.intervals(batch)
    assert p0.shape == p1.shape == point.shape == batch.shape
    for i, s in enumerate(batch.tolist()):
        slow = cal.interval_naive(s)
        assert bits(p0[i], p1[i], point[i]) == bits(slow.p0, slow.p1, slow.point)
        (one_p0,), (one_p1,), (one_point,) = cal.intervals([s])  # a batch of one agrees with the whole batch
        assert bits(one_p0, one_p1, one_point) == bits(p0[i], p1[i], point[i])
    assert np.all(p0 <= p1)


@PROPERTY_SETTINGS
@given(calibration_and_batch(), st.data())
def test_venn_abers_intervals_property_permutation(case, data):
    cal, batch = case
    order = np.asarray(data.draw(st.permutations(range(batch.size))), dtype=np.int64)
    whole = cal.intervals(batch)
    permuted = cal.intervals(batch[order])
    for got, want in zip(permuted, whole):
        assert got.tobytes() == want[order].tobytes()


def increasing_map(data, cal, batch):
    """A strictly increasing map, drawn, over the calibration and test scores of a calibration_and_batch case."""
    distinct = np.unique(np.concatenate([cal.calibration_scores, batch]))
    image = np.sort(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=distinct.size, max_size=distinct.size, unique=True)))
    # the map keeps every score finite and distinct scores distinct, so it keeps their order
    assert np.isfinite(image).all() and np.unique(image).size == distinct.size

    def increasing(scores):  # the i-th smallest distinct score goes to the i-th smallest image
        return image[np.searchsorted(distinct, scores)]

    return increasing


@PROPERTY_SETTINGS
@given(calibration_and_batch(), st.data())
def test_venn_abers_intervals_property_increasing_transform(case, data):
    """Venn-Abers sees scores only through their order: one strictly increasing
    map applied to the calibration and the test scores changes no output bit."""
    cal, batch = case
    increasing = increasing_map(data, cal, batch)
    moved = VennAbersCalibrator(increasing(cal.calibration_scores), cal.calibration_labels)
    for got, want in zip(moved.intervals(increasing(batch)), cal.intervals(batch)):
        assert got.tobytes() == want.tobytes()


# Metamorphic relations of the isotonic calibrator, bit for bit.  Flipping
# the labels and negating the scores is left out: it maps a fitted value v to
# 1 - v only in exact arithmetic, and 1 - (a / b) need not round as (b - a) / b.
# test_venn_abers_oracle_label_flip checks it on the Fraction oracle instead.

@PROPERTY_SETTINGS
@given(calibration_and_batch(), st.data())
def test_isotonic_property_increasing_transform(case, data):
    """pava and isotonic_calibrate see scores only through their order, as Venn-Abers does."""
    cal, batch = case
    increasing = increasing_map(data, cal, batch)
    fit = pava(cal.calibration_scores, cal.calibration_labels)
    moved = pava(increasing(cal.calibration_scores), cal.calibration_labels)
    assert moved.breakpoints.tobytes() == increasing(fit.breakpoints).tobytes()
    assert moved.fitted_values.tobytes() == fit.fitted_values.tobytes()
    assert isotonic_calibrate(moved, increasing(batch)).tobytes() == isotonic_calibrate(fit, batch).tobytes()


@PROPERTY_SETTINGS
@given(calibration_and_batch())
def test_isotonic_property_doubled_calibration_set(case):
    """Each calibration row twice doubles every tie weight and changes no fitted value: a block's mean
    is its label sum over its weight, and both double exactly."""
    cal, batch = case
    fit = pava(cal.calibration_scores, cal.calibration_labels)
    doubled = pava(np.tile(cal.calibration_scores, 2), np.tile(cal.calibration_labels, 2))
    assert doubled.breakpoints.tobytes() == fit.breakpoints.tobytes()
    assert doubled.weights.tobytes() == (2.0 * fit.weights).tobytes()
    assert doubled.fitted_values.tobytes() == fit.fitted_values.tobytes()
    assert isotonic_calibrate(doubled, batch).tobytes() == isotonic_calibrate(fit, batch).tobytes()


def exact_interval(cal_scores, cal_labels, s):
    """Venn-Abers (p0, p1) at s in Fractions: exact_pava refitted with s labelled 0, then 1."""
    at = sorted({*cal_scores, s}).index(s)
    return tuple(exact_pava([*cal_scores, s], [*cal_labels, label])[at] for label in (0, 1))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.one_of(GRID_SCORES, st.floats(0.0, 1.0)), st.integers(0, 1)), min_size=1, max_size=12))
def test_venn_abers_oracle_label_flip(points):
    """Negating every score and flipping every label maps p0 at s to 1 - p1 at -s, and p1 to 1 - p0.

    Checked on the Fraction oracle at, between and outside the calibration
    scores.  venncal's floats are not asserted: the relation holds only in
    exact arithmetic, and 1 - (a / b) need not round as (b - a) / b.
    """
    scores, labels = [s for s, _ in points], [y for _, y in points]
    ordered = sorted(set(scores))
    tests = [*ordered, *((a + b) / 2 for a, b in zip(ordered, ordered[1:])), ordered[0] - 1, ordered[-1] + 1]
    flipped = [-s for s in scores], [1 - y for y in labels]
    for s in tests:
        p0, p1 = exact_interval(scores, labels, s)
        flipped_p0, flipped_p1 = exact_interval(*flipped, -s)
        assert (flipped_p0, flipped_p1) == (1 - p1, 1 - p0), s


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.one_of(GRID_SCORES, st.floats(0.0, 1.0)), st.integers(0, 1)), min_size=1, max_size=40))
def test_pava_property_monotone_pooled_and_mass_preserving(points):
    scores, labels = ([v for v, _ in points], [y for _, y in points])
    fit = pava(scores, labels)
    assert np.all(np.diff(fit.fitted_values) >= 0.0)
    # exact ties pool into one breakpoint, weighted by the number of tied scores
    distinct, counts = np.unique(scores, return_counts=True)
    assert fit.breakpoints.tolist() == distinct.tolist()
    assert fit.weights.tolist() == counts.tolist()
    # each block's fitted value is its mean label, so the label mass is kept
    assert float(np.dot(fit.weights, fit.fitted_values)) == pytest.approx(sum(labels), rel=1e-12, abs=1e-12)


@st.composite
def imbalanced_points(draw):
    """Calibration scores with ties, at most one label in ten positive, so most runs of equal label means are long."""
    scores = draw(st.lists(st.one_of(GRID_SCORES, st.floats(0.0, 1.0)), min_size=1, max_size=30))
    positives = draw(st.sets(st.integers(0, len(scores) - 1), max_size=len(scores) // 10 + 1))
    return scores, [int(i in positives) for i in range(len(scores))]


@PROPERTY_SETTINGS
@given(imbalanced_points())
def test_venn_abers_intervals_property_match_fraction_oracle(points):
    """intervals equals float() of the Fraction oracle's p0 and p1, bit for bit, at, between, below and
    above the calibration scores: each is cy / cw of exact integers, which rounds as a Fraction does."""
    scores, labels = points
    ordered = sorted(set(scores))
    tests = [*ordered, *((a + b) / 2 for a, b in zip(ordered, ordered[1:])), ordered[0] - 1, ordered[-1] + 1]
    p0, p1, _ = VennAbersCalibrator(scores, labels).intervals(tests)
    for i, s in enumerate(tests):
        assert bits(p0[i], p1[i]) == bits(*map(float, exact_interval(scores, labels, s))), s


def test_venn_abers_rejects_bad_inputs():
    with pytest.raises(ValueError):
        VennAbersCalibrator([], [])
    cal = VennAbersCalibrator([0.5], [1])
    with pytest.raises(ValueError):
        cal.intervals([float("nan")])
    for score in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^test score must be finite, got {score}$"):
            cal.interval_naive(score)


@pytest.mark.parametrize("grid", [None, 10], ids=["continuous", "ten-value grid"])
def test_venn_abers_p_y_is_calibrated_for_a_non_monotone_scorer(grid):
    """p_Y, p1 for a true label 1 and p0 otherwise, is calibrated for any scorer on IID data.

    Vovk & Petej, "Venn-Abers predictors" (UAI 2014).  Each of 4000
    calibration sets of 40 rows predicts one test row, so the test rows are
    independent.  With P(y=1 | s) = 0.15 + 0.7 sin^2(7s) no monotone map of s
    is calibrated, yet p_Y must score under the 95% quantile of the ECE its
    own predictions reach on labels redrawn from them (200 seeded Bernoulli
    redraws), while the wrong-label probability must not.  On the grid most
    test scores tie a calibration score, which the tied cell must handle.
    """
    rng = np.random.default_rng(0)
    n_sets, n_calibration = 4000, 40
    s = rng.random((n_sets, n_calibration + 1))  # the last row of each set is its test row
    if grid:
        s = np.floor(s * grid) / grid
    y = (rng.random(s.shape) < 0.15 + 0.7 * np.sin(7 * s) ** 2).astype(np.int64)
    p0, p1 = np.empty(n_sets), np.empty(n_sets)
    for i, (si, yi) in enumerate(zip(s, y)):
        (p0[i],), (p1[i],), _ = VennAbersCalibrator(si[:-1], yi[:-1]).intervals(si[-1:])
    test_labels = y[:, -1]
    p_y = np.where(test_labels == 1, p1, p0)
    wrong_label = np.where(test_labels == 1, p0, p1)
    redraw = np.random.default_rng(1)
    null = [ece(reliability_bins(p_y, (redraw.random(n_sets) < p_y).astype(np.int64))) for _ in range(200)]
    floor = float(np.quantile(null, 0.95))
    assert ece(reliability_bins(p_y, test_labels)) < floor
    assert ece(reliability_bins(wrong_label, test_labels)) > floor


# ---------------------------------------------------------------------------
# the cell table
# ---------------------------------------------------------------------------

def table_case(kind):
    """A calibrator and one probe per cell, all 2K+1 of them: each distinct
    calibration score, a score between each neighbouring pair, and one below
    and one above them all.  "tied" draws forest-like scores, multiples of
    1/100 with many ties; "continuous" draws distinct ones."""
    rng = np.random.default_rng(33)
    scores = rng.integers(0, 101, size=400) / 100 if kind == "tied" else rng.random(150)
    labels = (rng.random(scores.size) < scores).astype(np.int64)
    distinct = np.unique(scores)
    probes = np.concatenate([distinct, (distinct[:-1] + distinct[1:]) / 2, [distinct[0] - 1.0, distinct[-1] + 1.0]])
    return VennAbersCalibrator(scores, labels), probes[rng.permutation(probes.size)]


def interval_bits(intervals):
    return b"".join(values.tobytes() for values in intervals)


@pytest.mark.parametrize("kind", ["tied", "continuous"])
def test_venn_abers_table_fill_order_changes_no_bit(kind):
    """Overlapping probe sets asked for in any order, each against a table holding
    whatever earlier calls filled, answer as a fresh calibrator and as the naive refit."""
    cal, probes = table_case(kind)
    k = cal._distinct.size
    position = np.searchsorted(cal._distinct, probes)
    cells = 2 * position + (cal._distinct[np.minimum(position, k - 1)] == probes)
    assert sorted(cells.tolist()) == list(range(2 * k + 1))  # one probe per cell
    third = probes.size // 3
    subsets = [probes[: 2 * third], probes[third:], np.concatenate([probes[:third], probes[2 * third:]])]
    fresh = {i: interval_bits(table_case(kind)[0].intervals(subset)) for i, subset in enumerate(subsets)}
    for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        cal = table_case(kind)[0]
        for i in order:
            assert interval_bits(cal.intervals(subsets[i])) == fresh[i]
            assert interval_bits(cal.intervals(subsets[i][::-1])) == interval_bits(
                values[::-1] for values in table_case(kind)[0].intervals(subsets[i]))
        assert not np.isnan(cal._cells).any()  # every cell filled
        p0, p1, point = cal.intervals(probes)
        for i, s in enumerate(probes.tolist()):
            slow = cal.interval_naive(s)
            assert bits(p0[i], p1[i], point[i]) == bits(slow.p0, slow.p1, slow.point)


def test_venn_abers_table_repeat_call_runs_no_merge(monkeypatch):
    """Each new cell costs one merge per label; a cell already in the table costs none."""
    cal, probes = table_case("tied")
    merges = []
    original = VennAbersCalibrator._fitted_between

    def counted(self, left, right, cw, cy):
        merges.append((cw, cy))
        return original(self, left, right, cw, cy)

    monkeypatch.setattr(VennAbersCalibrator, "_fitted_between", counted)
    first = np.repeat(probes[:50], 3)  # 50 cells, each asked for three times
    want = interval_bits(cal.intervals(first))
    assert len(merges) == 2 * 50
    merges.clear()
    assert interval_bits(cal.intervals(first)) == want
    assert interval_bits(cal.intervals(probes[10:20])) == interval_bits(v[10:20] for v in cal.intervals(probes[:50]))
    assert merges == []
    cal.intervals(probes[40:60])  # ten cells filled, ten new
    assert len(merges) == 2 * 10


class CheckedTable(np.ndarray):
    """A cell table that checks after each write that every cell whose point is set has its p0 and p1."""

    def __setitem__(self, key, value):
        table = self.view(np.ndarray)
        table[key] = value
        assert not np.isnan(table[:2, ~np.isnan(table[2])]).any()


def test_venn_abers_table_writes_each_point_after_its_interval():
    """A reader takes a cell once its point is set, so p0 and p1 must be in the table by then."""
    cal, probes = table_case("tied")
    cal._cells = cal._cells.view(CheckedTable)
    for batch in (probes[:40], probes[20:90], probes):
        assert interval_bits(cal.intervals(batch)) == interval_bits(table_case("tied")[0].intervals(batch))


def test_venn_abers_table_shared_by_threads_answers_as_a_fresh_calibrator():
    """Threads that fill one table at once, switching every few microseconds, never read a half-written cell."""
    _, probes = table_case("continuous")
    rng = np.random.default_rng(8)
    batches = [probes[rng.permutation(probes.size)[:120]] for _ in range(8)]  # more threads than cores
    want = [interval_bits(table_case("continuous")[0].intervals(batch)) for batch in batches]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            cal = table_case("continuous")[0]
            got = [None] * len(batches)

            def answer(i):
                got[i] = interval_bits(cal.intervals(batches[i]))

            threads = [threading.Thread(target=answer, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == want
    finally:
        sys.setswitchinterval(switch)


def test_venn_abers_pickled_after_a_partial_fill_answers_identically():
    cal, probes = table_case("tied")
    cal.intervals(probes[: probes.size // 2])
    loaded = pickle.loads(pickle.dumps(cal))
    assert np.isnan(loaded._cells).all()  # rebuilt from its calibration set, so no filled cell travels
    for calibrator in (cal, loaded):  # a write into a derived array once changed later cells with no error
        arrays = {name: value for name, value in vars(calibrator).items() if isinstance(value, np.ndarray)}
        assert {"calibration_scores", "calibration_labels", "_distinct", "_cells"} <= arrays.keys()
        assert [name for name, value in arrays.items() if value.flags.writeable] == ["_cells"]
    assert interval_bits(loaded.intervals(probes)) == interval_bits(table_case("tied")[0].intervals(probes))
    assert interval_bits(cal.intervals(probes)) == interval_bits(loaded.intervals(probes))


def test_venn_abers_calibration_set_cannot_be_rebound():
    # rebound labels once moved interval_naive(0.35) to [0.4, 0.6] while intervals, read from the
    # cell table the old labels built, still gave [0.5, 1.0], and build_venn_tree read the new ones
    cal = VennAbersCalibrator([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1])
    for name in ("calibration_scores", "calibration_labels"):
        with pytest.raises(AttributeError):
            setattr(cal, name, np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="read-only"):
            getattr(cal, name)[0] = 1.0
    for score in (0.05, 0.2, 0.35, 0.5):
        naive = cal.interval_naive(score)
        assert bits(*(v[0] for v in cal.intervals([score]))) == bits(naive.p0, naive.p1, naive.point)
    p0, p1, _ = cal.intervals([0.35])
    assert (p0.tolist(), p1.tolist()) == ([0.5], [1.0])


# ---------------------------------------------------------------------------
# bytes at scale
# ---------------------------------------------------------------------------

# case -> (calibration scores, grid values or None for continuous scores)
SCALE_CASES = {"2000 continuous": (2000, None), "3000 on a 50-value grid": (3000, 50), "500 labels all 0": (500, None)}


def scale_case(case):
    """Calibration scores and labels of one at-scale case, and its probes: every
    calibration score, 1000 uniform scores, and one score below and one above them all."""
    rng = np.random.default_rng(2306)
    n, grid = SCALE_CASES[case]
    scores = rng.random(n)
    if grid:
        scores = np.floor(scores * grid) / grid
    labels = (rng.random(n) < scores).astype(np.int64)
    if case == "500 labels all 0":
        labels[:] = 0
    return scores, labels, np.concatenate([scores, rng.random(1000), [-1.0, 2.0]])


# sha256 of the float64 bytes of pava's fitted values and of each Venn-Abers
# output array on the probes, recorded before the PAVA loops were merged into one
GOLDEN_SCALE_DIGESTS = {
    "2000 continuous pava": "ae82bfda35dd1704710ab3d172ae9e3b6503db8d1bb551a9081a1e19bedc8f52",
    "2000 continuous p0": "04a36b3696193524ccd37fa4d8b7483c018467860d54d2d17a0b24660d6055c1",
    "2000 continuous p1": "69cd0f112090df7239430cc22c739dc8241f9f0e63b28a3de1f121b5cc88a848",
    "2000 continuous point": "a94e9898ca03e421be1a20dd2178ef9c1fd879c69386de9ea55a470f8e94ff74",
    "3000 on a 50-value grid pava": "a3a6d658e6ae1fa88393770d9fafa39acf61eacbe8f0a694adc36e67d361be2c",
    "3000 on a 50-value grid p0": "b8d67d0eed4b81159fafdfb97a3963e3b8c10e71275fc14547497065b713b613",
    "3000 on a 50-value grid p1": "b8483f923eb4ab6f9107cc29e9e717a6889783dae3be4b704c5eafd295672ca7",
    "3000 on a 50-value grid point": "291a484c1dd694f0a63ce1b6baa3b6f8a0fcf4c5387311d4e6eb4fd815f793af",
    "500 labels all 0 pava": "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
    "500 labels all 0 p0": "4cb37c7e6cf544b5a164996d263eaed9f40cf8863480cca49c3d695788e87574",
    "500 labels all 0 p1": "29b047e03b837f30599a685a7c0bf6245936787ef607a93878ecd3108d465ff6",
    "500 labels all 0 point": "0e109d10e8b31e9a636bff3a1f9349d9e3adac10367c4822eb3d902a3509f53f",
}


def test_calibrator_bytes_at_scale_match_golden_digests():
    digests = {}
    for case in SCALE_CASES:
        scores, labels, probes = scale_case(case)
        digests[f"{case} pava"] = hashlib.sha256(pava(scores, labels).fitted_values.tobytes()).hexdigest()
        p0, p1, point = VennAbersCalibrator(scores, labels).intervals(probes)
        for name, values in (("p0", p0), ("p1", p1), ("point", point)):
            digests[f"{case} {name}"] = hashlib.sha256(values.tobytes()).hexdigest()
    assert digests == GOLDEN_SCALE_DIGESTS


# ---------------------------------------------------------------------------
# regularized point estimate
# ---------------------------------------------------------------------------

def test_regularized_point_identity_on_degenerate_interval():
    assert regularized_point(0.6, 0.6) == pytest.approx(0.6, abs=1e-15)


def test_regularized_point_total_uncertainty_is_neutral():
    assert regularized_point(0.0, 1.0) == 0.5


def test_regularized_point_worked_value():
    assert regularized_point(0.75, 1.0) == pytest.approx(0.8, abs=1e-15)


def test_regularized_point_validates_interval():
    with pytest.raises(ValueError):
        regularized_point(0.8, 0.2)
    with pytest.raises(ValueError):
        regularized_point(-0.1, 0.5)
    p0 = np.array([0.6, 0.0, 0.75])
    p1 = np.array([0.6, 1.0, 1.0])
    assert regularized_point(p0, p1).tolist() == [regularized_point(a, b) for a, b in zip(p0, p1)]
    with pytest.raises(ValueError, match=r"invalid interval \[0\.8, 0\.3\]"):
        regularized_point(np.array([0.1, 0.8, 0.2]), np.array([0.2, 0.3, 0.1]))

"""Calibration-core tests.

The isotonic results are checked against an independent dynamic-programming
oracle that enumerates every monotone step-function fit over the pooled
points, so every expected value here is computed, not asserted from hope.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

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


# ---------------------------------------------------------------------------
# oracle: exhaustive monotone least squares
# ---------------------------------------------------------------------------

def pooled(scores, labels):
    order = np.argsort(scores, kind="stable")
    s = np.asarray(scores, dtype=float)[order]
    y = np.asarray(labels, dtype=float)[order]
    distinct = []
    weights = []
    sums = []
    for si, yi in zip(s, y):
        if distinct and distinct[-1] == si:
            weights[-1] += 1
            sums[-1] += Fraction(yi)
        else:
            distinct.append(si)
            weights.append(1)
            sums.append(Fraction(yi))
    return distinct, weights, sums


def monotone_lsq_oracle(scores, labels):
    """Best non-decreasing step fit by brute force over block partitions.

    Exact rational arithmetic; returns the fitted value per distinct score.
    Only usable for ~10 distinct points (2^(k-1) partitions).
    """
    distinct, weights, sums = pooled(scores, labels)
    k = len(distinct)
    best_sse = None
    best_fit = None
    for breaks in product([False, True], repeat=k - 1):
        blocks = [[0]]
        for i, brk in enumerate(breaks):
            if brk:
                blocks.append([])
            blocks[-1].append(i + 1)
        means = []
        for block in blocks:
            w = sum(weights[i] for i in block)
            t = sum(sums[i] for i in block)
            means.append(Fraction(t, w))
        if any(means[i] > means[i + 1] for i in range(len(means) - 1)):
            continue
        sse = Fraction(0)
        for block, mean in zip(blocks, means):
            for i in block:
                mean_i = sums[i] / weights[i]
                sse += weights[i] * (mean - mean_i) ** 2
        if best_sse is None or sse < best_sse:
            best_sse = sse
            fit = [None] * k
            for block, mean in zip(blocks, means):
                for i in block:
                    fit[i] = mean
            best_fit = fit
    return distinct, [float(v) for v in best_fit], best_sse


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
        assert np.max(np.abs(fit.fitted_values - np.array(oracle_fit))) <= 1e-12


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


def test_venn_abers_matches_dp_oracle():
    rng = np.random.default_rng(5150)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        scores = rng.integers(0, 5, size=n) / 4.0
        labels = rng.integers(0, 2, size=n)
        s_test = float(rng.integers(0, 5)) / 4.0
        cal = VennAbersCalibrator(scores, labels)
        (p0,), (p1,), _ = cal.intervals([s_test])
        oracle_p0, oracle_p1 = oracle_interval(scores, labels, s_test)
        assert p0 == pytest.approx(oracle_p0, abs=1e-12)
        assert p1 == pytest.approx(oracle_p1, abs=1e-12)


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


def test_venn_abers_rejects_bad_inputs():
    with pytest.raises(ValueError):
        VennAbersCalibrator([], [])
    cal = VennAbersCalibrator([0.5], [1])
    with pytest.raises(ValueError):
        cal.intervals([float("nan")])


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

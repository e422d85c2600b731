"""Brute-force references and toy data shared by the unit tests and the acceptance suite.

None uses venncal, so criterion 4 and the unit tests check venncal against the
same independent oracles.  pytest collects no tests here: the name is not test_*.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

HEADER = (
    "UDI,Product ID,Type,Air temperature [K],Process temperature [K],"
    "Rotational speed [rpm],Torque [Nm],Tool wear [min],Machine failure,TWF,HDF,PWF,OSF,RNF"
)


def write_small_dataset(path: Path, n=320, seed=0):
    """Learnable toy data in the maintenance schema."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        t = rng.choice(["L", "M", "H"])
        air = 300 + 2 * rng.normal()
        process = air + 10 + rng.normal()
        rpm = 1500 + 150 * rng.normal()
        torque = 40 + 10 * rng.normal()
        wear = rng.integers(0, 240)
        fail = int(torque > 52 or (rpm < 1350 and process - air < 9.2) or rng.random() < 0.03)
        rows.append(
            f"{i+1},{t}{i},{t},{air:.1f},{process:.1f},{rpm:.0f},{torque:.1f},{wear},{fail},0,0,0,0,0"
        )
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


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


# ---------------------------------------------------------------------------
# oracle: textbook PAVA
# ---------------------------------------------------------------------------

def textbook_pava(scores, labels):
    """Pool adjacent violators on exact rationals, one fitted value per distinct score.

    Blocks are merged while a block's mean exceeds its right neighbour's,
    stepping back one block after each merge; no pooling of equal means, no
    stacks, no cross-multiplication.  Usable at any size.
    """
    _, weights, sums = pooled(scores, labels)
    blocks = [[w, t, 1] for w, t in zip(weights, sums)]  # weight, label sum, distinct scores
    i = 0
    while i < len(blocks) - 1:
        (w, t, count), (w_next, t_next, count_next) = blocks[i], blocks[i + 1]
        if Fraction(t, w) > Fraction(t_next, w_next):
            blocks[i : i + 2] = [[w + w_next, t + t_next, count + count_next]]
            i = max(i - 1, 0)
        else:
            i += 1
    return [float(Fraction(t, w)) for w, t, count in blocks for _ in range(count)]


# ---------------------------------------------------------------------------
# oracle: exhaustive split enumeration
# ---------------------------------------------------------------------------

def exhaustive_best_split(x, y):
    """Best (feature, threshold) by brute force, or None.

    Maximises the Gini impurity decrease computed in exact rationals;
    ties resolved by lowest feature index, then lowest threshold.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim == 1:
        x = x[:, None]
    m = len(y)
    best = None  # (gain: Fraction, feature, threshold)
    for feature in range(x.shape[1]):
        values = sorted(set(x[:, feature]))
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = x[:, feature] <= threshold
            n_l, n_r = int(left.sum()), int(m - left.sum())
            p_l = int(y[left].sum())
            p_r = int(y.sum()) - p_l
            def gini_term(p, n):
                return Fraction(p * p + (n - p) * (n - p), n)
            # parent impurity is candidate-independent; compare children purity
            gain = gini_term(p_l, n_l) + gini_term(p_r, n_r)
            if best is None or gain > best[0]:
                best = (gain, feature, threshold)
    return None if best is None else (best[1], best[2])


def brute_force_auc(probabilities, labels):
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(labels)
    pos = p[y == 1]
    neg = p[y == 0]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))

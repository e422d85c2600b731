"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion.  Criteria 1-3 evaluate
the full 10x10 cross-validated experiment on the bundled reference dataset
(10 000 rows, 339 failures); that run takes minutes, so its artifacts are
cached under .cache/acceptance_run at the repository root and reused while
the run.json there matches the current code and config.  Criteria 4-9 run
fresh every time.  Criterion 4's brute-force references and criterion 7's
toy dataset come from tests/support.py, the copies the unit tests use.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from venncal.calibration import VennAbersCalibrator, regularized_point, pava
from venncal.data import load_csv, stratified_holdout
from venncal.harness import ExperimentConfig, load_fold_predictions, run_experiment, run_record
from venncal.metrics import auc, ece, minority_bins, reliability_bins
from venncal.models import fit_tree
from venncal.synthetic import write_reference_csv
from venncal.venn_tree import build_venn_tree, extract_rules

from support import brute_force_auc, exhaustive_best_split, monotone_lsq_oracle, write_small_dataset

CACHE = Path(__file__).resolve().parent.parent / ".cache"
RUN_DIR = CACHE / "acceptance_run"
DATA_PATH = CACHE / "reference.csv"

EXPECTED_ROWS = 9  # (tree, forest) x 4 calibrators + logistic uncalibrated
EXPECTED_FOLD_FILES = EXPECTED_ROWS * 100


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} {status}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="session")
def reference_csv():
    """The bundled reference CSV, rewritten by the current generator.

    Writing it takes under a second, and a file left by an earlier
    generator would otherwise be checked as if the current one wrote it.
    """
    return write_reference_csv(DATA_PATH)


@pytest.fixture(scope="session")
def reference_run(reference_csv):
    """Aggregate table of the cached full experiment, building it if needed.

    The cache is rebuilt unless its run.json is the record this code, config
    and dataset would write, so artifacts of other code or data never pass
    for these.
    """
    # the artifacts do not depend on jobs, so use every core
    config = ExperimentConfig(
        dataset_path=str(reference_csv),
        models=("tree", "forest", "logistic"),
        calibrators=("none", "venn-abers", "platt", "isotonic"),
        k=10,
        repetitions=10,
        seed=0,
        output_dir=str(RUN_DIR),
        jobs=os.cpu_count() or 1,
    )
    record_path = RUN_DIR / "run.json"
    current = (
        record_path.exists()
        and json.loads(record_path.read_text(encoding="utf-8")) == run_record(config)
        and len(list((RUN_DIR / "folds").glob("*.json"))) == EXPECTED_FOLD_FILES
    )
    if not current:
        run_experiment(config)
    rows = json.loads((RUN_DIR / "aggregate.json").read_text(encoding="utf-8"))
    return {(r["model"], r["calibrator"]): r for r in rows}


# ---------------------------------------------------------------------------
# criterion 1: Table-1 reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_table1_reproduction(reference_run):
    dt = reference_run[("tree", "none")]
    rf = reference_run[("forest", "none")]
    lr = reference_run[("logistic", "none")]
    checks = [
        ("DT accuracy", dt["accuracy"], 0.981, 0.003),
        ("DT AUC", dt["auc"], 0.904, 0.03),
        ("RF accuracy", rf["accuracy"], 0.985, 0.003),
        ("RF AUC", rf["auc"], 0.966, 0.01),
        ("RF precision", rf["precision"], 0.895, 0.05),
        ("RF recall", rf["recall"], 0.616, 0.06),
        ("LR recall", lr["recall"], 0.196, 0.08),
    ]
    details = []
    ok = True
    for name, got, target, tolerance in checks:
        inside = abs(got - target) <= tolerance
        ok = ok and inside
        details.append(f"{name}={got:.3f} (target {target}±{tolerance}{'' if inside else ' MISS'})")
    _report(1, "uncalibrated metrics within Table-1 tolerances", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 2: Table-2 directional reproduction
# ---------------------------------------------------------------------------

def _pooled_errors(run_dir, model, calibrator):
    # calibration errors are compared on predictions pooled over all folds:
    # a single fold has only ~25 minority predictions, whose binomial noise
    # alone puts a ~0.1 floor under any per-fold ECE-1 average
    p, y = load_fold_predictions(run_dir, model, calibrator)
    return ece(reliability_bins(p, y, m=10)), ece(minority_bins(p, y, m=10))


def test_criterion_2_table2_directional(reference_run):
    dt_un = _pooled_errors(RUN_DIR, "tree", "none")
    dt_va = _pooled_errors(RUN_DIR, "tree", "venn-abers")
    rf_un = _pooled_errors(RUN_DIR, "forest", "none")
    rf_va = _pooled_errors(RUN_DIR, "forest", "venn-abers")
    rf_ratio_ok = rf_un[1] >= 3.0 * rf_va[1]
    dt_ratio_ok = dt_un[1] >= 2.0 * dt_va[1]
    overall_ok = dt_va[0] <= 0.01 and rf_va[0] <= 0.01
    detail = (
        f"RF ECE-1 {rf_un[1]:.3f} vs VA {rf_va[1]:.3f}; "
        f"DT ECE-1 {dt_un[1]:.3f} vs VA {dt_va[1]:.3f}; "
        f"overall VA ECE DT {dt_va[0]:.4f}, RF {rf_va[0]:.4f}"
    )
    _report(2, "Venn-Abers shrinks minority ECE and keeps overall ECE small",
            rf_ratio_ok and dt_ratio_ok and overall_ok, detail)


# ---------------------------------------------------------------------------
# criterion 3: calibration-direction checks
# ---------------------------------------------------------------------------

def test_criterion_3_over_and_underconfidence(reference_run):
    dt_bins = minority_bins(*load_fold_predictions(RUN_DIR, "tree", "none"), m=10)
    rf_bins = minority_bins(*load_fold_predictions(RUN_DIR, "forest", "none"), m=10)

    def direction_counts(bins):
        below = above = 0
        for count, mop, foc in zip(bins.counts, bins.mean_prediction, bins.fraction_positive):
            if count == 0:
                continue
            if foc < mop:
                below += 1
            elif foc > mop:
                above += 1
        return below, above

    dt_below, dt_above = direction_counts(dt_bins)
    rf_below, rf_above = direction_counts(rf_bins)
    ok = dt_below > dt_above and rf_above > rf_below
    detail = (
        f"DT minority bins below/above diagonal {dt_below}/{dt_above} (overconfident); "
        f"RF {rf_below}/{rf_above} (underconfident)"
    )
    _report(3, "uncalibrated DT overconfident and RF underconfident on minority bins", ok, detail)


# ---------------------------------------------------------------------------
# criterion 4: oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(44)
    pava_mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        fit = pava(scores, labels)
        distinct, oracle_fit, _ = monotone_lsq_oracle(scores, labels)
        assert fit.breakpoints.tolist() == distinct
        pava_mismatches += fit.fitted_values.tolist() != oracle_fit
    pava_ok = pava_mismatches == 0

    auc_mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        p = rng.integers(0, 30, size=n) / 29.0
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        auc_mismatches += auc(p, y) != brute_force_auc(p, y)
    auc_ok = auc_mismatches == 0

    split_matches = 0
    split_total = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 3))
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        expected = exhaustive_best_split(x, y)
        tree = fit_tree(x, y)
        if y.min() == y.max() or expected is None:
            ok = tree.feature_index[0] == -1
        else:
            ok = (tree.feature_index[0], tree.threshold[0]) == expected
        split_total += 1
        split_matches += int(ok)
    split_ok = split_matches == split_total

    _report(
        4,
        "PAVA, AUC and tree splits match independent oracles",
        pava_ok and auc_ok and split_ok,
        f"pava fits off the oracle {pava_mismatches}/1000; auc values off the oracle {auc_mismatches}/200; "
        f"splits {split_matches}/{split_total}",
    )


# ---------------------------------------------------------------------------
# criterion 5: Venn-Abers properties
# ---------------------------------------------------------------------------

def test_criterion_5_venn_abers_properties():
    rng = np.random.default_rng(55)
    ordering_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        scores = rng.integers(0, 12, size=n) / 11.0 if rng.random() < 0.5 else rng.random(n)
        labels = rng.integers(0, 2, size=n)
        cal = VennAbersCalibrator(scores, labels)
        s = float(rng.random())
        (p0,), (p1,), _ = cal.intervals([s])
        if not (0.0 <= p0 <= p1 <= 1.0):
            ordering_ok = False
            break
    identity_ok = (
        abs(regularized_point(0.0, 1.0) - 0.5) <= 1e-12
        and all(abs(regularized_point(p, p) - p) <= 1e-12 for p in np.linspace(0, 1, 101))
    )
    cal = VennAbersCalibrator([0.1, 0.2, 0.3, 0.4, 0.6, 0.9], [0, 0, 1, 1, 1, 1])
    (p0,), (p1,), (point,) = cal.intervals([0.8])
    worked_ok = p0 == 0.75 and p1 == 1.0 and abs(point - 0.8) <= 1e-12
    _report(
        5,
        "interval ordering, point-estimate identities and the worked example hold",
        ordering_ok and identity_ok and worked_ok,
        f"worked example [p0, p1]=[{p0}, {p1}], point={point}",
    )


# ---------------------------------------------------------------------------
# criterion 6: statistical validity smoke test
# ---------------------------------------------------------------------------

def test_criterion_6_statistical_validity():
    # known law: a discrete scorer (leaf-score style) whose score IS the
    # positive probability, with most mass at the confident levels.  At
    # n_test = 5000 the Monte-Carlo floor of a 10-bin ECE against a
    # continuous uniform score law is already ~0.015-0.02, so the law has
    # to carry its mass where binomial noise is small for the 0.02 bound
    # to be meaningful.
    levels = np.array([0.05, 0.2, 0.5, 0.8, 0.95])
    weights = np.array([0.4, 0.08, 0.04, 0.08, 0.4])
    rng = np.random.default_rng(9)
    n_cal, n_test = 2000, 5000
    cal_scores = rng.choice(levels, p=weights, size=n_cal)
    cal_labels = (rng.random(n_cal) < cal_scores).astype(int)
    test_scores = rng.choice(levels, p=weights, size=n_test)
    test_labels = (rng.random(n_test) < test_scores).astype(int)
    calibrator = VennAbersCalibrator(cal_scores, cal_labels)
    _, _, points = calibrator.intervals(test_scores)
    value = ece(reliability_bins(points, test_labels, m=10))
    _report(6, "binned point estimates match empirical rates on IID data",
            value <= 0.02, f"ECE={value:.4f} <= 0.02")


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    data = tmp_path / "toy.csv"
    write_small_dataset(data, n=260, seed=4)
    outputs = []
    for name in ("one", "two"):
        config = ExperimentConfig(
            dataset_path=str(data),
            models=("tree", "forest", "logistic"),
            calibrators=("none", "venn-abers", "platt", "isotonic"),
            k=2,
            repetitions=2,
            seed=99,
            n_trees=10,
            output_dir=str(tmp_path / name),
        )
        run_experiment(config)
        outputs.append((tmp_path / name / "aggregate.json").read_bytes())
    ok = outputs[0] == outputs[1]
    _report(7, "identical config and seed give byte-identical aggregate tables", ok,
            f"{len(outputs[0])} bytes compared")


# ---------------------------------------------------------------------------
# criterion 8: rule/tree round trip
# ---------------------------------------------------------------------------

def test_criterion_8_rule_tree_roundtrip(reference_csv):
    dataset = load_csv(reference_csv)
    x, y = dataset.features, dataset.labels
    tree = fit_tree(x[:6000], y[:6000], min_samples_leaf=6, seed=1)
    calibrator = VennAbersCalibrator(tree.score_many(x[6000:9000]), y[6000:9000])
    vt = build_venn_tree(
        tree, calibrator, display_max_depth=5, feature_names=dataset.feature_names, calibration_features=x[6000:9000]
    )
    rules = extract_rules(vt)
    rng = np.random.default_rng(88)
    low = x.min(axis=0) - 1.0
    high = x.max(axis=0) + 1.0
    mismatches = 0
    for _ in range(1000):
        point = low + rng.random(x.shape[1]) * (high - low)
        hits = [r for r in rules if r.matches(point)]
        ann = vt.annotation_for(point)
        if len(hits) != 1 or hits[0].p0 != ann.p0 or hits[0].p1 != ann.p1:
            mismatches += 1
    _report(8, "rule matched by conjunction equals tree routing for 1000 vectors",
            mismatches == 0, f"{1000 - mismatches}/1000 exact")


# ---------------------------------------------------------------------------
# criterion 9: Venn-tree leaves calibrated for the rows they label
# ---------------------------------------------------------------------------

VENN_TREE_SPLIT_SEEDS = range(9000, 9020)  # fixed before the criterion first ran


def _leaf_gap(vt, x, y) -> float:
    """Mean over rows x of |failure rate of the rows' display leaf - the leaf's point estimate|."""
    leaves = vt.tree.apply(x)
    counts = np.bincount(leaves, minlength=vt.tree.n_nodes)
    failures = np.bincount(leaves, weights=y, minlength=vt.tree.n_nodes)
    return sum(abs(failures[node] - counts[node] * ann.point) for node, ann in vt.leaves.items()) / y.size


def test_criterion_9_venn_tree_leaves_hold_where_they_label(reference_csv):
    # per split: 30% held out, a third of the rest calibrates, and the tree fits the remainder
    dataset = load_csv(reference_csv)
    x, y = dataset.features, dataset.labels
    gaps = {None: [], 5: []}
    for seed in VENN_TREE_SPLIT_SEEDS:
        rng = np.random.default_rng(seed)
        rest, held = stratified_holdout(y, 0.3, rng)
        proper, cal = (rest[ids] for ids in stratified_holdout(y[rest], 1.0 / 3.0, rng))
        tree = fit_tree(x[proper], y[proper], min_samples_leaf=6)
        calibrator = VennAbersCalibrator(tree.score_many(x[cal]), y[cal])
        for depth, depth_gaps in gaps.items():
            vt = build_venn_tree(tree, calibrator, display_max_depth=depth, calibration_features=x[cal])
            depth_gaps.append(_leaf_gap(vt, x[held], y[held]))
    full, shallow = float(np.mean(gaps[None])), float(np.mean(gaps[5]))
    _report(9, "depth-5 display leaves' held-out gap at most the full tree's",
            shallow <= full, f"mean weighted |failure rate - point| over {len(gaps[5])} splits: "
            f"depth 5 {shallow:.4f}, full depth {full:.4f}")

"""Command-line interface.

Subcommands:
  experiment        train/calibrate/evaluate over repeated CV and aggregate
  calibrate-scores  calibrate an external score table fold by fold
  reliability       export pooled reliability bins from a finished run
  venn-tree         train a tree, annotate leaves with intervals, export
  synth-data        write the bundled reference dataset CSV

Exit code 0 on success, 1 with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from venncal.calibration import VennAbersCalibrator
from venncal.data import load_csv, stratified_holdout
from venncal.harness import (
    KNOWN_CALIBRATORS,
    KNOWN_MODELS,
    POST_HOC_CALIBRATORS,
    ExperimentConfig,
    calibrate_scores,
    load_fold_predictions,
    run_experiment,
    write_reliability_csv,
)
from venncal.metrics import minority_bins, reliability_bins
from venncal.models import fit_tree
from venncal.synthetic import REFERENCE_SEED, write_reference_csv
from venncal.venn_tree import CLASS_NAMES, build_venn_tree, extract_rules, format_rules, render_tree

import numpy as np


def _add_experiment_parser(sub):
    p = sub.add_parser("experiment", help="run the cross-validated calibration experiment")
    p.add_argument("--config", help="JSON file with ExperimentConfig fields (flags override)")
    p.add_argument("--data", dest="dataset_path", help="dataset CSV path")
    p.add_argument("--models", nargs="+", help=f"subset of: {' '.join(KNOWN_MODELS)}")
    p.add_argument("--calibrators", nargs="+", help=f"subset of: {' '.join(KNOWN_CALIBRATORS)}")
    p.add_argument("--folds", dest="k", type=int, help=f"number of CV folds (default {ExperimentConfig.k})")
    p.add_argument("--repetitions", type=int,
                   help=f"number of CV repetitions (default {ExperimentConfig.repetitions})")
    p.add_argument("--cal-fraction", dest="calibration_fraction", type=float,
                   help="share of each fold's training portion held out for calibration")
    p.add_argument("--seed", type=int, help=f"master seed (default {ExperimentConfig.seed})")
    p.add_argument("--out", dest="output_dir", help="artifact directory")
    p.add_argument("--bins", type=int, help=f"reliability bin count (default {ExperimentConfig.bins})")
    p.add_argument("--bin-mode", dest="bin_mode", choices=["width", "frequency"])
    p.add_argument("--score-table", dest="score_table_path", help="score table for external-scores")
    p.add_argument("--trees", dest="n_trees", type=int, help=f"forest size (default {ExperimentConfig.n_trees})")
    p.add_argument("--tree-min-samples-leaf", dest="tree_min_samples_leaf", type=int)
    p.add_argument("--jobs", type=int, help=f"parallel fold workers (default {ExperimentConfig.jobs})")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _run_experiment(args) -> int:
    settings: dict = {}
    if args.config:
        settings.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            settings[field.name] = value
    config = ExperimentConfig.from_dict(settings)

    def progress(done, total):
        if not args.quiet:
            print(f"fold {done}/{total}", file=sys.stderr)

    table = run_experiment(config, progress=progress)
    print(table.to_text(), end="")
    return 0


def _run_calibrate_scores(args) -> int:
    written = calibrate_scores(args.scores, args.calibrator, args.out)
    print(f"wrote {written} calibrated rows to {args.out}")
    return 0


def _run_reliability(args) -> int:
    probabilities, labels = load_fold_predictions(args.run_dir, args.model, args.calibrator)
    binning = minority_bins if args.scope == "minority" else reliability_bins
    bins = binning(probabilities, labels, m=args.bins, mode=args.bin_mode)
    write_reliability_csv(args.out, bins)
    n = 0 if bins is None else bins.n_instances
    print(f"wrote reliability bins over {n} predictions to {args.out}")
    return 0


def _check_seed(seed: int) -> None:
    """Reject a --seed below 0, which numpy's generators refuse without naming it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _run_venn_tree(args) -> int:
    _check_seed(args.seed)
    dataset = load_csv(args.dataset_path)
    rng = np.random.default_rng(args.seed)
    proper_ids, calibration_ids = stratified_holdout(dataset.labels, args.calibration_fraction, rng)
    tree = fit_tree(
        dataset.features[proper_ids],
        dataset.labels[proper_ids],
        min_samples_leaf=args.min_samples_leaf,
        seed=args.seed,
    )
    cal_x = dataset.features[calibration_ids]
    calibrator = VennAbersCalibrator(tree.score_many(cal_x), dataset.labels[calibration_ids])
    vt = build_venn_tree(
        tree,
        calibrator,
        display_max_depth=args.max_depth,
        feature_names=dataset.feature_names,
        calibration_features=cal_x,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rules = extract_rules(vt)
    (out / "rules.txt").write_text(format_rules(rules), encoding="utf-8")
    (out / "tree.dot").write_text(render_tree(vt), encoding="utf-8")
    (out / "model.json").write_text(json.dumps(tree.to_dict(), sort_keys=True), encoding="utf-8")
    with (out / "leaves.csv").open("w", encoding="utf-8") as handle:
        handle.write("leaf,n_train,n_calibration,raw_score,p0,p1,point,predicted_class\n")
        for node in sorted(vt.leaves):
            a = vt.leaves[node]
            handle.write(
                f"{a.node},{a.n_train},{a.n_calibration},{a.raw_score!r},"
                f"{a.p0!r},{a.p1!r},{a.point!r},{CLASS_NAMES[a.predicted_class]}\n"
            )
    print(f"wrote {len(rules)} rules, tree.dot and leaves.csv to {out}")
    return 0


def _run_synth_data(args) -> int:
    _check_seed(args.seed)
    path = write_reference_csv(args.out, seed=args.seed)
    print(f"wrote reference dataset to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venncal",
        description="Probability calibration toolkit for imbalanced fault detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_experiment_parser(sub)

    p = sub.add_parser("calibrate-scores", help="calibrate an external score table")
    p.add_argument("--scores", required=True, help="score table CSV")
    p.add_argument("--calibrator", required=True, choices=POST_HOC_CALIBRATORS)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("reliability", help="export pooled reliability bins from a run directory")
    p.add_argument("--run-dir", required=True, help="experiment --out directory")
    p.add_argument("--model", required=True)
    p.add_argument("--calibrator", required=True)
    p.add_argument("--scope", choices=["all", "minority"], default="all")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--bin-mode", dest="bin_mode", choices=["width", "frequency"], default="width")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("venn-tree", help="export an interval-annotated decision tree")
    p.add_argument("--data", dest="dataset_path", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-depth", type=int, default=5, help="display depth (default 5)")
    p.add_argument("--cal-fraction", dest="calibration_fraction", type=float,
                   default=ExperimentConfig.calibration_fraction)
    p.add_argument("--min-samples-leaf", type=int, default=ExperimentConfig.tree_min_samples_leaf)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth-data", help="write the bundled reference dataset")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _run_experiment,
        "calibrate-scores": _run_calibrate_scores,
        "reliability": _run_reliability,
        "venn-tree": _run_venn_tree,
        "synth-data": _run_synth_data,
    }
    try:
        return handlers[args.command](args)
    except Exception as err:  # surfaced as a diagnostic, not a traceback
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import json
import sys
from pathlib import Path

from venncal.calibration import VennAbersCalibrator
from venncal.data import bounded, load_csv, stratified_holdout, write_columns
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

LEAVES_COLUMNS = ("leaf", "n_train", "n_calibration", "raw_score", "p0", "p1", "point", "predicted_class")
_FIELDS = ExperimentConfig.__dataclass_fields__  # name -> dataclasses.Field, in declaration order


def _add_settings(parser, *names, suppress=False, **flags) -> None:
    """Add the flags of ExperimentConfig fields as their metadata declares them; flags renames one.

    Unless suppressed, a flag defaults to its field, and main checks its bound before the handler reads data.
    argparse is given no choices, so a value out of bounds fails one way, from a flag or from --config.
    """
    shared = {}
    for name in names:
        declared = _FIELDS[name]
        flag = shared[name] = flags.get(name, declared.metadata["flag"])
        shown = " ".join(declared.default) if isinstance(declared.default, tuple) else declared.default
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS if suppress else declared.default,
                            type={"int": int, "float": float}.get(declared.type),
                            nargs="+" if declared.type.startswith("tuple") else None,
                            help=declared.metadata["help"] + ("" if shown is None else f" (default {shown})"))
    if not suppress:
        parser.set_defaults(shared=shared)


def _add_experiment_parser(sub):
    p = sub.add_parser("experiment", help="run the cross-validated calibration experiment")
    p.add_argument("--config", help="JSON file with ExperimentConfig fields (flags override)")
    _add_settings(p, *_FIELDS, suppress=True)  # a flag not typed leaves its field to --config or the default
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _run_experiment(args) -> int:
    settings: dict = {}
    if args.config:
        try:  # json and open name neither the flag nor, for bad JSON, the file
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ValueError(f"--config {args.config}: no such file") from None
        except json.JSONDecodeError as err:
            raise ValueError(f"--config {args.config}: not valid JSON: {err}") from None
        if not isinstance(loaded, dict):  # dict.update would fail naming neither the file nor the cause
            kind = {list: "array", str: "string", bool: "boolean", type(None): "null"}.get(type(loaded), "number")
            raise ValueError(f"--config {args.config}: expected a JSON object, got a JSON {kind}")
        settings.update(loaded)
    settings.update((name, value) for name, value in vars(args).items() if name in _FIELDS)
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
    bounded(args.model, "model", "--model", choices=KNOWN_MODELS)  # before the run directory is read
    bounded(args.calibrator, "calibrator", "--calibrator", choices=KNOWN_CALIBRATORS)
    probabilities, labels = load_fold_predictions(args.run_dir, args.model, args.calibrator)
    binning = minority_bins if args.scope == "minority" else reliability_bins
    bins = binning(probabilities, labels, m=args.bins, mode=args.bin_mode)
    write_reliability_csv(args.out, bins)
    n = 0 if bins is None else bins.n_instances
    print(f"wrote reliability bins over {n} predictions to {args.out}")
    return 0


def _run_venn_tree(args) -> int:
    bounded(args.max_depth, "max_depth", "--max-depth", low=0)  # before the dataset is read
    dataset = load_csv(args.dataset_path)
    rng = np.random.default_rng(args.seed)
    proper_ids, calibration_ids = stratified_holdout(dataset.labels, args.calibration_fraction, rng)
    tree = fit_tree(
        dataset.features[proper_ids],
        dataset.labels[proper_ids],
        min_samples_leaf=args.tree_min_samples_leaf,
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
    rows = [
        (a.node, a.n_train, a.n_calibration, a.raw_score, a.p0, a.p1, a.point, CLASS_NAMES[a.predicted_class])
        for _, a in sorted(vt.leaves.items())
    ]
    write_columns(LEAVES_COLUMNS, {out / "leaves.csv": list(zip(*rows))})
    print(f"wrote {len(rules)} rules, tree.dot and leaves.csv to {out}")
    return 0


def _run_synth_data(args) -> int:
    bounded(args.seed, "seed", "--seed", low=0)  # before anything is created
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
    _add_settings(p, "bins", "bin_mode")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("venn-tree", help="export an interval-annotated decision tree")
    p.add_argument("--data", dest="dataset_path", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-depth", type=int, default=5, help="display depth (default 5)")
    _add_settings(p, "calibration_fraction", "tree_min_samples_leaf", "seed",
                  tree_min_samples_leaf="--min-samples-leaf")

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
        for name, flag in getattr(args, "shared", {}).items():
            bounded(getattr(args, name), name, flag, **_FIELDS[name].metadata["bound"])
        return handlers[args.command](args)
    except Exception as err:  # surfaced as a diagnostic, not a traceback
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

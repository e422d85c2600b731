"""Experiment harness.

Runs the full train / calibrate / evaluate / aggregate loop over repeated
stratified cross-validation folds and persists per-fold artifacts plus the
aggregate table.  Within one fold the uncalibrated variant of a model is
trained on the whole training portion, while the calibrated variants share
one underlying model trained on the proper-training part only, with each
calibrator fitted on the held-out calibration part.

All outputs are deterministic for a fixed config and seed: per-model
random streams are derived from (seed, repetition, fold, role), artifacts
are written in sorted order, and JSON floats use repr round-tripping.
"""

from __future__ import annotations

import json
import numbers
import platform
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from venncal.calibration import (
    VennAbersCalibrator,
    apply_platt,
    fit_platt,
    isotonic_calibrate,
    pava,
)
from venncal.data import (
    Dataset,
    FoldSplit,
    ParseError,
    SchemaError,
    load_csv,
    read_rows,
    repeated_stratified_kfold,
    write_columns,
    write_split_manifest,
)
from venncal.metrics import EvaluationReport, evaluate
from venncal.models import ScoreTable, fit_forest, fit_logistic, fit_tree, load_score_table

__all__ = [
    "AggregateRow",
    "AggregateTable",
    "ExperimentConfig",
    "calibrate_scores",
    "load_fold_predictions",
    "run_experiment",
    "run_record",
    "write_reliability_csv",
]

KNOWN_MODELS = ("tree", "forest", "logistic", "external-scores")
POST_HOC_CALIBRATORS = ("venn-abers", "platt", "isotonic")
KNOWN_CALIBRATORS = ("none", *POST_HOC_CALIBRATORS)

AGGREGATE_CSV_COLUMNS = (
    "model", "calibrator", "n_folds", "accuracy", "auc", "precision",
    "recall", "positive_predictions", "ece", "ece1",
)
PREDICTION_COLUMNS = ("instance_id", "label", "score", "p0", "p1", "point")
RELIABILITY_COLUMNS = ("bin_low", "bin_high", "count", "mop", "foc")
CALIBRATED_SCORE_COLUMNS = ("instance_id", "fold_id", "score", "p0", "p1", "point")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible experiment run needs."""

    dataset_path: str | None = None
    models: tuple[str, ...] = ("tree", "forest", "logistic")
    calibrators: tuple[str, ...] = ("none", "venn-abers", "platt", "isotonic")
    k: int = 10
    repetitions: int = 10
    calibration_fraction: float = 1.0 / 3.0
    seed: int = 0
    output_dir: str | None = None
    bins: int = 10
    bin_mode: str = "width"
    score_table_path: str | None = None
    n_trees: int = 100
    tree_min_samples_leaf: int = 6
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):  # annotations are strings under `from __future__ import annotations`
            value = getattr(self, f.name)
            wanted = {"int": numbers.Integral, "float": numbers.Real, "str | None": (str, type(None))}.get(f.type)
            if wanted and (isinstance(value, bool) or not isinstance(value, wanted)):
                raise ValueError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.models or not self.calibrators:
            raise ValueError("at least one model and one calibrator must be selected")
        for field, known in (("models", KNOWN_MODELS), ("calibrators", KNOWN_CALIBRATORS)):
            names = getattr(self, field)
            if not isinstance(names, (tuple, list)):
                raise ValueError(f"{field} must be a list of names, got {type(names).__name__} {names!r}")
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {field[:-1]} {name!r} (choose from {known})")
                if name in names[:i]:
                    raise ValueError(f"{field} lists {name!r} more than once")
            object.__setattr__(self, field, tuple(names))  # a JSON list, hashable and equal to its tuple
        paired = {model for model, _ in self.pairs()}
        for model in self.models:
            if model not in paired:
                raise ValueError(
                    f"model {model!r} pairs with none of the calibrators {self.calibrators}"
                    " (logistic runs with 'none' only)"
                )
        if self.reads_dataset and not self.dataset_path:
            raise ValueError("dataset_path is required for tree/forest/logistic models")
        if self.reads_score_table and not self.score_table_path:
            raise ValueError("score_table_path is required for the external-scores model")
        if self.bin_mode not in ("width", "frequency"):
            raise ValueError("bin_mode must be 'width' or 'frequency'")
        for name in ("bins", "n_trees", "tree_min_samples_leaf", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.calibration_fraction < 1.0:
            raise ValueError("calibration_fraction must be in (0, 1)")

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (model, calibrator) pairs that run, in aggregate-table order.

        Logistic regression runs uncalibrated only: calibration would consume
        the very split the paper's comparison baseline does not use.
        """
        return tuple(
            (model, calibrator)
            for model in self.models
            for calibrator in self.calibrators
            if model != "logistic" or calibrator == "none"
        )

    @property
    def reads_dataset(self) -> bool:
        return any(model != "external-scores" for model in self.models)

    @property
    def reads_score_table(self) -> bool:
        return "external-scores" in self.models

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# aggregate table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateRow:
    model: str
    calibrator: str
    n_folds: int
    mean_accuracy: float
    mean_auc: float
    mean_precision: float | None
    precision_fold_count: int
    mean_recall: float
    positive_prediction_total: int
    mean_ece: float
    mean_ece1: float | None
    ece1_fold_count: int

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "calibrator": self.calibrator,
            "n_folds": self.n_folds,
            "accuracy": self.mean_accuracy,
            "auc": self.mean_auc,
            "precision": self.mean_precision,
            "precision_fold_count": self.precision_fold_count,
            "recall": self.mean_recall,
            "positive_predictions": self.positive_prediction_total,
            "ece": self.mean_ece,
            "ece1": self.mean_ece1,
            "ece1_fold_count": self.ece1_fold_count,
        }


@dataclass(frozen=True)
class AggregateTable:
    rows: tuple[AggregateRow, ...]

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.rows], sort_keys=True, indent=1)

    def to_text(self) -> str:
        def fmt(value, digits=3):
            return "  -  " if value is None else f"{value:.{digits}f}"

        lines = [
            f"{'model':<16}{'cal':<12}{'acc':>7}{'auc':>7}{'prec':>7}{'rec':>7}{'#pos':>7}{'ece':>8}{'ece1':>8}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.model:<16}{r.calibrator:<12}"
                f"{fmt(r.mean_accuracy):>7}{fmt(r.mean_auc):>7}{fmt(r.mean_precision):>7}"
                f"{fmt(r.mean_recall):>7}{r.positive_prediction_total:>7}"
                f"{fmt(r.mean_ece):>8}{fmt(r.mean_ece1):>8}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-fold work
# ---------------------------------------------------------------------------

def _model_seed(seed: int, repetition: int, fold: int, role: str) -> int:
    role_code = {"tree-full": 0, "tree-proper": 1, "forest-full": 2, "forest-proper": 3}[role]
    ss = np.random.SeedSequence(entropy=(seed, repetition, fold, role_code))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _calibrated(kind: str, cal_scores, cal_labels, test_scores):
    """(p0, p1, point) arrays for one calibrator on one fold."""
    if kind == "none":
        return test_scores, test_scores, test_scores
    if kind == "venn-abers":
        calibrator = VennAbersCalibrator(cal_scores, cal_labels)
        return calibrator.intervals(test_scores)
    if kind == "platt":
        fit = fit_platt(cal_scores, cal_labels)
        p = apply_platt(fit, test_scores)
        return p, p, p
    if kind == "isotonic":
        fit = pava(cal_scores, cal_labels)
        p = isotonic_calibrate(fit, test_scores)
        return p, p, p
    raise ValueError(f"unknown calibrator kind {kind!r}")


@dataclass
class _FoldOutcome:
    repetition: int
    fold: int
    model: str
    calibrator: str
    instance_ids: np.ndarray
    labels: np.ndarray
    scores: np.ndarray  # underlying model score before calibration
    p0: np.ndarray
    p1: np.ndarray
    point: np.ndarray  # probability used for evaluation
    report: EvaluationReport


def _fold_outcomes(config: ExperimentConfig, repetition: int, fold: int, test_ids, test_labels,
                   scores) -> list[_FoldOutcome]:
    """Calibrate and evaluate, on one fold, each configured pair whose model `scores` serves.

    scores[model](kind) gives the (calibration scores, calibration labels,
    test scores) that calibrator kind sees.  A failing pair raises
    RuntimeError naming the repetition, model, fold and calibrator.
    """
    outcomes = []
    for model, kind in config.pairs():
        if model not in scores:
            continue
        try:
            cal_scores, cal_labels, test_scores = scores[model](kind)
            p0, p1, point = _calibrated(kind, cal_scores, cal_labels, test_scores)
            report = evaluate(point, test_labels, m=config.bins, mode=config.bin_mode)
        except Exception as err:
            raise RuntimeError(f"repetition {repetition} {model} fold {fold} calibrator {kind}: {err}") from err
        outcomes.append(
            _FoldOutcome(repetition, fold, model, kind, test_ids, test_labels, test_scores, p0, p1, point, report)
        )
    return outcomes


def _dataset_fold_outcomes(config: ExperimentConfig, dataset: Dataset, split: FoldSplit) -> list[_FoldOutcome]:
    rep, fold = split.repetition_index, split.fold_index
    x, y = dataset.features, dataset.labels
    test_x, test_y = x[split.test_ids], y[split.test_ids]
    cal_x, cal_y = x[split.calibration_ids], y[split.calibration_ids]
    fitted = {}  # role -> (calibration scores, calibration labels, test scores) of the model fitted for it

    def fit(model_name, ids, role):
        if model_name == "logistic":
            return fit_logistic(x[ids], y[ids])
        seed = _model_seed(config.seed, rep, fold, role)
        if model_name == "tree":
            return fit_tree(x[ids], y[ids], min_samples_leaf=config.tree_min_samples_leaf, seed=seed)
        return fit_forest(x[ids], y[ids], n_trees=config.n_trees, seed=seed)

    def scores(model_name, kind):
        full = kind == "none"
        role = f"{model_name}-{'full' if full else 'proper'}"
        if role not in fitted:
            model = fit(model_name, split.train_ids if full else split.proper_train_ids, role)
            fitted[role] = (None if full else model.score_many(cal_x), cal_y, model.score_many(test_x))
        return fitted[role]

    served = {name: partial(scores, name) for name in ("tree", "forest", "logistic")}
    return _fold_outcomes(config, rep, fold, split.test_ids, test_y, served)


def _table_folds(table: ScoreTable):
    """Per fold of the table, in order, yield (fold, calibration, test).

    Each partition is the (ids, scores, labels) of ScoreTable.select.  A
    missing partition raises ValueError naming the fold.
    """
    for fold in table.folds():
        calibration, test = table.select(fold, "calibration"), table.select(fold, "test")
        if calibration[0].size == 0 or test[0].size == 0:
            missing = "calibration" if calibration[0].size == 0 else "test"
            raise ValueError(f"fold {fold}: missing {missing} partition")
        yield fold, calibration, test


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fold_stem(repetition, fold, model: str, calibrator: str) -> str:
    return f"rep{repetition}_fold{fold}_{model}_{calibrator}"


def _write_fold_artifacts(folds_dir: Path, outcome: _FoldOutcome) -> None:
    stem = folds_dir / _fold_stem(outcome.repetition, outcome.fold, outcome.model, outcome.calibrator)
    payload = {
        "repetition": outcome.repetition,
        "fold": outcome.fold,
        "model": outcome.model,
        "calibrator": outcome.calibrator,
        **outcome.report.to_dict(),
    }
    stem.with_suffix(".json").write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    write_columns(
        stem.with_suffix(".csv"),
        PREDICTION_COLUMNS,
        (outcome.instance_ids, outcome.labels, outcome.scores, outcome.p0, outcome.p1, outcome.point),
    )


def load_fold_predictions(output_dir, model: str, calibrator: str):
    """Pool (probabilities, labels) over all fold prediction CSVs of a pair.

    A name that is not a known model or calibrator is rejected before it
    can reach the glob.  A file that is not a prediction CSV fails with the
    file, and the row if one is at fault, named.
    """
    if model not in KNOWN_MODELS:
        raise ValueError(f"unknown model {model!r} (choose from {KNOWN_MODELS})")
    if calibrator not in KNOWN_CALIBRATORS:
        raise ValueError(f"unknown calibrator {calibrator!r} (choose from {KNOWN_CALIBRATORS})")
    folds_dir = Path(output_dir) / "folds"
    paths = sorted(folds_dir.glob(_fold_stem("*", "*", model, calibrator) + ".csv"))
    if not paths:
        raise FileNotFoundError(f"no fold predictions for ({model}, {calibrator}) under {folds_dir}")
    probabilities = []
    labels = []
    for path in paths:
        rows = read_rows(path)
        header = next(rows)
        if tuple(header) != PREDICTION_COLUMNS:
            raise SchemaError(f"{path}: expected header {','.join(PREDICTION_COLUMNS)}, got {','.join(header)}")
        for row_number, (_, label, _, _, _, point) in rows:
            try:
                probabilities.append(float(point))
                labels.append(int(label))
            except ValueError:
                raise ParseError(f"{path}: row {row_number}: non-numeric label or point") from None
    return np.asarray(probabilities), np.asarray(labels)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _aggregate(config: ExperimentConfig, outcomes: list[_FoldOutcome]) -> AggregateTable:
    rows = []
    for model, cal in config.pairs():
        cell = [o for o in outcomes if o.model == model and o.calibrator == cal]
        if not cell:
            raise RuntimeError(f"no fold results for configured pair ({model}, {cal})")
        cell.sort(key=lambda o: (o.repetition, o.fold))
        reports = [o.report for o in cell]
        precisions = [r.precision for r in reports if r.precision is not None]
        ece1s = [r.ece1 for r in reports if r.ece1 is not None]
        rows.append(
            AggregateRow(
                model=model,
                calibrator=cal,
                n_folds=len(cell),
                mean_accuracy=float(np.mean([r.accuracy for r in reports])),
                mean_auc=float(np.mean([r.auc for r in reports])),
                mean_precision=float(np.mean(precisions)) if precisions else None,
                precision_fold_count=len(precisions),
                mean_recall=float(np.mean([r.recall for r in reports])),
                positive_prediction_total=int(sum(r.positive_prediction_count for r in reports)),
                mean_ece=float(np.mean([r.ece for r in reports])),
                mean_ece1=float(np.mean(ece1s)) if ece1s else None,
                ece1_fold_count=len(ece1s),
            )
        )
    return AggregateTable(rows=tuple(rows))


def run_record(config: ExperimentConfig) -> dict:
    """What produced a run's artifacts, as run_experiment writes it to run.json.

    Holds the config without jobs and output_dir (the artifacts depend on
    neither), the venncal, numpy and Python versions, a sha256 over the
    package's *.py files in sorted order, and a sha256 of each input file
    the run reads (None for one it does not read).  It holds no timings,
    so a rerun of the same code, config and inputs writes the same bytes.
    """
    import hashlib  # loads OpenSSL, so only when a run is recorded

    from venncal import __version__

    def file_sha256(path) -> str:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
        return digest.hexdigest()

    package = Path(__file__).resolve().parent
    source = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        data = path.read_bytes()
        source.update(f"{path.relative_to(package).as_posix()}\n{len(data)}\n".encode("utf-8"))
        source.update(data)
    settings = {f.name: getattr(config, f.name) for f in fields(config)}
    del settings["jobs"], settings["output_dir"]
    return {
        "config": {name: list(v) if isinstance(v, tuple) else v for name, v in settings.items()},
        "venncal_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "source_sha256": source.hexdigest(),
        "dataset_sha256": file_sha256(config.dataset_path) if config.reads_dataset else None,
        "score_table_sha256": file_sha256(config.score_table_path) if config.reads_score_table else None,
    }


def run_experiment(config: ExperimentConfig, progress=None) -> AggregateTable:
    """Run the configured experiment; returns (and optionally writes) the table.

    With an output directory set, writes per-fold metric JSONs and
    prediction CSVs, the split manifest, aggregate.json / aggregate.csv, a
    human-readable table.txt and, last, run.json (see run_record).
    Fold-level errors abort the run with the fold named; identical config
    and seed produce byte-identical artifacts regardless of the jobs count.
    """
    dataset = load_csv(config.dataset_path) if config.reads_dataset else None
    table = load_score_table(config.score_table_path) if config.reads_score_table else None
    # taken once the inputs loaded and before the folds run, so a source file
    # edited meanwhile is not vouched for
    record = run_record(config) if config.output_dir else None
    outcomes: list[_FoldOutcome] = []
    splits: list[FoldSplit] = []
    if dataset is not None:
        splits = repeated_stratified_kfold(
            dataset,
            k=config.k,
            repetitions=config.repetitions,
            calibration_fraction=config.calibration_fraction,
            seed=config.seed,
        )
        run_fold = partial(_dataset_fold_outcomes, config, dataset)
        with Pool(processes=config.jobs) if config.jobs > 1 else nullcontext() as pool:
            fold_results = map(run_fold, splits) if pool is None else pool.imap(run_fold, splits)
            for done, fold_result in enumerate(fold_results, start=1):
                outcomes.extend(fold_result)
                if progress:
                    progress(done, len(splits))
    if table is not None:
        try:
            for fold, (_, cal_scores, cal_labels), (test_ids, test_scores, test_labels) in _table_folds(table):
                partitions = (cal_scores, cal_labels, test_scores)
                served = {"external-scores": lambda kind: partitions}
                outcomes.extend(_fold_outcomes(config, 0, fold, test_ids, test_labels, served))
        except ValueError as err:  # a missing partition, named by fold
            raise RuntimeError(f"external-scores {err}") from err

    outcomes.sort(key=lambda o: (o.model, o.calibrator, o.repetition, o.fold))
    aggregate = _aggregate(config, outcomes)

    if config.output_dir:
        out = Path(config.output_dir)
        folds_dir = out / "folds"
        folds_dir.mkdir(parents=True, exist_ok=True)
        # written last, so a run that fails while writing leaves none
        (out / "run.json").unlink(missing_ok=True)
        # a reused directory must not keep an earlier run's folds or splits
        for stale in [*folds_dir.glob("rep*_fold*_*.json"), *folds_dir.glob("rep*_fold*_*.csv")]:
            stale.unlink()
        for outcome in outcomes:
            _write_fold_artifacts(folds_dir, outcome)
        if splits:
            write_split_manifest(out / "splits.json", splits)
        else:
            (out / "splits.json").unlink(missing_ok=True)
        (out / "aggregate.json").write_text(aggregate.to_json(), encoding="utf-8")
        (out / "table.txt").write_text(aggregate.to_text(), encoding="utf-8")
        rows = [r.to_dict() for r in aggregate.rows]
        write_columns(
            out / "aggregate.csv", AGGREGATE_CSV_COLUMNS, [[row[c] for row in rows] for c in AGGREGATE_CSV_COLUMNS]
        )
        (out / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return aggregate


# ---------------------------------------------------------------------------
# score-table calibration and reliability export
# ---------------------------------------------------------------------------

def calibrate_scores(score_table_path, calibrator_kind: str, output_path) -> int:
    """Calibrate an external score table fold by fold; returns rows written.

    For every fold the calibrator is fitted on the calibration partition
    and applied to the test partition.  Output columns:
    instance_id,fold_id,score,p0,p1,point (p0 == p1 == point for the
    single-valued calibrators).  Every fold is calibrated before the output
    is opened, so a failing fold leaves no partial file behind.
    """
    if calibrator_kind not in POST_HOC_CALIBRATORS:
        raise ValueError(f"unknown calibrator kind {calibrator_kind!r}")
    table = load_score_table(score_table_path)
    folds = []
    for fold, (_, cal_scores, cal_labels), (test_ids, test_scores, _) in _table_folds(table):
        try:
            calibrated = _calibrated(calibrator_kind, cal_scores, cal_labels, test_scores)
        except ValueError as err:
            raise ValueError(f"fold {fold} calibrator {calibrator_kind}: {err}") from err
        folds.append((test_ids, np.full(test_ids.size, fold), test_scores, *calibrated))
    columns = [np.concatenate(column) for column in zip(*folds)]
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    write_columns(output_path, CALIBRATED_SCORE_COLUMNS, columns)
    return int(columns[0].size)


def write_reliability_csv(path, bins) -> None:
    """Write plot-ready bins; an empty file (header only) when bins is None."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [()] * len(RELIABILITY_COLUMNS)
    if bins is not None:  # an empty bin's mop and foc are NaN, written as empty cells
        edges = bins.bin_edges
        columns = [edges[:-1], edges[1:], bins.counts, bins.mean_prediction, bins.fraction_positive]
    write_columns(path, RELIABILITY_COLUMNS, columns)

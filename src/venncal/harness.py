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
from dataclasses import asdict, dataclass, field, fields
from functools import partial
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
    LABEL_CODES,
    Dataset,
    FoldSplit,
    bounded,
    load_csv,
    parse_columns,
    reject_first,
    repeated_stratified_kfold,
    write_columns,
    write_split_manifest,
)
from venncal.metrics import BIN_MODES, EvaluationReport, evaluate
from venncal.models import fit_forest, fit_logistic, fit_tree, load_score_table

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


def _setting(default, flag: str, help: str, **bound):  # a field's default, experiment flag, help text and bound
    return field(default=default, metadata={"flag": flag, "help": help, "bound": bound})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible experiment run needs; each field's metadata declares its flag and bound."""

    dataset_path: str | None = _setting(None, "--data", "dataset CSV path")
    models: tuple[str, ...] = _setting(("tree", "forest", "logistic"), "--models", f"any of {' '.join(KNOWN_MODELS)}")
    calibrators: tuple[str, ...] = _setting(KNOWN_CALIBRATORS, "--calibrators", f"any of {' '.join(KNOWN_CALIBRATORS)}")
    k: int = _setting(10, "--folds", "number of CV folds", low=2)
    repetitions: int = _setting(10, "--repetitions", "number of CV repetitions", low=1)
    calibration_fraction: float = _setting(1.0 / 3.0, "--cal-fraction", "held-out calibration share", inside=(0, 1))
    seed: int = _setting(0, "--seed", "master seed", low=0)  # numpy's generators refuse a negative one unnamed
    output_dir: str | None = _setting(None, "--out", "artifact directory")
    bins: int = _setting(10, "--bins", "reliability bin count", low=1)
    bin_mode: str = _setting("width", "--bin-mode", "reliability bin edges", choices=BIN_MODES)
    score_table_path: str | None = _setting(None, "--score-table", "score table for external-scores")
    n_trees: int = _setting(100, "--trees", "forest size", low=1)
    tree_min_samples_leaf: int = _setting(6, "--tree-min-samples-leaf", "fewest training rows in a tree leaf", low=1)
    jobs: int = _setting(1, "--jobs", "parallel fold workers", low=1)

    def __post_init__(self):
        for f in fields(self):  # annotations are strings under `from __future__ import annotations`
            value = getattr(self, f.name)
            wanted = {"int": numbers.Integral, "float": numbers.Real, "str | None": (str, type(None))}.get(f.type)
            if wanted and (isinstance(value, bool) or not isinstance(value, wanted)):
                raise ValueError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")
            bounded(value, f.name, f.metadata["flag"], **f.metadata["bound"])
        if not self.models or not self.calibrators:
            raise ValueError("at least one model and one calibrator must be selected")
        for field, known in (("models", KNOWN_MODELS), ("calibrators", KNOWN_CALIBRATORS)):
            names = getattr(self, field)
            if not isinstance(names, (tuple, list)):
                raise ValueError(f"{field} must be a list of names, got {type(names).__name__} {names!r}")
            for i, name in enumerate(names):
                bounded(name, field, self.__dataclass_fields__[field].metadata["flag"], choices=known)
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
    """One (model, calibrator) row; the field names are the aggregate.json keys.

    Each metric is its mean over the pair's folds, except positive_predictions,
    their total.  precision and ece1 are undefined on a fold without positive
    predictions: each is the mean over the folds where it is defined (None if
    there are none), and its *_fold_count is the number of those folds.
    """

    model: str
    calibrator: str
    n_folds: int
    accuracy: float
    auc: float
    precision: float | None
    precision_fold_count: int
    recall: float
    positive_predictions: int
    ece: float
    ece1: float | None
    ece1_fold_count: int


@dataclass(frozen=True)
class AggregateTable:
    rows: tuple[AggregateRow, ...]

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.rows], sort_keys=True, indent=1)

    def to_text(self) -> str:
        def fmt(value, digits=3):
            return "  -  " if value is None else f"{value:.{digits}f}"

        lines = [
            f"{'model':<16}{'cal':<12}{'acc':>7}{'auc':>7}{'prec':>7}{'rec':>7}{'#pos':>7}{'ece':>8}{'ece1':>8}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.model:<16}{r.calibrator:<12}"
                f"{fmt(r.accuracy):>7}{fmt(r.auc):>7}{fmt(r.precision):>7}"
                f"{fmt(r.recall):>7}{r.positive_predictions:>7}"
                f"{fmt(r.ece):>8}{fmt(r.ece1):>8}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-fold work
# ---------------------------------------------------------------------------

def _model_seed(seed: int, repetition: int, fold: int, role: str) -> int:
    # codes 0 and 1 were the tree roles, whose fit draws nothing; the forest codes stay so their streams stay
    role_code = {"forest-full": 2, "forest-proper": 3}[role]
    ss = np.random.SeedSequence(entropy=(seed, repetition, fold, role_code))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _calibrated(kind: str, cal_scores, cal_labels, test_scores):
    """(p0, p1, point) arrays for one calibrator on one fold; the config and calibrate_scores check kind."""
    if kind == "none":
        return test_scores, test_scores, test_scores
    if kind == "venn-abers":
        calibrator = VennAbersCalibrator(cal_scores, cal_labels)
        return calibrator.intervals(test_scores)
    if kind == "platt":
        fit = fit_platt(cal_scores, cal_labels)
        p = apply_platt(fit, test_scores)
        return p, p, p
    fit = pava(cal_scores, cal_labels)  # isotonic
    p = isotonic_calibrate(fit, test_scores)
    return p, p, p


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
                   models, partitions) -> list[_FoldOutcome]:
    """Calibrate and evaluate, on one fold, each configured pair whose model is in `models`.

    partitions(model, kind) gives the (calibration scores, calibration
    labels, test scores) that calibrator kind sees.  A failing pair raises
    RuntimeError naming the repetition, model, fold and calibrator.
    """
    outcomes = []
    for model, kind in config.pairs():
        if model not in models:
            continue
        try:
            cal_scores, cal_labels, test_scores = partitions(model, kind)
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

    def partitions(model_name, kind):
        full = kind == "none"
        role = f"{model_name}-{'full' if full else 'proper'}"
        if role not in fitted:
            ids = split.train_ids if full else split.proper_train_ids
            if model_name == "logistic":
                model = fit_logistic(x[ids], y[ids])
            elif model_name == "tree":
                model = fit_tree(x[ids], y[ids], min_samples_leaf=config.tree_min_samples_leaf)
            else:
                seed = _model_seed(config.seed, rep, fold, role)
                model = fit_forest(x[ids], y[ids], n_trees=config.n_trees, seed=seed)
            fitted[role] = (None if full else model.score_many(cal_x), cal_y, model.score_many(test_x))
        return fitted[role]

    return _fold_outcomes(config, rep, fold, split.test_ids, test_y, ("tree", "forest", "logistic"), partitions)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fold_stem(repetition, fold, model: str, calibrator: str) -> str:
    return f"rep{repetition}_fold{fold}_{model}_{calibrator}"


def _write_fold_artifacts(folds_dir: Path, outcomes: list[_FoldOutcome]) -> None:
    """Write the metric JSONs of one _fold_outcomes call, then its prediction CSVs with one write_columns call.

    The outcomes of one call share their test rows, so their CSVs have one
    row count and are written in lockstep.
    """
    tables = {}
    for outcome in outcomes:
        stem = folds_dir / _fold_stem(outcome.repetition, outcome.fold, outcome.model, outcome.calibrator)
        payload = {
            "repetition": outcome.repetition,
            "fold": outcome.fold,
            "model": outcome.model,
            "calibrator": outcome.calibrator,
            **asdict(outcome.report),
        }
        stem.with_suffix(".json").write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        tables[stem.with_suffix(".csv")] = (
            outcome.instance_ids, outcome.labels, outcome.scores, outcome.p0, outcome.p1, outcome.point
        )
    write_columns(PREDICTION_COLUMNS, tables)


def load_fold_predictions(output_dir, model: str, calibrator: str):
    """Pool (probabilities, labels) over all fold prediction CSVs of a pair.

    A name that is not a known model or calibrator is rejected before it
    can reach the glob.  A file that is not a prediction CSV fails with the
    file, and the row if one is at fault, named.
    """
    bounded(model, "model", choices=KNOWN_MODELS)
    bounded(calibrator, "calibrator", choices=KNOWN_CALIBRATORS)
    folds_dir = Path(output_dir) / "folds"
    paths = sorted(folds_dir.glob(_fold_stem("*", "*", model, calibrator) + ".csv"))
    if not paths:
        raise FileNotFoundError(f"no fold predictions for ({model}, {calibrator}) under {folds_dir}")
    parsers = {"label": LABEL_CODES, "point": np.float64}
    probabilities = []
    labels = []
    for path in paths:
        columns = parse_columns(path, "fold predictions", PREDICTION_COLUMNS, parsers)
        point = columns["point"]
        outside = ~((point >= 0.0) & (point <= 1.0))  # nan is outside too
        reject_first(path, outside, lambda i: f"point '{point[i]}' outside [0, 1]")
        probabilities.append(point)
        labels.append(columns["label"])
    return np.concatenate(probabilities), np.concatenate(labels)


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
        row = {"positive_predictions": sum(r.positive_prediction_count for r in reports)}
        for name in ("accuracy", "auc", "recall", "ece"):
            row[name] = float(np.mean([getattr(r, name) for r in reports]))
        for name in ("precision", "ece1"):  # the mean over the folds where it is defined
            defined = [getattr(r, name) for r in reports if getattr(r, name) is not None]
            row[name] = float(np.mean(defined)) if defined else None
            row[f"{name}_fold_count"] = len(defined)
        rows.append(AggregateRow(model=model, calibrator=cal, n_folds=len(cell), **row))
    return AggregateTable(rows=tuple(rows))


def _arithmetic_probe() -> bytes:
    """float64 bits of Platt, logistic and ECE arithmetic on one seeded probe.

    Called through their own modules: a tracer may rebind this module's names.
    """
    from venncal import calibration, metrics, models

    rng = np.random.default_rng(0)
    scores = rng.random(200)
    labels = (rng.random(200) < scores).astype(np.int64)
    features = rng.normal(size=(200, 6)) + scores[:, None]
    outputs = (
        calibration.apply_platt(calibration.fit_platt(scores, labels), scores),
        models.fit_logistic(features, labels).score_many(features),
        np.float64(metrics.ece(metrics.reliability_bins(scores, labels))),
    )
    return b"".join(output.tobytes() for output in outputs)


def run_record(config: ExperimentConfig) -> dict:
    """What produced a run's artifacts, as run_experiment writes it to run.json.

    Holds the config without jobs, output_dir and the two input paths (the
    artifacts depend on none of them), the venncal, numpy and Python
    versions, a sha256 over the package's *.py files in sorted order, a
    sha256 of each input file the run reads (None for one it does not read)
    and arithmetic_sha256, which names the CPU path (exp loop, BLAS kernel).
    It holds no timings, so a rerun of the same code, config, input bytes
    and CPU path writes the same bytes, wherever the files lie.
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
    del settings["jobs"], settings["output_dir"], settings["dataset_path"], settings["score_table_path"]
    return {
        "config": {name: list(v) if isinstance(v, tuple) else v for name, v in settings.items()},
        "venncal_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "source_sha256": source.hexdigest(),
        "arithmetic_sha256": hashlib.sha256(_arithmetic_probe()).hexdigest(),
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
    groups: list[list[_FoldOutcome]] = []  # the outcomes of each _fold_outcomes call
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
        if config.jobs > 1:
            from multiprocessing import Pool  # loaded only where a pool starts
        with Pool(processes=config.jobs) if config.jobs > 1 else nullcontext() as pool:
            fold_results = map(run_fold, splits) if pool is None else pool.imap(run_fold, splits)
            for done, fold_result in enumerate(fold_results, start=1):
                groups.append(fold_result)
                if progress:
                    progress(done, len(splits))
    if table is not None:
        try:
            for fold, (_, cal_scores, cal_labels), (test_ids, test_scores, test_labels) in table.folds():
                partitions = (cal_scores, cal_labels, test_scores)
                groups.append(_fold_outcomes(config, 0, fold, test_ids, test_labels, ("external-scores",),
                                             lambda model, kind: partitions))
        except ValueError as err:  # a missing partition, named by fold
            raise RuntimeError(f"external-scores {err}") from err

    aggregate = _aggregate(config, [outcome for group in groups for outcome in group])

    if config.output_dir:
        out = Path(config.output_dir)
        folds_dir = out / "folds"
        folds_dir.mkdir(parents=True, exist_ok=True)
        # written last, so a run that fails while writing leaves none
        (out / "run.json").unlink(missing_ok=True)
        # a reused directory must not keep an earlier run's folds or splits
        for stale in [*folds_dir.glob("rep*_fold*_*.json"), *folds_dir.glob("rep*_fold*_*.csv")]:
            stale.unlink()
        for group in groups:
            _write_fold_artifacts(folds_dir, group)
        if splits:
            write_split_manifest(out / "splits.json", config.seed, splits)
        else:
            (out / "splits.json").unlink(missing_ok=True)
        (out / "aggregate.json").write_text(aggregate.to_json(), encoding="utf-8")
        (out / "table.txt").write_text(aggregate.to_text(), encoding="utf-8")
        columns = [[getattr(r, c) for r in aggregate.rows] for c in AGGREGATE_CSV_COLUMNS]
        write_columns(AGGREGATE_CSV_COLUMNS, {out / "aggregate.csv": columns})
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
    bounded(calibrator_kind, "calibrator_kind", choices=POST_HOC_CALIBRATORS)
    table = load_score_table(score_table_path)
    folds = []
    for fold, (_, cal_scores, cal_labels), (test_ids, test_scores, _) in table.folds():
        try:
            calibrated = _calibrated(calibrator_kind, cal_scores, cal_labels, test_scores)
        except ValueError as err:
            raise ValueError(f"fold {fold} calibrator {calibrator_kind}: {err}") from err
        folds.append((test_ids, np.full(test_ids.size, fold), test_scores, *calibrated))
    columns = [np.concatenate(parts) for parts in zip(*folds)]
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    write_columns(CALIBRATED_SCORE_COLUMNS, {output_path: columns})
    return int(columns[0].size)


def write_reliability_csv(path, bins) -> None:
    """Write plot-ready bins; an empty file (header only) when bins is None."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [()] * len(RELIABILITY_COLUMNS)
    if bins is not None:  # an empty bin's mop and foc are NaN, written as empty cells
        edges = bins.bin_edges
        columns = [edges[:-1], edges[1:], bins.counts, bins.mean_prediction, bins.fraction_positive]
    write_columns(RELIABILITY_COLUMNS, {path: columns})

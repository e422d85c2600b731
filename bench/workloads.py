"""The benchmark's three workloads.

Each workload makes its inputs from the seed alone (``make_inputs``,
untimed), prepares what a user would prepare once (``setup``, timed as
set-up), runs one operation per ``op`` call (timed), and checks an
operation's outputs afterwards (``check``, untimed).  ``api`` is venncal's
public API, which a traced run replaces with traced wrappers; inputs and
checks always go through the plain API so that they never appear in a
trace.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ALL_CALIBRATORS = ("none", "venn-abers", "platt", "isotonic")
POST_HOC = ("venn-abers", "platt", "isotonic")
CALIBRATION_SHARE = 1.0 / 3.0
FOLDS = 10
SPOT_CHECKS = 3  # probes per kind (tied, untied) and calibrator in one operation


@dataclass
class OpResult:
    payload: object
    experiment: tuple[float, float] | None = None  # perf_counter span of the run_experiment call


@dataclass
class Checked:
    rows: int  # prediction rows produced: one test row through one (model, calibrator)
    digest: str
    failures: list[str] = field(default_factory=list)


def _hash_files(paths, base: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(base)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_probabilities(where: str, score, p0, p1, point) -> list[str]:
    failures = []
    for name, values in (("score", score), ("p0", p0), ("p1", p1), ("point", point)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            failures.append(f"{where}: {name} outside [0, 1]")
    if not np.all(p0 <= p1):
        failures.append(f"{where}: p0 > p1")
    return failures


def _check_prediction_csvs(paths, base: Path) -> tuple[int, list[str]]:
    """Rows and range failures over CSVs whose columns 2..5 are score, p0, p1, point."""
    rows = 0
    failures = []
    for path in paths:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        rows += table.shape[0]
        failures += _check_probabilities(str(path.relative_to(base)), *table[:, 2:6].T)
    return rows, failures


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _exact(where: str, calibrator, score: float, p0: float, p1: float, point: float) -> list[str]:
    """Compare one Venn-Abers output against the naive refit, bit for bit."""
    got = (float(p0), float(p1), float(point))
    ref = calibrator.interval_naive(score)
    if all(_same_bits(x, y) for x, y in zip(got, (ref.p0, ref.p1, ref.point))):
        return []
    return [f"{where}: score {score!r} gives {got}, naive refit ({ref.p0!r}, {ref.p1!r}, {ref.point!r})"]


def _sample(rng, candidates: np.ndarray, k: int) -> np.ndarray:
    return candidates[rng.permutation(candidates.size)[:k]]


class Workload:
    name = ""
    setup_repeats = 1  # set-ups timed per untraced run; the median is reported
    min_ops = 1

    def __init__(self, plain, work: Path, seed: int):
        self.api = self.plain = plain
        self.work = work
        self.seed = seed

    def make_inputs(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def digest_key(self, i: int) -> str:
        return "op"

    def properties(self, tracer) -> dict:
        raise NotImplementedError


class CvReference(Workload):
    name = "cv-reference"

    def make_inputs(self):
        self.data_path = self.plain.write_reference_csv(self.work / "reference.csv")

    def op(self, i):
        out = self.work / f"op{i}"
        config = self.api.ExperimentConfig(
            dataset_path=str(self.data_path),
            models=("tree", "forest", "logistic"),
            calibrators=ALL_CALIBRATORS,
            k=FOLDS,
            repetitions=1,
            calibration_fraction=CALIBRATION_SHARE,
            seed=self.seed,
            output_dir=str(out),
            jobs=1,
        )
        started = perf_counter()
        self.api.run_experiment(config)
        return OpResult(out, (started, perf_counter()))

    def check(self, i, result: OpResult):
        out = result.payload
        paths = sorted((out / "folds").glob("*.csv"))
        rows, failures = _check_prediction_csvs(paths, out)
        checked = Checked(rows, _hash_files(paths, out), failures)
        shutil.rmtree(out)
        return checked

    def properties(self, tracer):
        dataset = self.plain.load_csv(self.data_path)
        forest_fits = sum(1 for s in tracer.spans if s.name == "models.forest.fit")
        return {
            "rows": dataset.n_instances,
            "positive_share": dataset.n_positive / dataset.n_instances,
            "distinct_cal_scores_median": float(np.median(tracer.distinct_cal_scores)),
            "batch_size": None,
            "forest_nodes_per_fit": tracer.total_count("models.forest.fit_nodes") / forest_fits,
        }


class BatchScore(Workload):
    name = "batch-score"
    setup_repeats = 3
    batch_size = 1000
    model_seed = 0  # the deployed models do not depend on the workload seed

    def make_inputs(self):
        self.reference_path = self.plain.write_reference_csv(self.work / "reference.csv")
        fleet_path = self.plain.write_reference_csv(self.work / "fleet.csv", seed=self.seed)
        fleet = self.plain.load_csv(fleet_path)
        self.fleet_x, self.fleet_y = fleet.features, fleet.labels
        self.n_batches = fleet.n_instances // self.batch_size
        self.min_ops = self.n_batches

    def setup(self):
        api = self.api
        reference = api.load_csv(self.reference_path)
        x, y = reference.features, reference.labels
        proper, cal = api.stratified_holdout(y, CALIBRATION_SHARE, np.random.default_rng(self.model_seed))
        forest = api.fit_forest(x[proper], y[proper], seed=self.model_seed)
        tree = api.fit_tree(x[proper], y[proper], min_samples_leaf=6, seed=self.model_seed)
        self.models = {}
        for name, model in (("forest", forest), ("tree", tree)):
            scores = model.score_many(x[cal])
            self.models[name] = (
                model,
                api.VennAbersCalibrator(scores, y[cal]),
                api.pava(scores, y[cal]),
                api.fit_platt(scores, y[cal]),
            )
        venn_tree = api.build_venn_tree(
            tree,
            self.models["tree"][1],
            display_max_depth=5,
            feature_names=reference.feature_names,
            calibration_features=x[cal],
        )
        out = self.work / "venn_tree"
        out.mkdir(exist_ok=True)
        (out / "rules.txt").write_text(api.format_rules(api.extract_rules(venn_tree)), encoding="utf-8")
        (out / "tree.dot").write_text(api.render_tree(venn_tree), encoding="utf-8")

    def _batch(self, i):
        rows = slice((i % self.n_batches) * self.batch_size, (i % self.n_batches + 1) * self.batch_size)
        return self.fleet_x[rows], self.fleet_y[rows]

    def digest_key(self, i):
        return f"batch{i % self.n_batches}"

    def op(self, i):
        api = self.api
        x, y = self._batch(i)
        outputs = []
        for name, (model, venn_abers, isotonic, platt) in self.models.items():
            scores = model.score_many(x)
            p0, p1, point = venn_abers.intervals(scores)
            p_iso = api.isotonic_calibrate(isotonic, scores)
            p_platt = api.apply_platt(platt, scores)
            for kind, interval in (("venn-abers", (p0, p1, point)), ("isotonic", (p_iso,) * 3), ("platt", (p_platt,) * 3)):
                api.evaluate(interval[2], y)
                outputs.append((name, kind, scores, *interval))
        return OpResult(outputs)

    def check(self, i, result: OpResult):
        h = hashlib.sha256()
        checked = Checked(sum(len(out[2]) for out in result.payload), "")
        for name, kind, scores, p0, p1, point in result.payload:
            for values in (p0, p1, point):
                h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
            checked.failures += _check_probabilities(f"batch {i} {name}/{kind}", scores, p0, p1, point)
            if kind != "venn-abers":
                continue
            calibrator = self.models[name][1]
            rng = np.random.default_rng((self.seed, i))
            values, first = np.unique(scores, return_index=True)  # probe distinct scores
            tied = np.isin(values, calibrator.calibration_scores)
            for j in np.concatenate([_sample(rng, first[tied], SPOT_CHECKS), _sample(rng, first[~tied], SPOT_CHECKS)]):
                checked.failures += _exact(f"batch {i} {name}", calibrator, float(scores[j]), p0[j], p1[j], point[j])
        checked.digest = h.hexdigest()
        return checked

    def properties(self, tracer):
        forest, forest_va = self.models["forest"][:2]
        tree_va = self.models["tree"][1]
        return {
            "rows": int(self.fleet_y.size),
            "positive_share": float(self.fleet_y.mean()),
            "distinct_cal_scores": {
                "forest": int(np.unique(forest_va.calibration_scores).size),
                "tree": int(np.unique(tree_va.calibration_scores).size),
            },
            "batch_size": self.batch_size,
            "forest_nodes_per_fit": sum(t.n_nodes for t in forest.trees),
        }


class ExternalCalibrate(Workload):
    name = "external-calibrate"
    n_instances = 4000
    positive_share = 0.034  # the reference data's failure share

    def make_inputs(self):
        """A seeded score table: per fold, the test chunk and a third of the rest."""
        rng = np.random.default_rng(self.seed)
        self.labels = labels = (rng.random(self.n_instances) < self.positive_share).astype(np.int64)
        fold_of = np.empty(self.n_instances, dtype=np.int64)
        for value in (0, 1):
            members = np.flatnonzero(labels == value)
            fold_of[members[rng.permutation(members.size)]] = np.arange(members.size) % FOLDS
        self.folds = {}
        lines = ["instance_id,fold_id,partition,score,label"]
        for fold in range(FOLDS):
            rest = np.flatnonzero(fold_of != fold)
            cal = np.sort(np.concatenate([
                _sample(rng, rest[labels[rest] == value], int(round(CALIBRATION_SHARE * np.sum(labels[rest] == value))))
                for value in (0, 1)
            ]))
            test = np.flatnonzero(fold_of == fold)
            for partition, ids in (("calibration", cal), ("test", test)):
                # an external model retrained per fold: class-shifted logits with noise
                z = -3.4 + 3.0 * labels[ids] + rng.normal(0.0, 1.3, size=ids.size)
                scores = 1.0 / (1.0 + np.exp(-z))
                lines += [f"{j},{fold},{partition},{s!r},{labels[j]}" for j, s in zip(ids.tolist(), scores.tolist())]
                if partition == "calibration":
                    self.folds[fold] = (scores, labels[cal])
        self.table_path = self.work / "scores.csv"
        self.table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.n_table_rows = len(lines) - 1
        self._calibrators = {}

    def op(self, i):
        api = self.api
        out = self.work / f"op{i}"
        for kind in POST_HOC:
            api.calibrate_scores(str(self.table_path), kind, str(out / f"{kind}.csv"))
        config = api.ExperimentConfig(
            models=("external-scores",),
            calibrators=ALL_CALIBRATORS,
            score_table_path=str(self.table_path),
            output_dir=str(out / "experiment"),
            seed=self.seed,
            jobs=1,
        )
        started = perf_counter()
        api.run_experiment(config)
        return OpResult(out, (started, perf_counter()))

    def _calibrator(self, fold):
        if fold not in self._calibrators:
            scores, labels = self.folds[fold]
            self._calibrators[fold] = self.plain.VennAbersCalibrator(scores, labels)
        return self._calibrators[fold]

    def check(self, i, result: OpResult):
        out = result.payload
        paths = [out / f"{kind}.csv" for kind in POST_HOC] + sorted((out / "experiment" / "folds").glob("*.csv"))
        rows, failures = _check_prediction_csvs(paths, out)
        checked = Checked(rows, _hash_files(paths, out), failures)
        rng = np.random.default_rng((self.seed, i))
        lines = (out / "venn-abers.csv").read_text(encoding="utf-8").splitlines()[1:]
        for line in _sample(rng, np.asarray(lines), SPOT_CHECKS):
            _, fold, score, p0, p1, point = line.split(",")
            checked.failures += _exact(f"op {i} fold {fold}", self._calibrator(int(fold)),
                                       *(float(v) for v in (score, p0, p1, point)))
        for fold in _sample(rng, np.arange(FOLDS), SPOT_CHECKS):
            calibrator = self._calibrator(int(fold))
            for score in _sample(rng, calibrator.calibration_scores, 1):  # a tied probe
                p0, p1, point = calibrator.intervals([score])
                checked.failures += _exact(f"op {i} fold {fold} tied", calibrator, float(score), p0[0], p1[0], point[0])
        shutil.rmtree(out)
        return checked

    def properties(self, tracer):
        return {
            "rows": self.n_table_rows,
            "positive_share": float(self.labels.mean()),
            "distinct_cal_scores_median": float(np.median([np.unique(self.folds[f][0]).size for f in self.folds])),
            "batch_size": None,
            "forest_nodes_per_fit": 0,
        }


WORKLOADS = {w.name: w for w in (CvReference, BatchScore, ExternalCalibrate)}

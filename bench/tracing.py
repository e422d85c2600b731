"""Span tracing around venncal's public functions, installed from outside.

The tracer never edits a program file.  It wraps the public functions a
workload calls, rebinds the names that ``venncal.harness`` imported (so the
harness's own fold loop is traced too), and wraps ``score_many`` /
``intervals`` on the model and calibrator objects that the wrapped
constructors return.  Member trees of a forest are built through the
forest module's own ``fit_tree`` binding, which stays untouched, so
``models.tree`` spans cover the standalone tree only.

A span records name, start, end, parent and operation id.  Spans stay in
memory until the run ends, when `write` stores them.  Every wrapper also measures its own
bookkeeping (the time before the wrapped call starts and after it ends);
summed over all spans that is ``trace.overhead_s``, the time a traced run
spends that an untraced run does not.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

# API name -> span name.  The first group are also venncal.harness module
# globals, rebound while tracing so that the harness's own calls are traced.
HARNESS_BINDINGS = {
    "load_csv": "data.load_csv",
    "repeated_stratified_kfold": "data.splits",
    "load_score_table": "models.score_table.load",
    "fit_forest": "models.forest.fit",
    "fit_tree": "models.tree.fit",
    "fit_logistic": "models.logistic.fit",
    "VennAbersCalibrator": "calibration.venn_abers.fit",
    "pava": "calibration.isotonic.fit",
    "isotonic_calibrate": "calibration.isotonic.apply",
    "fit_platt": "calibration.platt.fit",
    "apply_platt": "calibration.platt.apply",
    "evaluate": "metrics.evaluate",
}

DIRECT_BINDINGS = {
    "stratified_holdout": "data.splits",
    "run_experiment": "harness",
    "calibrate_scores": "harness",
    "build_venn_tree": "venn_tree.build",
    "render_tree": "venn_tree.render",
    "extract_rules": "venn_tree.rules",
    "format_rules": "venn_tree.rules",
}

# every layer the per-layer table names; spans group by the first match
LAYERS = (
    "data",
    "models.forest",
    "models.tree",
    "models.logistic",
    "models.score_table",
    "calibration.venn_abers",
    "calibration.isotonic",
    "calibration.platt",
    "metrics",
    "harness",
    "venn_tree",
    "bench",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op_id: int  # -1 during set-up
    overhead: float = 0.0


class Tracer:
    """Spans and counts of one traced run.

    Results are reported for one set-up plus one mean operation: spans and
    counts from set-up (op_id -1) count once, those from operations are
    divided by the number of operations, so runs of different lengths
    compare.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.distinct_cal_scores: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._setup_counts: dict[str, float] = defaultdict(float)
        self._op_counts: dict[str, float] = defaultdict(float)

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Run fn inside a span; `after(result, args)` records counts."""
        entered = perf_counter()
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if after is not None:
            after(result, args)
        span.overhead = (span.start - entered) + (perf_counter() - span.end)
        return result

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        return traced

    # -- instrumentation ----------------------------------------------------

    def instrument(self, venncal, harness):
        """Traced API namespace; rebinds harness imports until `restore`."""
        self._harness = harness
        self._saved = {name: getattr(harness, name) for name in HARNESS_BINDINGS}
        after = {
            "load_score_table": self._after_score_table,
            "fit_forest": self._after_fit("models.forest"),
            "fit_tree": self._after_fit("models.tree"),
            "fit_logistic": self._after_fit("models.logistic"),
            "VennAbersCalibrator": self._after_venn_abers,
            "evaluate": self._count("metrics.evaluate_calls"),
            "run_experiment": self._after_experiment,
            "calibrate_scores": self._after_calibrate_scores,
        }
        api = vars(plain_api(venncal))
        for name, span in {**HARNESS_BINDINGS, **DIRECT_BINDINGS}.items():
            api[name] = self.wrap(span, api[name], after.get(name))
        for name in HARNESS_BINDINGS:
            setattr(harness, name, api[name])
        return SimpleNamespace(**api)

    def restore(self) -> None:
        for name, original in self._saved.items():
            setattr(self._harness, name, original)

    def add(self, key: str, amount: float) -> None:
        (self._setup_counts if self.op_id < 0 else self._op_counts)[key] += amount

    def count(self, key: str, ops: int) -> float:
        """Count for one set-up plus one mean operation."""
        return self._setup_counts[key] + self._op_counts[key] / ops

    def total_count(self, key: str) -> float:
        return self._setup_counts[key] + self._op_counts[key]

    def _count(self, key):
        def after(result, args):
            self.add(key, 1)

        return after

    def _after_fit(self, layer):
        def after(model, args):
            if layer == "models.forest":
                self.add(f"{layer}.fit_nodes", sum(t.n_nodes for t in model.trees))
            elif layer == "models.tree":
                self.add(f"{layer}.fit_nodes", model.n_nodes)

            def rows(result, score_args):
                self.add(f"{layer}.score_rows", len(score_args[0]))

            model.score_many = self.wrap(f"{layer}.score", model.score_many, rows)

        return after

    def _after_score_table(self, table, args):
        self.add("models.score_table.rows", table.n_rows)

    def _after_venn_abers(self, calibrator, args):
        self.distinct_cal_scores.append(int(np.unique(calibrator.calibration_scores).size))

        def rows(result, apply_args):
            self.add("calibration.venn_abers.apply_rows", np.size(apply_args[0]))

        calibrator.intervals = self.wrap("calibration.venn_abers.apply", calibrator.intervals, rows)

    def _after_experiment(self, result, args):
        self._count_artifacts(Path(args[0].output_dir))

    def _after_calibrate_scores(self, result, args):
        self._count_artifacts(Path(args[2]))

    def _count_artifacts(self, path: Path) -> None:
        files = [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]
        self.add("harness.artifact_files", len(files))
        self.add("harness.artifact_bytes", sum(os.path.getsize(p) for p in files))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]) + "\n", encoding="utf-8")

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus its children's durations and overheads."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= (span.end - span.start) + span.overhead
        return own

    def summary(self, ops: int, phases=("setup", "op")) -> dict[str, list[float]]:
        """Per span name: [duration, self time, overhead] for one set-up plus one mean operation."""
        rows: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            if ("setup" if span.op_id < 0 else "op") not in phases:
                continue
            weight = 1.0 if span.op_id < 0 else 1.0 / ops
            row = rows[span.name]
            row[0] += weight * (span.end - span.start)
            row[1] += weight * own
            row[2] += weight * span.overhead
        return rows

    def layer_self_times(self, ops: int, phases=("setup", "op")) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_, own, _) in self.summary(ops, phases).items():
            totals[layer_of(name)] += own
        return totals

    def overhead(self, ops: int, phases=("setup", "op")) -> float:
        return sum(overhead for _, _, overhead in self.summary(ops, phases).values())


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {span_name!r} belongs to no layer")


def plain_api(venncal):
    """The untraced API: venncal's own public names."""
    names = (*HARNESS_BINDINGS, *DIRECT_BINDINGS, "ExperimentConfig", "write_reference_csv")
    api = {name: getattr(venncal, name) for name in names if name != "stratified_holdout"}
    return SimpleNamespace(**api, stratified_holdout=venncal.data.stratified_holdout)

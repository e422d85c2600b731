"""venncal benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload cv-reference --seed 0 --seconds 10 --trace 0

The benchmark imports venncal from ``src/`` of the checkout it lives in,
makes the workload's inputs from ``--seed``, times set-up, then runs one
operation after another until ``--seconds`` have passed (at least one
operation, and for ``batch-score`` one full pass over the fleet).  Every
operation's outputs are checked afterwards, outside the timed region.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  Their times are corrected to a reference machine
speed (see SpeedClock); the lines above it give the wall times too.  With
``--trace 1`` the run is traced (see tracing.py), the JSON holds the
per-layer metrics, a per-layer table precedes it, and the spans are
written to ``.bench_traces/``.  Inputs and outputs live in
``.bench_work/`` while the run lasts.

``--record`` (default seed only) runs traced and stores the output digests
and input properties in ``bench/expected.json``.  Use it only when a change
alters venncal's outputs on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYERS, Tracer, plain_api
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"  # span files of traced runs
DEFAULT_SEED = 0
IMPORT_REPEATS = 5  # fresh interpreters timed per run for the import part of setup_s
SPEED_PROBES = 7  # probes before and after a traced run, to report the machine's speed
MIN_PHASE_S = 0.001  # a phase shorter than this gets no shares in the layer table
MAX_FAILURES_SHOWN = 5

# ROADMAP item 1 baselines (one forest fit on ~6k rows, one tree fit, forest
# scoring of 100k rows, Venn-Abers on 100k scores) and a later measurement of
# the same quantities, in seconds; the traced run says which it confirms
BASELINES = {
    "forest fit, s per fit": ("models.forest.fit", None, 2.34, 2.42),
    "tree fit, s per fit": ("models.tree.fit", None, 0.07, 0.04),
    "forest scoring, s per 100k rows": ("models.forest.score", "models.forest.score_rows", 6.6, 4.46),
    "Venn-Abers apply, s per 100k scores": ("calibration.venn_abers.apply", "calibration.venn_abers.apply_rows", 1.34, 1.10),
}
BASELINE_TOLERANCE = 0.25
# about the fastest time of `probe` seen on a quiet core of a 2-vCPU x86-64 cloud VM
PROBE_REFERENCE_S = 0.0026
CHECKPOINT_INTERVAL_S = 0.25


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record stores digests for the default seed {DEFAULT_SEED} only")
    return args


def import_venncal():
    """Import venncal from this checkout's src/, never from anywhere else."""
    if not (SRC / "venncal" / "__init__.py").is_file():
        raise SystemExit(f"error: no venncal package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import venncal
    import venncal.harness

    if Path(venncal.__file__).resolve().parent != (SRC / "venncal").resolve():
        raise SystemExit(f"error: imported venncal from {venncal.__file__}, not from {SRC}")
    return venncal


def time_import() -> float:
    """Seconds to import venncal in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "t = time.perf_counter(); import venncal; print(repr(time.perf_counter() - t))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def tail(values):
    """(value, percentile, samples): highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would lie at or below the median, so
    the median itself is reported; the tail then moves continuously as the
    operation count grows.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def machine_context(venncal) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "venncal": venncal.__version__,
    }


def probe(values) -> float:
    """Seconds taken by a fixed piece of work that uses no venncal code.

    It mixes what venncal spends its time on: a numpy sort, an interpreted
    loop, and numpy calls on small arrays.
    """
    started = perf_counter()
    for _ in range(3):
        np.sort(values)
        total = 0
        for j in range(3000):
            total += j * j % 7
        x = values[:500]
        for _ in range(50):
            x = np.where(x > 0.5, x * 0.9, x + 0.1)
    return perf_counter() - started


class SpeedClock:
    """Wall time, and wall time corrected to a reference machine speed.

    Other tenants of a shared machine can slow a core by up to 2x for
    seconds at a time, far more than the changes the benchmark must
    detect.  Between `start` and `stop` an interval timer interrupts the
    timed code every CHECKPOINT_INTERVAL_S to time `probe`; each segment
    between two probes is scaled by PROBE_REFERENCE_S over the mean of
    those two probe times.  The probes' own time is left out of both
    figures.  The timer handler touches no venncal state, and the digest
    check shows that the outputs do not change.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._values = np.random.default_rng(0).random(20_000)
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_timer)

    def sample(self) -> float:
        self.probes.append(probe(self._values))
        return self.probes[-1]

    def start(self) -> None:
        self._segments: list[tuple[float, float, float]] = []  # (start, end, mean probe s)
        self._last = self.sample()
        self._started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CHECKPOINT_INTERVAL_S, CHECKPOINT_INTERVAL_S)

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._checkpoint()

    def _checkpoint(self) -> None:
        self._busy = True
        ended = perf_counter()
        now = self.sample()
        self._segments.append((self._started, ended, (self._last + now) / 2.0))
        self._last = now
        self._started = perf_counter()
        self._busy = False

    def stop(self) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) since `start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._checkpoint()
        wall = sum(end - start for start, end, _ in self._segments)
        return wall, self.between(-math.inf, math.inf)

    def between(self, t0: float, t1: float) -> float:
        """Seconds at reference speed spent in [t0, t1] (perf_counter times) since `start`."""
        return sum(max(0.0, min(end, t1) - max(start, t0)) * PROBE_REFERENCE_S / speed
                   for start, end, speed in self._segments)


def run_ops(workload, seconds, clock, tracer, expected_digests):
    """Closed loop: the next operation starts when the previous one returned.

    Returns per-operation (wall s, reference s, prediction rows), the
    run_experiment times at reference speed, the failed count and the first
    digest per key.  Traced runs (clock None) use the wall clock for both.
    """
    ops, experiment_times = [], []
    failed = 0
    seen: dict[str, str] = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < workload.min_ops or perf_counter() < deadline:
        failures = []
        result = None
        if clock:
            clock.start()
        else:
            tracer.op_id = i
            started = perf_counter()
        try:
            result = workload.op(i) if clock else tracer.call("bench.op", workload.op, (i,))
        except Exception:
            failures.append(traceback.format_exc())
        wall, reference = clock.stop() if clock else (perf_counter() - started,) * 2
        rows = 0
        if result is not None:
            checked = workload.check(i, result)
            rows = checked.rows
            failures += checked.failures
            key = workload.digest_key(i)
            if key in expected_digests and checked.digest != expected_digests[key]:
                failures.append(f"digest {checked.digest} differs from the stored {expected_digests[key]}")
            if seen.setdefault(key, checked.digest) != checked.digest:
                failures.append(f"digest {checked.digest} differs from the first {key} ({seen[key]})")
            if result.experiment and clock:
                experiment_times.append(clock.between(*result.experiment))
        ops.append((wall, reference, rows))
        if failures:
            failed += 1
            for line in failures[:MAX_FAILURES_SHOWN]:
                print(f"FAILED op {i}: {line}", file=sys.stderr)
        i += 1
    return ops, experiment_times, failed, seen


def end_to_end(args, workload):
    # not corrected for machine speed: import time is mostly file reads and
    # unmarshalling, which the probe does not track
    import_s = statistics.median(time_import() for _ in range(IMPORT_REPEATS))
    workload.make_inputs()
    clock = SpeedClock()
    setups = []
    for _ in range(workload.setup_repeats):
        clock.start()
        workload.setup()
        setups.append(clock.stop()[1])
    setup_s = import_s + statistics.median(setups)
    ops, experiment_times, failed, _ = run_ops(workload, args.seconds, clock, None, expected_digests(args))
    walls = [wall for wall, _, _ in ops]
    references = [reference for _, reference, _ in ops]
    tail_s, tail_pct, samples = tail(references)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (1000.0 * statistics.median(references), "ms"),
        "op_ms_tail": (1000.0 * tail_s, "ms"),
        "rows_per_s": (statistics.median(rows / reference for _, reference, rows in ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speed = PROBE_REFERENCE_S / statistics.median(clock.probes)
    print(f"{workload.name}: {len(ops)} operations in a closed loop, one caller, jobs=1")
    print(f"  times at reference speed; this run's machine speed was {speed:.3f} of the reference")
    print(f"  setup_s         {setup_s:.4f} s (import {import_s:.4f} s wall, median of {IMPORT_REPEATS}; "
          f"in-process set-up median of {len(setups)})")
    print(f"  op_ms_p50       {metrics['op_ms_p50'][0]:.3f} ms (wall {1000 * statistics.median(walls):.3f} ms)")
    print(f"  op_ms_tail      {metrics['op_ms_tail'][0]:.3f} ms (p{tail_pct:.1f} of {samples} operations; "
          f"wall {1000 * tail(walls)[0]:.3f} ms)")
    if experiment_times:
        print(f"  experiment_s    {statistics.median(experiment_times):.4f} s (median run_experiment call)")
    if workload.name == "batch-score":
        print(f"  batch_ms_p50    {metrics['op_ms_p50'][0]:.3f} ms; batch_ms_tail {metrics['op_ms_tail'][0]:.3f} ms "
              f"(p{tail_pct:.1f} of {samples}); {workload.batch_size} rows per batch")
    print(f"  rows_per_s      {metrics['rows_per_s'][0]:.1f} 1/s (prediction rows: test row x model x calibrator)")
    print(f"  peak_rss_mb     {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  failed_op_ratio {failed / len(ops):.4f} ({failed} of {len(ops)} attempted)")
    return metrics, len(ops), failed


def traced(args, workload, venncal):
    tracer = Tracer()
    speed = SpeedClock()
    workload.api = tracer.instrument(venncal, venncal.harness)
    try:
        workload.make_inputs()
        for _ in range(SPEED_PROBES):
            speed.sample()
        started = perf_counter()
        tracer.call("bench.setup", workload.setup)
        setup_wall = perf_counter() - started
        ops, _, failed, digests = run_ops(workload, args.seconds, None, tracer, expected_digests(args))
        for _ in range(SPEED_PROBES):
            speed.sample()
    finally:
        tracer.restore()
    op_wall = statistics.mean(wall for wall, _, _ in ops)
    # one set-up plus one mean operation, the unit every per-layer figure uses
    metrics = layer_metrics(tracer, len(ops), setup_wall + op_wall)
    print_layer_table(workload, tracer, len(ops), setup_wall, op_wall)
    print_baselines(tracer, PROBE_REFERENCE_S / statistics.median(speed.probes))
    spans_path = TRACES / f"{workload.name}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    if args.record:
        record(workload, tracer, digests, failed)
    return metrics, len(ops), failed


def layer_metrics(tracer, ops: int, wall: float) -> dict:
    """Per-layer metrics for one set-up plus one mean operation; 0 where a layer does no work."""
    spans = tracer.summary(ops)

    def duration(name):
        return spans[name][0] if name in spans else 0.0

    def own(name):
        return spans[name][1] if name in spans else 0.0

    def count(key):
        return tracer.count(key, ops)

    forest_fit, forest_nodes = duration("models.forest.fit"), count("models.forest.fit_nodes")
    va_apply, va_rows = duration("calibration.venn_abers.apply"), count("calibration.venn_abers.apply_rows")
    program_self = sum(t for layer, t in tracer.layer_self_times(ops).items() if layer != "bench")
    k = tracer.distinct_cal_scores
    values = {
        "data.load_csv_s": duration("data.load_csv"),
        "data.splits_s": duration("data.splits"),
        "models.forest.fit_s": forest_fit,
        "models.forest.fit_nodes": forest_nodes,
        "models.forest.fit_us_per_node": 1e6 * forest_fit / forest_nodes if forest_nodes else 0.0,
        "models.forest.score_s": duration("models.forest.score"),
        "models.forest.score_rows": count("models.forest.score_rows"),
        "models.tree.fit_s": duration("models.tree.fit"),
        "models.tree.fit_nodes": count("models.tree.fit_nodes"),
        "models.tree.score_s": duration("models.tree.score"),
        "models.logistic.fit_s": duration("models.logistic.fit"),
        "models.logistic.score_s": duration("models.logistic.score"),
        "models.score_table.load_s": duration("models.score_table.load"),
        "models.score_table.rows": count("models.score_table.rows"),
        "calibration.venn_abers.fit_s": duration("calibration.venn_abers.fit"),
        "calibration.venn_abers.apply_s": va_apply,
        "calibration.venn_abers.apply_rows": va_rows,
        "calibration.venn_abers.us_per_row": 1e6 * va_apply / va_rows if va_rows else 0.0,
        "calibration.venn_abers.distinct_cal_scores": float(statistics.median(k)) if k else 0.0,
        "calibration.isotonic.fit_s": duration("calibration.isotonic.fit"),
        "calibration.isotonic.apply_s": duration("calibration.isotonic.apply"),
        "calibration.platt.fit_s": duration("calibration.platt.fit"),
        "calibration.platt.apply_s": duration("calibration.platt.apply"),
        "metrics.evaluate_s": duration("metrics.evaluate"),
        "metrics.evaluate_calls": count("metrics.evaluate_calls"),
        "harness.self_s": own("harness"),
        "harness.artifact_bytes": count("harness.artifact_bytes"),
        "harness.artifact_files": count("harness.artifact_files"),
        "venn_tree.build_s": duration("venn_tree.build"),
        "venn_tree.render_s": duration("venn_tree.render"),
        "venn_tree.rules_s": duration("venn_tree.rules"),
        "trace.overhead_s": tracer.overhead(ops),
        "trace.coverage": program_self / wall,
    }
    units = {"_s": "s", "_per_node": "us", "_per_row": "us", "_bytes": "bytes", "coverage": "share"}
    return {name: (value, next((u for end, u in units.items() if name.endswith(end)), "count"))
            for name, value in values.items()}


def print_layer_table(workload, tracer, ops: int, setup_wall: float, op_wall: float) -> None:
    """Self time per layer in one set-up and in one mean operation, with shares of each."""
    walls = {"setup": setup_wall, "op": op_wall}
    layers = {phase: tracer.layer_self_times(ops, (phase,)) for phase in walls}
    overhead = {phase: tracer.overhead(ops, (phase,)) for phase in walls}
    print(f"{workload.name}: traced run of {ops} operations; set-up took {setup_wall:.4f} s wall, "
          f"a mean operation {op_wall:.4f} s")
    print(f"  {'layer':<24}{'set-up s':>11}{'share':>9}{'per op s':>12}{'share':>9}")
    for layer in (*LAYERS, "trace overhead"):
        row = [overhead[p] if layer == "trace overhead" else layers[p][layer] for p in walls]
        print(f"  {layer:<24}" + "".join(
            f"{value:>{width}.4f}" + (f"{value / walls[p]:>9.2%}" if walls[p] > MIN_PHASE_S else f"{'-':>9}")
            for value, p, width in zip(row, walls, (11, 12))))
    accounted = sum(sum(layers[p].values()) + overhead[p] for p in walls)
    print(f"  self times + overhead = {accounted:.4f} s = {accounted / sum(walls.values()):.4%} of "
          f"set-up plus one mean operation ({len(tracer.spans)} spans)")


def print_baselines(tracer, speed: float) -> None:
    """Compare per-call wall times with ROADMAP item 1's, which were also taken on a shared machine."""
    print(f"  ROADMAP item 1 baselines, wall time (machine speed {speed:.3f} of the reference "
          "around this run; the later measurement in brackets):")
    for label, (span, rows_key, roadmap, later) in BASELINES.items():
        durations = [s.end - s.start for s in tracer.spans if s.name == span]
        if not durations:
            continue
        if rows_key is None:
            measured = statistics.mean(durations)
        else:
            measured = sum(durations) / tracer.total_count(rows_key) * 100_000
        verdict = "confirms" if abs(measured / roadmap - 1.0) <= BASELINE_TOLERANCE else "contradicts"
        print(f"    {label:<38}{measured:>9.3f} vs {roadmap} [{later}]: {verdict} the ROADMAP figure "
              f"(+-{BASELINE_TOLERANCE:.0%}, {len(durations)} calls)")


def why(workload: str) -> str:
    """The workload's reason, as BENCHMARK.json states it."""
    workloads = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["workloads"]
    return next(w["why"] for w in workloads if w["name"] == workload)


def expected_digests(args) -> dict:
    """Stored output digests that this run must reproduce (default seed only)."""
    if args.record or args.seed != DEFAULT_SEED:
        return {}
    digests = load_expected().get(args.workload, {}).get("digests")
    if not digests:
        raise SystemExit(f"error: no stored digests for {args.workload}; run with --record first")
    return digests


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}


def record(workload, tracer, digests, failed) -> None:
    if failed:
        raise SystemExit("error: operations failed; nothing recorded")
    data = load_expected()
    data[workload.name] = {
        "why": why(workload.name),
        "seed": DEFAULT_SEED,
        "properties": workload.properties(tracer),
        "digests": dict(sorted(digests.items())),
    }
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests for {workload.name} in {EXPECTED.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    venncal = import_venncal()
    traced_run = bool(args.trace or args.record)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](plain_api(venncal), work, args.seed)
        print("context " + json.dumps({
            **machine_context(venncal), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": traced_run, "why": why(args.workload),
        }))
        if traced_run:
            metrics, attempted, failed = traced(args, workload, venncal)
        else:
            metrics, attempted, failed = end_to_end(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

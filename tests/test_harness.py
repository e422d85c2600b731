"""Harness and CLI tests on small synthetic datasets."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import venncal
from venncal import harness
from venncal.cli import build_parser, main as cli_main
from venncal.data import ParseError, SchemaError, ValidationError
from venncal.harness import (
    POST_HOC_CALIBRATORS,
    ExperimentConfig,
    calibrate_scores,
    load_fold_predictions,
    run_experiment,
    run_record,
    write_reliability_csv,
)
from venncal.metrics import minority_bins, reliability_bins

from support import write_small_dataset


def small_config(tmp_path, **overrides) -> ExperimentConfig:
    data = tmp_path / "toy.csv"
    if not data.exists():
        write_small_dataset(data)
    defaults = dict(
        dataset_path=str(data),
        models=("tree", "forest", "logistic"),
        calibrators=("none", "venn-abers", "platt", "isotonic"),
        k=2,
        repetitions=1,
        calibration_fraction=1 / 3,
        seed=7,
        output_dir=str(tmp_path / "run"),
        n_trees=5,
        tree_min_samples_leaf=3,
    )
    defaults.update(overrides)
    return ExperimentConfig.from_dict(defaults)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_smoke_run_produces_all_rows_and_artifacts(tmp_path):
    config = small_config(tmp_path)
    table = run_experiment(config)
    # logistic is uncalibrated-only; tree and forest get all four variants
    assert len(table.rows) == 4 + 4 + 1
    rows = {(r.model, r.calibrator): r for r in table.rows}
    for model in ("tree", "forest"):
        for cal in ("none", "venn-abers", "platt", "isotonic"):
            row = rows[model, cal]
            assert row.n_folds == 2
            assert 0.0 <= row.accuracy <= 1.0
    assert rows["logistic", "none"].n_folds == 2
    assert ("logistic", "platt") not in rows

    run_dir = tmp_path / "run"
    assert (run_dir / "aggregate.json").exists()
    assert (run_dir / "aggregate.csv").exists()
    assert (run_dir / "table.txt").exists()
    assert (run_dir / "splits.json").exists()
    fold_files = list((run_dir / "folds").glob("*.json"))
    assert len(fold_files) == 9 * 2  # 9 pairs x 2 folds


def test_uncalibrated_only_run(tmp_path):
    config = small_config(tmp_path, calibrators=("none",))
    table = run_experiment(config)
    assert {(r.model, r.calibrator) for r in table.rows} == {
        ("tree", "none"),
        ("forest", "none"),
        ("logistic", "none"),
    }


def test_determinism_byte_identical_artifacts(tmp_path):
    config_a = small_config(tmp_path, output_dir=str(tmp_path / "run_a"))
    config_b = small_config(tmp_path, output_dir=str(tmp_path / "run_b"))
    run_experiment(config_a)
    run_experiment(config_b)
    for name in ("aggregate.json", "run.json"):  # run.json holds no timings
        assert (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()
    for fold_file in sorted((tmp_path / "run_a" / "folds").iterdir()):
        twin = tmp_path / "run_b" / "folds" / fold_file.name
        assert fold_file.read_bytes() == twin.read_bytes()


def test_parallel_run_matches_serial(tmp_path):
    serial = small_config(tmp_path, output_dir=str(tmp_path / "run_serial"), jobs=1)
    parallel = small_config(tmp_path, output_dir=str(tmp_path / "run_par"), jobs=2)
    run_experiment(serial)
    run_experiment(parallel)
    for name in ("aggregate.json", "run.json"):
        assert (tmp_path / "run_serial" / name).read_bytes() == (tmp_path / "run_par" / name).read_bytes()
    assert json.loads((tmp_path / "run_par" / "run.json").read_text(encoding="utf-8")) == run_record(parallel)


# Metamorphic relations: two runs that must write the same fold files, with nothing recorded.

def _relation_folds(tmp_path, name, data, models) -> dict:
    """The fold files, by name, of a 3-fold run of models with 10-tree forests."""
    config = ExperimentConfig.from_dict(dict(
        dataset_path=str(data), models=models, calibrators=("none", "venn-abers", "isotonic"),
        k=3, repetitions=1, n_trees=10, output_dir=str(tmp_path / name),
    ))
    run_experiment(config)
    return {path.name: path.read_bytes() for path in (tmp_path / name / "folds").iterdir()}


def test_a_pair_writes_the_same_folds_whichever_models_run_beside_it(tmp_path):
    # a forest seed that depended on the pair's place in the config passed every other test
    data = write_small_dataset(tmp_path / "toy.csv", n=2000)
    alone = _relation_folds(tmp_path, "forest", data, ("forest",))
    together = _relation_folds(tmp_path, "tree_forest", data, ("tree", "forest"))
    assert len(alone) == 18  # 3 calibrators x 3 folds, a JSON and a CSV each
    assert {name: together[name] for name in alone} == alone


def test_doubling_every_numeric_feature_changes_no_fold_file(tmp_path):
    # x -> 2.0 * x is exact and keeps the order of every column, and trees see features only
    # through that order, so the scaled dataset must give the same bytes
    data = write_small_dataset(tmp_path / "toy.csv", n=2000)
    with data.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    numeric = range(header.index("Air temperature [K]"), header.index("Tool wear [min]") + 1)
    for row in rows:
        for j in numeric:
            row[j] = repr(2.0 * float(row[j]))
    scaled = tmp_path / "scaled.csv"
    with scaled.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])
    plain = _relation_folds(tmp_path, "plain", data, ("tree", "forest"))
    doubled = _relation_folds(tmp_path, "doubled", scaled, ("tree", "forest"))
    assert len(plain) == 36 and doubled == plain


def test_run_record_names_config_versions_and_source(tmp_path):
    config = small_config(tmp_path)
    record = run_record(config)
    assert set(record) == {
        "config", "venncal_version", "numpy_version", "python_version",
        "source_sha256", "arithmetic_sha256", "dataset_sha256", "score_table_sha256",
    }
    assert record["config"]["models"] == ["tree", "forest", "logistic"]
    assert record["config"]["seed"] == 7
    # neither changes the artifacts, so neither may change the record
    assert "jobs" not in record["config"] and "output_dir" not in record["config"]
    assert run_record(small_config(tmp_path, jobs=2, output_dir=str(tmp_path / "elsewhere"))) == record
    assert run_record(small_config(tmp_path, seed=8)) != record
    # the record names its inputs by content, so the same bytes at another path give the same record
    copy = tmp_path / "copy" / "toy.csv"
    copy.parent.mkdir()
    copy.write_bytes(Path(config.dataset_path).read_bytes())
    assert run_record(small_config(tmp_path, dataset_path=str(copy))) == record
    assert len(record["source_sha256"]) == len(record["arithmetic_sha256"]) == 64
    assert record["score_table_sha256"] is None  # no external-scores model reads one


def test_run_record_changes_with_input_files(tmp_path):
    config = small_config(tmp_path)
    record = run_record(config)
    data = Path(config.dataset_path)
    text = data.read_text(encoding="utf-8")
    data.write_text(text + text.splitlines()[-1] + "\n", encoding="utf-8")  # one row more
    changed = run_record(config)
    assert changed["dataset_sha256"] != record["dataset_sha256"]
    assert {k: v for k, v in changed.items() if k != "dataset_sha256"} == {
        k: v for k, v in record.items() if k != "dataset_sha256"
    }
    table = write_score_table(tmp_path / "scores.csv", {0: {"calibration": WORKED_CAL, "test": [(0.8, 1)]}})
    external = small_config(tmp_path, models=("external-scores",), score_table_path=str(table))
    first = run_record(external)
    assert first["dataset_sha256"] is None and len(first["score_table_sha256"]) == 64
    write_score_table(table, {0: {"calibration": WORKED_CAL, "test": [(0.7, 1)]}})
    assert run_record(external)["score_table_sha256"] != first["score_table_sha256"]


def _exp_loops() -> set[str]:
    """The dispatch targets numpy runs its float64 exp on here."""
    info = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")
    return {loop["current"] for loop in info.get("exp", {}).values()}


@pytest.mark.parametrize(
    "child_env, same",
    [
        pytest.param({}, True, id="same-path"),
        pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL"}, False, id="no-avx512-exp",
                     marks=pytest.mark.skipif("X86_V4" not in _exp_loops(), reason="no X86_V4 exp loop")),
        pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, False, id="prescott-blas",
                     marks=pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="not x86-64")),
    ],
)
def test_run_record_arithmetic_sha256_names_the_cpu_path(tmp_path, child_env, same):
    """Two fresh interpreters on one path record the same value; one on another CPU path records another."""
    config = ExperimentConfig(dataset_path=str(write_small_dataset(tmp_path / "toy.csv")))
    src = str(Path(venncal.__file__).resolve().parent.parent)
    code = (
        "import json; from venncal.harness import ExperimentConfig, run_record; "
        f"print(json.dumps(run_record(ExperimentConfig(dataset_path={config.dataset_path!r}))))"
    )

    def child_record(extra_env):
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, **extra_env}
        return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout)

    default, other = child_record({}), child_record(child_env)
    assert default == run_record(config)
    assert (other["arithmetic_sha256"] == default["arithmetic_sha256"]) is same
    assert {**other, "arithmetic_sha256": None} == {**default, "arithmetic_sha256": None}


def test_aggregate_matches_fold_artifacts(tmp_path):
    config = small_config(tmp_path)
    table = run_experiment(config)
    folds_dir = Path(config.output_dir) / "folds"
    for row in table.rows:
        reports = []
        for path in sorted(folds_dir.glob(f"rep*_fold*_{row.model}_{row.calibrator}.json")):
            reports.append(json.loads(path.read_text()))
        assert len(reports) == row.n_folds
        assert row.accuracy == pytest.approx(np.mean([r["accuracy"] for r in reports]), abs=1e-12)
        assert row.positive_predictions == sum(r["positive_prediction_count"] for r in reports)
        eces = [r["ece"] for r in reports]
        assert row.ece == pytest.approx(np.mean(eces), abs=1e-12)


def test_paired_test_sets_across_variants(tmp_path):
    config = small_config(tmp_path)
    run_experiment(config)
    folds_dir = Path(config.output_dir) / "folds"

    def ids(model, cal, fold):
        path = folds_dir / f"rep0_fold{fold}_{model}_{cal}.csv"
        with path.open() as handle:
            return [row["instance_id"] for row in csv.DictReader(handle)]

    for fold in (0, 1):
        baseline = ids("tree", "none", fold)
        for model in ("tree", "forest"):
            for cal in ("none", "venn-abers", "platt", "isotonic"):
                assert ids(model, cal, fold) == baseline


def test_venn_abers_interval_columns_present(tmp_path):
    config = small_config(tmp_path)
    run_experiment(config)
    path = Path(config.output_dir) / "folds" / "rep0_fold0_forest_venn-abers.csv"
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        p0, p1, point = float(row["p0"]), float(row["p1"]), float(row["point"])
        assert p0 <= p1
        assert 0.0 <= point <= 1.0
    # platt rows have degenerate intervals
    path = Path(config.output_dir) / "folds" / "rep0_fold0_forest_platt.csv"
    with path.open() as handle:
        for row in csv.DictReader(handle):
            assert row["p0"] == row["p1"] == row["point"]


def test_config_validation():
    with pytest.raises(ValueError, match=r"^k must be >= 2, got 1 \(--folds\)$"):
        ExperimentConfig(dataset_path="x.csv", k=1)
    with pytest.raises(ValueError, match="model"):
        ExperimentConfig(dataset_path="x.csv", models=("nonsense",))
    with pytest.raises(ValueError, match="models lists 'tree' more than once"):
        ExperimentConfig(dataset_path="x.csv", models=("tree", "forest", "tree"))
    with pytest.raises(ValueError, match="calibrators lists 'venn-abers' more than once"):
        ExperimentConfig(dataset_path="x.csv", calibrators=("none", "venn-abers", "venn-abers"))
    # logistic runs uncalibrated only, so without "none" it would fit nothing
    for models, calibrators in ((("logistic",), ("platt",)), (("logistic", "tree"), ("venn-abers",))):
        with pytest.raises(ValueError, match="model 'logistic' pairs with none of the calibrators"):
            ExperimentConfig(dataset_path="x.csv", models=models, calibrators=calibrators)
    with pytest.raises(ValueError, match="dataset_path"):
        ExperimentConfig(models=("tree",))
    with pytest.raises(ValueError, match="score_table_path"):
        ExperimentConfig(models=("external-scores",))
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "bogus": 1})
    # a string is not split into one-letter names, and a number must be one
    with pytest.raises(ValueError, match="models must be a list of names, got str 'tree'"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "models": "tree"})
    with pytest.raises(ValueError, match="calibrators must be a list of names, got str"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "calibrators": "none"})
    with pytest.raises(ValueError, match="k must be int, got str '10'"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "k": "10"})
    with pytest.raises(ValueError, match="seed must be int, got float"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "seed": 1.5})
    # numpy's generators take no negative seed, and would not name the field
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1 \(--seed\)$"):
        ExperimentConfig(dataset_path="x.csv", seed=-1)
    with pytest.raises(ValueError, match=r"^repetitions must be >= 1, got 0 \(--repetitions\)$"):
        ExperimentConfig(dataset_path="x.csv", repetitions=0)
    for models, calibrators in (((), ("none",)), (("tree",), ())):
        with pytest.raises(ValueError, match="^at least one model and one calibrator must be selected$"):
            ExperimentConfig(dataset_path="x.csv", models=models, calibrators=calibrators)
    with pytest.raises(ValueError, match="jobs must be int, got bool"):
        ExperimentConfig(dataset_path="x.csv", jobs=True)
    with pytest.raises(ValueError, match="calibration_fraction must be float, got str"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "calibration_fraction": "0.3"})
    # out-of-range values are rejected before any data is loaded
    for name, flag in (("bins", "--bins"), ("n_trees", "--trees"), ("tree_min_samples_leaf", "--tree-min-samples-leaf"),
                       ("jobs", "--jobs")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0 \\({flag}\\)$"):
            ExperimentConfig(dataset_path="x.csv", **{name: 0})
    for fraction in (0.0, 1.0, 1.5, -0.2):
        message = f"calibration_fraction must be in (0, 1), got {fraction} (--cal-fraction)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(dataset_path="x.csv", calibration_fraction=fraction)
    # a path that is not a string fails here, not deep inside the run
    for name in ("dataset_path", "score_table_path", "output_dir"):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be str | None, got int 5")):
            ExperimentConfig.from_dict({"dataset_path": "x.csv", name: 5})


def test_unknown_bin_mode_rejected_by_config_and_cli(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^bin_mode must be 'width' or 'frequency', got 'quantile' \(--bin-mode\)$"):
        ExperimentConfig(dataset_path="x.csv", bin_mode="quantile")
    for command in (["experiment", "--data", "x.csv"], ["reliability", "--run-dir", "run", "--model", "tree",
                                                       "--calibrator", "none", "--out", str(tmp_path / "bins.csv")]):
        with pytest.raises(SystemExit):  # argparse rejects it before any handler runs
            cli_main([*command, "--bin-mode", "quantile"])
        assert "invalid choice: 'quantile'" in capsys.readouterr().err
    assert not (tmp_path / "bins.csv").exists()


def test_unknown_name_rejected_naming_the_flag(tmp_path, capsys):
    models = "'tree' or 'forest' or 'logistic' or 'external-scores'"
    calibrators = "'none' or 'venn-abers' or 'platt' or 'isotonic'"
    for settings, message in (({"models": ("tree", "bogus")}, f"models must be {models}, got 'bogus' (--models)"),
                              ({"calibrators": ("beta",)}, f"calibrators must be {calibrators}, got 'beta' (--calibrators)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(dataset_path="x.csv", **settings)
    # the experiment command exits 1 with the config's message, before the (here missing) dataset is read
    assert cli_main(["experiment", "--data", str(tmp_path / "missing.csv"), "--models", "bogus"]) == 1
    assert capsys.readouterr().err == f"error: models must be {models}, got 'bogus' (--models)\n"


def test_config_name_lists_become_tuples():
    # a config built from JSON lists is the config built from tuples, and hashable
    from_lists = ExperimentConfig(dataset_path="x.csv", models=["tree"], calibrators=["none", "platt"])
    assert from_lists.models == ("tree",) and from_lists.calibrators == ("none", "platt")
    from_json = ExperimentConfig.from_dict(
        json.loads('{"dataset_path": "x.csv", "models": ["tree"], "calibrators": ["none", "platt"]}')
    )
    assert from_lists == from_json
    assert hash(from_lists) == hash(from_json)


# ---------------------------------------------------------------------------
# score-table calibration
# ---------------------------------------------------------------------------

WORKED_CAL = [(0.1, 0), (0.2, 0), (0.3, 1), (0.4, 1), (0.6, 1), (0.9, 1)]


def write_score_table(path: Path, folds):
    """folds: {fold_id: {"calibration": [(score, label), ...], "test": [...]}}"""
    lines = ["instance_id,fold_id,partition,score,label"]
    instance = 0
    for fold_id, parts in folds.items():
        for partition, rows in parts.items():
            for score, label in rows:
                instance += 1
                lines.append(f"{instance},{fold_id},{partition},{score},{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_calibrate_scores_worked_example(tmp_path):
    table = write_score_table(
        tmp_path / "scores.csv",
        {0: {"calibration": WORKED_CAL, "test": [(0.8, 1)]}},
    )
    out = tmp_path / "calibrated.csv"
    written = calibrate_scores(table, "venn-abers", out)
    assert written == 1
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert float(rows[0]["p0"]) == 0.75
    assert float(rows[0]["p1"]) == 1.0
    assert float(rows[0]["point"]) == pytest.approx(0.8, abs=1e-15)


def test_calibrate_scores_isotonic_monotone_blocks(tmp_path):
    cal = [(0.1, 0), (0.2, 0), (0.7, 1), (0.9, 1)]
    table = write_score_table(
        tmp_path / "scores.csv",
        {0: {"calibration": cal, "test": [(0.15, 0), (0.8, 1)]}},
    )
    out = tmp_path / "calibrated.csv"
    calibrate_scores(table, "isotonic", out)
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["point"]) for r in rows] == [0.0, 1.0]


def test_calibrate_scores_platt_single_class_fold_names_fold(tmp_path):
    table = write_score_table(
        tmp_path / "scores.csv",
        {
            0: {"calibration": [(0.2, 0), (0.8, 1)], "test": [(0.5, 1)]},
            3: {"calibration": [(0.2, 1), (0.8, 1)], "test": [(0.5, 1)]},
        },
    )
    with pytest.raises(ValueError, match="fold 3"):
        calibrate_scores(table, "platt", tmp_path / "out.csv")
    # fold 0 succeeded, but nothing is written unless every fold does
    assert not (tmp_path / "out.csv").exists()


def test_calibrate_scores_rejects_unknown_kind(tmp_path):
    table = write_score_table(tmp_path / "scores.csv", {0: {"calibration": WORKED_CAL, "test": [(0.8, 1)]}})
    for kind in ("none", "beta"):  # "none" calibrates nothing, so it has no output to write
        message = f"calibrator_kind must be 'venn-abers' or 'platt' or 'isotonic', got '{kind}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibrate_scores(table, kind, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


def test_calibrate_scores_missing_partition_names_fold(tmp_path):
    table = write_score_table(
        tmp_path / "scores.csv",
        {2: {"test": [(0.5, 1)]}},
    )
    with pytest.raises(ValueError, match="fold 2"):
        calibrate_scores(table, "venn-abers", tmp_path / "out.csv")


def test_external_scores_model_in_experiment(tmp_path):
    rng = np.random.default_rng(5)
    folds = {}
    for fold in range(2):
        cal = [(round(float(s), 3), int(rng.random() < s)) for s in rng.random(60)]
        test = [(round(float(s), 3), int(rng.random() < s)) for s in rng.random(40)]
        folds[fold] = {"calibration": cal, "test": test}
    table_path = write_score_table(tmp_path / "scores.csv", folds)
    config = ExperimentConfig(
        models=("external-scores",),
        calibrators=("none", "venn-abers"),
        score_table_path=str(table_path),
        output_dir=str(tmp_path / "run"),
    )
    table = run_experiment(config)
    assert [(r.model, r.calibrator, r.n_folds) for r in table.rows] == [
        ("external-scores", "none", 2),
        ("external-scores", "venn-abers", 2),
    ]


def test_dataset_and_score_table_folds_with_equal_indices_keep_their_own_rows(tmp_path):
    """A dataset fold and a score-table fold share (repetition, fold) but not their test rows:
    each fold CSV holds exactly the test rows of its own source, in its source's order."""
    rng = np.random.default_rng(8)
    sizes = {0: 17, 1: 23}  # the dataset's two folds hold about 160 test rows each
    folds = {
        fold: {part: [(float(s), int(rng.random() < s)) for s in rng.random(size)] for part in ("calibration", "test")}
        for fold, size in sizes.items()
    }
    table_path = write_score_table(tmp_path / "scores.csv", folds)
    config = small_config(
        tmp_path, models=("tree", "external-scores"), calibrators=("none", "venn-abers"), score_table_path=str(table_path)
    )
    run_experiment(config)
    out = Path(config.output_dir)
    splits = json.loads((out / "splits.json").read_text(encoding="utf-8"))["folds"]
    with table_path.open(newline="") as handle:
        table_rows = [row for row in csv.DictReader(handle) if row["partition"] == "test"]
    for fold, size in sizes.items():
        own = {
            "tree": {"instance_id": [str(i) for i in splits[fold]["test_ids"]]},
            "external-scores": {
                name: [row[name] for row in table_rows if row["fold_id"] == str(fold)] for name in ("instance_id", "score")
            },
        }
        assert len(own["tree"]["instance_id"]) > 150 and len(own["external-scores"]["instance_id"]) == size
        for model, columns in own.items():
            for calibrator in config.calibrators:
                with (out / "folds" / f"rep0_fold{fold}_{model}_{calibrator}.csv").open(newline="") as handle:
                    written = list(csv.DictReader(handle))
                assert {name: [row[name] for row in written] for name in columns} == columns, (model, calibrator)


def test_rerun_into_same_directory_drops_earlier_fold_files(tmp_path):
    rng = np.random.default_rng(3)
    folds = {
        fold: {part: [(float(s), int(rng.random() < s)) for s in rng.random(40)] for part in ("calibration", "test")}
        for fold in range(2)
    }
    table_path = write_score_table(tmp_path / "scores.csv", folds)
    out = tmp_path / "run"
    (out / "splits.json").parent.mkdir()
    (out / "splits.json").write_text("{}", encoding="utf-8")  # left by an earlier dataset run
    for calibrators in (("none", "platt"), ("none",)):
        run_experiment(
            ExperimentConfig(
                models=("external-scores",),
                calibrators=calibrators,
                score_table_path=str(table_path),
                output_dir=str(out),
            )
        )
    with pytest.raises(FileNotFoundError):
        load_fold_predictions(out, "external-scores", "platt")
    probabilities, _ = load_fold_predictions(out, "external-scores", "none")
    assert probabilities.size == 80
    assert sorted(p.name for p in (out / "folds").iterdir()) == [
        f"rep0_fold{fold}_external-scores_none.{ext}" for fold in range(2) for ext in ("csv", "json")
    ]
    assert not (out / "splits.json").exists()


def test_calibrate_scores_matches_experiment_fold_rows(tmp_path):
    """calibrate_scores writes the experiment's fold rows."""
    rng = np.random.default_rng(11)
    folds = {}
    for fold in range(3):
        cal = [(float(s), int(rng.random() < s)) for s in rng.random(50)]
        test = [(float(s), int(rng.random() < s)) for s in rng.random(30)]
        folds[fold] = {"calibration": cal, "test": test}
    table_path = write_score_table(tmp_path / "scores.csv", folds)
    config = ExperimentConfig(
        models=("external-scores",),
        calibrators=POST_HOC_CALIBRATORS,
        score_table_path=str(table_path),
        output_dir=str(tmp_path / "run"),
    )
    run_experiment(config)
    columns = ("instance_id", "score", "p0", "p1", "point")
    for kind in POST_HOC_CALIBRATORS:
        out = tmp_path / f"{kind}.csv"
        calibrate_scores(table_path, kind, out)
        with out.open() as handle:
            calibrated = list(csv.DictReader(handle))
        experiment = []
        for fold in range(3):
            path = tmp_path / "run" / "folds" / f"rep0_fold{fold}_external-scores_{kind}.csv"
            with path.open() as handle:
                experiment += [{**row, "fold_id": str(fold)} for row in csv.DictReader(handle)]
        assert len(calibrated) == len(experiment) == 90
        for got, want in zip(calibrated, experiment):
            assert got["fold_id"] == want["fold_id"]
            assert [got[c] for c in columns] == [want[c] for c in columns]


def test_score_table_errors_name_fold_in_both_entry_points(tmp_path):
    good = {"calibration": [(0.2, 0), (0.8, 1)], "test": [(0.3, 0), (0.7, 1)]}

    def experiment(table, calibrators):
        return run_experiment(
            ExperimentConfig(models=("external-scores",), calibrators=calibrators, score_table_path=str(table))
        )

    table = write_score_table(tmp_path / "missing.csv", {0: good, 4: {"calibration": good["calibration"]}})
    with pytest.raises(ValueError, match="fold 4: missing test partition"):
        calibrate_scores(table, "isotonic", tmp_path / "out.csv")
    with pytest.raises(RuntimeError, match="external-scores fold 4: missing test partition"):
        experiment(table, ("none", "isotonic"))

    table = write_score_table(tmp_path / "one_class_cal.csv", {0: good, 3: {**good, "calibration": [(0.2, 1)]}})
    with pytest.raises(RuntimeError, match="external-scores fold 3 calibrator platt: "):
        experiment(table, ("none", "platt"))

    # only the experiment evaluates, and AUC needs both classes in the test partition
    table = write_score_table(tmp_path / "one_class_test.csv", {0: good, 2: {**good, "test": [(0.5, 1)]}})
    assert calibrate_scores(table, "isotonic", tmp_path / "out.csv") == 3
    with pytest.raises(RuntimeError, match="external-scores fold 2 calibrator none: "):
        experiment(table, ("none", "isotonic"))


def test_dataset_fold_error_names_repetition_model_fold_and_calibrator(tmp_path, monkeypatch):
    def failing_fit(scores, labels):
        raise ValueError("no fit")

    monkeypatch.setattr(harness, "fit_platt", failing_fit)
    config = small_config(tmp_path, models=("tree",), calibrators=("none", "platt"))
    with pytest.raises(RuntimeError, match=r"^repetition 0 tree fold 0 calibrator platt: no fit$"):
        run_experiment(config)


def test_bench_tracer_records_every_harness_binding(tmp_path, monkeypatch):
    """bench/tracing.py rebinds venncal.harness globals to trace a run's layers.

    A harness that captured a fitter or calibrator at import time would slip
    past the rebinding, and its layer would silently read zero in a trace.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    rng = np.random.default_rng(2)
    folds = {
        fold: {part: [(float(s), int(rng.random() < s)) for s in rng.random(40)] for part in ("calibration", "test")}
        for fold in range(2)
    }
    table_path = write_score_table(tmp_path / "scores.csv", folds)
    config = small_config(
        tmp_path, models=("tree", "forest", "logistic", "external-scores"), score_table_path=str(table_path)
    )
    tracer = tracing.Tracer()
    tracer.instrument(venncal, harness)
    try:
        run_experiment(config)
    finally:
        tracer.restore()
    recorded = {span.name for span in tracer.spans}
    assert set(tracing.HARNESS_BINDINGS.values()) - recorded == set()


# ---------------------------------------------------------------------------
# reliability export
# ---------------------------------------------------------------------------

def test_export_reliability_scopes():
    p = np.array([0.95, 0.95, 0.3, 0.1])
    y = np.array([1, 0, 0, 0])
    assert reliability_bins(p, y).n_instances == 4
    assert minority_bins(p, y).n_instances == 2
    assert minority_bins(np.array([0.1, 0.2]), np.array([0, 1])) is None


def test_write_reliability_csv_empty_has_header_only(tmp_path):
    path = tmp_path / "bins.csv"
    write_reliability_csv(path, None)
    assert path.read_text().strip() == "bin_low,bin_high,count,mop,foc"


def test_reliability_roundtrip_from_run(tmp_path):
    config = small_config(tmp_path)
    run_experiment(config)
    p, y = load_fold_predictions(config.output_dir, "forest", "venn-abers")
    assert p.size == 320  # both folds pooled
    # a glob pattern is no name: it would pool the folds of several pairs
    models = "'tree' or 'forest' or 'logistic' or 'external-scores'"
    calibrators = "'none' or 'venn-abers' or 'platt' or 'isotonic'"
    for model, calibrator, message in (("*", "none", f"model must be {models}, got '*'"),
                                       ("forest", "?one", f"calibrator must be {calibrators}, got '?one'"),
                                       ("[tf]*", "venn-abers", f"model must be {models}, got '[tf]*'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_fold_predictions(config.output_dir, model, calibrator)
    bins = reliability_bins(p, y)
    out = tmp_path / "bins.csv"
    write_reliability_csv(out, bins)
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert sum(int(r["count"]) for r in rows) == 320


def test_load_fold_predictions_names_file_and_row(tmp_path):
    config = small_config(tmp_path, models=("tree",), calibrators=("none",))
    run_experiment(config)
    path = Path(config.output_dir) / "folds" / "rep0_fold1_tree_none.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:3] + [lines[3][:5]]), encoding="utf-8")  # cut inside row 3
    with pytest.raises(ParseError, match=re.escape(f"{path}: row 3: expected 6 fields, got ")):
        load_fold_predictions(config.output_dir, "tree", "none")
    label_cut = lines[2].split(",")
    label_cut[1] = "x"
    path.write_text("\n".join(lines[:2] + [",".join(label_cut)]), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}: row 2: 'label' must be one of ['0', '1'], got 'x'")):
        load_fold_predictions(config.output_dir, "tree", "none")
    for column, cell, error, message in (
        (1, "2", ValidationError, "'label' must be one of ['0', '1'], got '2'"),
        (1, "10", ValidationError, "'label' must be one of ['0', '1'], got '10'"),
        (5, "x", ParseError, "non-numeric value 'x' in column 'point'"),
        (5, "1_0", ParseError, "non-numeric value '1_0' in column 'point'"),
        (5, "0.2_5", ParseError, "non-numeric value '0.2_5' in column 'point'"),
        (5, "\u0663", ParseError, "non-numeric value '\u0663' in column 'point'"),
    ):
        row = lines[2].split(",")
        row[column] = cell
        path.write_text("\n".join(lines[:2] + [",".join(row)]), encoding="utf-8")
        with pytest.raises(error, match=re.escape(f"{path}: row 2: {message}")):
            load_fold_predictions(config.output_dir, "tree", "none")
    path.write_text("\n".join(["id,label,score,p0,p1,point", *lines[1:]]), encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: expected header {lines[0]}, got id,label,")):
        load_fold_predictions(config.output_dir, "tree", "none")


def test_load_fold_predictions_rejects_point_outside_unit_interval(tmp_path):
    """A nan point would otherwise fail later as a bare 'probabilities must lie in [0, 1]'."""
    config = small_config(tmp_path, models=("tree",), calibrators=("none",))
    run_experiment(config)
    path = Path(config.output_dir) / "folds" / "rep0_fold0_tree_none.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    for point in ("nan", "inf", "-0.25", "1.5"):
        row = lines[3].split(",")
        row[-1] = point
        path.write_text("\n".join([*lines[:3], ",".join(row), *lines[4:]]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: row 3: point '{point}' outside [0, 1]")):
            load_fold_predictions(config.output_dir, "tree", "none")


# ---------------------------------------------------------------------------
# output bytes
# ---------------------------------------------------------------------------

# sha256 of every CSV kind venncal writes, recorded before the writers were
# merged into one; fold files are hashed together, name then bytes
GOLDEN_OUTPUT_DIGESTS = {
    "folds": "0163734e385bcabc872c09cd9df7383115d6b26b9279281069d6acadebd4d617",
    "aggregate.csv": "7c09c4ecf32881af361628c0f1cfc173d2ebe3dafc107881174be74631258b7a",
    "aggregate.json": "4937c6b25a46630d591e2b6ebe458116a90a26f89efd6d572bca1f75d6554a36",
    "table.txt": "120ed80a348c23967a9b9b2e16d7f5bac200fb4dd29023cfd40f5a50eab250d7",
    "splits.json": "dad9db2e86e9a22231d5a35c1ccdbd085742acd9b544514d0920271edcc55469",
    "calibrated venn-abers": "fbf460c5a32491b9210cbe1561cb2977b736bf48533fa77a93ea94178f7db377",
    "calibrated platt": "88e759d04f9fd7b152f3a7ca08517668ea3bd077abded674b58831c98a92d2b9",
    "calibrated isotonic": "bb07f0f9408bc19b02f6ecb4790e013f944e20e2d0f7bc9c5657dc78e37c6209",
    "reliability gap": "b48e509999145e2be5c2c7286279967d2d2a389621df60e171034c6200eca718",
    "reliability none": "2dedd8bf935f323942291bedb9b5923961487751f7d613743fa8646215caa9db",
}


def test_output_bytes_match_golden_digests(tmp_path):
    rng = np.random.default_rng(21)
    folds = {}
    for fold in range(2):
        cal = [(round(float(s), 2) if i % 2 else float(s), int(rng.random() < s)) for i, s in enumerate(rng.random(40))]
        # test scores below 0.5: the uncalibrated scores predict no failure,
        # so that row's precision is undefined and written as an empty cell
        test = [(0.49 * float(s), int(i % 3 == 0)) for i, s in enumerate(rng.random(30))]
        folds[fold] = {"calibration": cal, "test": test}
    table_path = write_score_table(tmp_path / "scores.csv", folds)
    config = small_config(
        tmp_path, models=("tree", "logistic", "external-scores"), score_table_path=str(table_path)
    )
    run_experiment(config)
    run_dir = Path(config.output_dir)
    folds_digest = hashlib.sha256()
    for path in sorted((run_dir / "folds").iterdir()):
        folds_digest.update(path.name.encode("utf-8") + b"\n" + path.read_bytes())
    digests = {"folds": folds_digest.hexdigest()}
    for name in ("aggregate.csv", "aggregate.json", "table.txt", "splits.json"):
        digests[name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    with (run_dir / "aggregate.csv").open(newline="") as handle:
        none_row = [r for r in csv.DictReader(handle) if r["model"] == "external-scores" and r["calibrator"] == "none"]
    assert none_row[0]["precision"] == ""

    for kind in POST_HOC_CALIBRATORS:
        calibrate_scores(table_path, kind, tmp_path / f"{kind}.csv")
        digests[f"calibrated {kind}"] = hashlib.sha256((tmp_path / f"{kind}.csv").read_bytes()).hexdigest()

    # bins 1 to 3 of 5 hold no prediction, so their mop and foc are NaN
    bins = reliability_bins(np.array([0.05, 0.1, 0.15, 0.9, 0.95]), np.array([0, 0, 1, 1, 1]), m=5)
    write_reliability_csv(tmp_path / "gap.csv", bins)
    assert (tmp_path / "gap.csv").read_text(encoding="utf-8").splitlines()[2] == "0.2,0.4,0,,"
    write_reliability_csv(tmp_path / "none.csv", None)
    for name in ("gap", "none"):
        digests[f"reliability {name}"] = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
    assert digests == GOLDEN_OUTPUT_DIGESTS


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_small_cli_experiment(tmp_path) -> Path:
    """The small `venncal experiment` run of the CLI tests; returns its directory."""
    data = write_small_dataset(tmp_path / "toy.csv")
    run_dir = tmp_path / "cli_run"
    rc = cli_main(
        [
            "experiment",
            "--data", str(data),
            "--models", "tree",
            "--calibrators", "none", "venn-abers",
            "--folds", "2",
            "--repetitions", "1",
            "--seed", "3",
            "--trees", "5",
            "--out", str(run_dir),
            "--quiet",
        ]
    )
    assert rc == 0
    return run_dir


def test_cli_experiment_and_reliability(tmp_path, capsys):
    run_dir = run_small_cli_experiment(tmp_path)
    out = capsys.readouterr().out
    assert "venn-abers" in out
    rc = cli_main(
        [
            "reliability",
            "--run-dir", str(run_dir),
            "--model", "tree",
            "--calibrator", "venn-abers",
            "--scope", "minority",
            "--out", str(tmp_path / "rel.csv"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "rel.csv").exists()
    capsys.readouterr()
    argv = ["reliability", "--run-dir", str(run_dir), "--model", "*", "--calibrator", "none"]
    assert cli_main([*argv, "--out", str(tmp_path / "all.csv")]) == 1
    models = "'tree' or 'forest' or 'logistic' or 'external-scores'"
    assert capsys.readouterr().err == f"error: model must be {models}, got '*'\n"
    assert not (tmp_path / "all.csv").exists()
    # a negative seed is named before any data loads
    argv = ["experiment", "--data", str(tmp_path / "toy.csv"), "--seed", "-1", "--out", str(tmp_path / "neg")]
    assert cli_main([*argv, "--quiet"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1 (--seed)\n"
    assert not (tmp_path / "neg").exists()


def test_cli_reliability_rejects_bins_below_one_before_reading(tmp_path, capsys):
    run_dir = run_small_cli_experiment(tmp_path)
    capsys.readouterr()
    # the flag is named, and a run directory without folds is never read
    for directory in (run_dir, tmp_path / "nowhere"):
        argv = ["reliability", "--run-dir", str(directory), "--model", "tree", "--calibrator", "none"]
        assert cli_main([*argv, "--bins", "0", "--out", str(tmp_path / "bins.csv")]) == 1
        assert capsys.readouterr().err == "error: bins must be >= 1, got 0 (--bins)\n"
    assert not (tmp_path / "bins.csv").exists()


# sha256 of the CSV `venncal reliability` writes for (tree, venn-abers) of
# the small CLI run, recorded while the CLI went through export_reliability
CLI_RELIABILITY_DIGESTS = {
    "all": "5643abf80c1c84aa0f9ef44c4fdb6a9da7c2f8882a00389c67862679c2357756",
    "minority": "517c085c433186adef97d8cfd21d6f629ab0d9b92138c8b2a01e6dc7b8ad82c7",
    "frequency": "b0e08f18cf575b1fd7950e830fc442093f647f5ed7bfb5877033e4ac317b594c",
}


def test_cli_reliability_bytes_match_golden_digests(tmp_path):
    run_dir = run_small_cli_experiment(tmp_path)
    argv = ["reliability", "--run-dir", str(run_dir), "--model", "tree", "--calibrator", "venn-abers"]
    digests = {}
    for name, options in (("all", ["--scope", "all"]), ("minority", ["--scope", "minority"]),
                          ("frequency", ["--bin-mode", "frequency"])):
        out = tmp_path / f"{name}.csv"
        assert cli_main([*argv, *options, "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == CLI_RELIABILITY_DIGESTS


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    data = write_small_dataset(tmp_path / "toy.csv")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "dataset_path": str(data),
                "models": ["tree"],
                "calibrators": ["none"],
                "k": 2,
                "repetitions": 2,
                "n_trees": 5,
            }
        )
    )
    rc = cli_main(["experiment", "--config", str(config_path), "--repetitions", "1", "--quiet"])
    assert rc == 0
    assert "tree" in capsys.readouterr().out


def test_cli_config_file_not_an_object_named_before_data_is_read(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for document, kind in (([["k", 2]], "array"), (3, "number"), (2.5, "number"), ("k", "string"), (True, "boolean"),
                           (None, "null")):
        config_path.write_text(json.dumps(document), encoding="utf-8")
        argv = ["experiment", "--config", str(config_path), "--data", str(tmp_path / "missing.csv"), "--quiet"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: --config {config_path}: expected a JSON object, got a JSON {kind}\n"


def test_cli_config_file_unreadable_named_before_data_is_read(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"k": 2,', encoding="utf-8")
    for path, message in (
        (config_path, "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
        (tmp_path / "missing.json", "no such file"),
    ):
        argv = ["experiment", "--config", str(path), "--data", str(tmp_path / "missing.csv"), "--quiet"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: --config {path}: {message}\n"


def test_cli_synth_data_and_venn_tree(tmp_path, capsys):
    data_path = tmp_path / "ref.csv"
    # a non-reference seed keeps this test fast to regenerate but identical in shape
    rc = cli_main(["synth-data", "--out", str(data_path), "--seed", "5"])
    assert rc == 0
    out_dir = tmp_path / "vt"
    rc = cli_main(
        [
            "venn-tree",
            "--data", str(data_path),
            "--out", str(out_dir),
            "--max-depth", "4",
            "--seed", "1",
        ]
    )
    assert rc == 0
    assert (out_dir / "rules.txt").exists()
    assert (out_dir / "tree.dot").exists()
    assert (out_dir / "leaves.csv").exists()
    dot = (out_dir / "tree.dot").read_text(encoding="utf-8")
    assert dot.startswith("digraph venn_tree")
    rules = (out_dir / "rules.txt").read_text(encoding="utf-8")
    assert "→" in rules
    # the fitted model round-trips through its JSON document
    from venncal.models import DecisionTreeModel

    payload = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
    model = DecisionTreeModel.from_dict(payload)
    assert model.n_features == 6
    # a calibration share outside (0, 1) fails before anything is written
    bad_dir = tmp_path / "vt_bad"
    rc = cli_main(["venn-tree", "--data", str(data_path), "--out", str(bad_dir), "--cal-fraction", "-0.2"])
    assert rc == 1
    assert capsys.readouterr().err == "error: calibration_fraction must be in (0, 1), got -0.2 (--cal-fraction)\n"
    assert not bad_dir.exists()
    # so does a negative seed, which numpy would refuse without naming it
    rc = cli_main(["venn-tree", "--data", str(data_path), "--out", str(bad_dir), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1 (--seed)\n"
    assert not bad_dir.exists()
    rc = cli_main(["synth-data", "--out", str(tmp_path / "synth_bad" / "ref.csv"), "--seed", "-2"])
    assert rc == 1
    assert "seed must be >= 0, got -2" in capsys.readouterr().err
    assert not (tmp_path / "synth_bad").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-depth", "-1", "max_depth must be >= 0, got -1 (--max-depth)"),
        ("--cal-fraction", "0", "calibration_fraction must be in (0, 1), got 0.0 (--cal-fraction)"),
        ("--min-samples-leaf", "0", "tree_min_samples_leaf must be >= 1, got 0 (--min-samples-leaf)"),
    ],
    ids=["--max-depth", "--cal-fraction", "--min-samples-leaf"],
)
def test_cli_venn_tree_bad_flag_named_before_data_is_read(tmp_path, capsys, flag, value, message):
    """The flag is named, not the library's argument, and the dataset (here missing) is never read."""
    out_dir = tmp_path / "vt"
    argv = ["venn-tree", "--data", str(tmp_path / "missing.csv"), "--out", str(out_dir), flag, value]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# (flag, field, value, bound) of each experiment setting the flag sets out of its bound
BAD_EXPERIMENT_SETTINGS = [
    ("--folds", "k", 1, ">= 2"),
    ("--repetitions", "repetitions", 0, ">= 1"),
    ("--cal-fraction", "calibration_fraction", 0.0, "in (0, 1)"),
    ("--seed", "seed", -1, ">= 0"),
    ("--bins", "bins", 0, ">= 1"),
    ("--trees", "n_trees", 0, ">= 1"),
    ("--tree-min-samples-leaf", "tree_min_samples_leaf", 0, ">= 1"),
    ("--jobs", "jobs", 0, ">= 1"),
]


@pytest.mark.parametrize("flag, field, value, rule", BAD_EXPERIMENT_SETTINGS,
                         ids=[case[0] for case in BAD_EXPERIMENT_SETTINGS])
def test_cli_experiment_bad_setting_named_before_data_is_read(tmp_path, capsys, flag, field, value, rule):
    """Typed as the flag or read from --config, the error names the field, value and flag; the data is never read."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({field: value}), encoding="utf-8")
    out_dir = tmp_path / "run"
    argv = ["experiment", "--data", str(tmp_path / "missing.csv"), "--out", str(out_dir), "--quiet"]
    for source in ([flag, str(value)], ["--config", str(config_path)]):
        assert cli_main([*argv, *source]) == 1
        assert capsys.readouterr().err == f"error: {field} must be {rule}, got {value!r} ({flag})\n"
        assert not out_dir.exists()


# every subcommand's option strings, pinned so that a renamed or dropped flag fails
CLI_OPTIONS = {
    "experiment": [
        "-h", "--help", "--config", "--data", "--models", "--calibrators", "--folds", "--repetitions", "--cal-fraction",
        "--seed", "--out", "--bins", "--bin-mode", "--score-table", "--trees", "--tree-min-samples-leaf", "--jobs",
        "--quiet",
    ],
    "calibrate-scores": ["-h", "--help", "--scores", "--calibrator", "--out"],
    "reliability": ["-h", "--help", "--run-dir", "--model", "--calibrator", "--scope", "--bins", "--bin-mode", "--out"],
    "venn-tree": ["-h", "--help", "--data", "--out", "--max-depth", "--cal-fraction", "--min-samples-leaf", "--seed"],
    "synth-data": ["-h", "--help", "--out", "--seed"],
}


def test_cli_flags_match_the_config_declarations():
    (subparsers,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    actions = {command: parser._actions for command, parser in subparsers.choices.items()}
    options = {command: [flag for a in command_actions for flag in a.option_strings]
               for command, command_actions in actions.items()}
    assert options == CLI_OPTIONS
    declared = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    # every config field has exactly one experiment flag, the one its metadata declares
    flags = [(a.dest, a.option_strings) for a in actions["experiment"] if a.dest in declared]
    assert flags == [(name, [f.metadata["flag"]]) for name, f in declared.items()]
    # a flag another subcommand shares with a field has the field's default
    for command, shared in (("reliability", {"bins", "bin_mode"}),
                            ("venn-tree", {"dataset_path", "calibration_fraction", "tree_min_samples_leaf", "seed"})):
        defaults = {a.dest: a.default for a in actions[command] if a.dest in declared}
        assert defaults == {name: declared[name].default for name in shared}


def test_import_venncal_leaves_multiprocessing_unloaded():
    """multiprocessing is imported only where run_experiment starts a pool."""
    src = str(Path(venncal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, venncal; print(sorted(name for name in sys.modules if name.startswith('multiprocessing')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_import_venncal_defers_venn_tree_and_synthetic():
    """Both load on first use of one of their names; every public name is listed and resolves."""
    src = str(Path(venncal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys, venncal\n"
        "lazy = ('venncal.venn_tree', 'venncal.synthetic')\n"
        "print([name for name in lazy if name in sys.modules])\n"
        "print(sorted(set(venncal.__all__) - set(dir(venncal))))\n"
        "print([name for name in venncal.__all__ if getattr(venncal, name, None) is None])\n"
        "print([name for name in lazy if name in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n[]\n[]\n['venncal.venn_tree', 'venncal.synthetic']\n"
    assert venncal.build_venn_tree is venncal.venn_tree.build_venn_tree
    with pytest.raises(AttributeError, match="module 'venncal' has no attribute 'no_such_name'"):
        venncal.no_such_name


def test_cli_calibrate_scores_errors_nonzero(tmp_path, capsys):
    rc = cli_main(
        ["calibrate-scores", "--scores", str(tmp_path / "missing.csv"), "--calibrator", "platt",
         "--out", str(tmp_path / "out.csv")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_calibrate_scores_writes_the_library_bytes(tmp_path, capsys):
    rng = np.random.default_rng(4)
    folds = {
        fold: {part: [(float(s), int(rng.random() < s)) for s in rng.random(20)] for part in ("calibration", "test")}
        for fold in range(2)
    }
    table = write_score_table(tmp_path / "scores.csv", folds)
    for kind in POST_HOC_CALIBRATORS:
        out = tmp_path / "cli" / f"{kind}.csv"
        assert cli_main(["calibrate-scores", "--scores", str(table), "--calibrator", kind, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 40 calibrated rows to {out}\n"
        assert calibrate_scores(table, kind, tmp_path / f"{kind}.csv") == 40
        assert out.read_bytes() == (tmp_path / f"{kind}.csv").read_bytes()

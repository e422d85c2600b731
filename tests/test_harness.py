"""Harness and CLI tests on small synthetic datasets."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from venncal.cli import main as cli_main
from venncal.harness import (
    POST_HOC_CALIBRATORS,
    ExperimentConfig,
    calibrate_scores,
    export_reliability,
    load_fold_predictions,
    run_experiment,
    write_reliability_csv,
)

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
    for model in ("tree", "forest"):
        for cal in ("none", "venn-abers", "platt", "isotonic"):
            row = table.row(model, cal)
            assert row.n_folds == 2
            assert 0.0 <= row.mean_accuracy <= 1.0
    assert table.row("logistic", "none").n_folds == 2
    with pytest.raises(KeyError):
        table.row("logistic", "platt")

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
    a = (tmp_path / "run_a" / "aggregate.json").read_bytes()
    b = (tmp_path / "run_b" / "aggregate.json").read_bytes()
    assert a == b
    for fold_file in sorted((tmp_path / "run_a" / "folds").iterdir()):
        twin = tmp_path / "run_b" / "folds" / fold_file.name
        assert fold_file.read_bytes() == twin.read_bytes()


def test_parallel_run_matches_serial(tmp_path):
    serial = small_config(tmp_path, output_dir=str(tmp_path / "run_serial"), jobs=1)
    parallel = small_config(tmp_path, output_dir=str(tmp_path / "run_par"), jobs=2)
    run_experiment(serial)
    run_experiment(parallel)
    a = (tmp_path / "run_serial" / "aggregate.json").read_bytes()
    b = (tmp_path / "run_par" / "aggregate.json").read_bytes()
    assert a == b


def test_aggregate_matches_fold_artifacts(tmp_path):
    config = small_config(tmp_path)
    table = run_experiment(config)
    folds_dir = Path(config.output_dir) / "folds"
    for row in table.rows:
        reports = []
        for path in sorted(folds_dir.glob(f"rep*_fold*_{row.model}_{row.calibrator}.json")):
            reports.append(json.loads(path.read_text()))
        assert len(reports) == row.n_folds
        assert row.mean_accuracy == pytest.approx(np.mean([r["accuracy"] for r in reports]), abs=1e-12)
        assert row.positive_prediction_total == sum(r["positive_prediction_count"] for r in reports)
        eces = [r["ece"] for r in reports]
        assert row.mean_ece == pytest.approx(np.mean(eces), abs=1e-12)


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
    with pytest.raises(ValueError, match="k"):
        ExperimentConfig(dataset_path="x.csv", k=1)
    with pytest.raises(ValueError, match="model"):
        ExperimentConfig(dataset_path="x.csv", models=("nonsense",))
    with pytest.raises(ValueError, match="models lists 'tree' more than once"):
        ExperimentConfig(dataset_path="x.csv", models=("tree", "forest", "tree"))
    with pytest.raises(ValueError, match="calibrators lists 'venn-abers' more than once"):
        ExperimentConfig(dataset_path="x.csv", calibrators=("none", "venn-abers", "venn-abers"))
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
    with pytest.raises(ValueError, match="jobs must be int, got bool"):
        ExperimentConfig(dataset_path="x.csv", jobs=True)
    with pytest.raises(ValueError, match="calibration_fraction must be float, got str"):
        ExperimentConfig.from_dict({"dataset_path": "x.csv", "calibration_fraction": "0.3"})
    # out-of-range values are rejected before any data is loaded
    for name in ("bins", "n_trees", "tree_min_samples_leaf", "jobs"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            ExperimentConfig(dataset_path="x.csv", **{name: 0})
    for fraction in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError, match=r"calibration_fraction must be in \(0, 1\)"):
            ExperimentConfig(dataset_path="x.csv", calibration_fraction=fraction)


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
    assert table.row("external-scores", "none").n_folds == 2
    assert table.row("external-scores", "venn-abers").n_folds == 2


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


# ---------------------------------------------------------------------------
# reliability export
# ---------------------------------------------------------------------------

def test_export_reliability_scopes(tmp_path):
    p = np.array([0.95, 0.95, 0.3, 0.1])
    y = np.array([1, 0, 0, 0])
    bins_all = export_reliability(p, y, scope="all")
    assert bins_all.n_instances == 4
    bins_minority = export_reliability(p, y, scope="minority")
    assert bins_minority.n_instances == 2
    assert export_reliability(np.array([0.1, 0.2]), np.array([0, 1]), scope="minority") is None


def test_write_reliability_csv_empty_has_header_only(tmp_path):
    path = tmp_path / "bins.csv"
    write_reliability_csv(path, None)
    assert path.read_text().strip() == "bin_low,bin_high,count,mop,foc"


def test_reliability_roundtrip_from_run(tmp_path):
    config = small_config(tmp_path)
    run_experiment(config)
    p, y = load_fold_predictions(config.output_dir, "forest", "venn-abers")
    assert p.size == 320  # both folds pooled
    bins = export_reliability(p, y, scope="all")
    out = tmp_path / "bins.csv"
    write_reliability_csv(out, bins)
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert sum(int(r["count"]) for r in rows) == 320


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_experiment_and_reliability(tmp_path, capsys):
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


def test_cli_calibrate_scores_errors_nonzero(tmp_path, capsys):
    rc = cli_main(
        ["calibrate-scores", "--scores", str(tmp_path / "missing.csv"), "--calibrator", "platt",
         "--out", str(tmp_path / "out.csv")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err

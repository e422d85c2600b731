"""CSV ingestion and cross-validation split tests."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from venncal.data import (
    FEATURE_NAMES,
    Dataset,
    InfeasibleSplitError,
    ParseError,
    SchemaError,
    ValidationError,
    load_csv,
    read_rows,
    repeated_stratified_kfold,
    splits_to_manifest,
    write_columns,
    write_split_manifest,
)
from venncal.models import load_score_table

HEADER = (
    "UDI,Product ID,Type,Air temperature [K],Process temperature [K],"
    "Rotational speed [rpm],Torque [Nm],Tool wear [min],Machine failure,TWF,HDF,PWF,OSF,RNF"
)


def write_csv(tmp_path, rows, header=HEADER, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


ROW_TEMPLATE = "{udi},{pid},{typ},300.1,310.2,1500,40.5,100,{label},0,0,0,0,0"


def make_rows(n, positives=()):
    rows = []
    for i in range(n):
        rows.append(
            ROW_TEMPLATE.format(udi=i + 1, pid=f"L{i}", typ="L", label=1 if i in positives else 0)
        )
    return rows


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_quality_mapping_single_row(tmp_path):
    path = write_csv(tmp_path, ["1,M10,M,300.1,310.2,1500,40.5,100,0,0,0,0,0,0"])
    ds = load_csv(path)
    assert ds.n_instances == 1
    assert ds.features[0, 0] == 1.0  # M maps to 1
    assert ds.feature_names[0] == "quality"


def test_indicator_and_id_columns_dropped(tmp_path):
    path = write_csv(tmp_path, make_rows(4, positives={2}))
    ds = load_csv(path)
    assert ds.features.shape == (4, 6)
    assert "TWF" not in ds.feature_names
    assert "UDI" not in ds.feature_names
    assert ds.feature_names == FEATURE_NAMES
    assert ds.n_positive == 1
    assert ds.labels.tolist() == [0, 0, 1, 0]


def test_row_order_preserved(tmp_path):
    rows = [
        "1,L1,L,300.0,310.0,1500,40.0,10,0,0,0,0,0,0",
        "2,L2,L,301.0,311.0,1501,41.0,11,1,0,1,0,0,0",
    ]
    ds = load_csv(write_csv(tmp_path, rows))
    assert ds.features[0, 1] == 300.0
    assert ds.features[1, 1] == 301.0


def test_missing_column_named(tmp_path):
    header = HEADER.replace("Torque [Nm],", "")
    rows = ["1,L1,L,300.0,310.0,1500,10,0,0,0,0,0,0"]
    with pytest.raises(SchemaError, match="Torque"):
        load_csv(write_csv(tmp_path, rows, header=header))


def test_unknown_column_named(tmp_path):
    header = HEADER + ",Bogus"
    rows = ["1,L1,L,300.0,310.0,1500,40.0,10,0,0,0,0,0,0,7"]
    with pytest.raises(SchemaError, match="Bogus"):
        load_csv(write_csv(tmp_path, rows, header=header))


def test_non_numeric_cell_names_row(tmp_path):
    rows = make_rows(3) + ["4,L4,L,300.1,oops,1500,40.5,100,0,0,0,0,0,0"]
    with pytest.raises(ParseError, match="row 4"):
        load_csv(write_csv(tmp_path, rows))


def test_bad_label_rejected(tmp_path):
    rows = ["1,L1,L,300.1,310.2,1500,40.5,100,2,0,0,0,0,0"]
    with pytest.raises(ValidationError, match="label"):
        load_csv(write_csv(tmp_path, rows))


def test_bad_quality_rejected(tmp_path):
    rows = ["1,X1,X,300.1,310.2,1500,40.5,100,0,0,0,0,0,0"]
    with pytest.raises(ValidationError, match="quality"):
        load_csv(write_csv(tmp_path, rows))


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_short_row_names_file_and_row(tmp_path):
    path = write_csv(tmp_path, make_rows(2) + ["3,L3,L,300.1,310.2,1500"])
    with pytest.raises(ParseError, match=re.escape(f"{path}: row 3: expected 14 fields, got 6")):
        load_csv(path)
    table = tmp_path / "scores.csv"
    table.write_text("instance_id,fold_id,partition,score,label\n1,0,test,0.5,1\n\n2,0,test\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{table}: row 3: expected 5 fields, got 3")):
        load_score_table(table)


def test_repeated_column_named(tmp_path):
    header = HEADER + ",Torque [Nm]"
    rows = [row + ",40.5" for row in make_rows(2)]
    with pytest.raises(SchemaError, match=re.escape("column 'Torque [Nm]' appears more than once")):
        load_csv(write_csv(tmp_path, rows, header=header))


def test_empty_file_and_header_only_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    header_only = tmp_path / "scores.csv"
    header_only.write_text("instance_id,fold_id,partition,score,label\n\n", encoding="utf-8")
    for load in (load_csv, load_score_table):
        with pytest.raises(SchemaError, match="empty file"):
            load(empty)
    with pytest.raises(ValidationError, match="no data rows"):
        load_csv(write_csv(tmp_path, []))
    with pytest.raises(ValidationError, match="no data rows"):
        load_score_table(header_only)


def test_read_rows_skips_blank_rows_and_numbers_the_rest(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b\n1,2\n\n 3 ,4\n", encoding="utf-8")
    rows = list(read_rows(path))
    assert rows == [["a", "b"], (1, ["1", "2"]), (3, [" 3 ", "4"])]
    with pytest.raises(FileNotFoundError, match="table not found"):
        next(read_rows(tmp_path / "nope.csv", "table"))


def test_write_columns_formats_cells(tmp_path):
    path = tmp_path / "out.csv"
    write_columns(
        path,
        ("id", "x", "y", "name"),
        (np.array([1, 2]), np.array([0.1, np.nan]), [None, 1 / 3], ["a", "b"]),
    )
    assert path.read_bytes() == b"id,x,y,name\r\n1,0.1,,a\r\n2,,0.3333333333333333,b\r\n"
    with pytest.raises(ValueError, match="differ in length"):
        write_columns(path, ("a", "b"), ([1, 2], [3]))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def toy_dataset(n=120, n_pos=24):
    rng = np.random.default_rng(0)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=n_pos, replace=False)] = 1
    return Dataset(
        features=rng.random((n, 6)),
        labels=labels,
        feature_names=FEATURE_NAMES,
    )


def test_split_counts_and_shapes():
    ds = toy_dataset()
    splits = repeated_stratified_kfold(ds, k=4, repetitions=3, calibration_fraction=1 / 3, seed=7)
    assert len(splits) == 12
    for s in splits:
        assert s.test_ids.size == 30
        union = np.concatenate([s.proper_train_ids, s.calibration_ids, s.test_ids])
        assert np.array_equal(np.sort(union), np.arange(120))
        assert len(set(union.tolist())) == 120


def test_each_instance_tested_once_per_repetition():
    ds = toy_dataset()
    splits = repeated_stratified_kfold(ds, k=4, repetitions=2, seed=1)
    for rep in (0, 1):
        tested = np.concatenate([s.test_ids for s in splits if s.repetition_index == rep])
        assert np.array_equal(np.sort(tested), np.arange(120))


def test_stratification_within_one_instance():
    ds = toy_dataset(n=121, n_pos=23)
    splits = repeated_stratified_kfold(ds, k=4, repetitions=2, seed=3)
    expected = 23 / 4
    for s in splits:
        got = int(ds.labels[s.test_ids].sum())
        assert abs(got - expected) < 1.0


def test_balanced_four_instance_dataset():
    ds = Dataset(
        features=np.arange(24, dtype=float).reshape(4, 6),
        labels=np.array([0, 1, 0, 1]),
        feature_names=FEATURE_NAMES,
    )
    splits = repeated_stratified_kfold(ds, k=2, repetitions=1, calibration_fraction=0.5, seed=0)
    for s in splits:
        assert int(ds.labels[s.test_ids].sum()) == 1
        assert s.test_ids.size == 2


def test_same_seed_identical_splits():
    ds = toy_dataset()
    a = repeated_stratified_kfold(ds, k=5, repetitions=2, seed=42)
    b = repeated_stratified_kfold(ds, k=5, repetitions=2, seed=42)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.proper_train_ids, sb.proper_train_ids)
        assert np.array_equal(sa.calibration_ids, sb.calibration_ids)
        assert np.array_equal(sa.test_ids, sb.test_ids)
    c = repeated_stratified_kfold(ds, k=5, repetitions=2, seed=43)
    assert any(
        not np.array_equal(sa.test_ids, sc.test_ids) for sa, sc in zip(a, c)
    )


def test_calibration_fraction_respected():
    ds = toy_dataset(n=400, n_pos=80)
    splits = repeated_stratified_kfold(ds, k=4, repetitions=1, calibration_fraction=1 / 3, seed=5)
    for s in splits:
        train_total = s.proper_train_ids.size + s.calibration_ids.size
        assert s.calibration_ids.size == pytest.approx(train_total / 3, abs=1.5)
        # stratified: calibration positive share close to global share
        cal_pos = ds.labels[s.calibration_ids].mean()
        assert cal_pos == pytest.approx(0.2, abs=0.02)


def test_too_few_class_members_rejected():
    ds = toy_dataset(n=50, n_pos=3)
    with pytest.raises(InfeasibleSplitError):
        repeated_stratified_kfold(ds, k=4, repetitions=1, seed=0)


def test_invalid_parameters_rejected():
    ds = toy_dataset()
    with pytest.raises(InfeasibleSplitError):
        repeated_stratified_kfold(ds, k=1, repetitions=1)
    with pytest.raises(InfeasibleSplitError):
        repeated_stratified_kfold(ds, k=2, repetitions=0)
    with pytest.raises(InfeasibleSplitError):
        repeated_stratified_kfold(ds, k=2, repetitions=1, calibration_fraction=1.5)


def test_manifest_roundtrip():
    ds = toy_dataset()
    splits = repeated_stratified_kfold(ds, k=3, repetitions=1, seed=9)
    manifest = splits_to_manifest(splits)
    assert manifest["seed"] == 9
    assert len(manifest["folds"]) == 3
    fold = manifest["folds"][0]
    assert sorted(fold) == ["calibration_ids", "fold", "proper_train_ids", "repetition", "test_ids"]


def test_split_manifest_file_matches_manifest(tmp_path):
    path = tmp_path / "splits.json"
    ds = toy_dataset()
    for splits in ([], repeated_stratified_kfold(ds, k=3, repetitions=2, seed=9)):
        write_split_manifest(path, splits)
        assert path.read_text(encoding="utf-8") == json.dumps(splits_to_manifest(splits), sort_keys=True)

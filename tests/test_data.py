"""CSV ingestion and cross-validation split tests."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import re
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venncal.data import (
    FEATURE_NAMES,
    LABEL_CODES,
    WRITE_BLOCK_ROWS,
    Dataset,
    InfeasibleSplitError,
    ParseError,
    SchemaError,
    ValidationError,
    load_csv,
    parse_columns,
    read_input,
    repeated_stratified_kfold,
    stratified_holdout,
    write_columns,
    write_split_manifest,
)
from venncal.calibration import VennAbersCalibrator, apply_platt, fit_platt, isotonic_calibrate, pava
from venncal.harness import load_fold_predictions, read_fold_predictions
from venncal.metrics import auc, classification_metrics, evaluate, minority_bins, reliability_bins
from venncal.models import DecisionTreeModel, RandomForestModel, fit_forest, fit_logistic, fit_tree, load_score_table
from venncal.models.score_table import _PARTITIONS as PARTITIONS
from venncal.synthetic import generate_reference_rows, write_reference_csv
from venncal.venn_tree import build_venn_tree

from support import HEADER, opens_under, write_small_dataset


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


def test_loaded_dataset_names_the_bytes_it_was_parsed_from(tmp_path):
    path = write_csv(tmp_path, ["1,M10,M,300.1,310.2,1500,40.5,100,0,0,0,0,0,0"])
    ds = load_csv(path)
    assert ds.source_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert Dataset(ds.features, ds.labels, ds.feature_names).source_sha256 is None  # no bytes behind it


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
    # Python's float() would read underscores between digits and non-ASCII digits
    for cell in ("oops", "1_0", "0.2_5", "\u0663"):
        rows = make_rows(3) + [f"4,L4,L,300.1,{cell},1500,40.5,100,0,0,0,0,0,0"]
        path = write_csv(tmp_path, rows)
        message = f"{path}: row 4: non-numeric value {cell!r} in column 'Process temperature [K]'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_csv(path)


def test_non_finite_cell_names_file_row_and_column(tmp_path):
    for cell, value in (("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf")):  # the parsed value is shown
        rows = make_rows(3) + [f"4,L4,L,300.1,310.2,1500,{cell},100,0,0,0,0,0,0"]
        path = write_csv(tmp_path, rows)
        message = f"{path}: row 4: non-finite value {value!r} in column 'Torque [Nm]'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_csv(path)


def test_bad_label_rejected(tmp_path):
    for label in ("2", "10"):
        rows = [f"1,L1,L,300.1,310.2,1500,40.5,100,{label},0,0,0,0,0"]
        path = write_csv(tmp_path, rows)
        message = f"{path}: row 1: 'Machine failure' must be one of ['0', '1'], got {label!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_csv(path)


def test_bad_quality_rejected(tmp_path):
    for quality in ("X", "LL"):
        rows = [f"1,X1,{quality},300.1,310.2,1500,40.5,100,0,0,0,0,0,0"]
        path = write_csv(tmp_path, rows)
        message = f"{path}: row 1: 'Type' must be one of ['L', 'M', 'H'], got {quality!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_csv(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_short_row_names_file_and_row(tmp_path):
    path = write_csv(tmp_path, make_rows(2) + ["3,L3,L,300.1,310.2,1500"])
    with pytest.raises(ParseError, match=re.escape(f"{path}: row 3: expected 14 fields, got 6")):
        load_csv(path)
    path = write_csv(tmp_path, make_rows(2) + [make_rows(3)[2] + ",0"])  # the dataset reader keeps 8 of 14 columns
    with pytest.raises(ParseError, match=re.escape(f"{path}: row 3: expected 14 fields, got 15")):
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


def test_loaders_skip_blank_rows_and_number_the_rest(tmp_path):
    """Data rows count from 1 after the header; blank lines are skipped but counted, and header names stripped."""
    table = tmp_path / "scores.csv"
    table.write_text(" instance_id , fold_id,partition,score,label\n1,0,test,0.5,1\n\n\n 3 ,0,test,x,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{table}: row 4: non-numeric value 'x' in column 'score'")):
        load_score_table(table)
    path = write_csv(tmp_path, make_rows(1) + ["", "", "2,L2,L,300.1,310.2,1500,40.5,oops,0,0,0,0,0,0"])
    with pytest.raises(ParseError, match=re.escape(f"{path}: row 4: non-numeric value 'oops' in column 'Tool wear [min]'")):
        load_csv(path)
    with pytest.raises(FileNotFoundError, match="score table not found"):
        load_score_table(tmp_path / "nope.csv")
    with pytest.raises(FileNotFoundError, match="dataset not found"):
        load_csv(tmp_path / "nope.csv")


def test_nul_character_rejected_with_file_and_row(tmp_path):
    """numpy's string fields drop trailing NULs, so '1\\x00' must not load as the label 1."""
    table = tmp_path / "scores.csv"
    header = "instance_id,fold_id,partition,score,label\n"
    table.write_text(header + "1,0,calibration,0.5,1\x00\n2,0,test\x00,0.5,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{table}: row 1: NUL character in the row")):
        load_score_table(table)
    table.write_text(header + "1,0,calibration,0.5,1\n\n2,0,test,0.5\x00,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{table}: row 3: NUL character in the row")):
        load_score_table(table)
    table.write_text(header + "1,0,calibration,0.5,1\n\x00\n2,0,test,0.5,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{table}: row 2: NUL character in the row")):
        load_score_table(table)
    table.write_text(header + "1,0,calibration,0.5,x\n2,0,test\x00,0.5,0\n", encoding="utf-8")  # the first fault wins
    with pytest.raises(ValidationError, match=re.escape(f"{table}: row 1: 'label' must be one of")):
        load_score_table(table)
    table.write_text(header.replace("label", "label\x00") + "1,0,test,0.5,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{table}: NUL character in the header")):
        load_score_table(table)
    path = write_csv(tmp_path, make_rows(2) + ["3,L3\x00,L,300.1,310.2,1500,40.5,100,0,0,0,0,0,0"])  # a dropped column
    with pytest.raises(ParseError, match=re.escape(f"{path}: row 3: NUL character in the row")):
        load_csv(path)


@pytest.mark.parametrize("character", "\x1c\x1d\x1e\x1f")
def test_information_separator_in_numeric_cell_names_file_row_and_column(tmp_path, character):
    """np.loadtxt strips \\x1c-\\x1f from a number as whitespace; float() and int() reject them, and so does the reader."""
    table = tmp_path / "scores.csv"
    header = "instance_id,fold_id,partition,score,label\n"
    for rows, row, cell, column in (
        ("1,0,calibration,0.5,1\n2,0,test,0.2{},0\n", 2, "0.2{}", "score"),
        ("1,0,calibration,0.5,1\n\n{}3,0,test,0.2,0\n", 3, "{}3", "instance_id"),
    ):
        table.write_text(header + rows.format(character), encoding="utf-8")
        message = f"{table}: row {row}: non-numeric value {cell.format(character)!r} in column {column!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_score_table(table)
    path = write_csv(tmp_path, make_rows(3) + [f"4,L4,L,300.1,310.2{character},1500,40.5,100,0,0,0,0,0,0"])
    message = f"{path}: row 4: non-numeric value {'310.2' + character!r} in column 'Process temperature [K]'"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_csv(path)
    # the dropped Product ID column is not a number, and its cell is not checked
    path = write_csv(tmp_path, make_rows(3) + [f"4,L4{character},L,300.1,310.2,1500,40.5,100,0,0,0,0,0,0"])
    assert load_csv(path).features.shape == (4, 6)


@pytest.mark.parametrize("character", "\x1c\x1d\x1e\x1f\xa0")
def test_header_names_lose_ascii_whitespace_only(tmp_path, character):
    """str.strip() would also strip information separators and Unicode spaces from a name, and the column would load."""
    escaped = f"\\x{ord(character):02x}"  # how the expected-header error shows the character
    table = tmp_path / "scores.csv"
    table.write_text(f"instance_id,fold_id,partition,score{character},label\n1,0,test,0.5,1\n", encoding="utf-8")
    message = (f"{table}: expected header instance_id,fold_id,partition,score,label, got "
               f"instance_id,fold_id,partition,score{escaped},label")
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_score_table(table)
    folds = tmp_path / "run" / "folds"
    folds.mkdir(parents=True)
    predictions = folds / "rep0_fold0_tree_none.csv"
    predictions.write_text(f"instance_id,label,score,p0,p1,point{character}\n1,1,0.5,0.5,0.5,0.5\n", encoding="utf-8")
    message = (f"{predictions}: expected header instance_id,label,score,p0,p1,point, got "
               f"instance_id,label,score,p0,p1,point{escaped}")
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_fold_predictions(tmp_path / "run", "tree", "none")
    path = write_csv(tmp_path, make_rows(2), header=HEADER.replace("Torque [Nm]", "Torque [Nm]" + character))
    message = f"{path}: expected header {HEADER}, got {HEADER.replace('Torque [Nm]', 'Torque [Nm]' + escaped)}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load_csv(path)
    # ASCII whitespace around a name is still stripped
    table.write_text(" instance_id,fold_id\t,partition,score ,label\n1,0,test,0.5,1\n", encoding="utf-8")
    assert load_score_table(table).n_rows == 1


def test_write_columns_formats_cells(tmp_path):
    path = tmp_path / "out.csv"
    write_columns(
        ("id", "x", "y", "name"),
        {path: (np.array([1, 2]), np.array([0.1, np.nan]), [None, 1 / 3], ["a", "b"])},
    )
    assert path.read_bytes() == b"id,x,y,name\r\n1,0.1,,a\r\n2,,0.3333333333333333,b\r\n"
    with pytest.raises(ValueError, match="differ in length"):
        write_columns(("a", "b"), {path: ([1, 2], [3])})


def test_write_columns_length_mismatch_across_tables_names_a_path_before_opening_any(tmp_path):
    """Tables of different row counts, or a table whose columns differ, fail naming the path at fault,
    and no file is opened: an existing one keeps its bytes and a new one is not created."""
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_bytes(b"earlier bytes\r\n")
    one, two = np.array([0.5]), np.array([0.5, 1.5])
    for tables in ({kept: (two, two), new: (one, one)}, {kept: (one, one), new: (one, [1, 2])}):
        with pytest.raises(ValueError, match=f"^{re.escape(str(new))}: columns differ in length$"):
            write_columns(("x", "y"), tables)
        assert kept.read_bytes() == b"earlier bytes\r\n"
        assert not new.exists()


def _csv_writer_columns(path, header, columns):
    """write_columns of one table as it was written on csv.writer: the byte oracle of the property test below."""
    cells = []
    for column in columns:
        values = column.tolist() if isinstance(column, np.ndarray) else column
        cells.append(["" if v is None or v != v else v for v in values])  # NaN != NaN
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"{path}: columns differ in length")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _float64_bits(value) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


ODD_FLOATS = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1e16, 1e-5, 1 / 3])
FLOATS = st.one_of(ODD_FLOATS, st.floats(), st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307))
# quiet and signalling NaNs of either sign with payloads: each is its own bit pattern, and each an empty cell
NAN_BITS = st.sampled_from([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF])
FLOAT64_BITS = st.one_of(FLOATS.map(_float64_bits), NAN_BITS)
TEXT = st.text(st.sampled_from('ab ,"\n\r\t.-'), max_size=4)
CELLS = st.one_of(st.none(), TEXT, st.integers(-(2**70), 2**70), FLOATS, st.booleans())


@st.composite
def column_tables(draw):
    """A header and one to three tables of equal-length columns for write_columns.

    Columns are numpy float64 (NaNs with payloads among them), float32,
    int64 and bool arrays, and lists of mixed cells.  A column may be a
    column object already passed, in this table or an earlier one, or a copy
    of one (content-equal, another object).  Each column is a pool of up to
    12 drawn values repeated to the row count, which is at most 12 or spans
    three write blocks.
    """
    n = draw(st.one_of(st.integers(0, 12), st.just(2 * WRITE_BLOCK_ROWS + 5)))

    def drawn(values, dtype=None):
        pool = draw(st.lists(values, min_size=1, max_size=12))
        return list(itertools.islice(itertools.cycle(pool), n)) if dtype is None else np.resize(np.array(pool, dtype=dtype), n)

    kinds = {
        "float64": lambda: drawn(FLOAT64_BITS, np.uint64).view(np.float64),
        "float32": lambda: drawn(st.floats(width=32), np.float32),
        "int64": lambda: drawn(st.integers(-(2**63), 2**63 - 1), np.int64),
        "bool": lambda: drawn(st.booleans(), bool),
        "cells": lambda: drawn(CELLS),
    }
    width = draw(st.integers(1, 5))
    tables, passed = [], []
    for _ in range(draw(st.integers(1, 3))):
        columns = []
        for _ in range(width):
            reuse = passed and draw(st.sampled_from(["new", "same", "copy"]))
            if reuse == "same":
                column = draw(st.sampled_from(passed))
            elif reuse == "copy":
                column = draw(st.sampled_from(passed))
                column = column.copy() if isinstance(column, np.ndarray) else list(column)
            else:
                column = kinds[draw(st.sampled_from(sorted(kinds)))]()
            columns.append(column)
            passed.append(column)
        tables.append(columns)
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    return header, tables


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(column_tables())
def test_write_columns_property_matches_csv_writer(drawn):
    """Tables written in one call: each file holds the bytes csv.writer writes for that table alone."""
    header, tables = drawn
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"got{i}.csv" for i in range(len(tables))]
        write_columns(header, dict(zip(paths, tables)))
        want = Path(tmp) / "want.csv"
        for path, columns in zip(paths, tables):
            _csv_writer_columns(want, header, columns)
            assert path.read_bytes() == want.read_bytes()


def test_write_columns_one_column_and_shared_columns(tmp_path):
    """A one-column row with an empty cell is quoted; a column passed several times is written each time,
    within a write block and across blocks, and in every table that passes it."""
    path = tmp_path / "out.csv"
    write_columns([""], {path: [[None, "", 1.5, math.nan]]})
    assert path.read_bytes() == b'""\r\n""\r\n""\r\n1.5\r\n""\r\n'
    shared = np.array([-0.0, 0.0, math.nan, 5e-324, 1e16])
    write_columns(("a", "b,c", 'd"'), {path: (shared, shared, shared.copy())})
    rows = ["-0.0", "0.0", "", "5e-324", "1e+16"]
    assert path.read_bytes() == "".join(['a,"b,c","d"""\r\n'] + [f"{r},{r},{r}\r\n" for r in rows]).encode()
    many = np.repeat([0.5, -0.0, math.nan], 1000)  # rows of more than two write blocks
    header = ("i", "x", "y", "z", "t")
    tables = {
        tmp_path / "first.csv": (np.arange(many.size), many, many, many.astype(np.float32), ["a,b", None, 7] * 1000),
        tmp_path / "second.csv": (np.arange(many.size), -many, many, many.copy(), [0.25] * many.size),
    }
    write_columns(header, tables)
    for path, columns in tables.items():
        _csv_writer_columns(tmp_path / "want.csv", header, columns)
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("row", [0, 2, 300])
def test_bytes_that_are_not_utf8_in_a_dataset_name_file_and_row(tmp_path, row):
    """A byte that is not UTF-8 fails naming the file and its row, also past the text decoder's 8 KB read-ahead
    and in a column that is dropped (RNF)."""
    path = tmp_path / "latin.csv"
    lines = [line.encode() for line in [HEADER, *make_rows(400)]]
    assert len(b"\n".join(lines[:300])) > 8192
    lines[row] += b"\xe9"
    path.write_bytes(b"\n".join(lines) + b"\n")
    error, message = (ParseError, f"{path}: row {row}: bytes that are not UTF-8") if row else (
        SchemaError, f"{path}: bytes that are not UTF-8 in the header")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        load_csv(path)


@pytest.mark.parametrize("kind", ["score table", "fold predictions"])
def test_bytes_that_are_not_utf8_in_a_score_table_or_fold_file_name_file_and_row(tmp_path, kind):
    if kind == "score table":
        path = tmp_path / "scores.csv"
        path.write_bytes(b"instance_id,fold_id,partition,score,label\n1,0,test,0.5,1\n\n2,0,t\xe9st,0.5,0\n")
        load, row = (lambda: load_score_table(path)), 3
    else:
        path = tmp_path / "run" / "folds" / "rep0_fold0_tree_none.csv"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"instance_id,label,score,p0,p1,point\n1,1,0.5,0.5,0.5,0.5\n2,0,0.5,0.5,0.5,0.\xe95\n")
        load, row = (lambda: load_fold_predictions(tmp_path / "run", "tree", "none")), 2
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: row {row}: bytes that are not UTF-8')}$"):
        load()


# every finite float64 class: signed zeros, the subnormal and normal extremes
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max)
FINITE_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
INT64S = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0]), st.integers(-(2**63), 2**63 - 1))
TOKEN_MAPS = (LABEL_CODES, PARTITIONS)


@st.composite
def typed_tables(draw):
    """Columns as write_columns takes them and the parsers and arrays parse_columns should return for them."""
    n = draw(st.integers(1, 12))
    columns, parsers, expected = [], {}, {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["float", "int", "token"]), min_size=1, max_size=5))):
        name = f"c{i}"
        if kind == "token":
            tokens = draw(st.sampled_from(TOKEN_MAPS))
            column = draw(st.lists(st.sampled_from(sorted(tokens)), min_size=n, max_size=n))
            parsers[name], expected[name] = tokens, np.array([tokens[cell] for cell in column])
        else:
            dtype, cells = (np.float64, FINITE_FLOATS) if kind == "float" else (np.int64, INT64S)
            column = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype)
            parsers[name], expected[name] = dtype, column
        columns.append(column)
    return list(parsers), columns, parsers, expected


def test_every_csv_reader_opens_its_file_once(tmp_path):
    """The header check, the np.loadtxt call and the NUL and separator scan parse one read of the file."""
    dataset = write_small_dataset(tmp_path / "toy.csv", n=40)
    table = tmp_path / "scores.csv"
    table.write_text("instance_id,fold_id,partition,score,label\n1,0,calibration,0.25,0\n2,0,test,0.5,1\n",
                     encoding="utf-8")
    folds = tmp_path / "run" / "folds"
    folds.mkdir(parents=True)
    fold_files = [folds / f"rep0_fold{fold}_tree_none.csv" for fold in range(2)]
    write_columns(("instance_id", "label", "score", "p0", "p1", "point"),
                  {path: ([1, 2], [0, 1], [0.2, 0.7], [0.2, 0.7], [0.2, 0.7], [0.2, 0.7]) for path in fold_files})
    for read, paths in (
        (lambda: load_csv(dataset), [dataset]),
        (lambda: load_score_table(table), [table]),
        (lambda: read_fold_predictions(tmp_path / "run", "tree", "none"), fold_files),
    ):
        with opens_under(tmp_path) as opened:
            read()
        assert opened == [str(path) for path in paths]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(typed_tables())
def test_parse_columns_reads_back_what_write_columns_writes(table):
    """float64 (by repr), int64 and token columns come back bit for bit, -0.0, subnormals and both extremes included."""
    header, columns, parsers, expected = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_columns(header, {path: columns})
        parsed = parse_columns(path, read_input(path, "table"), header, parsers)
    assert parsed.keys() == expected.keys()
    for name, want in expected.items():
        assert parsed[name].dtype == want.dtype and parsed[name].tobytes() == want.tobytes(), name


def _arrays_digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# cells that parse, but not from their shortest spelling: padding, signs,
# exponents, extreme magnitudes and more digits than a float64 holds
ODD_SCORES = (" 0.5 ", "5e-1", "+.25", "1", "0", "-0.0", "1E-300", "5e-324", "0.1000000000000000055511151231257827")
ODD_IDS = ("007", "+12", " 3 ")


def _odd_score_table(path):
    """A seeded 10-fold score table of about 16 000 rows, with ODD_SCORES and ODD_IDS cells."""
    rng = np.random.default_rng(13)
    labels = (rng.random(4000) < 0.034).astype(int)
    lines = ["instance_id,fold_id,partition,score,label"]
    for fold in range(10):
        for j in np.flatnonzero((np.arange(4000) % 10 == fold) | (rng.random(4000) < 1 / 3)).tolist():
            partition = "test" if j % 10 == fold else "calibration"
            score = repr(float(rng.random()))
            lines.append(f"{j},{fold},{partition},{score},{labels[j]}")
    for i, cell in enumerate(ODD_SCORES):
        lines.append(f"{5000 + i},{i % 10}, test ,{cell}, 1 ")
    for i, cell in enumerate(ODD_IDS):
        lines.append(f"{cell},-{i + 1},calibration,0.5,0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# sha256 over dtype, shape and bytes of the arrays each CSV loader returns,
# recorded from the per-row parse loops
GOLDEN_PARSED_DIGESTS = {
    "reference csv": "fe99e7d33b13eaa1efbe53f541b699a1d909c0efe7fa903dffaab444067e000a",
    "score table": "6b06e36e60dbc3c9fdf59fccfcdd281da2fb2513526112723d78cea2cccd1601",
    "fold predictions": "10bad56f2e3ce884559afac247783c539497df6cc715ec6e34d13fef3e3f1146",
}


def test_parsed_arrays_match_golden_digests(tmp_path):
    dataset = load_csv(write_reference_csv(tmp_path / "reference.csv"))
    assert dataset.features.flags.c_contiguous
    table = load_score_table(_odd_score_table(tmp_path / "scores.csv"))
    assert table.n_rows > 16_000
    folds = tmp_path / "run" / "folds"
    folds.mkdir(parents=True)
    for fold, points in enumerate((ODD_SCORES, ("0.25", "1.0", "0.75"))):
        rows = [f"{i}, {i % 2} ,0.5,0.25,0.75,{point}" for i, point in enumerate(points)]
        (folds / f"rep0_fold{fold}_tree_none.csv").write_text(
            "\n".join(["instance_id,label,score,p0,p1,point", *rows]) + "\n", encoding="utf-8"
        )
    digests = {
        "reference csv": _arrays_digest(dataset.features, dataset.labels),
        "score table": _arrays_digest(table.instance_id, table.fold_id, table.is_test, table.score, table.label),
        "fold predictions": _arrays_digest(*load_fold_predictions(tmp_path / "run", "tree", "none")),
    }
    assert digests == GOLDEN_PARSED_DIGESTS


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
    with pytest.raises(InfeasibleSplitError, match=r"^k must be >= 2, got 1$"):
        repeated_stratified_kfold(ds, k=1, repetitions=1)
    with pytest.raises(InfeasibleSplitError, match=r"^repetitions must be >= 1, got 0$"):
        repeated_stratified_kfold(ds, k=2, repetitions=0)
    with pytest.raises(InfeasibleSplitError, match=r"^calibration_fraction must be in \(0, 1\), got 1.5$"):
        repeated_stratified_kfold(ds, k=2, repetitions=1, calibration_fraction=1.5)
    for setting in ("k", "repetitions", "calibration_fraction"):  # nan fails every bound, as a split error
        with pytest.raises(InfeasibleSplitError, match=f"^{setting} must be .*, got nan$"):
            repeated_stratified_kfold(ds, **{setting: np.nan})
    # round(fraction * class size) of a negative share would hold out all but a few rows
    for fraction in (-0.2, 0.0, 1.0, 1.5):
        message = f"calibration_fraction must be in (0, 1), got {fraction}"
        with pytest.raises(InfeasibleSplitError, match=f"^{re.escape(message)}$"):
            stratified_holdout(ds.labels, fraction, np.random.default_rng(0))


def test_manifest_roundtrip(tmp_path):
    ds = toy_dataset()
    splits = repeated_stratified_kfold(ds, k=3, repetitions=1, seed=9)
    path = tmp_path / "splits.json"
    write_split_manifest(path, 9, splits)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(manifest) == ["folds", "seed"]
    assert manifest["seed"] == 9
    assert len(manifest["folds"]) == 3
    for fold, split in zip(manifest["folds"], splits):
        assert sorted(fold) == ["calibration_ids", "fold", "proper_train_ids", "repetition", "test_ids"]
        assert (fold["repetition"], fold["fold"]) == (split.repetition_index, split.fold_index)
        for name in ("proper_train_ids", "calibration_ids", "test_ids"):
            assert np.array_equal(fold[name], getattr(split, name))


def test_split_manifest_file_matches_manifest(tmp_path):
    path = tmp_path / "splits.json"
    ds = toy_dataset()
    for splits in ([], repeated_stratified_kfold(ds, k=3, repetitions=2, seed=9)):
        write_split_manifest(path, 9, splits)
        expected = {
            "seed": 9,
            "folds": [
                {
                    "repetition": s.repetition_index,
                    "fold": s.fold_index,
                    "proper_train_ids": s.proper_train_ids.tolist(),
                    "calibration_ids": s.calibration_ids.tolist(),
                    "test_ids": s.test_ids.tolist(),
                }
                for s in splits
            ],
        }
        assert path.read_text(encoding="utf-8") == json.dumps(expected, sort_keys=True)


# ---------------------------------------------------------------------------
# input rules at every entry point
# ---------------------------------------------------------------------------

_X = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.2, 0.9]]
_Y = [0, 1, 1, 0]


def _venn_abers():
    return VennAbersCalibrator([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1])


def _tree_document(**changes):
    """A 3-node model.json document, a split on feature 0 of 2 and two leaves, with changes applied."""
    document = {
        "kind": "decision_tree", "n_features": 2, "min_samples_leaf": 1, "seed": 0,
        "feature_index": [0, -1, -1], "threshold": [0.5, None, None],
        "left_child": [1, -1, -1], "right_child": [2, -1, -1], "n_samples": [4, 2, 2], "n_positive": [2, 0, 2],
    }
    return {**document, **changes}


def _bad_inputs():
    """(id, call, args, message): call(*args) raises ValueError(message)."""
    rows = []
    for fit in (pava, fit_platt, VennAbersCalibrator):
        rows += [
            (f"{fit.__name__} nan", fit, ([0.1, np.nan], [0, 1]), "scores must be finite, got nan at index 1"),
            (f"{fit.__name__} inf", fit, ([0.1, np.inf], [0, 1]), "scores must be finite, got inf at index 1"),
            (f"{fit.__name__} label 2", fit, ([0.1, 0.2], [0, 2]), "labels must be 0 or 1, got 2.0 at index 1"),
            (f"{fit.__name__} a label too many", fit, ([0.1], [0, 1]),
             "labels must be one per score: expected shape (1,), got (2,)"),
            (f"{fit.__name__} empty", fit, ([], []), "scores must be a non-empty 1-d array, got shape (0,)"),
        ]
    test_scores = {
        "intervals": lambda s: _venn_abers().intervals(s),
        "isotonic_calibrate": lambda s: isotonic_calibrate(pava([0.1, 0.9], [0, 1]), s),
        "apply_platt": lambda s: apply_platt(fit_platt([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1]), s),
    }
    for name, call in test_scores.items():
        rows += [
            (f"{name} nan", call, ([0.5, np.nan],), "test scores must be finite, got nan at index 1"),
            (f"{name} inf", call, (np.array([[0.5], [-np.inf]]),),
             "test scores must be finite, got -inf at index (1, 0)"),
            (f"{name} scalar inf", call, (np.inf,), "test scores must be finite, got inf"),
        ]
    rows += [
        (f"interval_naive {s}", lambda s: _venn_abers().interval_naive(s), (s,), f"test score must be finite, got {s}")
        for s in (np.nan, np.inf)
    ]
    for metric in (classification_metrics, auc, reliability_bins, minority_bins, evaluate):
        name = metric.__name__
        rows += [
            (f"{name} nan", metric, ([0.5, np.nan], [0, 1]), "probabilities must be finite, got nan at index 1"),
            (f"{name} inf", metric, ([0.5, np.inf], [0, 1]), "probabilities must be finite, got inf at index 1"),
            (f"{name} label 2", metric, ([0.5, 0.7], [0, 2]), "labels must be 0 or 1, got 2.0 at index 1"),
            (f"{name} a label too many", metric, ([0.5], [0, 1]),
             "labels must be one per probability: expected shape (1,), got (2,)"),
            (f"{name} empty", metric, ([], []), "probabilities must be a non-empty 1-d array, got shape (0,)"),
        ]
        if metric not in (classification_metrics, auc):
            rows += [
                (f"{name} m 0", metric, ([0.5], [1], 0), "m must be >= 1, got 0"),
                (f"{name} m nan", metric, ([0.5], [1], np.nan), "m must be >= 1, got nan"),
            ]
    for fit in (fit_tree, fit_forest, fit_logistic):
        name = fit.__name__
        rows += [
            (f"{name} nan", fit, ([[0.0, 1.0], [np.nan, 0.0]], [0, 1]),
             "features must be finite, got nan at index (1, 0)"),
            (f"{name} inf", fit, ([[0.0, np.inf], [1.0, 0.0]], [0, 1]),
             "features must be finite, got inf at index (0, 1)"),
            (f"{name} label 2", fit, (_X, [0, 1, 2, 0]), "labels must be 0 or 1, got 2.0 at index 2"),
            (f"{name} a label too many", fit, (_X, [0, 1, 1, 0, 1]),
             "labels must be one per feature row: expected shape (4,), got (5,)"),
            (f"{name} empty", fit, (np.empty((0, 2)), []), "features must be a non-empty 2-d array, got shape (0, 2)"),
            (f"{name} no columns", fit, (np.zeros((3, 0)), [0, 1, 0]),
             "features must be a non-empty 2-d array, got shape (3, 0)"),
        ]
    bounds = {  # a bounded setting: nan fails its bound, and a numpy scalar shows as its number
        "fit_tree min_samples_leaf": (lambda n: fit_tree(_X, _Y, min_samples_leaf=n), "min_samples_leaf must be >= 1"),
        "fit_forest n_trees": (lambda n: fit_forest(_X, _Y, n_trees=n), "n_trees must be >= 1"),
        "collapsed max_depth": (lambda depth: fit_tree(_X, _Y).collapsed(depth), "max_depth must be >= 0"),
        "repeated_stratified_kfold k": (lambda k: repeated_stratified_kfold(toy_dataset(), k=k), "k must be >= 2"),
        "repeated_stratified_kfold repetitions":
            (lambda r: repeated_stratified_kfold(toy_dataset(), repetitions=r), "repetitions must be >= 1"),
        # the seed is checked before the file is opened
        "write_reference_csv seed": (lambda seed: write_reference_csv(os.devnull, seed=seed), "seed must be >= 0"),
        "write_reference_csv n_rows": (lambda n: write_reference_csv(os.devnull, n_rows=n), "n_rows must be >= 2"),
    }
    for name, (call, rule) in bounds.items():
        rows.append((f"{name} nan", call, (np.nan,), f"{rule}, got nan"))
    rows.append(("fit_forest n_trees 0", lambda n: fit_forest(_X, _Y, n_trees=n), (np.int64(0),),
                 "n_trees must be >= 1, got 0"))
    # one row has no temperature spread to normalise by
    rows += [
        ("generate_reference_rows n_rows 1", lambda n: generate_reference_rows(n_rows=n), (1,),
         "n_rows must be >= 2, got 1"),
        ("write_reference_csv n_rows -1", lambda n: write_reference_csv(os.devnull, n_rows=n), (-1,),
         "n_rows must be >= 2, got -1"),
    ]
    scorers = {
        "tree score_many": lambda x: fit_tree(_X, _Y).score_many(x),
        "tree apply": lambda x: fit_tree(_X, _Y).apply(x),
        "forest score_many": lambda x: fit_forest(_X, _Y, n_trees=3).score_many(x),
        "logistic score_many": lambda x: fit_logistic(_X, _Y).score_many(x),
    }
    for name, call in scorers.items():
        rows += [
            (f"{name} narrow", call, ([[1.0]],), "expected (n, 2) feature matrix, got (1, 1)"),
            (f"{name} vector", call, ([1.0, 2.0],), "expected (n, 2) feature matrix, got (2,)"),
        ]
    # a tree or forest routes a nan right (test_nan_routes_right); logistic regression would score it nan
    rows += [
        ("logistic score_many nan", scorers["logistic score_many"], ([[0.5, 0.5], [np.nan, 0.2]],),
         "features must be finite, got nan at index (1, 0)"),
        ("logistic score_many inf", scorers["logistic score_many"], ([[0.2, -np.inf]],),
         "features must be finite, got -inf at index (0, 1)"),
    ]
    rows += [
        (f"Dataset {name}", lambda labels: Dataset(np.zeros((2, len(FEATURE_NAMES))), labels, FEATURE_NAMES),
         (np.array(labels),), message)
        for name, labels, message in (
            ("label 2", [0, 2], "labels must be 0 or 1, got 2.0 at index 1"),
            ("a label too many", [0, 1, 1], "labels must be one per row: expected shape (2,), got (3,)"),
        )
    ]
    load = DecisionTreeModel.from_dict
    rows += [
        ("from_dict nan threshold", load, (_tree_document(threshold=[None, None, None]),),
         "node 0: split threshold nan is not a finite number"),
        ("from_dict inf threshold", load, (_tree_document(threshold=[np.inf, None, None]),),
         "node 0: split threshold inf is not a finite number"),
        ("from_dict wide feature", load, (_tree_document(feature_index=[2, -1, -1]),),
         "node 0: split feature 2 is not in [0, 2)"),
        ("from_dict empty", load, (_tree_document(**dict.fromkeys(
            ("feature_index", "threshold", "left_child", "right_child", "n_samples", "n_positive"), [])),),
         "node arrays must be non-empty and of one length, got shapes [(0,), (0,), (0,), (0,), (0,), (0,)]"),
        ("collapsed negative depth", lambda depth: fit_tree(_X, _Y).collapsed(depth), (-1,),
         "max_depth must be >= 0, got -1"),
        # a model built directly checks the settings a fit records, as from_dict does
        ("replace min_samples_leaf", lambda n: replace(load(_tree_document()), min_samples_leaf=n), (0,),
         "min_samples_leaf must be >= 1, got 0"),
        ("replace n_features", lambda n: replace(load(_tree_document()), n_features=n), (0,),
         "n_features must be >= 1, got 0"),
        ("RandomForestModel negative seed", lambda seed: RandomForestModel([load(_tree_document())], seed), (-5,),
         "seed must be >= 0, got -5"),
    ]

    def venn_tree(calibration_features, depth=None):
        tree = fit_tree(_X, _Y)
        calibrator = VennAbersCalibrator(tree.score_many(_X), _Y)
        return build_venn_tree(tree, calibrator, depth, calibration_features=calibration_features)

    rows += [
        ("build_venn_tree negative depth", venn_tree, (_X, -1), "max_depth must be >= 0, got -1"),
        ("build_venn_tree narrow", venn_tree, ([[0.5]] * 4,), "expected (4, 2) feature matrix, got (4, 1)"),
        ("build_venn_tree a row short", venn_tree, (_X[1:],), "expected (4, 2) feature matrix, got (3, 2)"),
    ]
    return [pytest.param(call, args, message, id=name) for name, call, args, message in rows]


@pytest.mark.parametrize("call, args, message", _bad_inputs())
def test_every_entry_point_names_the_bad_input(call, args, message):
    """Each input rule is stated once (in venncal.data, and the tree checks) and names the first entry
    or the setting at fault; every entry point that enforces a rule raises its whole message."""
    with pytest.raises(ValueError) as caught:
        call(*args)
    assert str(caught.value) == message


_COUNTS = {  # id -> (call taking the count, setting it names)
    "fit_tree min_samples_leaf": (lambda n: fit_tree(_X, _Y, min_samples_leaf=n), "min_samples_leaf"),
    "fit_tree seed": (lambda seed: fit_tree(_X, _Y, seed=seed), "seed"),
    "fit_forest n_trees": (lambda n: fit_forest(_X, _Y, n_trees=n), "n_trees"),
    "fit_forest seed": (lambda seed: fit_forest(_X, _Y, n_trees=2, seed=seed), "seed"),
    "collapsed max_depth": (lambda depth: fit_tree(_X, _Y).collapsed(depth), "max_depth"),
    "reliability_bins m": (lambda m: reliability_bins([0.2, 0.7], [0, 1], m), "m"),
    "minority_bins m": (lambda m: minority_bins([0.2, 0.7], [0, 1], m), "m"),
    "evaluate m": (lambda m: evaluate([0.2, 0.7], [0, 1], m), "m"),
    "repeated_stratified_kfold k": (lambda k: repeated_stratified_kfold(toy_dataset(), k=k, repetitions=1), "k"),
    "repeated_stratified_kfold repetitions":
        (lambda r: repeated_stratified_kfold(toy_dataset(), repetitions=r), "repetitions"),
    "write_reference_csv seed": (lambda seed: write_reference_csv(os.devnull, seed=seed, n_rows=10), "seed"),
    "write_reference_csv n_rows": (lambda n: write_reference_csv(os.devnull, n_rows=n), "n_rows"),
    **{f"from_dict {key}": (lambda value, key=key: DecisionTreeModel.from_dict(_tree_document(**{key: value})), key)
       for key in ("n_features", "min_samples_leaf", "seed")},
    **{f"replace {key}": (lambda value, key=key: replace(DecisionTreeModel.from_dict(_tree_document()), **{key: value}),
                          key)
       for key in ("n_features", "min_samples_leaf", "seed")},
    "RandomForestModel seed":
        (lambda seed: RandomForestModel([DecisionTreeModel.from_dict(_tree_document())], seed), "seed"),
}


@pytest.mark.parametrize("call, setting", [pytest.param(*entry, id=name) for name, entry in _COUNTS.items()])
def test_every_count_must_be_a_whole_number(call, setting):
    """A count is a Python or numpy integer: a float, even a whole-valued one, and a bool fail naming the
    setting, after its range is checked; a numpy integer is taken as its int."""
    for value in (2.5, 3.0, np.float64(2.5), True):
        with pytest.raises(ValueError) as caught:
            call(value)
        shown = value.item() if isinstance(value, np.generic) else value
        # True is below the bound of 2 that k and n_rows have
        rule = ">= 2" if value is True and setting in ("k", "n_rows") else "a whole number"
        assert str(caught.value) == f"{setting} must be {rule}, got {shown!r}"
    result = call(np.int64(2))
    if hasattr(result, "to_dict"):  # a fitted or loaded model
        json.dumps(result.to_dict())  # its settings are ints, which JSON writes

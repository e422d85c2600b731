"""Dataset ingestion, CSV rows in and out, and cross-validation splits.

Loads the predictive-maintenance CSV in the AI4I column layout
(AI4I_COLUMNS), mapping the quality letter to an ordinal code, dropping
identifier and failure-mode indicator columns, and taking the
machine-failure column as the binary label.  read_rows, parse_columns and
write_columns are the one CSV row reader, column reader and column writer.
Also produces repeated stratified k-fold splits where each fold's training
portion is further divided into a proper-training part and a calibration
part.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "AI4I_COLUMNS",
    "FEATURE_NAMES",
    "Dataset",
    "FoldSplit",
    "InfeasibleSplitError",
    "LABEL_CODES",
    "ParseError",
    "SchemaError",
    "ValidationError",
    "load_csv",
    "parse_columns",
    "read_rows",
    "reject_first",
    "repeated_stratified_kfold",
    "splits_to_manifest",
    "stratified_holdout",
    "write_columns",
    "write_split_manifest",
]


class SchemaError(ValueError):
    """CSV header does not match the expected columns."""


class ParseError(ValueError):
    """A cell could not be parsed as the expected type."""


class ValidationError(ValueError):
    """A parsed value violates a domain constraint."""


class InfeasibleSplitError(ValueError):
    """Requested split cannot be satisfied by the class counts."""


# The AI4I layout in file order: csv column -> feature name.  The quality
# letter of "Type" is coded through QUALITY_CODES, the other named columns
# are read as numbers and LABEL_COLUMN is the label.  The columns mapped to
# None besides the label (identifiers and failure-mode indicators) are
# dropped, and a file may leave them out.
AI4I_COLUMNS = {
    "UDI": None,
    "Product ID": None,
    "Type": "quality",
    "Air temperature [K]": "air temperature [K]",
    "Process temperature [K]": "process temperature [K]",
    "Rotational speed [rpm]": "rotational speed [rpm]",
    "Torque [Nm]": "torque [Nm]",
    "Tool wear [min]": "tool wear [min]",
    "Machine failure": None,
    "TWF": None,
    "HDF": None,
    "PWF": None,
    "OSF": None,
    "RNF": None,
}
QUALITY_COLUMN = "Type"
QUALITY_CODES = {"L": 0.0, "M": 1.0, "H": 2.0}
LABEL_COLUMN = "Machine failure"
LABEL_CODES = {"0": 0, "1": 1}  # the label cell of every CSV venncal reads
FEATURE_NAMES = tuple(name for name in AI4I_COLUMNS.values() if name)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus binary labels (1 = failure)."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] != len(self.feature_names):
            raise ValidationError("features must be (n, len(feature_names))")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError("labels must be one per row")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValidationError("labels must be 0 or 1")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_instances(self) -> int:
        return int(self.labels.size)

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())


def load_csv(path) -> Dataset:
    """Load the maintenance CSV (AI4I_COLUMNS) into a Dataset.

    Row order is preserved.  Errors name the offending column or the
    offending data row (1-based, header excluded); a numeric cell that
    reads as nan or inf is rejected with its row and column named.
    """
    path = Path(path)
    rows = read_rows(path, "dataset")
    header = next(rows)
    for column, feature in AI4I_COLUMNS.items():
        if (feature or column == LABEL_COLUMN) and column not in header:
            raise SchemaError(f"{path}: missing required column {column!r}")
    for column in header:
        if column not in AI4I_COLUMNS:
            raise SchemaError(f"{path}: unknown column {column!r}")
    feature_columns = [column for column, feature in AI4I_COLUMNS.items() if feature]
    parsers = {column: float for column in feature_columns}
    parsers[QUALITY_COLUMN] = QUALITY_CODES.__getitem__
    parsers[LABEL_COLUMN] = LABEL_CODES.__getitem__
    row_numbers, columns = parse_columns(path, header, rows, parsers)
    features = np.column_stack([np.asarray(columns[column], dtype=np.float64) for column in feature_columns])
    reject_first(
        path, row_numbers, ~np.isfinite(features),
        lambda i, j: f"non-finite value '{features[i, j]}' in column {feature_columns[j]!r}",
    )
    return Dataset(
        features=features,
        labels=np.asarray(columns[LABEL_COLUMN], dtype=np.int64),
        feature_names=FEATURE_NAMES,
    )


# ---------------------------------------------------------------------------
# CSV rows in and out
# ---------------------------------------------------------------------------

def read_rows(path, kind: str = "file"):
    """Yield a CSV's stripped header, then (row number, fields) per non-blank row.

    Rows are numbered from 1 after the header; fields are not stripped.
    Raises FileNotFoundError ("<kind> not found"), SchemaError (empty file,
    a column named twice), ParseError (a field count other than the
    header's) and ValidationError (no data rows), naming the file and row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{kind} not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        for i, column in enumerate(header):
            if column in header[:i]:
                raise SchemaError(f"{path}: column {column!r} appears more than once")
        yield header
        rows = 0
        for row_number, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row {row_number}: expected {len(header)} fields, got {len(row)}")
            rows += 1
            yield row_number, row
    if not rows:
        raise ValidationError(f"{path}: no data rows")


def parse_columns(path, header, rows, parsers):
    """Parse the named columns of read_rows' data rows in one pass: (row numbers, {column: values}).

    parsers maps a column to a builtin or a bound method (int, float, a
    token map's __getitem__), so no Python frame runs per stripped cell.
    A parser's ValueError is raised as a ParseError, its KeyError as a
    ValidationError, each naming the file, row, column and cell.
    """
    columns = {column: [] for column in parsers}
    cells = [(header.index(column), parse, columns[column].append) for column, parse in parsers.items()]
    row_numbers = []
    for row_number, row in rows:
        row_numbers.append(row_number)
        for i, parse, append in cells:
            cell = row[i].strip()
            try:
                append(parse(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_number}: non-numeric value {cell!r} in column {header[i]!r}"
                ) from None
            except KeyError:
                raise ValidationError(
                    f"{path}: row {row_number}: {header[i]!r} must be one of {list(parse.__self__)}, got {cell!r}"
                ) from None
    return row_numbers, columns


def reject_first(path, row_numbers, bad, fault) -> None:
    """Raise a ValidationError naming the row of the first True in bad, a mask over the parsed rows.

    fault words the rest from that entry's index (a row, or a row and a
    column), and is called only on failure.
    """
    hits = np.argwhere(bad)
    if hits.size:
        index = hits[0].tolist()
        raise ValidationError(f"{path}: row {row_numbers[index[0]]}: {fault(*index)}")


def write_columns(path, header, columns) -> None:
    """Write a CSV from a header and equal-length columns.

    Numpy columns are converted with tolist(), so ints are written as ints
    and floats by repr; None and NaN become empty cells.
    """
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


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldSplit:
    """One cross-validation cell: disjoint proper-train/calibration/test ids."""

    repetition_index: int
    fold_index: int
    proper_train_ids: np.ndarray
    calibration_ids: np.ndarray
    test_ids: np.ndarray
    seed: int

    @property
    def train_ids(self) -> np.ndarray:
        """Full training portion: proper-train plus calibration."""
        return np.sort(np.concatenate([self.proper_train_ids, self.calibration_ids]))


def _hold_out(class_sequences, fraction: float):
    """Sorted (rest, held_out): the first round(fraction * size) ids of each class sequence are held out."""
    if not (0.0 < fraction < 1.0):
        raise InfeasibleSplitError("calibration_fraction must be in (0, 1)")
    parts = [np.split(ids, [int(round(fraction * ids.size))]) for ids in class_sequences]
    held, rest = (np.sort(np.concatenate(part)) for part in zip(*parts))
    return rest, held


def stratified_holdout(labels, fraction: float, rng: np.random.Generator):
    """Split indices into (rest, held_out) with per-class proportions.

    The held-out part receives round(fraction * class size) members of each
    class, drawn at random.
    """
    y = np.asarray(labels)
    members = [np.flatnonzero(y == value) for value in np.unique(y)]
    return _hold_out([ids[rng.permutation(ids.size)] for ids in members], fraction)


def repeated_stratified_kfold(
    dataset: Dataset,
    k: int = 10,
    repetitions: int = 10,
    calibration_fraction: float = 1.0 / 3.0,
    seed: int = 0,
) -> list[FoldSplit]:
    """Repeated stratified k-fold with a calibration share of each fold.

    Each repetition reshuffles and partitions every class into k test
    chunks (within one instance of proportional); inside each fold the
    training portion is split per class so calibration_fraction of it forms
    the calibration set.  Deterministic given the seed.
    """
    if k < 2:
        raise InfeasibleSplitError("k must be >= 2")
    if repetitions < 1:
        raise InfeasibleSplitError("repetitions must be >= 1")
    if not (0.0 < calibration_fraction < 1.0):
        raise InfeasibleSplitError("calibration_fraction must be in (0, 1)")
    y = dataset.labels
    for value in (0, 1):
        count = int(np.sum(y == value))
        if count < k:
            raise InfeasibleSplitError(
                f"class {value} has {count} members, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    class_members = [np.flatnonzero(y == value) for value in (0, 1)]
    splits = []
    for repetition in range(repetitions):
        # the first size % k chunks of a class hold one member more
        chunks = [np.array_split(members[rng.permutation(members.size)], k) for members in class_members]
        for fold in range(k):
            test = np.sort(np.concatenate([chunks[0][fold], chunks[1][fold]]))
            train = [np.concatenate(class_chunks[:fold] + class_chunks[fold + 1:]) for class_chunks in chunks]
            proper, calibration = _hold_out(train, calibration_fraction)
            for arr in (proper, calibration, test):
                arr.setflags(write=False)
            splits.append(
                FoldSplit(
                    repetition_index=repetition,
                    fold_index=fold,
                    proper_train_ids=proper,
                    calibration_ids=calibration,
                    test_ids=test,
                    seed=seed,
                )
            )
    return splits


def _manifest_fold(split: FoldSplit) -> dict:
    return {
        "repetition": split.repetition_index,
        "fold": split.fold_index,
        "proper_train_ids": split.proper_train_ids.tolist(),
        "calibration_ids": split.calibration_ids.tolist(),
        "test_ids": split.test_ids.tolist(),
    }


def splits_to_manifest(splits: list[FoldSplit]) -> dict:
    """JSON-ready manifest for reproducibility audits."""
    return {
        "seed": splits[0].seed if splits else None,
        "folds": [_manifest_fold(s) for s in splits],
    }


def write_split_manifest(path, splits: list[FoldSplit]) -> None:
    """Write json.dumps(splits_to_manifest(splits), sort_keys=True) fold by fold.

    Only one fold's ids are held as Python ints at a time.
    """
    # the manifest with an empty fold list, cut between its brackets
    empty = json.dumps({"folds": [], "seed": splits[0].seed if splits else None}, sort_keys=True)
    cut = empty.index("[]") + 1
    head, tail = empty[:cut], empty[cut:]
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(head)
        for i, split in enumerate(splits):
            handle.write((", " if i else "") + json.dumps(_manifest_fold(split), sort_keys=True))
        handle.write(tail)

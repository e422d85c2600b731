"""External score-table ingestion.

Lets externally produced model scores (e.g. a gradient-boosting model
trained elsewhere) flow through the calibration pipeline without bundling
the model: a CSV with one row per (instance, fold) carrying the score, the
true label and whether the row belongs to the calibration or the test
partition of that fold.

load_score_table opens a file once (data.read_input) and parses the bytes
it read, never the file again.  It keeps the last table it built, keyed
by the sha256 of those bytes (the table's source_sha256): a later call on
a file that holds the same bytes, at that path or any other, returns that
frozen table without parsing them again, and any other bytes are parsed
and checked anew.  A load that fails stores nothing.  The memo holds one
table, never the file's bytes; it is why calibrate_scores for each
calibrator and run_experiment on one table in one process parse it once.
Each caller of the same bytes gets that one object, and the module keeps
it, arrays and all, until a load of other bytes succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from venncal.data import LABEL_CODES, Frozen, ValidationError, parse_columns, read_input, reject_first, sha256_hex

__all__ = ["ScoreTable", "load_score_table", "SCORE_TABLE_COLUMNS"]

SCORE_TABLE_COLUMNS = ("instance_id", "fold_id", "partition", "score", "label")
_PARTITIONS = {"calibration": False, "test": True}  # partition -> is_test


@dataclass
class ScoreTable(Frozen):
    """One row per (instance, fold), as parallel one-dimensional columns of one length; immutable once built.

    The columns are checked where the table is built; the values (score
    range, labels, duplicate keys) are checked by load_score_table, which
    names the file and the row.  source_sha256 is the sha256 (hex) of the
    CSV bytes load_score_table parsed it from, which run.json records;
    None for a table built from arrays.
    """

    instance_id: np.ndarray
    fold_id: np.ndarray
    is_test: np.ndarray  # bool: in its fold's test partition, else in its calibration partition
    score: np.ndarray
    label: np.ndarray
    source_sha256: str | None = None

    def __post_init__(self):
        shapes = {f.name: np.shape(getattr(self, f.name)) for f in fields(self) if f.name != "source_sha256"}
        for name, shape in shapes.items():
            if len(shape) != 1:
                raise ValidationError(f"score table column {name} must be one-dimensional, got shape {shape}")
            if shape != shapes["instance_id"]:
                raise ValidationError(
                    f"score table column {name} has {shape[0]} rows, instance_id {shapes['instance_id'][0]}"
                )
        super().__post_init__()

    @property
    def n_rows(self) -> int:
        return int(self.instance_id.size)

    def folds(self):
        """Per fold, in ascending order, yield (fold, calibration, test).

        Each partition is (instance_ids, scores, labels) in file order.  A
        fold without a calibration or a test row raises ValidationError
        naming the fold and the missing partition, once the fold is reached.
        """
        if not self.n_rows:
            return
        # one stable sort: by fold, calibration rows before test rows, each in file order;
        # a key 2 * fold_id + is_test would wrap for fold ids beyond 2^62 in magnitude
        order = np.lexsort((self.is_test, self.fold_id))
        fold_id, is_test = self.fold_id[order], self.is_test[order]
        columns = [column[order] for column in (self.instance_id, self.score, self.label)]
        starts = (np.flatnonzero(fold_id[1:] != fold_id[:-1]) + 1).tolist()  # of every fold but the first
        for start, end in zip([0, *starts], [*starts, self.n_rows]):
            fold = int(fold_id[start])
            mid = end - int(np.count_nonzero(is_test[start:end]))
            for partition, size in zip(_PARTITIONS, (mid - start, end - mid)):
                if not size:
                    raise ValidationError(f"fold {fold}: missing {partition} partition")
            yield fold, *(tuple(column[lo:hi] for column in columns) for lo, hi in ((start, mid), (mid, end)))


# the table of the last load that succeeded, keyed by its source_sha256
_last_load: ScoreTable | None = None


def load_score_table(path) -> ScoreTable:
    """Load and validate a score-table CSV, or return the table of the last load if the file holds its bytes.

    Header must be exactly instance_id,fold_id,partition,score,label.
    Non-integer ids, non-numeric scores, unknown partitions, labels
    outside {0, 1}, scores outside [0, 1] and duplicate (instance_id,
    fold_id) keys are rejected as ParseError or ValidationError with the
    offending row named (1-based, excluding the header).  The table
    returned stays in the memo until a load of other bytes succeeds: every
    load of the same bytes meanwhile returns this one object, and the
    module keeps it, arrays and all, after its callers drop it.
    """
    global _last_load
    path = Path(path)
    content = read_input(path, "score table")
    digest = sha256_hex(content)
    last = _last_load  # read once: another thread may store its table meanwhile
    if last is not None and last.source_sha256 == digest:
        return last
    parsers = dict(zip(SCORE_TABLE_COLUMNS, (np.int64, np.int64, _PARTITIONS, np.float64, LABEL_CODES)))
    columns = parse_columns(path, content, SCORE_TABLE_COLUMNS, parsers)
    # ScoreTable's fields, in order
    table = ScoreTable(*(columns[column] for column in SCORE_TABLE_COLUMNS), source_sha256=digest)
    ids, folds, score = table.instance_id, table.fold_id, table.score
    outside = ~((score >= 0.0) & (score <= 1.0))  # nan is outside too
    reject_first(path, content, outside, lambda i: f"score {score[i]} outside [0, 1]")
    # a stable sort by key keeps each key's rows in file order: all but the first repeat an earlier one
    order = np.lexsort((ids, folds))
    repeats = np.zeros(table.n_rows, dtype=bool)
    repeats[order[1:]] = (ids[order[1:]] == ids[order[:-1]]) & (folds[order[1:]] == folds[order[:-1]])
    duplicate = "duplicate (instance_id, fold_id) = ({}, {})"
    reject_first(path, content, repeats, lambda i: duplicate.format(ids[i], folds[i]))
    _last_load = table
    return table

"""External score-table ingestion.

Lets externally produced model scores (e.g. a gradient-boosting model
trained elsewhere) flow through the calibration pipeline without bundling
the model: a CSV with one row per (instance, fold) carrying the score, the
true label and whether the row belongs to the calibration or the test
partition of that fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from venncal.data import LABEL_CODES, Frozen, ValidationError, parse_columns, reject_first

__all__ = ["ScoreTable", "load_score_table", "SCORE_TABLE_COLUMNS"]

SCORE_TABLE_COLUMNS = ("instance_id", "fold_id", "partition", "score", "label")
_PARTITIONS = {"calibration": False, "test": True}  # partition -> is_test


@dataclass
class ScoreTable(Frozen):
    instance_id: np.ndarray
    fold_id: np.ndarray
    is_test: np.ndarray  # bool: in its fold's test partition, else in its calibration partition
    score: np.ndarray
    label: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.instance_id.size)

    def folds(self):
        """Per fold, in ascending order, yield (fold, calibration, test).

        Each partition is (instance_ids, scores, labels) in file order.  A
        fold without a calibration or a test row raises ValidationError
        naming the fold and the missing partition.
        """
        for fold in np.unique(self.fold_id).tolist():
            in_fold = self.fold_id == fold
            partitions = []
            for partition, mask in zip(_PARTITIONS, (in_fold & ~self.is_test, in_fold & self.is_test)):
                if not mask.any():
                    raise ValidationError(f"fold {fold}: missing {partition} partition")
                partitions.append((self.instance_id[mask], self.score[mask], self.label[mask]))
            yield fold, *partitions


def load_score_table(path) -> ScoreTable:
    """Load and validate a score-table CSV.

    Header must be exactly instance_id,fold_id,partition,score,label.
    Non-integer ids, non-numeric scores, unknown partitions, labels
    outside {0, 1}, scores outside [0, 1] and duplicate (instance_id,
    fold_id) keys are rejected as ParseError or ValidationError with the
    offending row named (1-based, excluding the header).
    """
    path = Path(path)
    parsers = dict(zip(SCORE_TABLE_COLUMNS, (np.int64, np.int64, _PARTITIONS, np.float64, LABEL_CODES)))
    columns = parse_columns(path, "score table", SCORE_TABLE_COLUMNS, parsers)
    table = ScoreTable(*(columns[column] for column in SCORE_TABLE_COLUMNS))  # ScoreTable's fields, in order
    ids, folds, score = table.instance_id, table.fold_id, table.score
    reject_first(path, ~((score >= 0.0) & (score <= 1.0)), lambda i: f"score {score[i]} outside [0, 1]")
    # a stable sort by key keeps each key's rows in file order: all but the first repeat an earlier one
    order = np.lexsort((ids, folds))
    repeats = np.zeros(table.n_rows, dtype=bool)
    repeats[order[1:]] = (ids[order[1:]] == ids[order[:-1]]) & (folds[order[1:]] == folds[order[:-1]])
    duplicate = "duplicate (instance_id, fold_id) = ({}, {})"
    reject_first(path, repeats, lambda i: duplicate.format(ids[i], folds[i]))
    return table

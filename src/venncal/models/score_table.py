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

from venncal.data import read_rows

__all__ = ["ScoreTable", "load_score_table", "SCORE_TABLE_COLUMNS"]

SCORE_TABLE_COLUMNS = ("instance_id", "fold_id", "partition", "score", "label")
_PARTITIONS = ("calibration", "test")


@dataclass(frozen=True)
class ScoreTable:
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
        fold without a calibration or a test row raises ValueError naming
        the fold and the missing partition.
        """
        for fold in np.unique(self.fold_id).tolist():
            in_fold = self.fold_id == fold
            partitions = []
            for partition, mask in zip(_PARTITIONS, (in_fold & ~self.is_test, in_fold & self.is_test)):
                if not mask.any():
                    raise ValueError(f"fold {fold}: missing {partition} partition")
                partitions.append((self.instance_id[mask], self.score[mask], self.label[mask]))
            yield fold, *partitions


def load_score_table(path) -> ScoreTable:
    """Load and validate a score-table CSV.

    Header must be exactly instance_id,fold_id,partition,score,label.
    Scores outside [0, 1], labels outside {0, 1}, unknown partitions and
    duplicate (instance_id, fold_id) keys are rejected with the offending
    row named (1-based, excluding the header).
    """
    path = Path(path)
    rows = read_rows(path, "score table")
    header = next(rows)
    if tuple(header) != SCORE_TABLE_COLUMNS:
        raise ValueError(
            f"{path}: expected header {','.join(SCORE_TABLE_COLUMNS)}, got {','.join(header)}"
        )
    instance_ids = []
    fold_ids = []
    is_test = []
    scores = []
    labels = []
    seen: set[tuple[int, int]] = set()
    for row_number, row in rows:
        raw_instance, raw_fold, partition, raw_score, raw_label = (v.strip() for v in row)
        try:
            instance = int(raw_instance)
            fold = int(raw_fold)
        except ValueError:
            raise ValueError(f"{path}: row {row_number}: non-integer instance_id/fold_id") from None
        if partition not in _PARTITIONS:
            raise ValueError(
                f"{path}: row {row_number}: partition must be one of {_PARTITIONS}, got {partition!r}"
            )
        try:
            score = float(raw_score)
        except ValueError:
            raise ValueError(f"{path}: row {row_number}: non-numeric score {raw_score!r}") from None
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"{path}: row {row_number}: score {score} outside [0, 1]")
        if raw_label not in ("0", "1"):
            raise ValueError(f"{path}: row {row_number}: label must be 0 or 1, got {raw_label!r}")
        key = (instance, fold)
        if key in seen:
            raise ValueError(
                f"{path}: row {row_number}: duplicate (instance_id, fold_id) = {key}"
            )
        seen.add(key)
        instance_ids.append(instance)
        fold_ids.append(fold)
        is_test.append(partition == "test")
        scores.append(score)
        labels.append(int(raw_label))
    table = ScoreTable(
        instance_id=np.asarray(instance_ids, dtype=np.int64),
        fold_id=np.asarray(fold_ids, dtype=np.int64),
        is_test=np.asarray(is_test, dtype=bool),
        score=np.asarray(scores, dtype=np.float64),
        label=np.asarray(labels, dtype=np.int64),
    )
    for arr in (table.instance_id, table.fold_id, table.is_test, table.score, table.label):
        arr.setflags(write=False)
    return table

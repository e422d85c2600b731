"""Reference dataset generator tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from venncal.data import QUALITY_CODES, load_csv
from venncal.synthetic import N_ROWS, REFERENCE_SEED, generate_reference_rows, write_reference_csv

# sha256 of the reference CSV that write_reference_csv() writes at REFERENCE_SEED
REFERENCE_CSV_SHA256 = "d9a623ef444f2cbeedba7426d74ce8b3e0dd9eacfd6c4f58e5fce4b4e59988fb"
# sha256 of write_reference_csv(path, seed, n_rows) at the seeds that the
# batch-score fleet files and the CI console run use, and of a 7-row file
GENERATED_CSV_SHA256 = {
    (0, N_ROWS): "cf4ff81fee0dc6a5ec1cf3c81557d4c75daf909e9aea7f075cb761001ce5e77e",
    (1, N_ROWS): "8c9e2c3f48822d7ec52b286cc71650f056fd08f3b6cf1b4fa03669b289e17e13",
    (5, N_ROWS): "6835655e7c8202e2c34cb58648206caa5f2a61183e99c29dedefba86b11a4785",
    (REFERENCE_SEED, 7): "2d218b75a7ec701f3b83e2a698154e7d22adac9b6f0e34120836164c10d1430f",
}


def test_reference_dataset_published_balance(tmp_path):
    path = write_reference_csv(tmp_path / "reference.csv")
    ds = load_csv(path)
    assert ds.n_instances == 10_000
    assert ds.n_positive == 339
    assert ds.features.shape == (10_000, 6)


def test_reference_csv_regeneration_byte_identical(tmp_path):
    a = write_reference_csv(tmp_path / "a.csv")
    assert hashlib.sha256(a.read_bytes()).hexdigest() == REFERENCE_CSV_SHA256
    b = write_reference_csv(tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    c = write_reference_csv(tmp_path / "c.csv", seed=REFERENCE_SEED + 1)
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("seed, n_rows", list(GENERATED_CSV_SHA256))
def test_generated_csv_matches_golden_digest(tmp_path, seed, n_rows):
    path = write_reference_csv(tmp_path / "generated.csv", seed=seed, n_rows=n_rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATED_CSV_SHA256[(seed, n_rows)]


def test_rows_hold_the_values_load_csv_reads_back(tmp_path):
    rows = generate_reference_rows(seed=5, n_rows=2000)
    dataset = load_csv(write_reference_csv(tmp_path / "generated.csv", seed=5, n_rows=2000))
    features = np.array([[QUALITY_CODES[r[2]], *map(float, r[3:8])] for r in rows])
    assert np.array_equal(dataset.features, features)
    assert dataset.labels.tolist() == [r[8] for r in rows]


def test_negative_seed_named_before_anything_is_created(tmp_path):
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        generate_reference_rows(seed=-1, n_rows=10)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        write_reference_csv(tmp_path / "newdir" / "x.csv", seed=-1)
    assert not (tmp_path / "newdir").exists()


@pytest.mark.filterwarnings("error")  # 1 row once wrote nan temperatures with a divide warning
def test_too_few_rows_named_before_anything_is_created(tmp_path):
    for n_rows in (1, 0, -1):
        with pytest.raises(ValueError, match=f"^n_rows must be >= 2, got {n_rows}$"):
            write_reference_csv(tmp_path / "newdir" / "x.csv", n_rows=n_rows)
    assert not (tmp_path / "newdir").exists()
    assert len(generate_reference_rows(n_rows=2)) == 2


def test_failure_label_is_union_of_modes():
    rows = generate_reference_rows(seed=11, n_rows=2000)
    for r in rows:
        failure, twf, hdf, pwf, osf, rnf = r[8:14]
        assert failure == (1 if (twf or hdf or pwf or osf or rnf) else 0)


def test_recorded_rules_recomputable_from_features():
    rows = generate_reference_rows(seed=11, n_rows=3000)
    limits = {"L": 11000.0, "M": 12000.0, "H": 13000.0}
    for r in rows:
        quality = r[2]
        air, process = float(r[3]), float(r[4])
        rpm, torque, wear = float(r[5]), float(r[6]), float(r[7])
        hdf, pwf, osf = r[10], r[11], r[12]
        # decimal-exact evaluation in tenths, as the generator does
        diff_tenths = round(process * 10) - round(air * 10)
        assert hdf == int(diff_tenths < 86 and rpm < 1380)
        power = (round(torque * 10) / 10.0) * rpm * 2.0 * np.pi / 60.0
        assert pwf == int(power < 3500.0 or power > 9000.0)
        assert osf == int(wear * round(torque * 10) > limits[quality] * 10.0)


def test_quality_mix_and_ranges():
    rows = generate_reference_rows(seed=3)
    quality = [r[2] for r in rows]
    n = len(rows)
    assert abs(quality.count("L") / n - 0.5) < 0.03
    assert abs(quality.count("M") / n - 0.3) < 0.03
    assert abs(quality.count("H") / n - 0.2) < 0.03
    air = np.array([float(r[3]) for r in rows])
    torque = np.array([float(r[6]) for r in rows])
    wear = np.array([int(r[7]) for r in rows])
    assert abs(air.mean() - 300.0) < 0.2
    assert abs(air.std() - 2.0) < 0.1
    assert abs(torque.mean() - 40.0) < 0.5
    assert torque.min() > 0.0
    assert wear.min() == 0
    assert wear.max() <= 250

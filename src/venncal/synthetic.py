"""Reference dataset generator.

The public AI4I-style predictive-maintenance benchmark is itself synthetic
with a documented generating process; this module regenerates a
statistically equivalent file for offline use: 10 000 machining cycles with
quality variant, slowly drifting air/process temperatures, torque with
inversely related rotational speed, accumulating tool wear, and five
failure modes (tool wear, heat dissipation, power, overstrain, random)
whose union is the machine-failure label.

REFERENCE_SEED is pinned so the shipped file has exactly the published
class balance: 10 000 instances with 339 failures.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from venncal.data import AI4I_COLUMNS, bounded, write_columns

__all__ = ["REFERENCE_SEED", "generate_reference_rows", "write_reference_csv"]

N_ROWS = 10_000

# quality variants: low 50%, medium 30%, high 20%
_QUALITY_LEVELS = ("L", "M", "H")
_QUALITY_PROBS = (0.5, 0.3, 0.2)
_WEAR_INCREMENT = {"L": 2, "M": 3, "H": 5}
_SERIAL_BASE = {"L": 46000, "M": 14000, "H": 28000}  # a quality's product ids count up from its base + 1

# temperature drift: random walks normalised per path to the target spread
_AIR_MEAN = 300.0
_AIR_STD = 2.0
_PROCESS_OFFSET = 10.0
_PROCESS_STD = 1.0

# torque ~ N(40, 10) truncated positive; speed drops with torque (with a
# capped hyperbolic lift at low torque, keeping delivered power in band)
# plus a right-skewed lognormal disturbance
_TORQUE_MEAN = 40.0
_TORQUE_STD = 10.0
_RPM_BASE = 1600.0
_RPM_TORQUE_SLOPE = -15.5
_RPM_HYPERBOLIC = 300.0
_RPM_LIFT_CAP = 5.0
_RPM_NOISE_SIGMA = 1.0  # lognormal shape
_RPM_NOISE_SCALE = 46.0

# failure rules evaluated on the recorded (rounded) values
_HDF_TEMP_DIFF = 8.6
_HDF_RPM_LIMIT = 1380.0
_PWF_POWER_LOW = 3500.0
_PWF_POWER_HIGH = 9000.0
_OSF_LIMIT = {"L": 11000.0, "M": 12000.0, "H": 13000.0}
_TWF_WEAR_MIN = 200
_TWF_WEAR_MAX = 240
_TWF_FAIL_PROB = 0.33
_RNF_PROB = 0.0005

# seed selected so the generated file has exactly the published class
# balance (339 failures in 10 000 rows) with per-mode counts close to the
# published ones
REFERENCE_SEED = 2044


def _drift(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random walk normalised per path to zero mean and unit spread."""
    walk = np.cumsum(rng.normal(size=n))
    return (walk - walk.mean()) / walk.std()


def _reference_columns(seed: int, n_rows: int) -> list[np.ndarray]:
    """The dataset as one column per AI4I_COLUMNS entry, in its order.

    Temperatures and torque are rounded to tenths, so each writes by repr
    as its one-decimal text.
    """
    bounded(seed, "seed", low=0)  # numpy's generators refuse a negative one without naming it
    bounded(n_rows, "n_rows", low=2)  # the temperature drift divides by the spread of n_rows steps
    rng = np.random.default_rng(seed)

    quality = rng.choice(_QUALITY_LEVELS, size=n_rows, p=_QUALITY_PROBS)
    air = np.round(_AIR_MEAN + _AIR_STD * _drift(rng, n_rows), 1)
    process = np.round(air + _PROCESS_OFFSET + _PROCESS_STD * _drift(rng, n_rows), 1)

    torque = rng.normal(_TORQUE_MEAN, _TORQUE_STD, size=n_rows)
    while True:  # redraw the rare non-positive torques
        bad = torque <= 0.5
        if not bad.any():
            break
        torque[bad] = rng.normal(_TORQUE_MEAN, _TORQUE_STD, size=int(bad.sum()))
    torque = np.round(torque, 1)

    skew = rng.lognormal(mean=0.0, sigma=_RPM_NOISE_SIGMA, size=n_rows)
    skew = skew - np.exp(_RPM_NOISE_SIGMA**2 / 2.0)  # centre the disturbance
    lift = np.minimum(_TORQUE_MEAN / torque, _RPM_LIFT_CAP) - 1.0
    rpm = (
        _RPM_BASE
        + _RPM_TORQUE_SLOPE * (torque - _TORQUE_MEAN)
        + _RPM_HYPERBOLIC * lift
        + _RPM_NOISE_SCALE * skew
    )
    rpm = np.round(np.maximum(rpm, 100.0))

    # tool wear accumulates per cycle and resets on a tool-wear event
    wear = np.empty(n_rows, dtype=np.int64)
    twf = np.zeros(n_rows, dtype=np.int64)
    current = 0
    threshold = rng.integers(_TWF_WEAR_MIN, _TWF_WEAR_MAX + 1)
    for i in range(n_rows):
        wear[i] = current
        if current >= threshold:
            if rng.random() < _TWF_FAIL_PROB:
                twf[i] = 1
            current = 0
            threshold = rng.integers(_TWF_WEAR_MIN, _TWF_WEAR_MAX + 1)
        else:
            current += _WEAR_INCREMENT[quality[i]]

    # rules are evaluated on the recorded values with exact decimal
    # arithmetic (integer tenths), so equal recorded readings always get
    # the same outcome
    air_tenths = np.rint(air * 10.0).astype(np.int64)
    process_tenths = np.rint(process * 10.0).astype(np.int64)
    torque_tenths = np.rint(torque * 10.0).astype(np.int64)
    hdf = (
        (process_tenths - air_tenths < int(_HDF_TEMP_DIFF * 10)) & (rpm < _HDF_RPM_LIMIT)
    ).astype(np.int64)
    power = (torque_tenths / 10.0) * rpm * (2.0 * np.pi / 60.0)
    pwf = ((power < _PWF_POWER_LOW) | (power > _PWF_POWER_HIGH)).astype(np.int64)
    osf_limit = np.array([_OSF_LIMIT[q] for q in quality])
    osf = (wear * torque_tenths > osf_limit * 10.0).astype(np.int64)
    rnf = (rng.random(n_rows) < _RNF_PROB).astype(np.int64)
    failure = ((twf + hdf + pwf + osf + rnf) > 0).astype(np.int64)

    serials = {q: itertools.count(base + 1) for q, base in _SERIAL_BASE.items()}
    product_id = np.array([f"{q}{next(serials[q])}" for q in quality.tolist()])
    return [
        np.arange(1, n_rows + 1), product_id, quality, air, process, rpm.astype(np.int64), torque, wear,
        failure, twf, hdf, pwf, osf, rnf,
    ]


def generate_reference_rows(seed: int = REFERENCE_SEED, n_rows: int = N_ROWS) -> list[tuple]:
    """The dataset rows in the column order of AI4I_COLUMNS, numeric cells as Python numbers."""
    return list(zip(*(column.tolist() for column in _reference_columns(seed, n_rows))))


def write_reference_csv(path, seed: int = REFERENCE_SEED, n_rows: int = N_ROWS) -> Path:
    """Write the reference CSV (header plus n_rows data rows).

    A negative seed or fewer than 2 rows fails before anything is created.
    """
    columns = _reference_columns(seed, n_rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_columns(AI4I_COLUMNS, {path: columns})
    return path

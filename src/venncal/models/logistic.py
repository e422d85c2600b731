"""Logistic regression baseline.

Maximum-likelihood fit by damped Newton ascent on internally standardised
features; the learned weights are mapped back to the original scale.  No
penalty term is applied beyond the iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from venncal.data import Frozen, feature_matrix, finite, labelled

__all__ = ["LogisticRegressionModel", "fit_logistic"]

_MAX_ITERATIONS = 500
_TOLERANCE = 1e-8
_P_FLOOR = np.nextafter(0.0, 1.0)
_P_CEIL = np.nextafter(1.0, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -z))


@dataclass
class LogisticRegressionModel(Frozen):
    weights: np.ndarray  # one per feature, original scale
    bias: float
    converged: bool

    @property
    def n_features(self) -> int:
        return int(self.weights.size)

    def score_many(self, features) -> np.ndarray:
        x = finite(feature_matrix(features, self.n_features), "features")  # a nan would score nan
        p = _sigmoid(x @ self.weights + self.bias)
        return np.clip(p, _P_FLOOR, _P_CEIL)  # keep scores strictly inside (0, 1)


def fit_logistic(features, labels) -> LogisticRegressionModel:
    """Fit by Newton ascent of the binomial log-likelihood.

    Stops when the gradient infinity-norm drops to 1e-8 or after 500
    steps; on (quasi-)separable data the bias and weights simply stop
    growing at the cap.
    """
    x, y = labelled(features, labels, "features", "feature row", ndim=2)

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    usable = std > 0.0
    scale = np.where(usable, std, 1.0)
    xs = (x - mean) / scale
    xs[:, ~usable] = 0.0  # constant columns carry no signal
    design = np.hstack([xs, np.ones((x.shape[0], 1))])

    beta = np.zeros(design.shape[1])
    converged = False
    for _ in range(_MAX_ITERATIONS):
        p = _sigmoid(design @ beta)
        grad = design.T @ (y - p)
        if np.max(np.abs(grad)) <= _TOLERANCE:
            converged = True
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hess = design.T @ (design * w[:, None])
        hess[np.diag_indices_from(hess)] += 1e-10  # numerical guard only
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        beta = beta + step

    weights_std = beta[:-1]
    bias_std = beta[-1]
    weights = np.where(usable, weights_std / scale, 0.0)
    bias = float(bias_std - np.dot(weights, mean))
    return LogisticRegressionModel(
        weights=weights,
        bias=bias,
        converged=converged,
    )

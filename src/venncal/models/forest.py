"""Random forest: bagged CART trees with per-split feature subsampling.

The forest score is the arithmetic mean of the member trees' leaf positive
fractions.  Each tree gets an independent random stream spawned from the
forest seed, drawn for its bootstrap sample first and then for one feature
subset per split in the tree's preorder.  The trees grow in lockstep in the
tree module's one builder, which searches the next node of every tree in
flight with one sort; each tree is the same as if it were grown alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from venncal.models.tree import DecisionTreeModel, _grow, _validate_training_data

__all__ = ["RandomForestModel", "fit_forest"]


@dataclass
class RandomForestModel:
    trees: list[DecisionTreeModel]
    n_trees: int
    max_features: int
    bootstrap: bool
    seed: int

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def score_many(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        total = np.zeros(x.shape[0], dtype=np.float64)
        for tree in self.trees:
            total += tree.score_many(x)
        return total / self.n_trees

    def score(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size != self.n_features:
            raise ValueError(f"expected a feature vector of length {self.n_features}, got shape {x.shape}")
        return float(self.score_many(x[None, :])[0])

    def to_dict(self) -> dict:
        return {
            "kind": "random_forest",
            "n_trees": self.n_trees,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RandomForestModel":
        return cls(
            trees=[DecisionTreeModel.from_dict(t) for t in data["trees"]],
            n_trees=int(data["n_trees"]),
            max_features=int(data["max_features"]),
            bootstrap=bool(data["bootstrap"]),
            seed=int(data["seed"]),
        )


def fit_forest(
    features,
    labels,
    *,
    n_trees: int = 100,
    max_features: int | None = None,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    min_samples_split: int = 2,
    bootstrap: bool = True,
    seed: int = 0,
) -> RandomForestModel:
    """Train n_trees CART trees on bootstrap samples.

    max_features defaults to ceil(sqrt(n_features)).  With bootstrap=False
    and max_features equal to the feature count the forest degenerates to
    n_trees copies of the plain tree fit.
    """
    x, y = _validate_training_data(features, labels)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n_features = x.shape[1]
    if max_features is None:
        max_features = math.ceil(math.sqrt(n_features))
    if not (1 <= max_features <= n_features):
        raise ValueError(f"max_features must be in [1, {n_features}]")

    trees = _grow(
        x,
        y,
        [np.random.default_rng(stream) for stream in np.random.SeedSequence(seed).spawn(n_trees)],
        bootstrap=bootstrap,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split,
        max_features=max_features,
        seed=seed,
    )
    return RandomForestModel(
        trees=trees,
        n_trees=n_trees,
        max_features=max_features,
        bootstrap=bootstrap,
        seed=seed,
    )

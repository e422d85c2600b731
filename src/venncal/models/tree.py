"""CART-style binary classification tree.

Greedy recursive partitioning on the Gini criterion.  Candidate thresholds
are the midpoints between consecutive distinct sorted feature values at the
node; ties in impurity decrease are broken by lowest feature index, then
lowest threshold, which makes the split choice reproducible against an
exhaustive-enumeration oracle.

The split search is vectorised across the candidate features of a node.
Scores are compared in floating point first and near-ties are re-compared
with exact integer arithmetic, so the tie rule holds exactly even when two
candidates have genuinely equal gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecisionTreeModel", "fit_tree"]

_NO_FEATURE = -1
_TIE_WINDOW = 1e-9


@dataclass
class DecisionTreeModel:
    """Fitted tree as parallel node arrays (index 0 is the root).

    Internal nodes have feature_index >= 0 and route x left when
    x[feature_index] <= threshold.  Leaves have feature_index == -1 and
    score n_positive / n_samples.  Every node keeps its training counts so
    subtrees can be collapsed into leaves later.
    """

    feature_index: np.ndarray
    threshold: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    n_samples: np.ndarray
    n_positive: np.ndarray
    n_features: int
    max_depth: int | None
    min_samples_leaf: int
    min_samples_split: int
    seed: int

    @property
    def n_nodes(self) -> int:
        return int(self.feature_index.size)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature_index == _NO_FEATURE))

    def leaf_score(self, node: int) -> float:
        return float(self.n_positive[node] / self.n_samples[node])

    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            if self.feature_index[node] != _NO_FEATURE:
                for child in (self.left_child[node], self.right_child[node]):
                    depths[child] = depths[node] + 1
        return int(depths.max(initial=0))

    def apply(self, features) -> np.ndarray:
        """Leaf index for every row of a feature matrix."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) feature matrix, got {x.shape}")
        node = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            feat = self.feature_index[node]
            active = np.flatnonzero(feat != _NO_FEATURE)
            if active.size == 0:
                return node
            rows = node[active]
            go_left = x[active, feat[active]] <= self.threshold[rows]
            node[active] = np.where(go_left, self.left_child[rows], self.right_child[rows])

    def score_many(self, features) -> np.ndarray:
        leaves = self.apply(features)
        return self.n_positive[leaves] / self.n_samples[leaves]

    def score(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size != self.n_features:
            raise ValueError(f"expected a feature vector of length {self.n_features}, got shape {x.shape}")
        return float(self.score_many(x[None, :])[0])

    def to_dict(self) -> dict:
        return {
            "kind": "decision_tree",
            "n_features": self.n_features,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_samples_split": self.min_samples_split,
            "seed": self.seed,
            "feature_index": self.feature_index.tolist(),
            "threshold": [None if np.isnan(t) else float(t) for t in self.threshold],
            "left_child": self.left_child.tolist(),
            "right_child": self.right_child.tolist(),
            "n_samples": self.n_samples.tolist(),
            "n_positive": self.n_positive.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTreeModel":
        return cls(
            feature_index=np.asarray(data["feature_index"], dtype=np.int64),
            threshold=np.asarray(
                [np.nan if t is None else t for t in data["threshold"]], dtype=np.float64
            ),
            left_child=np.asarray(data["left_child"], dtype=np.int64),
            right_child=np.asarray(data["right_child"], dtype=np.int64),
            n_samples=np.asarray(data["n_samples"], dtype=np.int64),
            n_positive=np.asarray(data["n_positive"], dtype=np.int64),
            n_features=int(data["n_features"]),
            max_depth=data["max_depth"],
            min_samples_leaf=int(data["min_samples_leaf"]),
            min_samples_split=int(data["min_samples_split"]),
            seed=int(data["seed"]),
        )


def _validate_training_data(features, labels):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if y.ndim != 1 or y.size != x.shape[0]:
        raise ValueError("labels must be one per feature row")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on empty input")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return x, y


class _Builder:
    def __init__(self, x, y, max_depth, min_samples_leaf, min_samples_split, max_features, rng):
        self.x = x
        self.y = y
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.n_features = x.shape[1]
        self.max_features = max_features
        self.rng = rng
        self._subset_batch: np.ndarray | None = None
        self._subset_next = 0
        self.feature_index: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.n_samples: list[int] = []
        self.n_positive: list[int] = []

    def _new_node(self, m: int, pos: int) -> int:
        node = len(self.feature_index)
        self.feature_index.append(_NO_FEATURE)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.n_samples.append(m)
        self.n_positive.append(pos)
        return node

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self.n_features:
            return np.arange(self.n_features)
        # batched uniform subsets: the smallest k of i.i.d. uniforms per row
        if self._subset_batch is None or self._subset_next >= self._subset_batch.shape[0]:
            draws = self.rng.random((256, self.n_features))
            picks = np.argpartition(draws, self.max_features - 1, axis=1)[:, : self.max_features]
            self._subset_batch = np.sort(picks, axis=1)
            self._subset_next = 0
        chosen = self._subset_batch[self._subset_next]
        self._subset_next += 1
        return chosen

    def _best_split(self, idx: np.ndarray, pos: int):
        """Best (feature, threshold, left row mask) at a node, or None.

        Maximises (pL^2 + qL^2)/nL + (pR^2 + qR^2)/nR, which orders splits
        identically to Gini impurity decrease.  Scores are only computed at
        boundary positions (value changes in sorted order) and float
        near-ties are re-compared with exact integers to enforce the tie
        rule.
        """
        m = idx.size
        feats = self._candidate_features()
        sub = self.x[idx][:, feats]
        order = np.argsort(sub, axis=0)
        cols = np.arange(feats.size)
        sorted_vals = sub[order, cols]
        cum_pos = np.cumsum(self.y[idx][order], axis=0)

        is_boundary = sorted_vals[:-1] != sorted_vals[1:]
        if self.min_samples_leaf > 1:
            n_left = np.arange(1, m)
            size_ok = (n_left >= self.min_samples_leaf) & (m - n_left >= self.min_samples_leaf)
            is_boundary &= size_ok[:, None]
        # feature-major candidate order matches the tie rule (lowest feature
        # index first, then lowest threshold)
        cand_feat, cand_pos = np.nonzero(is_boundary.T)
        if cand_feat.size == 0:
            return None

        p_left = cum_pos[cand_pos, cand_feat]
        n_left = (cand_pos + 1).astype(np.float64)
        n_right = float(m) - n_left
        p_right = float(pos) - p_left
        q_left = n_left - p_left
        q_right = n_right - p_right
        score = (p_left * p_left + q_left * q_left) / n_left
        score += (p_right * p_right + q_right * q_right) / n_right

        best_float = float(score.max())
        window = _TIE_WINDOW * (1.0 + abs(best_float))
        near = np.flatnonzero(score >= best_float - window)
        best = None  # (num, den, candidate index)
        for i in near:
            n_l = int(cand_pos[i]) + 1
            n_r = m - n_l
            p_l = int(round(p_left[i]))
            q_l = n_l - p_l
            p_r = pos - p_l
            q_r = n_r - p_r
            num = (p_l * p_l + q_l * q_l) * n_r + (p_r * p_r + q_r * q_r) * n_l
            den = n_l * n_r
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, i)
        i = best[2]
        fl = int(cand_feat[i])
        sp = int(cand_pos[i])
        lo = float(sorted_vals[sp, fl])
        hi = float(sorted_vals[sp + 1, fl])
        thr = (lo + hi) / 2.0
        if not (lo < thr < hi):  # adjacent floats: keep routing consistent
            thr = lo
        feature = int(feats[fl])
        left_mask = sub[:, fl] <= thr
        return feature, thr, left_mask

    def build(self) -> int:
        root_idx = np.arange(self.x.shape[0])
        stack = [(root_idx, 0, -1, False)]  # (rows, depth, parent, is_right)
        while stack:
            idx, depth, parent, is_right = stack.pop()
            m = idx.size
            pos = int(round(float(self.y[idx].sum())))
            node = self._new_node(m, pos)
            if parent >= 0:
                if is_right:
                    self.right[parent] = node
                else:
                    self.left[parent] = node

            splittable = (
                0 < pos < m
                and m >= self.min_samples_split
                and m >= 2 * self.min_samples_leaf
                and (self.max_depth is None or depth < self.max_depth)
            )
            split = self._best_split(idx, pos) if splittable else None
            if split is None:
                continue
            feature, thr, left_mask = split
            self.feature_index[node] = feature
            self.threshold[node] = thr
            # push right first so the left subtree is built first (LIFO)
            stack.append((idx[~left_mask], depth + 1, node, True))
            stack.append((idx[left_mask], depth + 1, node, False))
        return len(self.feature_index)


def fit_tree(
    features,
    labels,
    *,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    min_samples_split: int = 2,
    max_features: int | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> DecisionTreeModel:
    """Fit a CART tree; deterministic given the data, seed and tie rule.

    max_features, when set, restricts each split to a fresh random subset
    of the features (used by the forest); with the default None the search
    is exhaustive and the seed is never consumed.
    """
    x, y = _validate_training_data(features, labels)
    if min_samples_leaf < 1 or min_samples_split < 2:
        raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2 required")
    if max_features is not None and not (1 <= max_features <= x.shape[1]):
        raise ValueError(f"max_features must be in [1, {x.shape[1]}]")
    if rng is None:
        rng = np.random.default_rng(seed)
    builder = _Builder(x, y, max_depth, min_samples_leaf, min_samples_split, max_features, rng)
    builder.build()
    return DecisionTreeModel(
        feature_index=np.asarray(builder.feature_index, dtype=np.int64),
        threshold=np.asarray(builder.threshold, dtype=np.float64),
        left_child=np.asarray(builder.left, dtype=np.int64),
        right_child=np.asarray(builder.right, dtype=np.int64),
        n_samples=np.asarray(builder.n_samples, dtype=np.int64),
        n_positive=np.asarray(builder.n_positive, dtype=np.int64),
        n_features=x.shape[1],
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split,
        seed=seed,
    )

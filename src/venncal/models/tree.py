"""CART-style classification trees and random forests of them.

Greedy recursive partitioning on the Gini criterion.  Candidate thresholds
are the midpoints between consecutive distinct sorted feature values at the
node; ties in impurity decrease are broken by lowest feature index, then
lowest threshold, which makes the split choice reproducible against an
exhaustive-enumeration oracle.

A random forest bags such trees with per-split feature subsampling and
scores the arithmetic mean of its trees' leaf positive fractions.  Each
tree draws from its own stream, spawned from ``SeedSequence(seed)``: its
bootstrap sample first, then one feature subset per splittable node in
preorder.

One builder, ``_grow``, grows every tree: a forest's trees in lockstep and
a single tree as a forest of one.  Features are rank-coded once per fit.
Each step takes pending nodes of the trees in flight and searches all of
them at once.  A tree that draws feature subsets gives its next splittable
node in preorder, so its random stream is drawn exactly as if it were
grown alone.  A tree that draws none (``fit_tree`` without max_features,
and every tree of a forest whose max_features is the feature count) gives
all its pending splittable nodes, breadth-first as SPRINT grows a tree
(Shafer, Agrawal & Mehta, VLDB 1996); its nodes are numbered as the steps
take them and renumbered to preorder once it is done, so either way a
model is in preorder.  One sort of packed keys
``(slot * k + candidate) << bits | (2 * rank + label)``, one slot per node
of the step, orders every (node, candidate feature) segment by value, a
cumulative sum over runs of equal keys counts the positives left of each
value boundary, and a segmented maximum gives each node's best score.
Scores are compared in floating point first and near-ties are re-compared
with exact integer arithmetic, so the tie rule holds exactly even when two
candidates have genuinely equal gain.

One traversal, ``_walk``, scores every tree: a forest's trees at once and
a single tree as a forest of one.  ``_pack`` concatenates the node arrays
of all trees with per-tree offsets and makes both child slots of a leaf
point to the leaf itself, so one gather ``child[2 * node + go_left]``
advances every (tree, row) pair a level, with no branch on leaf versus
split; ``x <= threshold`` routes left, and a nan goes right.  The walk
cuts a batch into chunks of about ``_PAIRS_PER_CHUNK`` pairs: one block of
up to that many rows times one group of consecutive trees, as many as fill
the chunk, so a 1000-row batch of the 100-tree forest walks 8 trees at a
time and each level's gathers stay within those trees' nodes.  A chunk
advances ``_LEVELS_PER_COMPACTION`` levels, then the pairs that reached a
leaf leave its active set; a finished pair that walks on stays on its
leaf.  A forest's score sums its trees' leaf fractions in tree order and
divides by the tree count.  Each chunk is summed by one
``np.add.accumulate`` down its tree axis, which adds row after row, and a
block's later tree groups carry on from the running total of the earlier
ones.  ``np.sum`` or ``np.add.reduce`` must not take its place: on a
1-row batch numpy sums the tree axis pairwise, which rounds differently.
Both constants were set by scoring 1000-row batches and 3 333 rows with
the 100-tree reference forest on a 2-vCPU Xeon VM, when a chunk still
held every tree: per batch, chunks of 2^12, 2^13, 2^14 and 2^15 pairs
took 9.3, 8.1, 7.5 and 8.5 ms and raised peak RSS by 0.0, 0.1, 0.7 and
1.8 MB, and compacting every 4 to 6 levels was fastest.  Timed again on
chunks of one row block times one tree group (2-vCPU Xeon VM, the median
of 7 rounds of each round's fastest of 15 batches), 2^12, 2^13 and 2^14
pairs took 14.5, 12.0 and 14.1 ms per 1000-row batch and 50.6, 46.6 and
47.4 ms for 3 333 rows, and compacting every 3, 4, 5 or 6 levels took
14.3, 12.0, 13.3 and 12.5 ms per batch, so both constants stay.  A
forest packs its trees once, on construction; a tree packs itself on each
call, which is O(nodes) and leaves no cache to go stale.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["DecisionTreeModel", "RandomForestModel", "fit_forest", "fit_tree"]

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

    def node_depths(self) -> np.ndarray:
        """Depth of every node; parents come before their children in every tree."""
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in np.flatnonzero(self.feature_index != _NO_FEATURE):
            depths[self.left_child[node]] = depths[self.right_child[node]] = depths[node] + 1
        return depths

    def collapsed(self, max_depth: int) -> "DecisionTreeModel":
        """Copy of the tree with every node at max_depth turned into a leaf.

        The nodes no deeper than max_depth keep their order, so a tree in
        preorder stays in preorder.
        """
        if max_depth < 0:  # would keep no node, not even the root
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        depths = self.node_depths()
        keep = np.flatnonzero(depths <= max_depth)
        split = (self.feature_index[keep] != _NO_FEATURE) & (depths[keep] < max_depth)
        return replace(_renumbered(self, keep, split), max_depth=max_depth)

    def apply(self, features) -> np.ndarray:
        """Leaf index for every row of a feature matrix: the packed walk over a forest of one."""
        return np.concatenate([leaves[0] for _, _, leaves in _walk(_pack([self]), features)])

    def score_many(self, features) -> np.ndarray:
        leaves = self.apply(features)
        return self.n_positive[leaves] / self.n_samples[leaves]

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
        """Load a tree written by ``to_dict``; raises ValueError naming the first bad node."""
        tree = cls(
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
        tree._check_nodes()
        return tree

    def _check_nodes(self) -> None:
        """Every split's children lie after it, and every node but the root has one parent.

        Together these make the node arrays a tree whose parents come before
        their children, which ``node_depths`` and ``apply`` rely on.  Each
        node also holds at least one sample, and at most that many positives,
        so every leaf fraction lies in [0, 1].
        """
        n = self.n_nodes
        arrays = (self.feature_index, self.threshold, self.left_child,
                  self.right_child, self.n_samples, self.n_positive)
        if n == 0 or {a.shape for a in arrays} != {(n,)}:
            shapes = [a.shape for a in arrays]
            raise ValueError(f"node arrays must be non-empty and of one length, got shapes {shapes}")
        split = np.flatnonzero(self.feature_index != _NO_FEATURE)
        bad = split[(self.feature_index[split] < 0) | (self.feature_index[split] >= self.n_features)]
        if bad.size:
            node = int(bad[0])
            raise ValueError(
                f"node {node}: split feature {self.feature_index[node]} is not in [0, {self.n_features})"
            )
        for side, child in (("left", self.left_child), ("right", self.right_child)):
            bad = split[(child[split] <= split) | (child[split] >= n)]
            if bad.size:
                node = int(bad[0])
                raise ValueError(f"node {node}: {side} child {child[node]} must lie after it and below {n}")
        parents = np.bincount(np.concatenate([self.left_child[split], self.right_child[split]]), minlength=n)
        bad = np.flatnonzero(parents[1:] != 1) + 1
        if bad.size:
            node = int(bad[0])
            raise ValueError(f"node {node} is a child of {parents[node]} split nodes, not of one")
        bad = np.flatnonzero((self.n_samples < 1) | (self.n_positive < 0) | (self.n_positive > self.n_samples))
        if bad.size:
            node = int(bad[0])
            raise ValueError(f"node {node}: {self.n_positive[node]} positives of {self.n_samples[node]} samples, "
                             "need 0 <= n_positive <= n_samples and n_samples >= 1")


@dataclass(frozen=True)
class _Packed:
    """The node arrays of one or more trees concatenated, in the form the walk reads.

    Tree t's nodes start at root[t]; child[2 * node + go_left] is the node a
    row reaches next, and both slots of a leaf hold the leaf itself.  A leaf
    has feature 0, so its gather stays inside the row.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    leaf: np.ndarray
    root: np.ndarray
    n_features: int


def _pack(trees: list[DecisionTreeModel]) -> _Packed:
    sizes = [tree.n_nodes for tree in trees]
    root = np.cumsum(sizes) - sizes
    feature = np.concatenate([tree.feature_index for tree in trees])
    leaf = feature == _NO_FEATURE
    child = np.empty((feature.size, 2), dtype=np.intp)
    child[:, 0] = np.concatenate([tree.right_child + r for tree, r in zip(trees, root)])
    child[:, 1] = np.concatenate([tree.left_child + r for tree, r in zip(trees, root)])
    child[leaf] = np.flatnonzero(leaf)[:, None]
    return _Packed(
        feature=np.where(leaf, 0, feature).astype(np.intp),
        threshold=np.concatenate([tree.threshold for tree in trees]),
        child=child.ravel(),
        leaf=leaf,
        root=root.astype(np.intp),
        n_features=trees[0].n_features,
    )


def _walk(packed: _Packed, features):
    """The one traversal: the leaf of every (tree, row) pair, in chunks.

    Yields (start, first, leaves) per chunk, where leaves[t, r] is the leaf
    that tree first + t reaches for row start + r.  A chunk is one block of
    rows times one group of consecutive trees; blocks come in row order and
    a block's groups in tree order.  Yields at least one chunk.
    """
    x = np.asarray(features, dtype=np.float64)
    k = packed.n_features
    if x.ndim != 2 or x.shape[1] != k:
        raise ValueError(f"expected (n, {k}) feature matrix, got {x.shape}")
    n_trees, n = packed.root.size, x.shape[0]
    rows = max(1, min(n, _PAIRS_PER_CHUNK))
    group = max(1, _PAIRS_PER_CHUNK // rows)
    for start in range(0, max(n, 1), rows):
        cells = x[start : start + rows].ravel()
        m = min(rows, n - start)
        row_of = np.tile(np.arange(0, m * k, k, dtype=np.intp), min(group, n_trees))  # cell of feature 0
        for first in range(0, n_trees, group):
            roots = packed.root[first : first + group]
            node = np.repeat(roots, m)
            row = row_of[: node.size]
            pair = np.arange(node.size)
            leaves = np.empty(node.size, dtype=np.intp)
            while node.size:
                for _ in range(_LEVELS_PER_COMPACTION):
                    go_left = cells[row + packed.feature[node]] <= packed.threshold[node]
                    node = packed.child[2 * node + go_left]
                done = packed.leaf[node]
                leaves[pair[done]] = node[done]
                active = ~done
                node, row, pair = node[active], row[active], pair[active]
            yield start, first, leaves.reshape(roots.size, m)


def _validate_training_data(features, labels):
    x = np.asarray(features, dtype=np.float64)
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


# Both bound one lockstep step and were set by timing forest fits on the
# reference data: more trees in flight share the numpy call overhead of a
# step among more nodes but hold more row buffers, and more rows per step
# share it too but enlarge the step's key and candidate arrays.  Fitting
# 100-tree forests on 5 999 and 8 999 reference rows on a 2-vCPU VM, nine
# interleaved rounds, against 32 trees and 2^14 rows: 64 and 2^15 took
# x0.80 of the time (quartiles 0.78-0.88), 64 and 2^14 x0.93, 128 and 2^14
# x0.89, 128 and 2^15 x0.89.  The traced allocation peak of an 8 999-row
# fit went from 4.1 MB to 5.4 MB (7.1 MB with 128 trees).  With no row
# bound at all an earlier builder peaked at 67 MB resident against 57 MB.
_TREES_IN_FLIGHT = 64
_ROWS_PER_STEP = 1 << 15

# Both bound the scoring walk; the module docstring gives their timings.
_PAIRS_PER_CHUNK = 1 << 13
_LEVELS_PER_COMPACTION = 4


def _key_dtype(bits: int):
    return np.uint32 if bits <= 32 else np.uint64


class _Tree:
    """One tree being grown: its rows, its pending nodes and its node arrays.

    ``rows`` holds original row ids (a bootstrap sample repeats some), not
    copies of feature rows; every node owns a contiguous range of it, which
    a split partitions in place into the left child's range followed by the
    right child's.
    """

    def __init__(self, rows: np.ndarray, positives: int, rng: np.random.Generator):
        self.rows = rows
        self.rng = rng
        self.subsets: np.ndarray | None = None
        self.next_subset = 0
        # pending (start, end, depth, parent, is_right, positives); the right
        # child is pushed first, so nodes taken one per step pop in preorder
        self.stack = [(0, rows.size, 0, -1, False, positives)]
        # typed arrays: 8 bytes a value, where a list would also hold an object
        self.feature_index = array("q")
        self.threshold = array("d")
        self.left = array("q")
        self.right = array("q")
        self.n_samples = array("q")
        self.n_positive = array("q")

    def pop_node(self):
        """Pop the top pending node and number it next, recorded as a leaf until it splits."""
        start, end, depth, parent, is_right, pos = self.stack.pop()
        node = len(self.feature_index)
        self.feature_index.append(_NO_FEATURE)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.n_samples.append(end - start)
        self.n_positive.append(pos)
        if parent >= 0:
            (self.right if is_right else self.left)[parent] = node
        return node, start, end, depth, pos

    def candidate_features(self, n_features: int, max_features: int) -> np.ndarray:
        # batched uniform subsets: the smallest k of i.i.d. uniforms per row
        if self.subsets is None or self.next_subset >= self.subsets.shape[0]:
            draws = self.rng.random((256, n_features))
            picks = np.argpartition(draws, max_features - 1, axis=1)[:, :max_features]
            self.subsets = np.sort(picks, axis=1)
            self.next_subset = 0
        self.next_subset += 1
        return self.subsets[self.next_subset - 1]


def _renumbered(tree: DecisionTreeModel, nodes: np.ndarray, split: np.ndarray) -> DecisionTreeModel:
    """The tree of the given nodes, numbered in their order; split says which of them stay splits.

    The others become leaves.  The children of every node that stays a
    split must be among nodes.
    """
    number = np.zeros(tree.n_nodes, dtype=np.int64)
    number[nodes] = np.arange(nodes.size)
    return replace(
        tree,
        feature_index=np.where(split, tree.feature_index[nodes], _NO_FEATURE),
        threshold=np.where(split, tree.threshold[nodes], np.nan),
        left_child=np.where(split, number[tree.left_child[nodes]], -1),
        right_child=np.where(split, number[tree.right_child[nodes]], -1),
        n_samples=tree.n_samples[nodes],
        n_positive=tree.n_positive[nodes],
    )


def _in_preorder(tree: DecisionTreeModel) -> DecisionTreeModel:
    """The tree with its nodes renumbered to preorder, left subtree first."""
    left, right = tree.left_child.tolist(), tree.right_child.tolist()
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if left[node] >= 0:
            stack += (right[node], left[node])
    order = np.array(order)
    return _renumbered(tree, order, tree.feature_index[order] != _NO_FEATURE)


def _rank_codes(x: np.ndarray, labels: np.ndarray):
    """Rank-coded features, each packed with the row's label.

    packed[r, f] = 2 * rank + label in the smallest unsigned dtype, where
    x[r, f] == values[first_value[f] + rank]: values holds the sorted
    distinct values of every feature, one feature after the other.
    """
    columns = [np.unique(column, return_inverse=True) for column in x.T]
    counts = np.array([distinct.size for distinct, _ in columns])
    packed = np.empty(x.shape, dtype=np.min_scalar_type(2 * counts.max() - 1))
    for f, (_, inverse) in enumerate(columns):
        packed[:, f] = 2 * inverse + labels
    values = np.concatenate([distinct for distinct, _ in columns])
    return packed, values, np.cumsum(counts) - counts


def _segment_starts(counts, k):
    """Where each (slot, candidate) segment starts, when slot j's k segments hold counts[j] each."""
    return (k * (np.cumsum(counts) - counts)[:, None] + np.arange(k) * counts[:, None]).ravel()


def _best_splits(keys, bits, sizes, positives, k, min_samples_leaf):
    """Winning candidate of every node of one step that has one.

    keys are the step's sorted packed keys: the rows of node slot j sit in
    k consecutive segments of sizes[j] keys, one per candidate feature, each
    ordered by rank code.  Maximises (pL^2 + qL^2)/nL + (pR^2 + qR^2)/nR,
    which orders splits identically to Gini impurity decrease.  Scores are
    only computed at value boundaries, and float near-ties are re-compared
    with exact integers to enforce the tie rule.  Returns the winners'
    slots, candidate indices, key positions (the last key left of the
    threshold), left sizes and left positives, in slot order.
    """
    # runs of equal keys share segment, rank and label; the positives left of
    # a boundary are summed over runs rather than over keys
    boundary = np.empty(keys.size, dtype=bool)
    np.not_equal(keys[:-1], keys[1:], out=boundary[:-1])
    boundary[-1] = True
    ends = np.flatnonzero(boundary)
    del boundary
    ranked = keys[ends]
    cum_pos = np.diff(ends, prepend=-1)
    cum_pos *= (ranked & 1).astype(np.intp, copy=False)  # a run of negatives adds none
    np.cumsum(cum_pos, out=cum_pos)
    ranked >>= 1
    last = np.flatnonzero(ranked[:-1] != ranked[1:])  # last run of each value
    seg = (ranked[last] >> (bits - 1)).astype(np.intp)
    del ranked
    n_left = ends[last] - _segment_starts(sizes, k)[seg] + 1
    m = np.repeat(sizes, k)[seg]
    # a segment's last key is never a boundary: its right side is empty
    keep = (n_left >= min_samples_leaf) & (m - n_left >= min_samples_leaf)
    if not keep.any():
        return (np.zeros(0, dtype=np.intp),) * 5
    last, seg, n_left, m = last[keep], seg[keep], n_left[keep], m[keep]
    cand = ends[last]
    slot = seg // k
    # a segment holds its node's rows once each, so the positives before it
    # are laid out as its keys are
    p_left = cum_pos[last] - _segment_starts(positives, k)[seg]
    del cum_pos, ends, last  # per-run arrays go before the per-candidate scores come

    # feature-major candidate order within a slot matches the tie rule
    # (lowest feature index first, then lowest threshold)
    pos = positives[slot]
    pl = p_left.astype(np.float64)
    nl = n_left.astype(np.float64)
    nr = m.astype(np.float64)
    nr -= nl
    pr = pos.astype(np.float64)
    pr -= pl
    ql = nl - pl
    qr = nr - pr
    # (pl * pl + ql * ql) / nl + (pr * pr + qr * qr) / nr, in place
    score = pl * pl
    ql *= ql
    score += ql
    score /= nl
    pr *= pr
    qr *= qr
    pr += qr
    pr /= nr
    score += pr

    first = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
    best = np.maximum.reduceat(score, first)
    floor = np.empty(sizes.size)
    floor[slot[first]] = best - _TIE_WINDOW * (1.0 + np.abs(best))
    near = np.flatnonzero(score >= floor[slot])
    near_first = np.flatnonzero(np.r_[True, slot[near[1:]] != slot[near[:-1]]])
    near_end = np.append(near_first[1:], near.size)
    winner = near[near_first]
    for g in np.flatnonzero(near_end - near_first > 1):
        best_exact = None  # (num, den, candidate index)
        for i in near[near_first[g] : near_end[g]].tolist():
            n_l = int(n_left[i])
            n_r = int(m[i]) - n_l
            p_l = int(p_left[i])
            q_l = n_l - p_l
            p_r = int(pos[i]) - p_l
            q_r = n_r - p_r
            num = (p_l * p_l + q_l * q_l) * n_r + (p_r * p_r + q_r * q_r) * n_l
            den = n_l * n_r
            if best_exact is None or num * best_exact[1] > best_exact[0] * den:
                best_exact = (num, den, i)
        winner[g] = best_exact[2]
    slot = slot[winner]
    return slot, seg[winner] - k * slot, cand[winner], n_left[winner], p_left[winner]


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    rngs: list[np.random.Generator],
    *,
    bootstrap: bool,
    max_depth: int | None,
    min_samples_leaf: int,
    min_samples_split: int,
    max_features: int | None,
    seed: int,
) -> list[DecisionTreeModel]:
    """Grow one tree per generator, all in lockstep; the only tree builder.

    Tree t draws from rngs[t] alone: its bootstrap sample first (when
    bootstrap is set), then one feature subset per splittable node in
    preorder (when max_features is below the feature count).  A step takes
    the next splittable node of every such tree in flight, or all pending
    splittable nodes of a tree that draws no subsets, and searches them all
    at once, so each tree equals the one grown alone from its generator.
    """
    n, n_features = x.shape
    if max_features is not None and not 1 <= max_features <= n_features:
        raise ValueError(f"max_features must be in [1, {n_features}]")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
    subsets = max_features is not None and max_features < n_features
    k = max_features if subsets else n_features
    labels = y.astype(np.uint8)
    packed, values, first_value = _rank_codes(x, labels)
    bits = int(packed.max(initial=1)).bit_length()
    min_rows = max(min_samples_split, 2 * min_samples_leaf)
    # the smallest dtype for row ids: every tree in flight holds n of them
    row_dtype = np.min_scalar_type(n - 1)

    def model(tree: _Tree) -> DecisionTreeModel:
        grown = DecisionTreeModel(
            feature_index=np.array(tree.feature_index, dtype=np.int64),
            threshold=np.array(tree.threshold, dtype=np.float64),
            left_child=np.array(tree.left, dtype=np.int64),
            right_child=np.array(tree.right, dtype=np.int64),
            n_samples=np.array(tree.n_samples, dtype=np.int64),
            n_positive=np.array(tree.n_positive, dtype=np.int64),
            n_features=n_features,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split,
            seed=seed,
        )
        # a tree that draws no subsets numbered its nodes as the steps took them
        return grown if subsets else _in_preorder(grown)

    def split(step: list) -> None:
        """Search every node of one step at once and split those that can.

        step holds (tree, node, start, end, depth, positives) per node; the
        arrays below die on return, before the next step allocates its own.
        """
        # key = (slot * k + candidate) << bits | (2 * rank + label), one slot per node
        key_dtype = _key_dtype(bits + (len(step) * k - 1).bit_length())
        segment_keys = (np.arange(len(step) * k, dtype=key_dtype) << bits).reshape(len(step), k)
        sizes = np.array([entry[3] - entry[2] for entry in step])
        positives = np.array([entry[5] for entry in step])
        if subsets:
            feats = np.array([entry[0].candidate_features(n_features, k) for entry in step])
        else:
            feats = np.broadcast_to(np.arange(n_features), (len(step), k))
        rows = np.concatenate([tree.rows[start:end] for tree, _, start, end, _, _ in step])
        # flat index of each row's first cell in packed; widened before the
        # multiply, since row ids may be as narrow as uint8
        first_cell = rows.astype(np.intp)
        first_cell *= n_features
        cells = np.empty_like(first_cell)
        # one contiguous row of keys per candidate; np.repeat spreads the
        # per-node values, and one-dimensional np.take with intp indices is
        # several times faster here than two-dimensional fancy indexing
        keys = np.empty((k, rows.size), dtype=key_dtype)
        for c in range(k):
            np.add(np.repeat(feats[:, c], sizes), first_cell, out=cells)
            keys[c] = np.take(packed, cells)
            keys[c] |= np.repeat(segment_keys[:, c], sizes)
        keys = keys.ravel()
        keys.sort()
        slot, candidate, at, n_left, p_left = _best_splits(keys, bits, sizes, positives, k, min_samples_leaf)
        if slot.size == 0:
            return

        rank_mask = (1 << (bits - 1)) - 1
        feature = feats[slot, candidate]
        rank = ((keys[at] >> 1) & rank_mask).astype(np.intp)
        next_rank = ((keys[at + 1] >> 1) & rank_mask).astype(np.intp)
        del keys
        lo = values[first_value[feature] + rank]
        hi = values[first_value[feature] + next_rank]
        with np.errstate(over="ignore"):  # lo + hi beyond the float range: thr = lo below
            thr = (lo + hi) / 2.0
        adjacent = ~((lo < thr) & (thr < hi))  # adjacent floats: keep routing consistent
        thr[adjacent] = lo[adjacent]

        # partition every splitting node's rows: left range, then right range
        split_feature = np.zeros(len(step), dtype=np.intp)
        split_rank = np.full(len(step), rank_mask, dtype=packed.dtype)
        split_feature[slot] = feature
        split_rank[slot] = rank
        np.add(np.repeat(split_feature, sizes), first_cell, out=cells)
        row_rank = np.take(packed, cells)
        del first_cell, cells
        row_rank >>= 1
        go_left = row_rank <= np.repeat(split_rank, sizes)
        left_rows, right_rows = rows[go_left], rows[~go_left]
        left_sizes = sizes.copy()
        left_sizes[slot] = n_left
        right_sizes = sizes - left_sizes
        left_at = np.cumsum(left_sizes) - left_sizes
        right_at = np.cumsum(right_sizes) - right_sizes
        for j, f, t, n_l, p_l, l_at, r_at in zip(
            slot.tolist(), feature.tolist(), thr.tolist(), n_left.tolist(), p_left.tolist(),
            left_at[slot].tolist(), right_at[slot].tolist(),
        ):
            tree, node, start, end, depth, pos = step[j]
            tree.feature_index[node] = f
            tree.threshold[node] = t
            mid = start + n_l
            tree.rows[start:mid] = left_rows[l_at : l_at + n_l]
            tree.rows[mid:end] = right_rows[r_at : r_at + end - mid]
            tree.stack.append((mid, end, depth + 1, node, True, pos - p_l))
            tree.stack.append((start, mid, depth + 1, node, False, p_l))

    grown: list[DecisionTreeModel | None] = [None] * len(rngs)
    waiting = list(enumerate(rngs))[::-1]
    flight: list[tuple[int, _Tree]] = []
    while waiting or flight:
        while waiting and len(flight) < _TREES_IN_FLIGHT:
            index, rng = waiting.pop()
            sample = (rng.integers(0, n, size=n) if bootstrap else np.arange(n)).astype(row_dtype)
            flight.append((index, _Tree(sample, int(labels[sample].sum()), rng)))

        step = []  # (tree, node, start, end, depth, positives)
        n_rows = 0
        taken, skipped = [], []
        for index, tree in flight:
            first, fits = len(step), True
            # a tree that draws subsets gives one node, so its generator draws in preorder
            while tree.stack and fits and not (subsets and len(step) > first):
                start, end, depth, _, _, pos = tree.stack[-1]
                if not (0 < pos < end - start >= min_rows and (max_depth is None or depth < max_depth)):
                    tree.pop_node()  # a leaf
                elif fits := not step or n_rows + end - start <= _ROWS_PER_STEP:
                    step.append((tree, *tree.pop_node()))
                    n_rows += end - start
            if not fits:
                skipped.append((index, tree))
            elif len(step) > first:
                taken.append((index, tree))
            else:
                grown[index] = model(tree)
        # a tree whose node did not fit goes first in the next step
        flight = skipped + taken
        if step:
            split(step)
    return grown


def fit_tree(
    features,
    labels,
    *,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    min_samples_split: int = 2,
    max_features: int | None = None,
    seed: int = 0,
) -> DecisionTreeModel:
    """Fit a CART tree; deterministic given the data, seed and tie rule.

    max_features, when set, restricts each split to a fresh random subset
    of the features drawn from default_rng(seed); with the default None the
    search is exhaustive and the seed is never consumed.
    """
    x, y = _validate_training_data(features, labels)
    (tree,) = _grow(
        x,
        y,
        [np.random.default_rng(seed)],
        bootstrap=False,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        min_samples_split=min_samples_split,
        max_features=max_features,
        seed=seed,
    )
    return tree


@dataclass
class RandomForestModel:
    trees: list[DecisionTreeModel]
    max_features: int
    bootstrap: bool
    seed: int
    _packed: _Packed = field(init=False, repr=False, compare=False)
    _fraction: np.ndarray = field(init=False, repr=False, compare=False)  # of every packed node

    def __post_init__(self):
        widths = {tree.n_features for tree in self.trees}
        if len(widths) != 1:
            raise ValueError(f"a forest needs trees of one feature count, got {sorted(widths)}")
        self._packed = _pack(self.trees)
        self._fraction = np.concatenate([tree.n_positive / tree.n_samples for tree in self.trees])

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def score_many(self, features) -> np.ndarray:
        totals = []
        for _, first, leaves in _walk(self._packed, features):
            fractions = self._fraction[leaves]
            if first:  # a later tree group continues its row block's running total
                fractions[0] += totals.pop()
            # accumulate adds row after row, in tree order; a reduce could pair them
            totals.append(np.add.accumulate(fractions, axis=0)[-1])
        return np.concatenate(totals) / self.n_trees

    def to_dict(self) -> dict:
        return {
            "kind": "random_forest",
            "n_trees": self.n_trees,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "trees": [tree.to_dict() for tree in self.trees],
        }


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
    if max_features is None:
        max_features = math.ceil(math.sqrt(x.shape[1]))
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
    return RandomForestModel(trees=trees, max_features=max_features, bootstrap=bootstrap, seed=seed)

"""CART-style classification trees and random forests of them.

Greedy recursive partitioning on the Gini criterion.  Candidate thresholds
are the midpoints between consecutive distinct sorted feature values at the
node; ties in impurity decrease are broken by lowest feature index, then
lowest threshold, which makes the split choice reproducible against an
exhaustive-enumeration oracle.

A random forest bags such trees and scores the arithmetic mean of their
leaf positive fractions.  ``fit_forest`` fits it one way: each tree on a
bootstrap sample, each split searching ceil(sqrt(F)) of the F features,
leaves down to one row.  Each tree draws from its own stream, spawned
from ``SeedSequence(seed)``: its bootstrap sample first, then one feature
subset per splittable node in preorder.

One builder, ``_grow``, grows every tree: a forest's trees in lockstep and
a single tree as a forest of one.  Features are rank-coded once per fit.
A split records its two children as leaves, and only a child that can
split is pushed on its tree's stack, right child first.  Each step takes
pending nodes of the trees in flight and searches all of them at once: the
top one of a tree that draws feature subsets, so its random stream is
drawn in preorder exactly as if it were grown alone, and all of a tree
that draws none (every ``fit_tree``, and every tree of a forest on one
feature), breadth-first as SPRINT grows a tree (Shafer, Agrawal & Mehta,
VLDB 1996).  A tree is done when its stack is empty, and is then
renumbered to preorder once, so every model is in preorder.  One sort of
packed keys
``(slot * k + candidate) << bits | (2 * rank + label)``, one slot per node
of the step, orders every (node, candidate feature) segment by value, a
cumulative sum over runs of equal keys counts the positives left of each
value boundary, and a segmented maximum gives each node's best score
pL^2/nL + pR^2/nR, of pL positives among nL rows left and pR among nR
right.  In a node of m rows and p positives, (pL^2 + qL^2)/nL + (pR^2 +
qR^2)/nR with q counting negatives is 2 (pL^2/nL + pR^2/nR) + m - 2p, so
both order its splits as Gini impurity decrease does.  Scores are
compared in floating point first and near-ties are re-compared with exact
integer arithmetic, so the tie rule holds exactly even when two
candidates have genuinely equal gain.

One traversal, ``_walk``, scores every tree: a forest's trees at once and
a single tree as a forest of one, as a predicated traversal with two
gathers a level (VPRED: Asadi, Lin & de Vries, IEEE TKDE 2014).  ``_pack``
concatenates the node arrays of all trees with per-tree offsets and
replaces each split's threshold by its rank among the sorted distinct
thresholds of its feature.  Node i's code is ``feature << fshift | rank
<< cshift | (2 * i + 1)``, the feature field on top, and child slot
``2 * i + go_left`` holds the code of the child it leads to; both slots of
a leaf hold the leaf's own code.  The walk rank-codes each row block once,
one ``searchsorted`` per feature, and stores each cell already tagged as
``feature << fshift | rank << cshift``.  A row reaches its cell as ``row +
(code >> fshift)``, and a code of the same feature is below that cell
exactly when the row's rank is past the split's, that is when the row goes
right, so a level is ``code = codes[(code & cmask) + ((code - cell) >>
63)]``: eight int64 passes, with no mask of the rank field, no bool, no
multiply and no branch on leaf versus split.  This is exact: ``x <= t``
holds just when x's rank among the cuts is at most t's, for every float,
a nan ranking one past the last cut and so going right.  The walk cuts a
batch into chunks of about ``_PAIRS_PER_CHUNK`` pairs: one block of up to
that many rows times one group of consecutive trees, as many as fill the
chunk, so a 1000-row batch of the 100-tree forest walks 16 trees at a time
and each level's gathers stay within those trees' codes.  A chunk first
walks to the depth by which half of its forest's training samples have
reached a leaf (the median leaf depth weighted by ``n_samples``, 10 for
that forest, whose leaves lie 1 to 21 deep), then every
``_LEVELS_PER_COMPACTION`` levels an index list of the pairs not yet on a
leaf becomes its active set; a finished pair that walks on stays on its
leaf.  A forest's score sums its trees' leaf fractions in tree order,
adding a chunk's tree rows one after another onto its row block's running
total, and divides by the tree count.  ``np.sum`` or ``np.add.reduce``
must not take its place: on a 1-row batch numpy sums the tree axis
pairwise, which rounds differently.  Both constants were set by timing
the 100-tree reference forest on 1000-row batches.  ``_PAIRS_PER_CHUNK``
is 2^14: with fewer, each numpy call's overhead is shared among fewer
pairs, and more double a chunk's buffers for no gain.
``_LEVELS_PER_COMPACTION`` is 3: compacting more often builds more index
lists, less often walks finished pairs longer, and no other interval was
faster.  A forest packs its trees once, on construction; a tree packs
itself on first use.  Neither pack can go stale: node arrays, leaf
fractions and packed codes are read-only, a forest holds its trees as a
tuple, and no model's or pack's fields can be rebound.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from venncal.data import Frozen, bounded, feature_matrix, labelled

__all__ = ["DecisionTreeModel", "RandomForestModel", "fit_forest", "fit_tree"]

_NO_FEATURE = -1
# relative to a node's best score pL^2/nL + pR^2/nR: every split scoring at least
# best - _TIE_WINDOW * (1 + best) in floats is re-compared in exact integers
_TIE_WINDOW = 1e-9
_NODE_ARRAYS = ("feature_index", "threshold", "left_child", "right_child", "n_samples", "n_positive")
_SETTING_BOUNDS = (("n_features", 1), ("min_samples_leaf", 1), ("seed", 0))  # the bounds a fit writes


@dataclass
class DecisionTreeModel(Frozen):
    """Fitted tree as parallel node arrays (index 0 is the root); immutable once built.

    Internal nodes have feature_index >= 0 and route x left when
    x[feature_index] <= threshold.  Leaves have feature_index == -1 and
    score n_positive / n_samples.  Every node keeps its training counts so
    subtrees can be collapsed into leaves later.  Every tree is checked
    where it is built, ``replace`` and ``from_dict`` included: its settings
    by ``bounded``, each stored as the Python int it returns, and its nodes
    by ``_check_nodes``.  Its node arrays are then read-only and its fields
    frozen, so the packed codes ``apply`` keeps stay those of the tree.
    """

    feature_index: np.ndarray
    threshold: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    n_samples: np.ndarray
    n_positive: np.ndarray
    n_features: int
    min_samples_leaf: int
    seed: int

    def __post_init__(self):
        for name, low in _SETTING_BOUNDS:  # an int, so to_dict writes it as JSON
            object.__setattr__(self, name, bounded(getattr(self, name), name, low=low))
        self._check_nodes()
        super().__post_init__()

    @property
    def n_nodes(self) -> int:
        return int(self.feature_index.size)

    def node_depths(self) -> np.ndarray:
        """Depth of every node, one pass per level."""
        child = np.stack([self.left_child, self.right_child], axis=1)
        return _depths(self.feature_index != _NO_FEATURE, child, np.zeros(1, dtype=np.intp))

    def collapsed(self, max_depth: int) -> "DecisionTreeModel":
        """Copy of the tree with every node at max_depth turned into a leaf.

        The nodes no deeper than max_depth keep their order, so a tree in
        preorder stays in preorder.
        """
        bounded(max_depth, "max_depth", low=0)  # below 0 would keep no node, not even the root
        depths = self.node_depths()
        keep = np.flatnonzero(depths <= max_depth)
        split = (self.feature_index[keep] != _NO_FEATURE) & (depths[keep] < max_depth)
        return replace(self, **_renumbered({name: getattr(self, name) for name in _NODE_ARRAYS}, keep, split))

    @cached_property
    def _packed(self) -> "_Packed":  # packed on first use: _grow builds trees no one walks alone
        return _pack((self,))

    def apply(self, features) -> np.ndarray:
        """Leaf index for every row of features: the packed walk over a forest of one."""
        return np.concatenate([leaves[0] for _, leaves in _walk(self._packed, features)])

    def score_many(self, features) -> np.ndarray:
        leaves = self.apply(features)
        return self.n_positive[leaves] / self.n_samples[leaves]

    def to_dict(self) -> dict:
        return {
            "kind": "decision_tree",
            "n_features": self.n_features,
            "min_samples_leaf": self.min_samples_leaf,
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
        """Load a tree written by ``to_dict``; raises ValueError naming a missing or unknown key, a setting or the first bad node."""
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:  # data[name] would raise a bare KeyError
            raise ValueError(f"tree document has no {missing[0]!r} field")
        unknown = set(data) - {"kind", *names}
        if unknown:
            raise ValueError(f"unknown tree document keys: {sorted(unknown)}")
        return cls(
            feature_index=np.asarray(data["feature_index"], dtype=np.int64),
            threshold=np.asarray(
                [np.nan if t is None else t for t in data["threshold"]], dtype=np.float64
            ),
            left_child=np.asarray(data["left_child"], dtype=np.int64),
            right_child=np.asarray(data["right_child"], dtype=np.int64),
            n_samples=np.asarray(data["n_samples"], dtype=np.int64),
            n_positive=np.asarray(data["n_positive"], dtype=np.int64),
            **{name: data[name] for name, _ in _SETTING_BOUNDS},
        )

    def _check_nodes(self) -> None:
        """Every split's children lie after it, and every node but the root has one parent.

        Together these make the node arrays a tree whose parents come before
        their children, which ``node_depths`` relies on, and without which
        ``apply`` could loop forever.  Every split's threshold is finite: a nan
        one would rank past every cut in ``_pack``.  Each node holds at least
        one sample, and at most that many positives, so every leaf fraction
        lies in [0, 1].  Raises ValueError naming the first node at fault.
        """
        n = self.n_nodes
        arrays = [getattr(self, name) for name in _NODE_ARRAYS]
        if n == 0 or {a.shape for a in arrays} != {(n,)}:
            shapes = [a.shape for a in arrays]
            raise ValueError(f"node arrays must be non-empty and of one length, got shapes {shapes}")

        def reject(bad, fault):  # fault words the rest from the first node in bad, called only on failure
            if bad.size:
                raise ValueError(f"node {bad[0]}{fault(bad[0])}")

        feature, threshold, samples, positives = self.feature_index, self.threshold, self.n_samples, self.n_positive
        split = np.flatnonzero(feature != _NO_FEATURE)
        reject(split[(feature[split] < 0) | (feature[split] >= self.n_features)],
               lambda i: f": split feature {feature[i]} is not in [0, {self.n_features})")
        reject(split[~np.isfinite(threshold[split])],
               lambda i: f": split threshold {threshold[i]} is not a finite number")
        for side, child in (("left", self.left_child), ("right", self.right_child)):
            reject(split[(child[split] <= split) | (child[split] >= n)],
                   lambda i: f": {side} child {child[i]} must lie after it and below {n}")
        parents = np.bincount(np.concatenate([self.left_child[split], self.right_child[split]]), minlength=n)
        reject(np.flatnonzero(parents[1:] != 1) + 1, lambda i: f" is a child of {parents[i]} split nodes, not of one")
        reject(np.flatnonzero((samples < 1) | (positives < 0) | (positives > samples)),
               lambda i: f": {positives[i]} positives of {samples[i]} samples, "
                         "need 0 <= n_positive <= n_samples and n_samples >= 1")


@dataclass
class _Packed(Frozen):
    """The node arrays of one or more trees concatenated, as the codes the walk follows.

    A split's threshold is replaced by its rank among cuts[f], the sorted
    distinct thresholds of the splits on its feature f.  Node i of the
    concatenation has the code feature << fshift | rank << cshift | (2 * i
    + 1), a leaf with rank and feature 0.  A row's cell of that feature
    holds feature << fshift | its rank << cshift, so the code is below the
    cell exactly when the row ranks past the cut and goes right.
    code[2 * i + go_left] holds the code of the node a row at node i
    reaches next, and both slots of a leaf hold the leaf's own.  Tree t's
    root has the code root[t].  split is laid out by slot, so split[code &
    cmask], with cmask the low cshift bits, says whether a code is a
    split's.  The walk first compacts after first levels, the depth by
    which half of the trees' training samples have reached a leaf.  Every
    array, each of cuts included, is read-only, so a pack cannot be edited
    into walking other trees than those it was packed from.
    """

    code: np.ndarray
    root: np.ndarray
    split: np.ndarray
    cuts: tuple  # (f, cuts[f]) for every feature a split uses
    cshift: int
    fshift: int
    first: int
    n_features: int

    def __post_init__(self):
        for _, cut in self.cuts:  # arrays in a tuple, which Frozen does not reach
            cut.setflags(write=False)
        super().__post_init__()


def _depths(split: np.ndarray, child: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Depth of every node below roots, one pass per level; child[i] holds split node i's two children."""
    depths = np.zeros(split.size, dtype=np.int64)
    nodes, depth = roots, 0
    while nodes.size:
        depths[nodes] = depth
        nodes = child[nodes[split[nodes]]].ravel()
        depth += 1
    return depths


def _pack(trees: tuple[DecisionTreeModel, ...]) -> _Packed:
    """Pack trees, each checked where it was built, for the walk; raises ValueError if a code needs over 63 bits."""
    sizes = [tree.n_nodes for tree in trees]
    root = np.cumsum(sizes) - sizes
    n = sum(sizes)
    feature = np.concatenate([tree.feature_index for tree in trees])
    split = feature != _NO_FEATURE
    leaf = ~split
    child = np.empty((n, 2), dtype=np.intp)
    for tree, r in zip(trees, root.tolist()):
        child[r : r + tree.n_nodes, 0] = tree.right_child + r
        child[r : r + tree.n_nodes, 1] = tree.left_child + r
    # training samples that have reached a leaf by the end of each level
    samples = np.concatenate([tree.n_samples for tree in trees])[leaf]
    reached = np.cumsum(np.bincount(_depths(split, child, root)[leaf], weights=samples))
    del samples
    child[leaf] = np.flatnonzero(leaf)[:, None]
    feature[leaf] = 0  # a leaf's gather stays inside the row
    threshold = np.concatenate([tree.threshold for tree in trees])
    at = np.flatnonzero(split)
    at = at[np.lexsort((threshold[at], feature[at]))]  # splits by feature, then threshold
    f, t = feature[at], threshold[at]
    first = np.diff(f, prepend=-1) != 0  # a feature's first split
    fresh = first.copy()
    fresh[1:] |= t[1:] != t[:-1]  # a distinct threshold's first split; -0.0 == 0.0
    distinct = np.cumsum(fresh) - 1
    code = np.zeros(n, dtype=np.int64)  # each node's rank, then its code
    code[at] = distinct - np.maximum.accumulate(np.where(first, distinct, 0))
    cuts = tuple(zip(f[first].tolist(), np.split(t[fresh], distinct[first][1:])))
    cshift = (2 * n - 1).bit_length()
    most = max((cut.size for _, cut in cuts), default=0)
    fshift = cshift + most.bit_length()  # a cell's rank runs one past its feature's last cut
    widest = int(np.argmax(feature))  # a split of the widest feature, or a leaf if none splits
    bits = fshift + int(feature[widest]).bit_length()
    if bits > 63:
        at = int(np.searchsorted(root, widest, side="right")) - 1  # the tree that holds it
        raise ValueError(f"codes would need {bits} bits, more than 63: {cshift} for {2 * n} child slots, "
                         f"{fshift - cshift} for a feature's {most} cuts, and {bits - fshift} for split "
                         f"feature {feature[widest]} at tree {at} node {widest - root[at]}")
    code <<= cshift
    feature <<= fshift
    code |= feature
    code |= np.arange(1, 2 * n, 2, dtype=np.int64)
    return _Packed(
        code=code[child.ravel()],
        root=code[root],
        split=split.repeat(2),
        cuts=cuts,
        cshift=cshift,
        fshift=fshift,
        first=int(np.argmax(2 * reached >= reached[-1])),
        n_features=trees[0].n_features,
    )


def _walk(packed: _Packed, features):
    """The one traversal: the leaf of every (tree, row) pair, in chunks.

    Yields (first, leaves) per chunk, where leaves[t, r] is the leaf (an
    undoubled node id) that tree first + t reaches for row r of the chunk's
    row block.  A chunk is one block of rows times one group of consecutive
    trees; blocks come in row order and a block's groups in tree order.
    Yields at least one chunk.
    """
    k = packed.n_features
    x = feature_matrix(features, k)
    n_trees, n = packed.root.size, x.shape[0]
    rows = max(1, min(n, _PAIRS_PER_CHUNK))
    group = max(1, _PAIRS_PER_CHUNK // rows)
    cshift, fshift = packed.cshift, packed.fshift
    cmask = (1 << cshift) - 1
    tags = np.arange(k, dtype=np.int64) << fshift
    for start in range(0, max(n, 1), rows):
        block = x[start : start + rows]
        m = block.shape[0]
        # x <= t exactly when x's rank among cuts[f] is at most t's, nan ranking past every cut
        cells = np.zeros(block.shape, dtype=np.int64)
        for f, cut in packed.cuts:
            cells[:, f] = cut.searchsorted(block[:, f])
        cells <<= cshift
        cells |= tags  # a cell lines up with the feature and rank fields of a code
        cells = cells.ravel()
        row_of = np.tile(np.arange(0, m * k, k, dtype=np.intp), min(group, n_trees))  # cell of feature 0
        for first in range(0, n_trees, group):
            roots = packed.root[first : first + group]
            code = np.repeat(roots, m)
            row = row_of[: code.size]
            pair = np.arange(code.size)
            leaves = np.empty(code.size, dtype=np.int64)
            levels = packed.first
            while code.size:
                for _ in range(levels):  # in place where numpy allows: every temporary is int64
                    at = code >> fshift
                    at += row
                    step = cells.take(at)
                    np.subtract(code, step, out=step)
                    step >>= 63  # -1 where the code is below its row's cell: the row goes right
                    code &= cmask
                    step += code
                    code = packed.code.take(step)
                slot = code & cmask
                leaves[pair] = slot  # a pair still walking is written again later
                live = np.flatnonzero(packed.split[slot])
                code, row, pair = code[live], row[live], pair[live]
                levels = _LEVELS_PER_COMPACTION
            yield first, (leaves >> 1).reshape(roots.size, m)


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

# Both bound the scoring walk; the module docstring gives their reasons.
_PAIRS_PER_CHUNK = 1 << 14
_LEVELS_PER_COMPACTION = 3


def _key_dtype(bits: int):
    return np.uint32 if bits <= 32 else np.uint64


class _Tree:
    """One tree being grown: its rows, its pending nodes and its node arrays.

    ``rows`` holds original row ids (a bootstrap sample repeats some), not
    copies of feature rows; every node owns a contiguous range of it, which
    a split partitions in place into the left child's range followed by the
    right child's.  Nodes are numbered as they are recorded, the root first.
    """

    def __init__(self, rows: np.ndarray, positives: int, rng: np.random.Generator, min_rows: int):
        self.rows = rows
        self.rng = rng
        self.min_rows = min_rows
        self.subsets: np.ndarray | None = None
        self.next_subset = 0
        self.stack = []  # (node, start, end, positives) of each recorded node that can split, not yet searched
        # typed arrays: 8 bytes a value, where a list would also hold an object
        self.feature_index = array("q")
        self.threshold = array("d")
        self.left_child = array("q")
        self.right_child = array("q")
        self.n_samples = array("q")
        self.n_positive = array("q")
        self.record(0, rows.size, positives)

    def record(self, start: int, end: int, positives: int) -> int:
        """Number the node of rows[start:end] next, as a leaf until it splits, and push it if it can split."""
        node = len(self.n_samples)
        self.feature_index.append(_NO_FEATURE)
        self.threshold.append(np.nan)
        self.left_child.append(-1)
        self.right_child.append(-1)
        self.n_samples.append(end - start)
        self.n_positive.append(positives)
        if 0 < positives < end - start >= self.min_rows:
            self.stack.append((node, start, end, positives))
        return node

    def candidate_features(self, n_features: int, max_features: int) -> np.ndarray:
        # batched uniform subsets: the smallest k of i.i.d. uniforms per row
        if self.subsets is None or self.next_subset >= self.subsets.shape[0]:
            draws = self.rng.random((256, n_features))
            picks = np.argpartition(draws, max_features - 1, axis=1)[:, :max_features]
            self.subsets = np.sort(picks, axis=1)
            self.next_subset = 0
        self.next_subset += 1
        return self.subsets[self.next_subset - 1]


def _renumbered(arrays: dict, nodes: np.ndarray, split: np.ndarray) -> dict:
    """The node arrays of the given nodes, numbered in their order; split says which of them stay splits.

    arrays maps each name of ``_NODE_ARRAYS`` to a tree's array of it.  The
    other nodes become leaves.  The children of every node that stays a
    split must be among nodes.
    """
    number = np.zeros(arrays["n_samples"].size, dtype=np.int64)
    number[nodes] = np.arange(nodes.size)
    return {
        "feature_index": np.where(split, arrays["feature_index"][nodes], _NO_FEATURE),
        "threshold": np.where(split, arrays["threshold"][nodes], np.nan),
        "left_child": np.where(split, number[arrays["left_child"][nodes]], -1),
        "right_child": np.where(split, number[arrays["right_child"][nodes]], -1),
        "n_samples": arrays["n_samples"][nodes],
        "n_positive": arrays["n_positive"][nodes],
    }


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


def _best_splits(keys, bits, sizes, positives, k, min_samples_leaf):
    """Winning candidate of every node of one step that has one.

    keys are the step's sorted packed keys: the rows of node slot j sit in
    k consecutive segments of sizes[j] keys, one per candidate feature, each
    ordered by rank code.  Maximises pL^2/nL + pR^2/nR, which orders a
    node's splits as Gini impurity decrease does: (pL^2 + qL^2)/nL + (pR^2
    + qR^2)/nR, q counting negatives, is 2 (pL^2/nL + pR^2/nR) + m - 2p in a
    node of m rows and p positives.  Scores are only computed at value
    boundaries, and float near-ties are re-compared as exact integers
    pL^2 nR + pR^2 nL over nL nR to enforce the tie rule.  Returns the
    winners' slots, candidate indices, key positions (the last key left of
    the threshold), left sizes and left positives, in slot order.
    """
    # runs of equal keys share segment, rank and label; the positives left of
    # a boundary are summed over runs rather than over keys
    boundary = np.empty(keys.size, dtype=bool)
    np.not_equal(keys[:-1], keys[1:], out=boundary[:-1])
    boundary[-1] = True
    ends = np.flatnonzero(boundary)
    del boundary
    ranked = keys[ends]
    cum_pos = np.empty(ends.size, dtype=np.intp)  # run lengths, then positives up to each run's end
    cum_pos[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=cum_pos[1:])
    cum_pos *= (ranked & 1).astype(np.intp, copy=False)  # a run of negatives adds none
    np.cumsum(cum_pos, out=cum_pos)
    ranked >>= 1
    last = np.flatnonzero(ranked[:-1] != ranked[1:])  # last run of each value
    seg = (ranked[last] >> (bits - 1)).astype(np.intp)
    del ranked
    # a segment holds its node's rows once each, so the positives before it
    # are laid out as its keys are
    seg_rows = np.repeat(sizes, k)
    seg_positives = np.repeat(positives, k)
    cand = ends[last]
    n_left = cand - (np.cumsum(seg_rows) - seg_rows)[seg] + 1
    m = seg_rows[seg]
    p_left = cum_pos[last] - (np.cumsum(seg_positives) - seg_positives)[seg]
    del cum_pos, ends, last  # per-run arrays go before the per-candidate scores come
    # a segment's last key is never a boundary: its right side is empty
    keep = (n_left >= min_samples_leaf) & (m - n_left >= min_samples_leaf)
    if not keep.any():
        return (np.zeros(0, dtype=np.intp),) * 5
    cand, seg, n_left, m, p_left = cand[keep], seg[keep], n_left[keep], m[keep], p_left[keep]
    slot = seg // k

    # feature-major candidate order within a slot matches the tie rule
    # (lowest feature index first, then lowest threshold)
    pos = positives[slot]
    # pl * pl / nl + pr * pr / nr, in place
    nl = n_left.astype(np.float64)
    nr = m.astype(np.float64)
    nr -= nl
    score = p_left.astype(np.float64)
    pr = pos.astype(np.float64)
    pr -= score
    score *= score
    score /= nl
    pr *= pr
    pr /= nr
    score += pr

    starts = np.empty(slot.size, dtype=bool)  # a slot's first candidate
    starts[0] = True
    np.not_equal(slot[1:], slot[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    best = np.maximum.reduceat(score, first)
    floor = np.empty(sizes.size)
    floor[slot[first]] = best - _TIE_WINDOW * (1.0 + np.abs(best))
    near = np.flatnonzero(score >= floor[slot])
    near_slot = slot[near]
    starts = starts[: near.size]  # now a slot's first near-tie; starts[0] stays True
    np.not_equal(near_slot[1:], near_slot[:-1], out=starts[1:])
    near_first = np.flatnonzero(starts)
    near_end = np.append(near_first[1:], near.size)
    winner = near[near_first]
    for g in np.flatnonzero(near_end - near_first > 1):
        best_exact = None  # (num, den, candidate index)
        for i in near[near_first[g] : near_end[g]].tolist():
            n_l = int(n_left[i])
            n_r = int(m[i]) - n_l
            p_l = int(p_left[i])
            p_r = int(pos[i]) - p_l
            num = p_l * p_l * n_r + p_r * p_r * n_l
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
    min_samples_leaf: int,
    max_features: int,
    seed: int,
) -> list[DecisionTreeModel]:
    """Grow one tree per generator, all in lockstep, to full depth; the only tree builder.

    A node can split while it is impure and holds at least 2 *
    min_samples_leaf rows.  Tree t draws from rngs[t] alone: its bootstrap
    sample first (when bootstrap is set), then one feature subset per
    splittable node in preorder (when max_features is below the feature
    count).  A step searches at once the top pending node of every such tree
    in flight and all pending nodes of every tree that draws no subsets, so
    each tree equals the one grown alone from its generator.  A tree whose
    stack is empty is done and renumbered to preorder.
    """
    n, n_features = x.shape
    min_samples_leaf = bounded(min_samples_leaf, "min_samples_leaf", low=1)
    subsets = max_features < n_features
    k = max_features  # candidate features per node
    labels = y.astype(np.uint8)
    packed, values, first_value = _rank_codes(x, labels)
    bits = int(packed.max(initial=1)).bit_length()
    min_rows = 2 * min_samples_leaf
    # the smallest dtype for row ids: every tree in flight holds n of them
    row_dtype = np.min_scalar_type(n - 1)

    def model(tree: _Tree) -> DecisionTreeModel:
        """The grown tree, renumbered to preorder."""
        left, right = tree.left_child.tolist(), tree.right_child.tolist()
        order, stack = [], [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if left[node] >= 0:
                stack += (right[node], left[node])
        order = np.array(order)
        arrays = {name: np.array(getattr(tree, name)) for name in _NODE_ARRAYS}
        return DecisionTreeModel(
            **_renumbered(arrays, order, arrays["feature_index"][order] != _NO_FEATURE),
            n_features=n_features,
            min_samples_leaf=min_samples_leaf,
            seed=seed,
        )

    def split(step: list) -> None:
        """Search every node of one step at once and split those that can.

        step holds (tree, node, start, end, positives) per node; the
        arrays below die on return, before the next step allocates its own.
        """
        # key = (slot * k + candidate) << bits | (2 * rank + label), one slot per node
        key_dtype = _key_dtype(bits + (len(step) * k - 1).bit_length())
        segment_keys = (np.arange(len(step) * k, dtype=key_dtype) << bits).reshape(len(step), k)
        sizes = np.array([entry[3] - entry[2] for entry in step])
        positives = np.array([entry[4] for entry in step])
        if subsets:
            feats = np.array([entry[0].candidate_features(n_features, k) for entry in step])
        else:
            feats = np.broadcast_to(np.arange(n_features), (len(step), k))
        rows = np.concatenate([tree.rows[start:end] for tree, _, start, end, _ in step])
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
            tree, node, start, end, pos = step[j]
            tree.feature_index[node] = f
            tree.threshold[node] = t
            mid = start + n_l
            tree.rows[start:mid] = left_rows[l_at : l_at + n_l]
            tree.rows[mid:end] = right_rows[r_at : r_at + end - mid]
            # right first, so nodes taken one per step pop in preorder
            tree.right_child[node] = tree.record(mid, end, pos - p_l)
            tree.left_child[node] = tree.record(start, mid, p_l)

    grown: list[DecisionTreeModel | None] = [None] * len(rngs)
    waiting = list(enumerate(rngs))[::-1]
    flight: list[tuple[int, _Tree]] = []
    while waiting or flight:
        while waiting and len(flight) < _TREES_IN_FLIGHT:
            index, rng = waiting.pop()
            sample = (rng.integers(0, n, size=n) if bootstrap else np.arange(n)).astype(row_dtype)
            flight.append((index, _Tree(sample, int(labels[sample].sum()), rng, min_rows)))

        step = []  # (tree, node, start, end, positives)
        n_rows = 0
        taken, skipped = [], []
        for index, tree in flight:
            if not tree.stack:
                grown[index] = model(tree)
                continue
            first, fits = len(step), True
            # a tree that draws subsets gives one node, so its generator draws in preorder
            while tree.stack and fits and not (subsets and len(step) > first):
                _, start, end, _ = tree.stack[-1]
                if fits := not step or n_rows + end - start <= _ROWS_PER_STEP:
                    step.append((tree, *tree.stack.pop()))
                    n_rows += end - start
            (taken if fits else skipped).append((index, tree))
        # a tree whose node did not fit goes first in the next step
        flight = skipped + taken
        if step:
            split(step)
    return grown


def fit_tree(
    features,
    labels,
    *,
    min_samples_leaf: int = 1,
    seed: int = 0,
) -> DecisionTreeModel:
    """Fit a CART tree to full depth; deterministic given the data and tie rule.

    Every split searches every feature, so nothing is drawn and seed is
    only recorded in the model.  ``collapsed(max_depth)`` bounds the depth
    of the fitted tree.
    """
    x, y = labelled(features, labels, "features", "feature row", ndim=2)
    seed = bounded(seed, "seed", low=0)  # before the generator takes it
    (tree,) = _grow(
        x,
        y,
        [np.random.default_rng(seed)],
        bootstrap=False,
        min_samples_leaf=min_samples_leaf,
        max_features=x.shape[1],
        seed=seed,
    )
    return tree


@dataclass
class RandomForestModel(Frozen):
    """Trees, a tuple packed once, scored by their mean leaf fraction; immutable once built."""

    trees: tuple[DecisionTreeModel, ...]
    seed: int
    _packed: _Packed = field(init=False, repr=False, compare=False)
    _fraction: np.ndarray = field(init=False, repr=False, compare=False)  # of every packed node

    def __post_init__(self):
        # the two rebindings: a list becomes a tuple, a seed the int bounded returns
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "seed", bounded(self.seed, "seed", low=0))
        widths = {tree.n_features for tree in self.trees}
        if len(widths) != 1:
            raise ValueError(f"a forest needs trees of one feature count, got {sorted(widths)}")
        self._packed = _pack(self.trees)
        self._fraction = np.concatenate([tree.n_positive / tree.n_samples for tree in self.trees])
        super().__post_init__()

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def score_many(self, features) -> np.ndarray:
        totals = []
        for first, leaves in _walk(self._packed, features):
            fractions = self._fraction[leaves]
            # a later tree group continues its row block's running total; rows are added one
            # after another, in tree order, where a reduce could pair them
            total = totals.pop() + fractions[0] if first else fractions[0]
            for row in fractions[1:]:
                total += row
            totals.append(total)
        return np.concatenate(totals) / self.n_trees

    def to_dict(self) -> dict:
        return {
            "kind": "random_forest",
            "n_trees": self.n_trees,
            "seed": self.seed,
            "trees": [tree.to_dict() for tree in self.trees],
        }


def fit_forest(features, labels, *, n_trees: int = 100, seed: int = 0) -> RandomForestModel:
    """Train n_trees CART trees, each on its own bootstrap sample, with leaves down to one row.

    Every split searches ceil(sqrt(n_features)) features drawn afresh for
    it.  Tree t draws from the t-th stream spawned from
    ``SeedSequence(seed)``, so the forest is a function of the data, n_trees
    and seed alone.
    """
    x, y = labelled(features, labels, "features", "feature row", ndim=2)
    n_trees = bounded(n_trees, "n_trees", low=1)
    seed = bounded(seed, "seed", low=0)
    trees = _grow(
        x,
        y,
        [np.random.default_rng(stream) for stream in np.random.SeedSequence(seed).spawn(n_trees)],
        bootstrap=True,
        min_samples_leaf=1,
        max_features=math.ceil(math.sqrt(x.shape[1])),
        seed=seed,
    )
    return RandomForestModel(trees=trees, seed=seed)

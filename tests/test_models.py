"""Model tests.

Tree split choices are verified against an exhaustive enumeration oracle
that scores every (feature, midpoint-threshold) candidate with exact
rational arithmetic and applies the declared tie rule (lowest feature
index, then lowest threshold).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import pickle
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import venncal.models.score_table as score_table_module
import venncal.models.tree as tree_module
from venncal.calibration import IsotonicFit, VennAbersCalibrator
from venncal.data import (
    FEATURE_NAMES,
    Dataset,
    FoldSplit,
    ParseError,
    SchemaError,
    ValidationError,
    labelled,
    repeated_stratified_kfold,
)
from venncal.metrics import ReliabilityBins
from venncal.models import (
    DecisionTreeModel,
    LogisticRegressionModel,
    RandomForestModel,
    ScoreTable,
    fit_forest,
    fit_logistic,
    fit_tree,
    load_score_table,
)

from support import exhaustive_best_split


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def test_tree_simple_split():
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree.feature_index[0] == 0
    assert tree.threshold[0] == 2.5
    assert exhaustive_best_split([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1]) == (0, 2.5)
    left, right = tree.left_child[0], tree.right_child[0]
    assert tree.n_positive[left] / tree.n_samples[left] == 0.0
    assert tree.n_positive[right] / tree.n_samples[right] == 1.0
    assert np.sum(tree.feature_index == -1) == 2


def test_tree_pure_labels_single_leaf():
    tree = fit_tree([[1.0], [2.0], [5.0]], [1, 1, 1])
    assert tree.n_nodes == 1
    assert tree.n_positive[0] / tree.n_samples[0] == 1.0


def test_tree_constant_feature_unsplittable():
    tree = fit_tree([[1.0], [1.0], [1.0]], [0, 1, 0])
    assert tree.n_nodes == 1
    assert tree.n_positive[0] / tree.n_samples[0] == pytest.approx(1 / 3)


def test_tree_empty_input_rejected():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 2)), [])


@pytest.mark.parametrize(
    "features, labels, kwargs, message",
    [
        (np.zeros((2, 2, 2)), [0, 1], {}, "features must be a non-empty 2-d array"),
        ([[1.0], [2.0]], [0, 1, 1], {}, "labels must be one per feature row"),
        ([[1.0], [2.0]], [0, 2], {}, "labels must be 0 or 1"),
        ([[1.0], [2.0]], [0, 1], {"min_samples_leaf": 0}, r"^min_samples_leaf must be >= 1, got 0$"),
        ([[1.0], [np.inf]], [0, 1], {}, r"^features must be finite, got inf at index \(1, 0\)$"),
        ([1.0, 2.0], [0, 1], {}, "features must be a non-empty 2-d array"),
    ],
)
def test_tree_rejects_bad_training_input(features, labels, kwargs, message):
    with pytest.raises(ValueError, match=message):
        fit_tree(features, labels, **kwargs)


@pytest.mark.parametrize("fit", [fit_tree, fit_forest, fit_logistic], ids=lambda fit: fit.__name__)
def test_fits_reject_a_feature_matrix_without_columns(fit):
    # logistic regression would fit its bias alone
    message = r"^features must be a non-empty 2-d array, got shape \(3, 0\)$"
    with pytest.raises(ValueError, match=message):
        fit(np.zeros((3, 0)), [0, 1, 0])


def test_tree_scoring_fraction_and_tie_routing():
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree.score_many([[4.0]])[0] == 1.0
    # value exactly on the threshold routes left
    assert tree.score_many([[2.5]])[0] == 0.0
    with pytest.raises(ValueError):
        tree.score_many([[1.0, 2.0]])


def test_tree_leaf_fraction():
    # one positive among four identical rows stays a single impure leaf
    tree = fit_tree([[7.0]] * 4, [1, 0, 0, 0])
    assert tree.score_many([[7.0]])[0] == 0.25


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
def test_tree_split_matches_oracle_on_random_instances(min_samples_leaf):
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 3))
        # integer grids make exact gain ties common, and a leaf size drops some tied candidates
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        expected = exhaustive_best_split(x, y, min_samples_leaf)
        tree = fit_tree(x, y, min_samples_leaf=min_samples_leaf)
        if y.min() == y.max() or expected is None:
            assert tree.feature_index[0] == -1
            continue
        assert tree.feature_index[0] == expected[0]
        assert tree.threshold[0] == expected[1]


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
def test_tree_recursion_matches_oracle_everywhere(min_samples_leaf):
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        x = rng.integers(0, 3, size=(n, 2)).astype(float)
        y = rng.integers(0, 2, size=n)
        tree = fit_tree(x, y, min_samples_leaf=min_samples_leaf)
        # replay every node against the oracle: a leaf is pure or has no split left
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            assert tree.n_samples[node] == idx.size >= min_samples_leaf
            expected = exhaustive_best_split(x[idx], y[idx], min_samples_leaf)
            if tree.feature_index[node] == -1:
                assert y[idx].min() == y[idx].max() or expected is None
                continue
            assert expected == (tree.feature_index[node], tree.threshold[node])
            go_left = x[idx, tree.feature_index[node]] <= tree.threshold[node]
            stack.append((tree.left_child[node], idx[go_left]))
            stack.append((tree.right_child[node], idx[~go_left]))


def test_tree_determinism_and_depth_limit():
    rng = np.random.default_rng(3)
    x = rng.random((200, 4))
    y = rng.integers(0, 2, size=200)
    t1 = fit_tree(x, y, seed=11).collapsed(3)
    t2 = fit_tree(x, y, seed=11).collapsed(3)
    assert t1.to_dict() == t2.to_dict()
    assert t1.node_depths().max() <= 3


def _digest(model):
    return hashlib.sha256(json.dumps(model.to_dict()).encode("utf-8")).hexdigest()


# sha256 of json.dumps(model.to_dict()) of the tree grown with its depth limited
# to 0, 1, ..., 10 during the fit, recorded before the fit lost that limit; the
# full tree is 9 deep, so depths 9 and 10 give one document.  Re-recorded when
# tree documents lost max_depth and min_samples_split: each is the earlier
# document with those two keys deleted
DEPTH_LIMITED_DIGESTS = [
    "e205588b058a026be7373b5959bfa86e26a1c936e874313e8bacf0824ad14aa9",
    "da31e450f145ae714dfb4b0903542125b955f93af42e78715ed9b3bca1e70c1d",
    "0f98364210d8b9f408f6dac1bee2c66cb22253e2fe6fb1238e084481800c52a1",
    "f02bbaf881f779ca9a7e29a126d6347d23ffaf6a3f24618024feeebd67f46caf",
    "fc1263da4fa6faf54b1ac5e27ab81f2bb1d28b87ca927caccf5b51b3809f5222",
    "de9730b9e5425872010b68c0408bd896446814b24356d84b3b0014b337aaa68d",
    "13fae2281db6c0027a0d93177c761471bbb222f9f221a24ed8c5fe50b5b6e0fb",
    "c2fdcc4f54d1475ac3c19bf9f5c1552b2565e3440ab28cd041adea260afa5526",
    "fd916f8c7e495ab5cc7cfc4c59de7b1030a8cd7b2b192da6d790aef7c08cf8ef",
    "051039758b08579f5b0bdf0074a07a44c113dad29b34a8c12bbb6862359471e2",
    "051039758b08579f5b0bdf0074a07a44c113dad29b34a8c12bbb6862359471e2",
]


def test_tree_collapsed_matches_golden_depth_limited_digests():
    rng = np.random.default_rng(3)
    x = rng.random((200, 3))
    y = (x[:, 0] + 0.3 * rng.random(200) > 0.7).astype(int)
    tree = fit_tree(x, y)
    assert tree.node_depths().max() + 2 == len(DEPTH_LIMITED_DIGESTS)
    for depth, digest in enumerate(DEPTH_LIMITED_DIGESTS):
        assert _digest(tree.collapsed(depth)) == digest, depth
    with pytest.raises(ValueError, match="^max_depth must be >= 0, got -1$"):
        tree.collapsed(-1)


def test_tree_min_samples_leaf_respected():
    rng = np.random.default_rng(4)
    x = rng.random((100, 3))
    y = rng.integers(0, 2, size=100)
    tree = fit_tree(x, y, min_samples_leaf=7)
    leaves = tree.feature_index == -1
    assert tree.n_samples[leaves].min() >= 7


def test_tree_json_roundtrip():
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    clone = DecisionTreeModel.from_dict(tree.to_dict())
    assert clone.to_dict() == tree.to_dict()
    assert clone.score_many([[3.3]])[0] == tree.score_many([[3.3]])[0]


def _node_dict(left, right, feature_index=None, n_features=1):
    """A model.json document with the given child arrays; split nodes use feature 0."""
    if feature_index is None:
        feature_index = [-1 if child == -1 else 0 for child in left]
    n = len(left)
    return {
        "kind": "decision_tree", "n_features": n_features, "min_samples_leaf": 1, "seed": 0,
        "feature_index": feature_index,
        "threshold": [None if f == -1 else 0.5 for f in feature_index],
        "left_child": left, "right_child": right,
        "n_samples": [4] * n, "n_positive": [1] * n,
    }


def test_tree_from_dict_rejects_malformed_nodes():
    # parents first: 0 -> (1, 2), 2 -> (3, 4), 4 -> (5, 6) loads with depth 3
    tree = DecisionTreeModel.from_dict(_node_dict([1, -1, 3, -1, 5, -1, -1], [2, -1, 4, -1, 6, -1, -1]))
    assert tree.node_depths().max() == 3
    cases = [
        ("self-loop", _node_dict([0, -1, -1], [2, -1, -1]), r"node 0\b"),
        ("child out of range", _node_dict([1, -1, -1], [3, -1, -1]), r"node 0\b"),
        # root 0 -> (2, 3), 3 -> (1, 4), 1 -> (5, 6): a child comes before its parent
        ("child before parent", _node_dict([2, 5, -1, 1, -1, -1, -1], [3, 6, -1, 4, -1, -1, -1]), r"node 3\b"),
        ("two parents", _node_dict([1, 2, -1, -1], [2, 3, -1, -1]), r"node 2\b"),
        ("feature out of range", _node_dict([1, -1, -1], [2, -1, -1], feature_index=[1, -1, -1]), r"node 0\b"),
    ]
    unequal = _node_dict([1, -1, -1], [2, -1, -1])
    unequal["n_samples"] = [4, 4]
    cases.append(("unequal lengths", unequal, "one length"))
    empty = _node_dict([], [])
    cases.append(("no nodes", empty, "non-empty"))
    # a null threshold loaded as NaN and sent every row right
    no_threshold = _node_dict([1, -1, -1], [2, -1, -1])
    no_threshold["threshold"][0] = None
    cases.append(("non-finite threshold", no_threshold, r"^node 0: split threshold nan is not a finite number$"))
    missing = _node_dict([1, -1, -1], [2, -1, -1])
    del missing["feature_index"]
    cases.append(("missing field", missing, r"^tree document has no 'feature_index' field$"))
    # the keys tree documents carried before they were cut to what a fit varies
    dropped = {**_node_dict([1, -1, -1], [2, -1, -1]), "min_samples_split": 2, "max_depth": None}
    cases.append(("unknown keys", dropped, r"^unknown tree document keys: \['max_depth', 'min_samples_split'\]$"))
    # an empty leaf and one with more positives than samples: the first loaded and scored [nan, 1.25]
    need = "need 0 <= n_positive <= n_samples and n_samples >= 1"
    for n_samples, n_positive, message in (
        ([4, 0, 4], [1, 0, 5], rf"^node 1: 0 positives of 0 samples, {need}$"),
        ([4, 4, 4], [1, 1, 5], r"^node 2: 5 positives of 4 samples"),
        ([4, 4, 4], [1, -1, 0], r"^node 1: -1 positives of 4 samples"),
        ([0, 4, 4], [0, 0, 0], r"^node 0: 0 positives of 0 samples"),
    ):
        counts = _node_dict([1, -1, -1], [2, -1, -1])
        counts["n_samples"], counts["n_positive"] = n_samples, n_positive
        cases.append(("impossible counts", counts, message))
    for name, payload, message in cases:
        with pytest.raises(ValueError, match=message):
            DecisionTreeModel.from_dict(payload)


def test_tree_with_a_cycle_fails_where_it_is_built():
    # built by replace, this self-loop at the root was never checked, and apply walked it forever
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    with pytest.raises(ValueError, match=r"^node 0: left child 0 must lie after it and below 3$"):
        replace(tree, left_child=np.array([0, -1, -1]))


def _tree_from_arrays():
    """The tree fit_tree fits to [[1], [2], [3], [4]] and [0, 0, 1, 1], built from writable node arrays."""
    return DecisionTreeModel(
        feature_index=np.array([0, -1, -1]), threshold=np.array([2.5, np.nan, np.nan]),
        left_child=np.array([1, -1, -1]), right_child=np.array([2, -1, -1]),
        n_samples=np.array([4, 2, 2]), n_positive=np.array([2, 0, 2]),
        n_features=1, min_samples_leaf=1, seed=0,
    )


def _check_tree(tree):
    # a checked tree made into a self-loop in place was never checked again, and apply hung on it
    assert tree.apply([[1.0], [4.0]]).tolist() == [1, 2]
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), copy.copy(tree)):
        assert "_packed" not in vars(clone)  # a copy is packed afresh, on first use
    tree.score_many = lambda features: np.zeros(len(features))
    assert tree.score_many([[1.0]]).tolist() == [0.0]


def _check_forest(forest):
    # a forest packed on construction once held its trees in a list: after forest.trees[0] = b
    # it still scored its old tree's fraction, while to_dict wrote b
    with pytest.raises(TypeError):
        forest.trees[0] = _tree_from_arrays()
    assert forest.score_many([[1.0], [4.0]]).tolist() == [0.0, 1.0]
    # a copy is rebuilt from the trees and seed alone, so it scores as the forest does
    x, y = _golden_data("continuous")
    forest = fit_forest(x, y, n_trees=8, seed=3)
    expected = forest.score_many(x)
    forest.score_many = lambda features: np.zeros(len(features))
    assert forest.score_many(x[:2]).tolist() == [0.0, 0.0]
    for clone in (pickle.loads(pickle.dumps(forest)), copy.deepcopy(forest), copy.copy(forest)):
        assert clone.to_dict() == forest.to_dict()
        assert clone.score_many(x).tobytes() == expected.tobytes()


def _check_packed(packed):
    # a pack was a frozen dataclass of writable arrays: on a 3-tree forest, reversing
    # forest._packed.code in place changed what score_many returned
    for _, cut in packed.cuts:
        with pytest.raises(ValueError, match="read-only"):
            cut[0] = 0
    x, y = _golden_data("continuous")
    forest = fit_forest(x, y, n_trees=3, seed=0)
    expected = forest.score_many(x)
    for pack in (forest._packed, forest.trees[0]._packed):
        assert pack.cuts
        for array in (pack.code, pack.root, pack.split, *(cut for _, cut in pack.cuts)):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = array[::-1].copy()
    assert forest.score_many(x).tobytes() == expected.tobytes()


def _check_calibrator(calibrator):
    # it freezes copies of its calibration set, so a caller's arrays stay writable
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    VennAbersCalibrator(scores, np.array([0, 0, 1, 1]))
    assert scores.flags.writeable


# every built record that holds arrays: how to build one from writable arrays, and what else to check
FROZEN_RECORDS = {
    "Dataset": (lambda: Dataset(np.arange(12.0).reshape(2, 6), np.array([0, 1]), FEATURE_NAMES), None),
    "FoldSplit": (lambda: FoldSplit(0, 1, np.array([0, 1]), np.array([2]), np.array([3, 4])), None),
    "IsotonicFit": (lambda: IsotonicFit(np.array([0.2, 0.6]), np.array([0.0, 1.0]), np.array([1.0, 2.0])), None),
    "ReliabilityBins": (lambda: ReliabilityBins(np.array([0.0, 0.5, 1.0]), np.array([1, 0]),
                                                np.array([0.2, np.nan]), np.array([0.0, np.nan])), None),
    "ScoreTable": (lambda: ScoreTable(np.array([1, 2]), np.array([0, 0]), np.array([False, True]),
                                      np.array([0.2, 0.7]), np.array([0, 1])), None),
    "LogisticRegressionModel": (lambda: LogisticRegressionModel(np.array([0.5, -0.5]), 0.1, True), None),
    "DecisionTreeModel": (_tree_from_arrays, _check_tree),
    "RandomForestModel": (lambda: RandomForestModel(trees=[_tree_from_arrays(), _tree_from_arrays()], seed=0),
                          _check_forest),
    "_Packed": (lambda: RandomForestModel(trees=[_tree_from_arrays()] * 3, seed=0)._packed, _check_packed),
    "VennAbersCalibrator": (lambda: VennAbersCalibrator(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0, 0, 1, 1])),
                            _check_calibrator),
}


def _content(value):
    """A value as copies of it compare: arrays by dtype, shape and bytes, records by their init fields."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        return type(value), tuple(_content(getattr(value, f.name)) for f in fields(value) if f.init)
    if isinstance(value, (tuple, list)):
        return tuple(map(_content, value))
    return value


@pytest.mark.parametrize("name", list(FROZEN_RECORDS))
def test_frozen_record_rejects_writes(name):
    # pickled or deep-copied, these records once came back writable; an IsotonicFit built directly
    # could be edited until isotonic_calibrate returned 2.0, and a logistic model's bias rebound
    build, check = FROZEN_RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    names = [f.name for f in fields(record)]
    arrays = [field for field in names if isinstance(getattr(record, field), np.ndarray)]
    assert arrays
    for field in arrays:  # the arrays it holds (the very arrays passed in, but for the calibrator's copies)
        with pytest.raises(ValueError, match="read-only"):
            getattr(record, field)[0] = 0
    for field in names:
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(FrozenInstanceError):
            delattr(record, field)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert _content(clone) == _content(record)
        assert not any(getattr(clone, field).flags.writeable for field in arrays)
    # only the fields are frozen: any other attribute may be set, as a tracer wraps a method
    record.traced = True
    if check is not None:
        check(record)


@pytest.mark.parametrize("name", list(FROZEN_RECORDS))
def test_frozen_record_stores_an_array_field_given_as_a_list(name):
    # list fields were once kept as lists: a list-built Dataset had no n_positive, ScoreTable.folds(),
    # isotonic_calibrate and a list-built tree raised AttributeError on a list's missing .size
    build, check = FROZEN_RECORDS[name]
    record = build()
    for f in fields(record):
        value = getattr(record, f.name)
        if f.init and isinstance(value, np.ndarray):
            rebuilt = replace(record, **{f.name: value.tolist()})
            assert _content(rebuilt) == _content(record), f.name
            assert not getattr(rebuilt, f.name).flags.writeable
            if check is not None:
                check(rebuilt)


def test_dataset_built_from_lists_splits_as_from_arrays():
    listed = Dataset(features=[[1.0]] * 20, labels=[0, 1] * 10, feature_names=("a",))
    arrays = Dataset(features=np.ones((20, 1)), labels=np.array([0, 1] * 10), feature_names=("a",))
    assert listed.n_positive == 10
    assert listed.labels.dtype == np.int64  # as from an array, so no fold CSV byte moves
    split = [_content(fold) for fold in repeated_stratified_kfold(listed, k=2, repetitions=1)]
    assert split == [_content(fold) for fold in repeated_stratified_kfold(arrays, k=2, repetitions=1)]


def test_walk_packs_a_tree_once_and_a_replaced_tree_anew():
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert "_packed" not in vars(tree)  # a fitted tree is packed on first use, not when built
    assert tree.apply([[2.0], [2.4], [3.0]]).tolist() == [1, 1, 2]
    packed = tree._packed
    tree.apply([[2.0]])
    assert tree._packed is packed
    # the threshold moves from 2.5 to 2.2 after the original tree was applied
    moved = replace(tree, threshold=np.array([2.2, np.nan, np.nan]))
    assert moved.apply([[2.0], [2.4], [3.0]]).tolist() == [1, 2, 2]
    assert tree.apply([[2.0], [2.4], [3.0]]).tolist() == [1, 1, 2]


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def _forest(x, y, *, n_trees, seed, **settings):
    """fit_forest's forest, or with settings the forest _grow grows with them in its place.

    settings may name _grow's max_features, min_samples_leaf and bootstrap,
    which fit_forest fixes at ceil(sqrt(n_features)), 1 and True; the trees
    draw from the streams fit_forest spawns.
    """
    if not settings:
        return fit_forest(x, y, n_trees=n_trees, seed=seed)
    x, y = labelled(x, y, "features", "feature row", ndim=2)
    grow = {"max_features": math.ceil(math.sqrt(x.shape[1])), "min_samples_leaf": 1, "bootstrap": True, **settings}
    rngs = [np.random.default_rng(stream) for stream in np.random.SeedSequence(seed).spawn(n_trees)]
    return RandomForestModel(trees=tree_module._grow(x, y, rngs, seed=seed, **grow), seed=seed)


def test_forest_degenerate_equals_tree():
    rng = np.random.default_rng(5)
    x = rng.random((80, 3))
    y = rng.integers(0, 2, size=80)
    forest = _forest(x, y, n_trees=1, seed=9, max_features=3, bootstrap=False)
    tree = fit_tree(x, y, seed=9)
    probe = rng.random((50, 3))
    assert np.array_equal(forest.score_many(probe), tree.score_many(probe))


def test_forest_score_is_mean_of_trees():
    t1 = fit_tree([[0.0], [1.0]], [0, 0])  # leaf score 0.0
    t2 = fit_tree([[0.0], [1.0], [2.0], [3.0], [4.0]], [1, 0, 1, 0, 1])
    forest = RandomForestModel(trees=[t1, t2], seed=0)
    x = np.array([[0.5]])
    expected = (t1.score_many(x) + t2.score_many(x)) / 2.0
    assert forest.score_many(x).tolist() == expected.tolist()


def test_forest_mean_worked_example():
    # trees scoring 0.2 and 0.6 average to 0.4
    t1 = fit_tree([[0.0]] * 5, [1, 0, 0, 0, 0])
    t2 = fit_tree([[0.0]] * 5, [1, 1, 1, 0, 0])
    forest = RandomForestModel(trees=[t1, t2], seed=0)
    assert forest.score_many([[0.0]])[0] == pytest.approx(0.4)


def test_forest_determinism_and_scores_in_range():
    rng = np.random.default_rng(6)
    x = rng.random((120, 4))
    y = (rng.random(120) < 0.3).astype(int)
    f1 = fit_forest(x, y, n_trees=12, seed=21)
    f2 = fit_forest(x, y, n_trees=12, seed=21)
    probe = rng.random((40, 4))
    s1 = f1.score_many(probe)
    assert np.array_equal(s1, f2.score_many(probe))
    assert np.all((s1 >= 0) & (s1 <= 1))
    # the score is the sum of the member trees' scores in tree order, over n_trees
    total = np.zeros(probe.shape[0])
    for tree in f1.trees:
        total += tree.score_many(probe)
    assert s1.tobytes() == (total / f1.n_trees).tobytes()


def test_forest_validates_arguments():
    with pytest.raises(ValueError, match="^n_trees must be >= 1, got 0$"):
        fit_forest([[1.0]], [1], n_trees=0)
    with pytest.raises(ValueError, match=r"^features must be a non-empty 2-d array, got shape \(2,\)$"):
        fit_forest([1.0, 2.0], [0, 1])


def test_forest_recursion_matches_oracle_everywhere():
    # every member tree searches all features, so each internal node of
    # each tree must be the exhaustive optimum on that tree's bootstrap rows
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.integers(6, 30))
        x = rng.integers(0, 4, size=(n, 3)).astype(float)
        y = rng.integers(0, 2, size=n)
        n_trees = int(rng.integers(2, 6))
        forest = _forest(x, y, n_trees=n_trees, seed=trial, max_features=3)
        streams = np.random.SeedSequence(trial).spawn(n_trees)
        for tree, stream in zip(forest.trees, streams):
            sample = np.random.default_rng(stream).integers(0, n, size=n)
            stack = [(0, sample)]
            while stack:
                node, idx = stack.pop()
                assert tree.n_samples[node] == idx.size
                assert tree.n_positive[node] == y[idx].sum()
                if tree.feature_index[node] == -1:
                    # a leaf is pure or has no split left
                    assert y[idx].min() == y[idx].max() or exhaustive_best_split(x[idx], y[idx]) is None
                    continue
                expected = exhaustive_best_split(x[idx], y[idx])
                assert expected == (tree.feature_index[node], tree.threshold[node])
                go_left = x[idx, tree.feature_index[node]] <= tree.threshold[node]
                stack.append((tree.left_child[node], idx[go_left]))
                stack.append((tree.right_child[node], idx[~go_left]))


def _assert_preorder(tree, n_rows, n_positive):
    """Split node i has children i + 1 and i + 1 + (size of the left subtree), and its counts are theirs summed."""
    split = np.flatnonzero(tree.feature_index != -1)
    left, right = tree.left_child, tree.right_child
    size = np.ones(tree.n_nodes, dtype=np.int64)
    for node in split[::-1].tolist():  # children lie after their parent
        size[node] += size[left[node]] + size[right[node]]
    assert size[0] == tree.n_nodes
    assert (tree.n_samples[0], tree.n_positive[0]) == (n_rows, n_positive)
    assert left[split].tolist() == (split + 1).tolist()
    assert right[split].tolist() == (split + 1 + size[split + 1]).tolist()
    for counts in (tree.n_samples, tree.n_positive):
        assert counts[split].tolist() == (counts[left[split]] + counts[right[split]]).tolist()
    leaf = tree.feature_index == -1
    assert np.all(left[leaf] == -1) and np.all(right[leaf] == -1) and np.all(np.isnan(tree.threshold[leaf]))


def test_grown_trees_are_in_preorder_and_built_once(monkeypatch):
    built = []
    post_init = DecisionTreeModel.__post_init__
    monkeypatch.setattr(DecisionTreeModel, "__post_init__", lambda self: built.append(self) or post_init(self))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        x = rng.integers(0, 6, size=(n, 4)).astype(float)
        x[:, 3] = rng.normal(size=n)
        y = (x[:, 0] + x[:, 3] + rng.normal(size=n) > 2.5).astype(int)
        for features in (x, x[:, 3:]):
            for min_samples_leaf in (1, 2, 6):
                built.clear()
                tree = fit_tree(features, y, min_samples_leaf=min_samples_leaf, seed=seed)
                assert [id(model) for model in built] == [id(tree)]  # one model, built in preorder
                _assert_preorder(tree, n, y.sum())
            built.clear()
            forest = fit_forest(features, y, n_trees=6, seed=seed)
            assert sorted(map(id, built)) == sorted(map(id, forest.trees))  # trees finish in any order
            for tree, stream in zip(forest.trees, np.random.SeedSequence(seed).spawn(6)):
                sample = np.random.default_rng(stream).integers(0, n, size=n)
                _assert_preorder(tree, n, y[sample].sum())
    # one-leaf trees: pure labels, and mixed labels on fewer than 2 * min_samples_leaf rows
    for x, y, min_samples_leaf in (
        ([[1.0], [2.0], [3.0]], [0, 0, 0], 1),
        ([[0.0, 1.0]] * 5, [1] * 5, 1),
        ([[float(i)] for i in range(11)], [0, 1] * 5 + [1], 6),
    ):
        built.clear()
        tree = fit_tree(x, y, min_samples_leaf=min_samples_leaf)
        assert [id(model) for model in built] == [id(tree)] and tree.n_nodes == 1
        _assert_preorder(tree, len(y), sum(y))


# ---------------------------------------------------------------------------
# golden output: model.to_dict() digests, recorded with the earlier per-node builder;
# re-recorded when documents lost max_depth, min_samples_split, max_features and
# bootstrap, each as the earlier document with those keys deleted
# ---------------------------------------------------------------------------

def _golden_data(name):
    rng = np.random.default_rng(2024)
    if name == "grid":  # integer grid: many exact ties in value and in gain
        x = rng.integers(0, 5, size=(300, 4)).astype(float)
        y = (x[:, 0] + x[:, 2] + rng.integers(0, 4, size=300) > 5).astype(int)
    elif name == "continuous":
        x = rng.normal(size=(400, 5))
        y = (x[:, 1] - 0.5 * x[:, 3] + rng.normal(size=400) > 0.4).astype(int)
    elif name == "single-class":
        x = rng.random((60, 3))
        y = np.ones(60, dtype=int)
    elif name == "constant-feature":
        x = np.column_stack([np.full(200, 2.5), rng.integers(0, 6, size=200), rng.random(200)])
        y = (x[:, 2] + 0.1 * x[:, 1] + 0.3 * rng.random(200) > 0.8).astype(int)
    elif name == "extreme":  # adjacent floats, and midpoints beyond the float range
        x = np.column_stack([
            rng.choice([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)], size=80),
            rng.choice([-1.7e308, 1e308, 1.5e308, 1.7e308], size=80),
        ])
        y = rng.integers(0, 2, size=80)
    elif name == "wide":  # feature 0 has more than 32 768 distinct values
        x = np.column_stack([rng.random(40_000), rng.integers(0, 3, size=40_000)])
        y = (x[:, 0] + 0.2 * x[:, 1] + 0.5 * rng.random(40_000) > 1.0).astype(int)
    return x, y


GOLDEN_MODELS = {
    # case: (data, fit, keyword arguments, sha256 of json.dumps(model.to_dict()));
    # "collapsed": d collapses the fitted tree, or every tree of the forest, to
    # depth d, which gives the model that a fit limited to depth d grew when the
    # fit still took a depth limit.  A forest case that names max_features,
    # min_samples_leaf or bootstrap is grown by _forest, as fit_forest fixes them.
    # A case keeps its number, and so its test id, when another case is removed
    # or its digest is re-recorded.
    0: ("grid", "tree", {},
        "12040404cf2ad7a4c08e497f1d4548ad3c4d98fb35df8ee443b92358a6ddbbbc"),
    1: ("grid", "tree", {"min_samples_leaf": 6},
        "c8cf746c300d8aa4075149cbbbc9ac92bf755968787fba7a288a93468ce5381a"),
    3: ("continuous", "tree", {"collapsed": 3},
        "6ad78b420bdfee68e3464c1f033dd285170d6b38b3d3a6b1fa588cc6a3785faa"),
    5: ("single-class", "tree", {},
        "f1b6f36ebea7cebe773819182043f022a58c8b2a4654a866206e3797cd04a1db"),
    6: ("constant-feature", "tree", {},
        "b8ea07b31d895a1ae3b0ece7e13e84faa8d318e5ffa3ab8843be8c6f15711456"),
    7: ("extreme", "tree", {},
        "6bbe22714ceb4704778ee5009ff05d7c361ac1f4902e2472fc310cbf6bc8b06f"),
    8: ("extreme", "forest", {"n_trees": 4, "seed": 2, "max_features": 1},
        "545e8f569b3d9ff858b83af1b4a375463d41f90a2939c5c061d85d326028ca16"),
    9: ("wide", "tree", {"collapsed": 6, "min_samples_leaf": 6},
        "3bdab8c4d2541908460d9ce551781bbaf42b0c9d046efcc3a7a099f5893e467b"),
    10: ("grid", "forest", {"n_trees": 8, "seed": 0},
         "bd585b4904c5a7c7203a0291966e3aab8dff30ba3460f5cd8d08a955f6a72f4c"),
    11: ("grid", "forest", {"n_trees": 8, "seed": 1, "min_samples_leaf": 6},
         "12a6a0943d2eda332e09cd1525a14fec9583ebe6a19f45107c54d05a09798a37"),
    12: ("grid", "forest", {"n_trees": 40, "seed": 2, "max_features": 1},
         "bf0a1780cace4a470f141ec851f987b76fcf710445da26a384bdcb355176b209"),
    13: ("grid", "forest", {"n_trees": 5, "seed": 3, "max_features": 4, "collapsed": 3},
         "30ef1a4de7f833f9af9c3bb7f73d6ba32ddfcb129b066c203ab94f4fcac4335c"),
    14: ("continuous", "forest", {"n_trees": 8, "seed": 0},
         "aae09282a1f1cc473f200ba59ae831c972805c3daee9e9f6f9ad6177c71a18d6"),
    16: ("continuous", "forest", {"n_trees": 4, "seed": 6, "bootstrap": False},
         "1e44be1289785ac7dca141f41d1fc4840f4ac0fcb486f253845163b2eea9cc52"),
    17: ("continuous", "forest", {"n_trees": 3, "seed": 7, "bootstrap": False, "max_features": 5},
         "a6476540f33b572340a1905bfd12d89ff071763c3690d207433ad8faa3830eb6"),
    18: ("continuous", "forest", {"n_trees": 50, "seed": 10, "max_features": 2, "min_samples_leaf": 6},
         "d723645c50d7667cc00c7b4509669a007ea3187db7afc2f4e1b98c7d3bc4fc66"),
    19: ("continuous", "forest", {"n_trees": 1, "seed": 8},
         "3b63d276933494b4acb3cf7f8c9ae8440a912c04cfc6ee8f8df512931f6c44d0"),
    20: ("single-class", "forest", {"n_trees": 3, "seed": 0},
         "56e30c975ff8d43c7f8f8e9f3ad68d61914519de24138d0da02775d5c91041ac"),
    21: ("constant-feature", "forest", {"n_trees": 6, "seed": 9},
         "c6a3c371df0aea03acdd35f7a11092e476396e793e1ee6933f075f522022dcbc"),
    22: ("wide", "forest", {"n_trees": 3, "seed": 1, "collapsed": 5, "min_samples_leaf": 6},
         "46c1a0608d0533ddd47a588abbae8e9be19e6381fc3bff1f6df0b3dbb6abebb7"),
    24: ("wide", "forest", {"n_trees": 2, "seed": 2, "max_features": 2, "min_samples_leaf": 200},
         "d3700fc59797e56a6d4a7bb791188880c573ee3fa7edfa64a9c850ad5ae95293"),
    # max_features is the feature count: bootstrapped trees that draw no subsets
    # (recorded with the builder that took one node of a tree per step)
    25: ("continuous", "forest", {"n_trees": 6, "seed": 12, "max_features": 5},
         "a73221922e4aa1cac1c66f33cf5e633e583d637d9530134d4aa61e760e8e7710"),
    # the one case whose trees draw feature subsets over the wide keys
    26: ("wide", "forest", {"n_trees": 3, "seed": 3, "max_features": 1, "min_samples_leaf": 200},
         "9f9e39629c82b45532f76808e73a8aeb7edde5913250df93e90ce031cfe118dd"),
}


def _golden_digest(data, fit, kwargs):
    x, y = _golden_data(data)
    kwargs = dict(kwargs)
    depth = kwargs.pop("collapsed", None)
    model = (fit_tree if fit == "tree" else _forest)(x, y, **kwargs)
    if depth is not None and fit == "tree":
        model = model.collapsed(depth)
    elif depth is not None:
        model = replace(model, trees=[tree.collapsed(depth) for tree in model.trees])
    return _digest(model)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "data, fit, kwargs, digest",
    list(GOLDEN_MODELS.values()),
    ids=[f"{data}-{fit}-kwargs{case}" for case, (data, fit, _, _) in GOLDEN_MODELS.items()],
)
def test_models_match_golden_digests(data, fit, kwargs, digest):
    # any change in split choice, threshold, node order or RNG use shows here
    assert _golden_digest(data, fit, kwargs) == digest


@pytest.mark.parametrize("trees_in_flight", [1, 2])
@pytest.mark.parametrize("rows_per_step", [1, 64])
def test_step_layout_never_changes_a_model(monkeypatch, trees_in_flight, rows_per_step):
    # one row per step makes every step hold the one node that always fits;
    # 64 rows make trees skip steps, and a skipped tree goes first in the next
    monkeypatch.setattr(tree_module, "_TREES_IN_FLIGHT", trees_in_flight)
    monkeypatch.setattr(tree_module, "_ROWS_PER_STEP", rows_per_step)
    for data, fit, kwargs, digest in GOLDEN_MODELS.values():
        assert _golden_digest(data, fit, kwargs) == digest, (data, fit, kwargs)


def test_forest_trees_equal_the_trees_grown_alone(monkeypatch):
    # a forest numbers its trees' nodes together; each tree must still be the one its
    # generator grows alone, however the trees share steps and in whatever order they finish
    cases = []
    for case in range(4):
        rng = np.random.default_rng(100 + case)
        n = int(rng.integers(20, 121))
        x = np.column_stack([rng.integers(0, 5, size=n), rng.normal(size=n), rng.integers(0, 3, size=n),
                             rng.random(n)]).astype(float)
        y = np.zeros(n, dtype=int)
        y[rng.choice(n, size=1 + case * (n // 8), replace=False)] = 1  # one positive: some pure bootstraps
        n_trees, seed = int(rng.integers(5, 12)), case
        for features, max_features in ((x, 2), (x[:, 1:2], 1), (x, 4)):  # subsets, then none drawn
            streams = np.random.SeedSequence(seed).spawn(n_trees)
            alone = [tree_module._grow(features, y, [np.random.default_rng(stream)], bootstrap=True,
                                       min_samples_leaf=1, max_features=max_features, seed=seed)[0].to_dict()
                     for stream in streams]
            cases.append((features, y, n_trees, seed, max_features, alone))
    assert any(tree["left_child"] == [-1] for *_, alone in cases for tree in alone)
    for trees_in_flight in (1, 3, tree_module._TREES_IN_FLIGHT):
        for rows_per_step in (1, 64, tree_module._ROWS_PER_STEP):
            monkeypatch.setattr(tree_module, "_TREES_IN_FLIGHT", trees_in_flight)
            monkeypatch.setattr(tree_module, "_ROWS_PER_STEP", rows_per_step)
            for features, y, n_trees, seed, max_features, alone in cases:
                if max_features == math.ceil(math.sqrt(features.shape[1])):
                    forest = fit_forest(features, y, n_trees=n_trees, seed=seed)
                else:
                    forest = _forest(features, y, n_trees=n_trees, seed=seed, max_features=max_features)
                got = [tree.to_dict() for tree in forest.trees]
                assert got == alone, (trees_in_flight, rows_per_step, features.shape, max_features)


def _probe(x, models, rng, n, jitter):
    """n rows drawn from x plus normal jitter, half of whose cells then hold
    a split threshold of their column taken from the models."""
    probe = x[rng.integers(0, x.shape[0], size=n)] + rng.normal(scale=jitter, size=(n, x.shape[1]))
    splits = [(m.feature_index[s], m.threshold[s]) for m in models for s in np.flatnonzero(m.feature_index != -1)]
    features, thresholds = np.array(splits).reshape(-1, 2).T
    for f in range(x.shape[1]):
        column_thresholds = thresholds[features == f]
        on = rng.random(probe.shape[0]) < 0.5
        if column_thresholds.size:
            probe[on, f] = rng.choice(column_thresholds, size=int(on.sum()))
    return probe


def _score_probe(data):
    """Forest, tree and a seeded 40 000-row probe on which they are scored.

    The probe is longer than one walk chunk, even for a single tree, and
    half of its cells hold a split threshold of their column taken from
    the forest or the tree, so many rows sit exactly on a threshold.
    """
    x, y = _golden_data(data)
    forest = _forest(x, y, n_trees=20, seed=4, min_samples_leaf=5)
    tree = fit_tree(x, y, min_samples_leaf=2)
    return forest, tree, _probe(x, [tree, *forest.trees], np.random.default_rng(31), 40_000, 0.05)


GOLDEN_SCORES = {
    # data: sha256 of the forest's score_many bits, then the tree's apply leaf ids
    "grid": "52481874740e768a5c13a16918bb63421f59d7215a8cfed03013186aa787f7e1",
    "continuous": "4912f96e67cfd1b8e7830f100e87da0e8f9938c1e7ea78e437a27601a15db0f5",
}


@pytest.mark.parametrize("data", sorted(GOLDEN_SCORES))
def test_scores_match_golden_digests(data):
    forest, tree, probe = _score_probe(data)
    h = hashlib.sha256(np.asarray(forest.score_many(probe), dtype="<f8").tobytes())
    h.update(np.asarray(tree.apply(probe), dtype="<i8").tobytes())
    assert h.hexdigest() == GOLDEN_SCORES[data]


# ---------------------------------------------------------------------------
# scoring: the packed walk against a per-row reference
# ---------------------------------------------------------------------------

def _reference_leaves(tree, x):
    leaves = []
    for row in x:
        node = 0
        while tree.feature_index[node] != -1:
            go_left = row[tree.feature_index[node]] <= tree.threshold[node]
            node = tree.left_child[node] if go_left else tree.right_child[node]
        leaves.append(node)
    return np.array(leaves, dtype=np.int64)


def _reference_scores(trees, x):
    total = np.zeros(len(x))
    for tree in trees:
        leaves = _reference_leaves(tree, x)
        total += tree.n_positive[leaves] / tree.n_samples[leaves]
    return total / len(trees)


def _first_compaction_at(monkeypatch, depth_of):
    """Make every pack compact first after depth_of(leaf depths) levels, not at the median leaf depth."""
    pack = tree_module._pack

    def packed_with_first(trees):
        depths = np.concatenate([t.node_depths()[t.feature_index == -1] for t in trees])
        return replace(pack(trees), first=depth_of(depths))

    monkeypatch.setattr(tree_module, "_pack", packed_with_first)


# 1 and 64 pairs make one-tree chunks; 1000 pairs over the 200-row probe make
# one row block of 5-tree groups, so a 6-tree forest ends on a 1-tree group;
# the default constants also walk batches of rows drawn from the probe.  The
# first compaction comes at the median leaf depth, or at depth 0, before any
# split tree's shallowest leaf, or at the deepest leaf, so one round walks
# every pair to its leaf.
@pytest.mark.parametrize(
    "pairs_per_chunk, levels, first",
    [
        pytest.param(1, 1, None, id="1-1"),
        pytest.param(64, 3, None, id="64-3"),
        pytest.param(1000, 2, None, id="1000-2"),
        pytest.param(None, None, None, id="None-None"),
        pytest.param(64, 2, "before-every-leaf", id="64-2-first-before-every-leaf"),
        pytest.param(None, None, "at-the-deepest-leaf", id="None-None-first-at-the-deepest-leaf"),
    ],
)
@pytest.mark.parametrize(
    "data, kwargs",
    [
        ("grid", {"n_trees": 6, "seed": 1}),
        ("continuous", {"n_trees": 6, "seed": 2, "min_samples_leaf": 3}),
        ("extreme", {"n_trees": 4, "seed": 2, "max_features": 1}),  # adjacent floats: thr = lo
        ("constant-feature", {"n_trees": 4, "seed": 3}),
        ("single-class", {"n_trees": 3, "seed": 0}),  # single-leaf trees only
    ],
)
def test_walk_matches_per_row_reference(monkeypatch, data, kwargs, pairs_per_chunk, levels, first):
    if pairs_per_chunk is not None:  # a batch of several chunks, compacted every `levels` levels
        monkeypatch.setattr(tree_module, "_PAIRS_PER_CHUNK", pairs_per_chunk)
        monkeypatch.setattr(tree_module, "_LEVELS_PER_COMPACTION", levels)
    if first == "before-every-leaf":
        _first_compaction_at(monkeypatch, lambda depths: 0)
    elif first == "at-the-deepest-leaf":
        # after one round no pair walks on: the walk must not count on a second round
        monkeypatch.setattr(tree_module, "_LEVELS_PER_COMPACTION", None)
        _first_compaction_at(monkeypatch, lambda depths: int(depths.max()))
    x, y = _golden_data(data)
    forest = _forest(x, y, **kwargs)
    trees = [
        *forest.trees,
        fit_tree(x, y),
        fit_tree(x, np.ones_like(y)),  # a single leaf
        *(DecisionTreeModel.from_dict(tree.to_dict()) for tree in forest.trees),
        *(tree.collapsed(2) for tree in forest.trees),
    ]
    probe = _probe(x, trees, np.random.default_rng(5), 200, 0.0)
    probe[::17, 0] = np.nan
    probe[5::17, -1] = np.inf  # goes right
    probe[11::17, 0] = -np.inf  # goes left
    for tree in trees:
        assert np.array_equal(tree.apply(probe), _reference_leaves(tree, probe))
    for members in (forest.trees, trees):
        scores = RandomForestModel(trees=members, seed=0).score_many(probe)
        assert scores.dtype == np.float64
        assert scores.tobytes() == _reference_scores(members, probe).tobytes()
    # a 1-row batch sums a column of tree fractions, which a pairwise sum would round differently
    everything = RandomForestModel(trees=trees, seed=0)
    for row in probe[:, None]:
        assert everything.score_many(row).tobytes() == _reference_scores(trees, row).tobytes()
    assert forest.score_many(probe[:0]).shape == (0,)
    assert trees[0].apply(probe[:0]).shape == (0,)
    if pairs_per_chunk is None:
        # a third of a chunk's rows makes 3-tree groups, and 20, 14 or 11 trees end on a 2-tree
        # group; twice a chunk's rows and 100 more make one-tree chunks over 3 row blocks
        assert len(trees) % 3 == 2
        expected = [_reference_leaves(tree, probe) for tree in trees]
        scores = _reference_scores(trees, probe)
        for n in (tree_module._PAIRS_PER_CHUNK // 3, 2 * tree_module._PAIRS_PER_CHUNK + 100):
            pick = np.random.default_rng(n).integers(0, len(probe), size=n)
            for tree, leaves in zip(trees, expected):
                assert np.array_equal(tree.apply(probe[pick]), leaves[pick])
            assert everything.score_many(probe[pick]).tobytes() == scores[pick].tobytes()


def test_walk_compacts_first_where_half_the_training_samples_reached_a_leaf():
    x, y = _golden_data("continuous")
    forest = fit_forest(x, y, n_trees=8, seed=3)
    trees = [*forest.trees, fit_tree(x, np.ones_like(y))]  # and a single leaf at depth 0
    reached = {}  # leaf depth -> training samples, each depth found by a walk down from the root
    for tree in trees:
        depths = {0: 0}
        for node in range(tree.n_nodes):  # preorder: a parent before its children
            if tree.feature_index[node] != -1:
                depths[tree.left_child[node]] = depths[tree.right_child[node]] = depths[node] + 1
            else:
                reached[depths[node]] = reached.get(depths[node], 0) + int(tree.n_samples[node])
        assert tree.node_depths().tolist() == [depths[node] for node in range(tree.n_nodes)]
    total, below, median = sum(reached.values()), 0, None
    for depth in sorted(reached):
        below += reached[depth]
        if median is None and 2 * below >= total:
            median = depth
    assert RandomForestModel(trees=trees, seed=0)._packed.first == median
    assert 0 < median < max(reached)


def test_forest_and_tree_reject_wrong_feature_count():
    x, y = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [0, 1, 1]
    tree = fit_tree(x, y)
    forest = fit_forest(x, y, n_trees=3, seed=0)
    for score in (forest.score_many, tree.score_many, tree.apply):
        for features in ([[1.0]], [1.0, 2.0]):
            with pytest.raises(ValueError, match=r"expected \(n, 2\) feature matrix"):
                score(features)
    with pytest.raises(ValueError, match=r"trees of one feature count, got \[\]"):
        RandomForestModel(trees=[], seed=0)
    narrow = fit_tree([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError, match=r"trees of one feature count, got \[1, 2\]"):
        RandomForestModel(trees=[tree, narrow], seed=0)


def test_nan_routes_right():
    # x <= threshold is False for nan, so a nan row takes the right child
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree.apply([[np.nan]]).tolist() == [tree.right_child[0]]
    forest = RandomForestModel(trees=[tree, tree], seed=0)
    assert forest.score_many([[np.nan], [1.0]]).tolist() == [1.0, 0.0]


def _hand_tree(spec, n_features=3):
    """A tree loaded by from_dict, numbered in preorder from nested splits and leaves.

    A split is (feature, threshold, left, right) and a leaf (n_samples,
    n_positive); a split's counts are its children's sums.
    """
    nodes = []

    def add(node):
        i = len(nodes)
        nodes.append(None)
        if len(node) == 2:
            nodes[i] = (-1, None, -1, -1, *node)
        else:
            feature, threshold, left, right = node
            left, right = add(left), add(right)
            nodes[i] = (feature, threshold, left, right,
                        nodes[left][4] + nodes[right][4], nodes[left][5] + nodes[right][5])
        return i

    add(spec)
    columns = ("feature_index", "threshold", "left_child", "right_child", "n_samples", "n_positive")
    return DecisionTreeModel.from_dict({
        "n_features": n_features, "min_samples_leaf": 1, "seed": 0, **{name: list(column) for name, column in zip(columns, zip(*nodes))},
    })


def test_walk_rank_codes_match_float_comparisons():
    # the walk compares ranks among each feature's distinct thresholds, not floats; these
    # thresholds and probes are where a rank could disagree with x <= threshold
    big, one = 1.7e308, 1.0
    after_one = np.nextafter(one, np.inf)  # adjacent floats
    trees = [
        _hand_tree((0, -0.0, (3, 1), (0, 0.0, (2, 1), (4, 3)))),
        _hand_tree((0, 0.0, (1, -big, (1, 0), (2, 2)), (5, 1))),
        _hand_tree((1, one, (1, -big, (1, 0), (1, 1)), (1, after_one, (2, 1), (1, big, (3, 2), (4, 0))))),
        _hand_tree((1, after_one, (0, -0.0, (2, 0), (2, 2)), (0, big, (1, 1), (0, -big, (3, 3), (6, 1))))),
        _hand_tree((7, 3)),  # a single leaf
    ]  # no split uses feature 2
    thresholds = np.array([-0.0, 0.0, -big, big, one, after_one])
    values = np.concatenate([
        thresholds, np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf),
        [-0.0, 0.0, -np.inf, np.inf, np.nan],
    ])
    rng = np.random.default_rng(9)
    # every value in every column, against every value of the other columns in turn
    probe = np.stack([rng.permutation(np.resize(values, 6 * values.size)) for _ in range(3)], axis=1)
    forest = RandomForestModel(trees=trees, seed=0)
    for batch in (probe, *probe[:, None]):
        for tree in trees:
            assert np.array_equal(tree.apply(batch), _reference_leaves(tree, batch))
            assert tree.score_many(batch).tobytes() == _reference_scores([tree], batch).tobytes()
        assert forest.score_many(batch).tobytes() == _reference_scores(trees, batch).tobytes()


def test_walk_rejects_splits_the_rank_codes_cannot_hold():
    # every tree is checked where it is built, so a nan split, which would rank past
    # every cut and route left, never reaches _pack; packing checks only the code width
    tree = _hand_tree((0, 0.5, (1, 0), (1, -0.5, (1, 0), (1, 1))))
    with pytest.raises(ValueError, match=r"^node 2: split threshold nan is not a finite number$"):
        replace(tree, threshold=np.where(np.arange(5) == 2, np.nan, tree.threshold))
    # feature 2 ** 62 - 1 takes 62 bits, a cell's rank 0 or 1 one bit, and the last of the
    # 4 nodes' 8 child slots, 7, three bits: 66 in all.  The error names each part, and the
    # wide feature's split at tree 1 node 0, not the last node packed
    wide = _hand_tree((2**62 - 1, 0.5, (1, 0), (1, 1)), n_features=2**62)
    message = (
        r"^codes would need 66 bits, more than 63: 3 for 8 child slots, 1 for a feature's 1 cuts, "
        rf"and 62 for split feature {2**62 - 1} at tree 1 node 0$"
    )
    with pytest.raises(ValueError, match=message):
        RandomForestModel(trees=[_hand_tree((1, 1), n_features=2**62), wide], seed=0)


def test_wide_keys_match_golden_digests(monkeypatch):
    # the builder packs its sort keys into 64 bits only when 32 do not
    # suffice; forcing the wide keys must not change any model
    monkeypatch.setattr(tree_module, "_key_dtype", lambda bits: np.uint64)
    for data, fit, kwargs, digest in GOLDEN_MODELS.values():
        assert _golden_digest(data, fit, kwargs) == digest, (data, fit, kwargs)


# ---------------------------------------------------------------------------
# metamorphic relations: trees see features only through their order
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)
# small whole numbers for ties, thousandths, and floats at least 1e-6 from zero: every value, every
# midpoint of two and each of these times 2^k for k in SCALE_EXPONENTS is zero or a normal float
FEATURE_VALUES = st.one_of(
    st.integers(0, 4).map(float),
    st.integers(-10**6, 10**6).map(lambda i: i / 1000),
    st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
)
SCALE_EXPONENTS = st.sampled_from([-3, 1, 5])


@st.composite
def training_and_probe(draw):
    """(features, labels, probe rows): 2-40 training rows of 1-3 features, and the training rows
    followed by up to 20 other rows to score."""
    n, width = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    x = np.array(draw(st.lists(FEATURE_VALUES, min_size=n * width, max_size=n * width))).reshape(n, width)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    extra = draw(st.integers(0, 20))
    probe = np.array(draw(st.lists(FEATURE_VALUES, min_size=extra * width, max_size=extra * width)))
    return x, y, np.vstack([x, probe.reshape(extra, width)])


def scaled_exactly(values, k):
    """values * 2^k, once the product is finite and undoes exactly, so distinct values stay distinct."""
    moved = values * 2.0**k
    assert np.isfinite(moved).all() and np.array_equal(moved * 2.0**-k, values)
    return moved


@PROPERTY_SETTINGS
@given(training_and_probe(), SCALE_EXPONENTS)
def test_tree_property_feature_scaling(case, k):
    """Features times 2^k give the document with every threshold times 2^k, and the same scores."""
    x, y, probe = case
    tree = fit_tree(x, y)
    moved = fit_tree(scaled_exactly(x, k), y)
    want = tree.to_dict()
    want["threshold"] = [None if t is None else t * 2.0**k for t in want["threshold"]]
    assert moved.to_dict() == want
    assert moved.threshold.tobytes() == (tree.threshold * 2.0**k).tobytes()
    assert moved.score_many(scaled_exactly(probe, k)).tobytes() == tree.score_many(probe).tobytes()


@PROPERTY_SETTINGS
@given(training_and_probe(), SCALE_EXPONENTS, st.integers(0, 2**32))
def test_forest_property_feature_scaling(case, k, seed):
    """A forest's draws depend on row positions and feature counts, so features times 2^k score alike."""
    x, y, probe = case
    forest = fit_forest(x, y, n_trees=5, seed=seed)
    moved = fit_forest(scaled_exactly(x, k), y, n_trees=5, seed=seed)
    assert moved.score_many(scaled_exactly(probe, k)).tobytes() == forest.score_many(probe).tobytes()


@PROPERTY_SETTINGS
@given(training_and_probe(), st.data())
def test_tree_property_row_order(case, data):
    """fit_tree draws nothing and breaks ties by feature and threshold, so the row order is not seen."""
    x, y, _ = case
    order = np.asarray(data.draw(st.permutations(range(y.size))), dtype=np.int64)
    assert fit_tree(x[order], y[order]).to_dict() == fit_tree(x, y).to_dict()


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_logistic_symmetric_bias_near_zero():
    model = fit_logistic([[-1.0], [1.0]], [0, 1])
    assert abs(model.bias) < 1e-6


def test_logistic_all_negative_labels():
    rng = np.random.default_rng(8)
    x = rng.random((60, 2))
    model = fit_logistic(x, np.zeros(60))
    scores = model.score_many(x)
    assert np.all(scores < 0.5)
    assert np.all(np.abs(model.weights) < 1e-3)
    assert model.bias < -5.0


def test_logistic_scores_strictly_inside_unit_interval():
    model = fit_logistic([[-100.0], [100.0]], [0, 1])
    assert 0.0 < model.score_many([[-1e9]])[0] < model.score_many([[1e9]])[0] < 1.0


def test_logistic_recovers_known_coefficients():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4000, 2))
    z = 1.5 * x[:, 0] - 2.0 * x[:, 1] + 0.3
    y = (rng.random(4000) < 1.0 / (1.0 + np.exp(-z))).astype(int)
    model = fit_logistic(x, y)
    assert model.converged
    assert model.weights[0] == pytest.approx(1.5, abs=0.2)
    assert model.weights[1] == pytest.approx(-2.0, abs=0.2)
    assert model.bias == pytest.approx(0.3, abs=0.2)


def test_logistic_constant_feature_ignored():
    rng = np.random.default_rng(16)
    x = np.column_stack([rng.normal(size=200), np.full(200, 3.0)])
    y = (x[:, 0] > 0).astype(int)
    model = fit_logistic(x, y)
    assert model.weights[1] == 0.0


def test_logistic_rejects_non_finite():
    with pytest.raises(ValueError):
        fit_logistic([[np.inf]], [1])
    with pytest.raises(ValueError, match=r"^features must be a non-empty 2-d array, got shape \(2,\)$"):
        fit_logistic([1.0, 2.0], [0, 1])


def test_logistic_score_many_rejects_wrong_feature_count():
    model = fit_logistic([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [0, 1, 1])
    for features in ([[1.0]], [1.0, 2.0]):
        with pytest.raises(ValueError, match=r"expected \(n, 2\) feature matrix"):
            model.score_many(features)


# ---------------------------------------------------------------------------
# score table
# ---------------------------------------------------------------------------

def write_table(tmp_path, rows, header="instance_id,fold_id,partition,score,label"):
    path = tmp_path / "scores.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_score_table_roundtrip(tmp_path):
    path = write_table(
        tmp_path,
        [
            "1,0,calibration,0.25,0",
            "2,0,calibration,0.75,1",
            "3,0,test,0.5,1",
            "1,1,test,0.9,1",
        ],
    )
    table = load_score_table(path)
    assert table.n_rows == 4
    folds = table.folds()
    fold, calibration, (ids, scores, labels) = next(folds)
    assert fold == 0
    assert [part.tolist() for part in calibration] == [[1, 2], [0.25, 0.75], [0, 1]]
    assert ids.tolist() == [3]
    assert scores.tolist() == [0.5]
    assert labels.tolist() == [1]
    with pytest.raises(ValueError, match="^fold 1: missing calibration partition$"):
        next(folds)


def _folds_by_masks(table):
    """ScoreTable.folds as a boolean mask per fold and partition, the reference it must match."""
    for fold in np.unique(table.fold_id).tolist():
        in_fold = table.fold_id == fold
        partitions = []
        for partition, mask in (("calibration", in_fold & ~table.is_test), ("test", in_fold & table.is_test)):
            if not mask.any():
                raise ValidationError(f"fold {fold}: missing {partition} partition")
            partitions.append((table.instance_id[mask], table.score[mask], table.label[mask]))
        yield fold, *partitions


def _fold_outcome(folds):
    """Each fold, its type, and its partitions' dtypes and bytes, up to the error a fold raised, if any."""
    outcome = []
    try:
        for fold, *partitions in folds:
            outcome.append((type(fold), fold, [(part.dtype.str, part.tobytes()) for parts in partitions for part in parts]))
    except ValidationError as err:
        outcome.append(str(err))
    return outcome


def test_score_table_folds_match_a_mask_per_fold():
    rng = np.random.default_rng(43)
    extremes = [np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    errors = 0
    for trial in range(300):
        n = int(rng.integers(0, 80))
        # non-contiguous fold ids, negative ones, and in some tables the int64 extremes
        ids = rng.choice(np.arange(-7, 30, 3), size=int(rng.integers(1, 6)), replace=False).tolist()
        ids += extremes if trial % 5 == 0 else []
        fold_id = rng.choice(np.array(ids, dtype=np.int64), size=n)
        is_test = rng.random(n) < rng.uniform(0.05, 0.95)  # partitions interleaved in file order
        table = ScoreTable(rng.permutation(n).astype(np.int64), fold_id, is_test, rng.random(n),
                           rng.integers(0, 2, size=n))
        expected = _fold_outcome(_folds_by_masks(table))
        assert _fold_outcome(table.folds()) == expected, trial
        errors += any(isinstance(outcome, str) for outcome in expected)
    assert 30 < errors < 270  # both tables that raise and tables that do not were drawn


def test_score_table_out_of_range_score_names_row(tmp_path):
    path = write_table(tmp_path, ["1,0,test,0.5,1", "2,0,test,1.2,0"])
    with pytest.raises(ValueError, match="row 2"):
        load_score_table(path)


def test_score_table_duplicate_key_rejected(tmp_path):
    path = write_table(tmp_path, ["1,0,test,0.5,1", "1,0,calibration,0.4,0"])
    with pytest.raises(ValueError, match="duplicate"):
        load_score_table(path)


def test_score_table_bad_header_rejected(tmp_path):
    path = write_table(tmp_path, ["1,0,test,0.5,1"], header="id,fold,part,score,label")
    with pytest.raises(SchemaError, match="header"):
        load_score_table(path)


def test_score_table_bad_partition_and_label(tmp_path):
    with pytest.raises(ValueError, match="partition"):
        load_score_table(write_table(tmp_path, ["1,0,holdout,0.5,1"]))
    with pytest.raises(ValueError, match="label"):
        load_score_table(write_table(tmp_path, ["1,0,test,0.5,2"]))


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.5,0,test,0.5,1", "row 2: non-numeric value '1.5' in column 'instance_id'"),
        ("2,x,test,0.5,1", "row 2: non-numeric value 'x' in column 'fold_id'"),
        ("2,0,test,high,1", "row 2: non-numeric value 'high' in column 'score'"),
        # Python's int() and float() would read these as 10, 0.25 and 3
        ("1_0,0,test,0.5,1", "row 2: non-numeric value '1_0' in column 'instance_id'"),
        ("2,0,test,0.2_5,1", "row 2: non-numeric value '0.2_5' in column 'score'"),
        ("2,\u0663,test,0.5,1", "row 2: non-numeric value '\u0663' in column 'fold_id'"),
    ],
)
def test_score_table_non_numeric_cells_name_row(tmp_path, row, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        load_score_table(write_table(tmp_path, ["1,0,test,0.5,1", row]))


def test_score_table_names_the_first_fault_of_a_long_table(tmp_path):
    """Faults past the first few thousand rows: the first in file order is named, numeric or token."""
    rows = [f"{i},0,{'test' if i % 3 else 'calibration'},0.5,{i % 2}" for i in range(1, 3001)]
    for faults, message in (
        ({2500: "2500,0,test,oops,0", 2600: "2600,0,hold,0.5,0"}, "row 2500: non-numeric value 'oops' in column 'score'"),
        ({500: "500,0,hold,0.5,0", 2600: "2600,0,test,oops,0"}, "row 500: 'partition' must be one of"),
        ({2999: "2999,0,test,0.5,0,1"}, "row 2999: expected 5 fields, got 6"),
    ):
        path = write_table(tmp_path, [faults.get(i, row) for i, row in enumerate(rows, start=1)])
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_score_table(path)


def test_score_table_faults_name_file_row_and_value(tmp_path):
    cases = [
        (["1,0,test,0.5,1", "2,0,hold,0.5,1"], "row 2: 'partition' must be one of ['calibration', 'test'], got 'hold'"),
        (["1,0,test,0.5,1", "2,0,test,0.5, 01 "], "row 2: 'label' must be one of ['0', '1'], got '01'"),
        (["1,0,test,0.5,1", "2,0,test,0.5,10"], "row 2: 'label' must be one of ['0', '1'], got '10'"),
        (["1,0,test,0.5,1", "2,0,calibrationx,0.5,1"],
         "row 2: 'partition' must be one of ['calibration', 'test'], got 'calibrationx'"),
        # a cell longer than a fixed-width field is not cut to a token
        (["1,0,test,0.5,1", "2,0,test            x,0.5,1"],
         "row 2: 'partition' must be one of ['calibration', 'test'], got 'test            x'"),
        # a token cell holds fewer than 16 characters, padding included; a longer one is shown unstripped
        (["1,0,test,0.5,1", "2,0,test            ,0.5,1"],
         "row 2: 'partition' must be one of ['calibration', 'test'], got 'test            '"),
        (["1,0,test,0.5,1", "2,0,test,nan,1"], "row 2: score nan outside [0, 1]"),
        (["1,0,test,0.5,1", "2,0,test,-0.25,1"], "row 2: score -0.25 outside [0, 1]"),
        # the first row that repeats an earlier key, not the first key repeated
        (["1,0,test,0.5,1", "2,0,test,0.5,1", "2,1,test,0.5,1", "2,0,calibration,0.5,0", "1,0,test,0.5,1"],
         "row 4: duplicate (instance_id, fold_id) = (2, 0)"),
        # a non-numeric cell is found while parsing, before any range or key check
        (["1,0,test,1.5,1", "1,0,test,0.5,1", "3,0,test,high,1"], "row 3: non-numeric value 'high' in column 'score'"),
    ]
    for rows, message in cases:
        path = write_table(tmp_path, rows)
        error = ParseError if "non-numeric" in message else ValidationError
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_score_table(path)


def test_score_table_columns_are_checked_where_it_is_built():
    """Columns of other lengths were accepted, and folds() failed later with numpy's bare broadcast error."""
    ids, folds, is_test, score, label = (np.array(column) for column in
                                         ([1, 2, 3], [0, 0, 0], [False, True, True], [0.2, 0.7, 0.4], [0, 1, 1]))
    for columns, message in (
        ((ids, folds[:2], is_test, score, label), "score table column fold_id has 2 rows, instance_id 3"),
        ((ids, folds, is_test, score, label[1:]), "score table column label has 2 rows, instance_id 3"),
        ((ids, folds, is_test, score[:, None], label), "score table column score must be one-dimensional, got shape (3, 1)"),
        ((np.int64(1), folds, is_test, score, label), "score table column instance_id must be one-dimensional, got shape ()"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScoreTable(*columns)


@pytest.fixture
def table_parses(monkeypatch):
    """The paths load_score_table parses, from an empty memo on."""
    monkeypatch.setattr(score_table_module, "_last_load", None)
    parsed = []
    parse = score_table_module.parse_columns
    monkeypatch.setattr(score_table_module, "parse_columns", lambda path, *args: parsed.append(path) or parse(path, *args))
    return parsed


def test_score_table_memo_parses_identical_bytes_at_two_paths_once(tmp_path, table_parses):
    rows = ["1,0,calibration,0.25,0", "2,0,calibration,0.75,1", "3,0,test,0.5,1"]
    first = write_table(tmp_path, rows)
    second = tmp_path / "copy.csv"
    second.write_bytes(first.read_bytes())
    table = load_score_table(first)
    assert load_score_table(second) is table and load_score_table(first) is table
    assert table_parses == [first]
    assert table.source_sha256 == hashlib.sha256(first.read_bytes()).hexdigest()
    # a table built from arrays has no bytes behind it
    assert ScoreTable(table.instance_id, table.fold_id, table.is_test, table.score, table.label).source_sha256 is None


def test_score_table_memo_parses_other_bytes_of_the_same_length_and_mtime(tmp_path, table_parses):
    """A memo keyed by path, size or mtime would return the first table for the rewritten file."""
    path = write_table(tmp_path, ["1,0,calibration,0.25,0", "2,0,test,0.75,1"])
    assert load_score_table(path).score.tolist() == [0.25, 0.75]
    before = path.stat()
    write_table(tmp_path, ["1,0,calibration,0.35,0", "2,0,test,0.75,1"])
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_score_table(path).score.tolist() == [0.35, 0.75]
    assert table_parses == [path, path]


def test_score_table_memo_faulty_rewrite_raises_the_message_of_a_cold_load(tmp_path, table_parses):
    """A load that fails stores nothing: the good table is still returned for its bytes afterwards."""
    good = ["1,0,calibration,0.25,0", "2,0,test,0.75,1"]
    for faulty in (
        ["1,0,calibration,0.25,0", "2,0,test,1.75,1"],  # a range fault, found on the parsed arrays
        ["1,0,calibration,0.25,0", "1,0,test,0.75,1"],  # a repeated key
        ["1,0,calibration,0.25,0", "2,0,test,high,1"],  # a parse fault, found by the row search
        ["1,0,calibration,0.25,0", "2,0,hold,0.75,1"],  # a token fault
    ):
        path = write_table(tmp_path, faulty)
        with pytest.raises(ValueError) as cold:
            load_score_table(path)
        table = load_score_table(write_table(tmp_path, good))
        with pytest.raises(ValueError) as warm:
            load_score_table(write_table(tmp_path, faulty))
        assert (type(warm.value), str(warm.value)) == (type(cold.value), str(cold.value))
        assert load_score_table(write_table(tmp_path, good)) is table
    assert len(table_parses) == 4 * 2 + 1  # every faulty load, and the good bytes once

"""Model tests.

Tree split choices are verified against an exhaustive enumeration oracle
that scores every (feature, midpoint-threshold) candidate with exact
rational arithmetic and applies the declared tie rule (lowest feature
index, then lowest threshold).
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

import venncal.models.tree as tree_module
from venncal.data import ParseError, SchemaError, ValidationError
from venncal.models import (
    DecisionTreeModel,
    RandomForestModel,
    fit_forest,
    fit_logistic,
    fit_tree,
    load_score_table,
)


# ---------------------------------------------------------------------------
# oracle: exhaustive split enumeration
# ---------------------------------------------------------------------------

def exhaustive_best_split(x, y):
    """Best (feature, threshold) by brute force, or None.

    Maximises the Gini impurity decrease computed in exact rationals;
    ties resolved by lowest feature index, then lowest threshold.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim == 1:
        x = x[:, None]
    m = len(y)
    best = None  # (gain: Fraction, feature, threshold)
    for feature in range(x.shape[1]):
        values = sorted(set(x[:, feature]))
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = x[:, feature] <= threshold
            n_l, n_r = int(left.sum()), int(m - left.sum())
            p_l = int(y[left].sum())
            p_r = int(y.sum()) - p_l
            def gini_term(p, n):
                return Fraction(p * p + (n - p) * (n - p), n)
            # parent impurity is candidate-independent; compare children purity
            gain = gini_term(p_l, n_l) + gini_term(p_r, n_r)
            if best is None or gain > best[0]:
                best = (gain, feature, threshold)
    return None if best is None else (best[1], best[2])


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
        (np.zeros((2, 2, 2)), [0, 1], {}, "features must be a 2-d matrix"),
        ([[1.0], [2.0]], [0, 1, 1], {}, "labels must be one per feature row"),
        ([[1.0], [2.0]], [0, 2], {}, "labels must be 0 or 1"),
        ([[1.0, 2.0], [2.0, 1.0]], [0, 1], {"max_features": 3}, r"max_features must be in \[1, 2\]"),
        ([[1.0, 2.0], [2.0, 1.0]], [0, 1], {"max_features": 0}, r"max_features must be in \[1, 2\]"),
        ([1.0, 2.0], [0, 1], {}, "features must be a 2-d matrix"),
    ],
)
def test_tree_rejects_bad_training_input(features, labels, kwargs, message):
    with pytest.raises(ValueError, match=message):
        fit_tree(features, labels, **kwargs)


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


def test_tree_split_matches_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 3))
        # integer grids make exact gain ties common
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        expected = exhaustive_best_split(x, y)
        tree = fit_tree(x, y)
        if y.min() == y.max() or expected is None:
            assert tree.feature_index[0] == -1
            continue
        assert tree.feature_index[0] == expected[0]
        assert tree.threshold[0] == expected[1]


def test_tree_recursion_matches_oracle_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        x = rng.integers(0, 3, size=(n, 2)).astype(float)
        y = rng.integers(0, 2, size=n)
        tree = fit_tree(x, y)
        # replay every internal node's split against the oracle
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if tree.feature_index[node] == -1:
                continue
            expected = exhaustive_best_split(x[idx], y[idx])
            assert expected == (tree.feature_index[node], tree.threshold[node])
            go_left = x[idx, tree.feature_index[node]] <= tree.threshold[node]
            stack.append((tree.left_child[node], idx[go_left]))
            stack.append((tree.right_child[node], idx[~go_left]))


def test_tree_determinism_and_depth_limit():
    rng = np.random.default_rng(3)
    x = rng.random((200, 4))
    y = rng.integers(0, 2, size=200)
    t1 = fit_tree(x, y, max_depth=3, seed=11)
    t2 = fit_tree(x, y, max_depth=3, seed=11)
    assert t1.to_dict() == t2.to_dict()
    assert t1.node_depths().max() <= 3


def test_tree_collapsed_equals_the_depth_limited_fit():
    rng = np.random.default_rng(3)
    x = rng.random((200, 3))
    y = (x[:, 0] + 0.3 * rng.random(200) > 0.7).astype(int)
    tree = fit_tree(x, y)
    for depth in range(int(tree.node_depths().max()) + 2):
        assert tree.collapsed(depth).to_dict() == fit_tree(x, y, max_depth=depth).to_dict()
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
        "kind": "decision_tree", "n_features": n_features, "max_depth": None,
        "min_samples_leaf": 1, "min_samples_split": 2, "seed": 0,
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


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def test_forest_degenerate_equals_tree():
    rng = np.random.default_rng(5)
    x = rng.random((80, 3))
    y = rng.integers(0, 2, size=80)
    forest = fit_forest(x, y, n_trees=1, max_features=3, bootstrap=False, seed=9)
    tree = fit_tree(x, y, seed=9)
    probe = rng.random((50, 3))
    assert np.array_equal(forest.score_many(probe), tree.score_many(probe))


def test_forest_score_is_mean_of_trees():
    t1 = fit_tree([[0.0], [1.0]], [0, 0])  # leaf score 0.0
    t2 = fit_tree([[0.0], [1.0], [2.0], [3.0], [4.0]], [1, 0, 1, 0, 1])
    forest = RandomForestModel(trees=[t1, t2], max_features=1, bootstrap=True, seed=0)
    x = np.array([[0.5]])
    expected = (t1.score_many(x) + t2.score_many(x)) / 2.0
    assert forest.score_many(x).tolist() == expected.tolist()


def test_forest_mean_worked_example():
    # trees scoring 0.2 and 0.6 average to 0.4
    t1 = fit_tree([[0.0]] * 5, [1, 0, 0, 0, 0])
    t2 = fit_tree([[0.0]] * 5, [1, 1, 1, 0, 0])
    forest = RandomForestModel(trees=[t1, t2], max_features=1, bootstrap=True, seed=0)
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
    with pytest.raises(ValueError):
        fit_forest([[1.0]], [1], n_trees=0)
    with pytest.raises(ValueError, match=r"max_features must be in \[1, 2\]"):
        fit_forest([[1.0, 2.0]], [1], max_features=5)
    with pytest.raises(ValueError, match="min_samples_leaf"):
        fit_forest([[1.0], [2.0]], [0, 1], min_samples_leaf=0)
    with pytest.raises(ValueError, match="min_samples_split"):
        fit_forest([[1.0], [2.0]], [0, 1], min_samples_split=1)
    with pytest.raises(ValueError, match="features must be a 2-d matrix"):
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
        forest = fit_forest(x, y, n_trees=n_trees, max_features=3, seed=trial)
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


# ---------------------------------------------------------------------------
# golden output: model.to_dict() digests, recorded with the earlier per-node builder
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


GOLDEN_MODELS = [
    # (data, fit, keyword arguments, sha256 of json.dumps(model.to_dict()))
    ("grid", "tree", {},
     "1b2bbbbf8a8bb9f54a425429830fd1ac3712d967dc91ce7cee44727cea7a977d"),
    ("grid", "tree", {"min_samples_leaf": 6},
     "dc077bbba7dca4f55c5b68c8fc3d15bd9465c21ff803865ce6234dea704af345"),
    ("grid", "tree", {"max_features": 2, "seed": 3},
     "9be5238c14c4b51e17769fbae6a9b006517ddc892888ab57d5b2247a8bfee401"),
    ("continuous", "tree", {"max_depth": 3},
     "61d32b75caaedfc8aa93c46859a51c361f738f1b4e7d3dea879caa05f1dbf853"),
    ("continuous", "tree", {"min_samples_split": 20, "max_features": 1, "seed": 4},
     "cf7a2af53057ba6327b7e47c1f7f0df0b91fa67933618580779b391c321b978d"),
    ("single-class", "tree", {},
     "18d55330633535900d38199902030763d943654db316dbbcdf896f86fb2a5ae2"),
    ("constant-feature", "tree", {},
     "7bcebee080fe1da6eedf2b294b83b16957d5fc995b78702c75c3467b1c8f64ef"),
    ("extreme", "tree", {},
     "595dc0c36d9e65fbbf7aa4d61aded5d44c05a37fd6c6679beeb95f96dfbe321d"),
    ("extreme", "forest", {"n_trees": 4, "seed": 2, "max_features": 1},
     "aee45e2bd94fd5368c5af2bb4e69ff3848a100d20d23d8fefe48b076c1c5b53b"),
    ("wide", "tree", {"max_depth": 6, "min_samples_leaf": 6},
     "4d93a38d9a0cd60faa76b0fc5a32a0b602e614c015e010977254f7bdea248d74"),
    ("grid", "forest", {"n_trees": 8, "seed": 0},
     "e7007c9eb749c9c828fc130ed445f399189dfe030433f367af9a0c96cc67de6b"),
    ("grid", "forest", {"n_trees": 8, "seed": 1, "min_samples_leaf": 6},
     "1b89aebdc94cb1eaee849de6d00c19b211d6fa11959b6c4a1bd8035c5f1c93a1"),
    ("grid", "forest", {"n_trees": 40, "seed": 2, "max_features": 1},
     "65addeee2a404ce80c7e0f6303cac89c34e7892c548df409b12bd2d9762cf3ff"),
    ("grid", "forest", {"n_trees": 5, "seed": 3, "max_features": 4, "max_depth": 3},
     "5c26341012e5d6867f89f62fb0bfd95d0ff1a19b56f770aa3999b7c8684f0e8c"),
    ("continuous", "forest", {"n_trees": 8, "seed": 0},
     "6dc3c9d390c7ebd511fc5d3a72b118dd3e66f49dee2e529fce91e92df56d6d1f"),
    ("continuous", "forest", {"n_trees": 6, "seed": 5, "max_depth": 3, "min_samples_leaf": 6},
     "569b43c97418e37e955d97be09f428b8ef05d94622a24f9905fbe8d895bb1ab5"),
    ("continuous", "forest", {"n_trees": 4, "seed": 6, "bootstrap": False},
     "f6f45db4e40e370d5ec70d4942cbe4a10090328ab54b02201c34ad2bcc598e06"),
    ("continuous", "forest", {"n_trees": 3, "seed": 7, "bootstrap": False, "max_features": 5},
     "743bc13e9b6d2ab6ba395631026fc5643ec7e84533328f7a202d5b1104489834"),
    ("continuous", "forest", {"n_trees": 50, "seed": 10, "max_features": 2, "min_samples_leaf": 6},
     "7f803d969d34dd41916386113146b55a5abe008be268c1f891a68f0a799b6bba"),
    ("continuous", "forest", {"n_trees": 1, "seed": 8},
     "f26636634e75f325aeaa0ec82dfa6759346fc659cda268460b150c82760b1561"),
    ("single-class", "forest", {"n_trees": 3, "seed": 0},
     "162c1c7b62e0fbd1b04357326324578b7bebe2f9b83fc115a33c1eaa5b9556a2"),
    ("constant-feature", "forest", {"n_trees": 6, "seed": 9},
     "9afe0e6314efac1b76898f446eb339b76ffbf51a3317ee20f255fb91225e050b"),
    ("wide", "forest", {"n_trees": 3, "seed": 1, "max_depth": 5, "min_samples_leaf": 6},
     "0e6d22c4f31b048ef9cb13544fd0c90ae08e073e8e1f29bd62cc8080e55e3482"),
    ("wide", "forest", {"n_trees": 3, "seed": 3, "max_features": 1, "max_depth": 3},
     "68f10c0005b60945ff2ee5ca5927db75f0395f7a9b0475c1d680139a0b74c3f1"),
    ("wide", "forest", {"n_trees": 2, "seed": 2, "max_features": 2, "min_samples_leaf": 200},
     "63636c2e7e71394f0b00f7a7e00299fd0137d1b45a721f1ad29bef9d54e69fc7"),
    # max_features is the feature count: bootstrapped trees that draw no subsets
    # (recorded with the builder that took one node of a tree per step)
    ("continuous", "forest", {"n_trees": 6, "seed": 12, "max_features": 5},
     "0dcde2257def053003dc25f3ab2c6c49ad6c910368becc3580f2fa7bc8140721"),
]


def _golden_digest(data, fit, kwargs):
    x, y = _golden_data(data)
    model = (fit_tree if fit == "tree" else fit_forest)(x, y, **kwargs)
    return hashlib.sha256(json.dumps(model.to_dict()).encode("utf-8")).hexdigest()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, fit, kwargs, digest", GOLDEN_MODELS)
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
    for data, fit, kwargs, digest in GOLDEN_MODELS:
        assert _golden_digest(data, fit, kwargs) == digest, (data, fit, kwargs)


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
    forest = fit_forest(x, y, n_trees=20, min_samples_leaf=5, seed=4)
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


# 1 and 64 pairs make one-tree chunks; 1000 pairs over the 200-row probe make
# one row block of 5-tree groups, so a 6-tree forest ends on a 1-tree group
@pytest.mark.parametrize("pairs_per_chunk, levels", [(1, 1), (64, 3), (1000, 2), (None, None)])
@pytest.mark.parametrize(
    "data, kwargs",
    [
        ("grid", {"n_trees": 6, "seed": 1}),
        ("continuous", {"n_trees": 6, "seed": 2, "min_samples_leaf": 3}),
        ("extreme", {"n_trees": 4, "seed": 2, "max_features": 1}),  # adjacent floats: thr = lo
        ("constant-feature", {"n_trees": 4, "seed": 3, "max_depth": 4}),
        ("single-class", {"n_trees": 3, "seed": 0}),  # single-leaf trees only
    ],
)
def test_walk_matches_per_row_reference(monkeypatch, data, kwargs, pairs_per_chunk, levels):
    if pairs_per_chunk is not None:  # a batch of several chunks, compacted every `levels` levels
        monkeypatch.setattr(tree_module, "_PAIRS_PER_CHUNK", pairs_per_chunk)
        monkeypatch.setattr(tree_module, "_LEVELS_PER_COMPACTION", levels)
    x, y = _golden_data(data)
    forest = fit_forest(x, y, **kwargs)
    trees = [
        *forest.trees,
        fit_tree(x, y),
        fit_tree(x, np.ones_like(y)),  # a single leaf
        *(DecisionTreeModel.from_dict(tree.to_dict()) for tree in forest.trees),
        *(tree.collapsed(2) for tree in forest.trees),
    ]
    probe = _probe(x, trees, np.random.default_rng(5), 200, 0.0)
    probe[::17, 0] = np.nan
    for tree in trees:
        assert np.array_equal(tree.apply(probe), _reference_leaves(tree, probe))
    for members in (forest.trees, trees):
        scores = RandomForestModel(trees=members, max_features=1, bootstrap=True, seed=0).score_many(probe)
        assert scores.dtype == np.float64
        assert scores.tobytes() == _reference_scores(members, probe).tobytes()
    # a 1-row batch sums a column of tree fractions, which a pairwise sum would round differently
    everything = RandomForestModel(trees=trees, max_features=1, bootstrap=True, seed=0)
    for row in probe[:, None]:
        assert everything.score_many(row).tobytes() == _reference_scores(trees, row).tobytes()
    assert forest.score_many(probe[:0]).shape == (0,)
    assert trees[0].apply(probe[:0]).shape == (0,)


def test_forest_and_tree_reject_wrong_feature_count():
    x, y = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [0, 1, 1]
    tree = fit_tree(x, y)
    forest = fit_forest(x, y, n_trees=3, seed=0)
    for score in (forest.score_many, tree.score_many, tree.apply):
        for features in ([[1.0]], [1.0, 2.0]):
            with pytest.raises(ValueError, match=r"expected \(n, 2\) feature matrix"):
                score(features)
    with pytest.raises(ValueError, match=r"trees of one feature count, got \[\]"):
        RandomForestModel(trees=[], max_features=1, bootstrap=True, seed=0)
    narrow = fit_tree([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError, match=r"trees of one feature count, got \[1, 2\]"):
        RandomForestModel(trees=[tree, narrow], max_features=1, bootstrap=True, seed=0)


def test_nan_routes_right():
    # x <= threshold is False for nan, so a nan row takes the right child
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree.apply([[np.nan]]).tolist() == [tree.right_child[0]]
    forest = RandomForestModel(trees=[tree, tree], max_features=1, bootstrap=True, seed=0)
    assert forest.score_many([[np.nan], [1.0]]).tolist() == [1.0, 0.0]


def test_wide_keys_match_golden_digests(monkeypatch):
    # the builder packs its sort keys into 64 bits only when 32 do not
    # suffice; forcing the wide keys must not change any model
    monkeypatch.setattr(tree_module, "_key_dtype", lambda bits: np.uint64)
    for data, fit, kwargs, digest in GOLDEN_MODELS:
        assert _golden_digest(data, fit, kwargs) == digest, (data, fit, kwargs)


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
    with pytest.raises(ValueError, match="features must be a 2-d matrix"):
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


"""Model tests.

Tree split choices are verified against an exhaustive enumeration oracle
that scores every (feature, midpoint-threshold) candidate with exact
rational arithmetic and applies the declared tie rule (lowest feature
index, then lowest threshold).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

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
    assert tree.leaf_score(left) == 0.0
    assert tree.leaf_score(right) == 1.0
    assert tree.n_leaves == 2


def test_tree_pure_labels_single_leaf():
    tree = fit_tree([[1.0], [2.0], [5.0]], [1, 1, 1])
    assert tree.n_nodes == 1
    assert tree.leaf_score(0) == 1.0


def test_tree_constant_feature_unsplittable():
    tree = fit_tree([[1.0], [1.0], [1.0]], [0, 1, 0])
    assert tree.n_nodes == 1
    assert tree.leaf_score(0) == pytest.approx(1 / 3)


def test_tree_empty_input_rejected():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 2)), [])


def test_tree_scoring_fraction_and_tie_routing():
    tree = fit_tree([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    assert tree.score([4.0]) == 1.0
    # value exactly on the threshold routes left
    assert tree.score([2.5]) == 0.0
    with pytest.raises(ValueError):
        tree.score([1.0, 2.0])


def test_tree_leaf_fraction():
    # one positive among four identical rows stays a single impure leaf
    tree = fit_tree([[7.0]] * 4, [1, 0, 0, 0])
    assert tree.score([7.0]) == 0.25


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
    assert t1.depth() <= 3


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
    assert clone.score([3.3]) == tree.score([3.3])


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
    forest = RandomForestModel(trees=[t1, t2], n_trees=2, max_features=1, bootstrap=True, seed=0)
    x = np.array([[0.5]])
    expected = (t1.score_many(x) + t2.score_many(x)) / 2.0
    assert forest.score_many(x).tolist() == expected.tolist()


def test_forest_mean_worked_example():
    # trees scoring 0.2 and 0.6 average to 0.4
    t1 = fit_tree([[0.0]] * 5, [1, 0, 0, 0, 0])
    t2 = fit_tree([[0.0]] * 5, [1, 1, 1, 0, 0])
    forest = RandomForestModel(trees=[t1, t2], n_trees=2, max_features=1, bootstrap=True, seed=0)
    assert forest.score([0.0]) == pytest.approx(0.4)


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
    # recompute the mean directly from the member trees
    direct = np.mean([t.score_many(probe) for t in f1.trees], axis=0)
    assert np.allclose(s1, direct, atol=1e-15)


def test_forest_validates_arguments():
    with pytest.raises(ValueError):
        fit_forest([[1.0]], [1], n_trees=0)
    with pytest.raises(ValueError):
        fit_forest([[1.0, 2.0]], [1], max_features=5)


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
    assert 0.0 < model.score([-1e9]) < model.score([1e9]) < 1.0


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
    assert table.folds() == [0, 1]
    ids, scores, labels = table.select(0, "test")
    assert ids.tolist() == [3]
    assert scores.tolist() == [0.5]
    assert labels.tolist() == [1]


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
    with pytest.raises(ValueError, match="header"):
        load_score_table(path)


def test_score_table_bad_partition_and_label(tmp_path):
    with pytest.raises(ValueError, match="partition"):
        load_score_table(write_table(tmp_path, ["1,0,holdout,0.5,1"]))
    with pytest.raises(ValueError, match="label"):
        load_score_table(write_table(tmp_path, ["1,0,test,0.5,2"]))

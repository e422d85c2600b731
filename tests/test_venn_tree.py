"""Venn-tree annotation, rule extraction and DOT export tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from venncal.calibration import VennAbersCalibrator
from venncal.cli import main as cli_main
from venncal.models import fit_tree
from venncal.synthetic import write_reference_csv
from venncal.venn_tree import (
    build_venn_tree,
    extract_rules,
    format_rules,
    render_tree,
)


def small_setup(seed=0, n=400):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3)).round(2)
    y = ((x[:, 0] > 0.6) & (x[:, 1] > 0.4) | (rng.random(n) < 0.05)).astype(int)
    split = n // 3
    tree = fit_tree(x[split:], y[split:])
    cal_x, cal_y = x[:split], y[:split]
    cal_scores = tree.score_many(cal_x)
    calibrator = VennAbersCalibrator(cal_scores, cal_y)
    return tree, calibrator, cal_x, cal_y


def test_pure_leaf_all_calibration_positive_gives_p1_one():
    tree = fit_tree([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    calibrator = VennAbersCalibrator([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
    vt = build_venn_tree(tree, calibrator, calibration_features=[[0.0], [1.0], [2.0], [3.0]])
    high_leaf = [ann for ann in vt.leaves.values() if ann.raw_score == 1.0][0]
    assert high_leaf.p1 == 1.0
    assert high_leaf.predicted_class == 1


def test_full_depth_pruning_is_a_no_op():
    tree, calibrator, cal_x, _ = small_setup()
    vt = build_venn_tree(tree, calibrator, display_max_depth=int(tree.node_depths().max()), calibration_features=cal_x)
    assert vt.tree.n_nodes == tree.n_nodes
    assert vt.tree.feature_index.tolist() == tree.feature_index.tolist()
    assert vt.tree.threshold.tolist() == pytest.approx(tree.threshold.tolist(), nan_ok=True)


def test_pruned_leaf_scores_are_pooled_fractions():
    tree, calibrator, cal_x, _ = small_setup()
    vt = build_venn_tree(tree, calibrator, display_max_depth=2, calibration_features=cal_x)
    assert vt.tree.node_depths().max() <= 2
    for ann in vt.leaves.values():
        node = ann.node
        assert ann.raw_score == vt.tree.n_positive[node] / vt.tree.n_samples[node]
    # pooled counts are conserved
    total = sum(ann.n_train for ann in vt.leaves.values())
    assert total == tree.n_samples[0]


@pytest.mark.parametrize("depth", [None, 0, 1, 2, 4])
def test_leaf_intervals_match_naive_refit(depth):
    """Each leaf's interval is, bit for bit, the naive refit on the display tree's calibration scores."""
    for seed in range(4):
        tree, calibrator, cal_x, cal_y = small_setup(seed=seed)
        vt = build_venn_tree(tree, calibrator, display_max_depth=depth, calibration_features=cal_x)
        assert sorted(vt.leaves) == np.flatnonzero(vt.tree.feature_index == -1).tolist()
        display_calibrator = VennAbersCalibrator(vt.tree.score_many(cal_x), cal_y)
        for ann in vt.leaves.values():
            want = display_calibrator.interval_naive(ann.raw_score)
            got = np.array([ann.p0, ann.p1, ann.point])
            assert got.tobytes() == np.array([want.p0, want.p1, want.point]).tobytes()
            assert all(type(v) is float for v in (ann.p0, ann.p1, ann.point))


def test_leaf_interval_ordering_and_decision():
    tree, calibrator, cal_x, _ = small_setup()
    vt = build_venn_tree(tree, calibrator, display_max_depth=3, calibration_features=cal_x)
    for ann in vt.leaves.values():
        assert 0.0 <= ann.p0 <= ann.p1 <= 1.0
        assert ann.predicted_class == (1 if ann.point >= 0.5 else 0)


def test_calibration_counts_routed_exactly():
    # leaves that share a score, or that collapsing merged, still count
    # only the calibration rows routed to them
    for seed in range(4):
        tree, calibrator, cal_x, _ = small_setup(seed=seed)
        for depth in (None, 0, 1, 2, 4):
            vt = build_venn_tree(tree, calibrator, display_max_depth=depth, calibration_features=cal_x)
            assert sum(ann.n_calibration for ann in vt.leaves.values()) == cal_x.shape[0]


def test_calibration_feature_mismatch_rejected():
    tree, calibrator, cal_x, _ = small_setup()
    with pytest.raises(ValueError):
        build_venn_tree(tree, calibrator, calibration_features=cal_x[:, :2])
    with pytest.raises(ValueError, match=r"^expected \(133, 3\) feature matrix, got \(132, 3\)$"):
        build_venn_tree(tree, calibrator, calibration_features=cal_x[1:])
    with pytest.raises(ValueError, match="^one feature name per feature column required$"):
        build_venn_tree(tree, calibrator, feature_names=("a", "b"), calibration_features=cal_x)
    with pytest.raises(ValueError, match="^max_depth must be >= 0, got -1$"):
        build_venn_tree(tree, calibrator, display_max_depth=-1, calibration_features=cal_x)


def test_single_leaf_tree_rule_has_no_conditions():
    tree = fit_tree([[1.0], [1.0]], [1, 1])
    calibrator = VennAbersCalibrator([1.0, 1.0], [1, 1])
    vt = build_venn_tree(tree, calibrator, calibration_features=[[1.0], [1.0]])
    rules = extract_rules(vt)
    assert len(rules) == 1
    assert rules[0].conditions == ()
    assert rules[0].matches([123.0])


def test_rule_bound_merging_keeps_tightest():
    # x <= 5 followed by x <= 3 merges to x <= 3; x > 1 then x > 2 to x > 2
    x = np.array([[0.5], [1.5], [2.5], [3.5], [4.5], [6.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    tree = fit_tree(x, y)
    calibrator = VennAbersCalibrator(tree.score_many(x), y)
    vt = build_venn_tree(tree, calibrator, feature_names=("x",), calibration_features=x)
    for rule in extract_rules(vt):
        seen = set()
        for cond in rule.conditions:
            key = (cond.feature_index, cond.comparator)
            assert key not in seen
            seen.add(key)
    text = format_rules(extract_rules(vt))
    assert "→" in text


def test_rules_partition_feature_space_and_roundtrip():
    tree, calibrator, cal_x, _ = small_setup(seed=3)
    vt = build_venn_tree(tree, calibrator, display_max_depth=4, calibration_features=cal_x)
    rules = extract_rules(vt)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.random(3) * 2.0 - 0.5  # also outside the training range
        hits = [r for r in rules if r.matches(x)]
        assert len(hits) == 1
        ann = vt.annotation_for(x)
        assert hits[0].p0 == ann.p0
        assert hits[0].p1 == ann.p1
        assert hits[0].leaf == ann.node


def test_render_tree_visual_encoding():
    tree, calibrator, cal_x, _ = small_setup(seed=5)
    vt = build_venn_tree(tree, calibrator, display_max_depth=3, calibration_features=cal_x)
    dot = render_tree(vt)
    assert dot.startswith("digraph venn_tree {")
    assert dot.count("->") == 2 * sum(1 for f in vt.tree.feature_index if f != -1)
    # identical intervals produce identical visual attributes
    from venncal.venn_tree import _leaf_attributes

    anns = list(vt.leaves.values())
    for a in anns:
        for b in anns:
            if (a.p0, a.p1, a.point, a.predicted_class) == (b.p0, b.p1, b.point, b.predicted_class):
                attrs_a = _leaf_attributes(a).replace(f"n{a.node}", "")
                attrs_b = _leaf_attributes(b).replace(f"n{b.node}", "")
                assert attrs_a == attrs_b


def test_render_width_and_intensity_monotone():
    from venncal.venn_tree import _leaf_attributes
    from venncal.venn_tree import LeafAnnotation

    narrow_confident = LeafAnnotation(
        node=0, raw_score=0.99, p0=0.98, p1=1.0, point=0.99, predicted_class=1, n_train=5, n_calibration=3
    )
    wide_uncertain = LeafAnnotation(
        node=1, raw_score=0.5, p0=0.41, p1=0.70, point=0.55, predicted_class=1, n_train=5, n_calibration=3
    )
    a = _leaf_attributes(narrow_confident)
    b = _leaf_attributes(wide_uncertain)

    def attr(s, key):
        part = [p for p in s.split(", ") if p.startswith(key)][0]
        return part

    def width(s):
        return float(attr(s, "width=").split("=")[1])

    def saturation(s):
        return float(attr(s, 'fillcolor="').split('"')[1].split()[1])

    assert width(a) < width(b)
    assert saturation(a) > saturation(b)


# sha256 of every file `venncal venn-tree` writes for the seed-5 synthetic
# dataset at tree seed 1; depth 0 keeps only the root, 99 the whole tree.
# leaves.csv ends its lines in \r\n, as write_columns writes every CSV.
# Depths 0, 2 and 5 were re-recorded when collapsed leaves began to be
# calibrated on the display tree's scores; depth 99 is the whole tree and
# its bytes did not change
GOLDEN_VENN_TREE_DIGESTS = {
    0: {
        "rules.txt": "7853e32c4fe7f6cfd745af85bc4d69087085faafa9964ad790bb04daec29f85d",
        "tree.dot": "d5c831a5ebb56dab3fd091bea93560fc9f80865fc458d4ec8e07ead833a4315c",
        "leaves.csv": "7f1a4be3a71ae679d65ba983a9c55effb9ff1269c63d1d208d189353c494560d",
    },
    2: {
        "rules.txt": "0050170c20a67f82816d84b58fc3d310fc1d6997c5a7435083dd88a09c638213",
        "tree.dot": "b85e39606b98566c133cda0017ba452cc5f2a6a6ff516df2a2a370c2b992dfe2",
        "leaves.csv": "c6e01dca67c90e8971adfc3bf3a2497fccf28e50292c95fadf5d7588ecc2d965",
    },
    5: {
        "rules.txt": "3568cbe4a58b08bcc4c530fe07e709413f3e38cd8dde670fd52abd4db73f96cf",
        "tree.dot": "7b6deb2a4fedb4a48060688976540e737a89b0bba072dee458eb04ee914731b0",
        "leaves.csv": "a38ae6ca3ddc63de40bb2112f126677d71c692735e24b60b38a0c6387dc3029b",
    },
    99: {
        "rules.txt": "91922a143f9c14d80517de30e824a54b4ca8359ce6b0c606184cdec983c5e57c",
        "tree.dot": "a19a75c5048723f401e52fc3d700d785574cc243896da8c0779ebbd3c48c5b3d",
        "leaves.csv": "09c66faffdcd19755b7aaffb3300a56be2d271d6d89135f65e740f4824a15f7f",
    },
}
# the fitted tree is the same at every display depth; re-recorded when tree documents
# lost max_depth and min_samples_split, as the earlier model.json with those keys deleted
GOLDEN_VENN_TREE_MODEL = "f0852ce91c4847078ab0d31348f6b2ff6d60d37c730704b93ab1b7cb8dec4198"


def test_venn_tree_output_bytes_match_golden_digests(tmp_path):
    data = write_reference_csv(tmp_path / "ref.csv", seed=5)
    for depth, want in GOLDEN_VENN_TREE_DIGESTS.items():
        out = tmp_path / f"depth{depth}"
        argv = ["venn-tree", "--data", str(data), "--out", str(out), "--max-depth", str(depth), "--seed", "1"]
        assert cli_main(argv) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in (*want, "model.json")}
        assert got == {**want, "model.json": GOLDEN_VENN_TREE_MODEL}, f"depth {depth}"

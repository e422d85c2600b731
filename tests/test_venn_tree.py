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
    for seed in range(4):
        tree, calibrator, cal_x, _ = small_setup(seed=seed)
        vt = build_venn_tree(tree, calibrator, display_max_depth=depth, calibration_features=cal_x)
        assert sorted(vt.leaves) == np.flatnonzero(vt.tree.feature_index == -1).tolist()
        for ann in vt.leaves.values():
            want = calibrator.interval_naive(ann.raw_score)
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
    with pytest.raises(ValueError, match=r"have \(132, 3\) but the calibrator and tree expect \(133, 3\)"):
        build_venn_tree(tree, calibrator, calibration_features=cal_x[1:])


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
# dataset at tree seed 1; depth 0 keeps only the root, 99 the whole tree
GOLDEN_VENN_TREE_DIGESTS = {
    0: {
        "rules.txt": "a5fca256b5f4aa372b73ddea6c39835f760374b556b5e734487d310bed104991",
        "tree.dot": "18b691ab068570737beefef89a361aa6e47c600e61e1936793adb6659bf5a75c",
        "leaves.csv": "4296fd49ca182afc9790aa881d6d27ebfee0699ddb7703b3cb2e89c6b9314ff3",
    },
    2: {
        "rules.txt": "591bc98853d976f6b7b4794505f44e5b97f2d9eabfb7b2a0588340bb85c2f0c2",
        "tree.dot": "2710808c2f36e4830b8f99f611b507dc0b3eff5ba05fba66815ee0ba8f471d5e",
        "leaves.csv": "fe43a8bf85169a896d85322d7ba6865bdfe294d7779b6e5fd7133e9cb4b533d1",
    },
    5: {
        "rules.txt": "604efb0b607cfe5896ec327baab3f3f733c0c3971710a21c4df6139a77007f14",
        "tree.dot": "324983350a2bfedcf147975d09d952e44e9ff85fc3d4754ed14868328dcbc526",
        "leaves.csv": "274cd32ee5f2ef637dfe4f74b90ea3526464f54e8bb50c83895701dc1d3f9600",
    },
    99: {
        "rules.txt": "91922a143f9c14d80517de30e824a54b4ca8359ce6b0c606184cdec983c5e57c",
        "tree.dot": "a19a75c5048723f401e52fc3d700d785574cc243896da8c0779ebbd3c48c5b3d",
        "leaves.csv": "c5bbc4d04725f9ccd2bec289b7520756b0e662667df9bb374ee73085c4ac4832",
    },
}
# the fitted tree is the same at every display depth
GOLDEN_VENN_TREE_MODEL = "7687551540de0b974969fc7d65254ec81d1afca27f05989845529404b3302eb2"


def test_venn_tree_output_bytes_match_golden_digests(tmp_path):
    data = write_reference_csv(tmp_path / "ref.csv", seed=5)
    for depth, want in GOLDEN_VENN_TREE_DIGESTS.items():
        out = tmp_path / f"depth{depth}"
        argv = ["venn-tree", "--data", str(data), "--out", str(out), "--max-depth", str(depth), "--seed", "1"]
        assert cli_main(argv) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in (*want, "model.json")}
        assert got == {**want, "model.json": GOLDEN_VENN_TREE_MODEL}, f"depth {depth}"

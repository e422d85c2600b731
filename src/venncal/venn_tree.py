"""Interval-annotated decision trees.

Attaches a Venn-Abers probability interval to every leaf of a fitted tree
(optionally collapsed to a display depth first) and exports the result as
conjunctive rules and as a Graphviz DOT document in which colour encodes
the predicted class, colour intensity the point estimate's distance from
the neutral 0.5, and node width the interval width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from venncal.calibration import VennAbersCalibrator
from venncal.data import feature_matrix
from venncal.metrics import DECISION_THRESHOLD
from venncal.models.tree import DecisionTreeModel

__all__ = [
    "CLASS_NAMES",
    "Condition",
    "LeafAnnotation",
    "Rule",
    "VennTree",
    "build_venn_tree",
    "extract_rules",
    "format_rules",
    "render_tree",
]

CLASS_NAMES = ("No Failure", "Failure")

# visual encoding ranges for the DOT export
_MIN_NODE_WIDTH = 0.75
_MAX_NODE_WIDTH = 3.0
_CLASS_HUES = (0.083, 0.61)  # orange for class 0, blue for class 1


@dataclass(frozen=True)
class LeafAnnotation:
    node: int
    raw_score: float
    p0: float
    p1: float
    point: float
    predicted_class: int
    n_train: int
    n_calibration: int


@dataclass(frozen=True)
class VennTree:
    tree: DecisionTreeModel  # display tree (possibly depth-collapsed)
    leaves: dict[int, LeafAnnotation]
    feature_names: tuple[str, ...]

    def annotation_for(self, x) -> LeafAnnotation:
        """Leaf annotation reached by one feature vector."""
        leaf = int(self.tree.apply(np.asarray(x, dtype=np.float64)[None, :])[0])
        return self.leaves[leaf]


def build_venn_tree(
    tree: DecisionTreeModel,
    calibrator: VennAbersCalibrator,
    display_max_depth: int | None = None,
    feature_names: tuple[str, ...] | None = None,
    *,
    calibration_features,
) -> VennTree:
    """Annotate each (display) leaf with a Venn-Abers interval fitted on the scores the display tree shows.

    calibration_features holds the calibrator's calibration rows in its row
    order: row i is labelled calibrator.calibration_labels[i].  A collapsed
    leaf scores with the pooled training positive fraction of its subtree.
    The intervals come from a calibrator fitted afresh on the display
    tree's scores of these rows and their labels (at full depth, the scores
    the passed calibrator was fitted on), so each describes the rows routed
    to its leaf; n_calibration counts them, summing to the set's size.
    """
    display = tree if display_max_depth is None else tree.collapsed(display_max_depth)

    cal_x = feature_matrix(calibration_features, display.n_features, rows=calibrator.calibration_scores.size)
    routed = display.apply(cal_x)
    cal_counts = {int(k): int(v) for k, v in zip(*np.unique(routed, return_counts=True))}
    scores = display.n_positive / display.n_samples  # a node's pooled training positive fraction
    refit = VennAbersCalibrator(scores[routed], calibrator.calibration_labels)

    nodes = np.flatnonzero(display.feature_index == -1)
    raw_scores = scores[nodes]
    p0, p1, point = refit.intervals(raw_scores)
    leaves = {}
    for node, raw, lo, hi, pt in zip(nodes.tolist(), raw_scores.tolist(), p0.tolist(), p1.tolist(), point.tolist()):
        leaves[node] = LeafAnnotation(
            node=node,
            raw_score=raw,
            p0=lo,
            p1=hi,
            point=pt,
            predicted_class=1 if pt >= DECISION_THRESHOLD else 0,
            n_train=int(display.n_samples[node]),
            n_calibration=cal_counts.get(node, 0),
        )
    if feature_names is None:
        feature_names = tuple(f"feature {i}" for i in range(display.n_features))
    if len(feature_names) != display.n_features:
        raise ValueError("one feature name per feature column required")
    return VennTree(
        tree=display,
        leaves=leaves,
        feature_names=tuple(feature_names),
    )


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition:
    feature_index: int
    feature_name: str
    comparator: str  # "<=" or ">"
    threshold: float

    def holds(self, x) -> bool:
        value = x[self.feature_index]
        return value <= self.threshold if self.comparator == "<=" else value > self.threshold


@dataclass(frozen=True)
class Rule:
    conditions: tuple[Condition, ...]
    leaf: LeafAnnotation  # of the leaf the conditions route to: its interval is leaf.p0, leaf.p1

    def matches(self, x) -> bool:
        return all(condition.holds(x) for condition in self.conditions)


def extract_rules(vt: VennTree) -> list[Rule]:
    """One conjunctive rule per leaf, in leaf-index order.

    A rule keeps the tightest bound of its path per (feature, comparator),
    placed where the path first bounds that feature that way.
    """
    tree = vt.tree
    # each path's bounds by (feature, comparator); replacing a value keeps its key's place
    stack: list[tuple[int, dict[tuple[int, str], Condition]]] = [(0, {})]
    collected: dict[int, tuple[Condition, ...]] = {}
    while stack:
        node, bounds = stack.pop()
        if tree.feature_index[node] == -1:
            collected[node] = tuple(bounds.values())
            continue
        f = int(tree.feature_index[node])
        t = float(tree.threshold[node])
        for child, comparator in ((tree.right_child[node], ">"), (tree.left_child[node], "<=")):
            bound = bounds.get((f, comparator))
            if bound is None or (t < bound.threshold if comparator == "<=" else t > bound.threshold):
                bound = Condition(f, vt.feature_names[f], comparator, t)
            stack.append((int(child), {**bounds, (f, comparator): bound}))
    return [Rule(conditions=collected[node], leaf=vt.leaves[node]) for node in sorted(collected)]


def format_rules(rules: list[Rule]) -> str:
    """Plain-text rule listing, one block per rule."""
    blocks = []
    for i, rule in enumerate(rules, start=1):
        lines = []
        for j, cond in enumerate(rule.conditions):
            prefix = f"{i})" if j == 0 else "  &"
            lines.append(f"{prefix} {cond.feature_name} {cond.comparator} {cond.threshold:g}")
        if not rule.conditions:
            lines.append(f"{i}) (always)")
        lines.append(f"  → {CLASS_NAMES[rule.leaf.predicted_class]} [{rule.leaf.p0:.2f}, {rule.leaf.p1:.2f}]")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

def _leaf_attributes(ann: LeafAnnotation) -> str:
    hue = _CLASS_HUES[ann.predicted_class]
    saturation = min(1.0, abs(ann.point - 0.5) * 2.0)
    width = _MIN_NODE_WIDTH + (ann.p1 - ann.p0) * (_MAX_NODE_WIDTH - _MIN_NODE_WIDTH)
    label = (
        f"{CLASS_NAMES[ann.predicted_class]}\\n"
        f"[{ann.p0:.2f}, {ann.p1:.2f}]\\np = {ann.point:.2f}"
    )
    return (
        f'label="{label}", shape=box, style="filled,rounded", '
        f'fillcolor="{hue:.3f} {saturation:.3f} 1.000", '
        f"width={width:.3f}, fixedsize=false"
    )


def render_tree(vt: VennTree) -> str:
    """Graphviz DOT document for the annotated tree.

    Left edges mean the split condition holds.  Leaf fill hue encodes the
    predicted class, saturation the distance of the point estimate from
    0.5, and box width the interval width.
    """
    tree = vt.tree
    lines = ["digraph venn_tree {", "  graph [ordering=out];", "  node [fontname=Helvetica];"]
    for node in range(tree.n_nodes):
        if tree.feature_index[node] == -1:
            lines.append(f"  n{node} [{_leaf_attributes(vt.leaves[node])}];")
        else:
            name = vt.feature_names[int(tree.feature_index[node])]
            label = f"{name} ≤ {float(tree.threshold[node]):g}"
            lines.append(f'  n{node} [label="{label}", shape=box];')
    for node in range(tree.n_nodes):
        if tree.feature_index[node] != -1:
            lines.append(f'  n{node} -> n{int(tree.left_child[node])} [label="yes"];')
            lines.append(f'  n{node} -> n{int(tree.right_child[node])} [label="no"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

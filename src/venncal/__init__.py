"""Probability calibration toolkit for imbalanced fault detection.

Wraps scoring classifiers (decision tree, random forest, logistic
regression, external score tables) with Platt scaling, isotonic regression
and inductive Venn-Abers calibration, and ships an experiment harness plus
an interval-annotated decision-tree exporter.
"""

from venncal.calibration import (
    IsotonicFit,
    PlattFit,
    ProbabilityInterval,
    VennAbersCalibrator,
    apply_platt,
    fit_platt,
    isotonic_calibrate,
    pava,
    regularized_point,
)
from venncal.data import (
    AI4I_SCHEMA,
    CsvSchema,
    Dataset,
    FoldSplit,
    load_csv,
    repeated_stratified_kfold,
)
from venncal.harness import (
    AggregateTable,
    ExperimentConfig,
    calibrate_scores,
    export_reliability,
    run_experiment,
)
from venncal.metrics import (
    EvaluationReport,
    ReliabilityBins,
    auc,
    classification_metrics,
    ece,
    ece_minority,
    evaluate,
    reliability_bins,
)
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
from venncal.synthetic import REFERENCE_SEED, write_reference_csv
from venncal.venn_tree import VennTree, build_venn_tree, extract_rules, format_rules, render_tree

__all__ = [
    "AI4I_SCHEMA",
    "AggregateTable",
    "CsvSchema",
    "Dataset",
    "DecisionTreeModel",
    "EvaluationReport",
    "ExperimentConfig",
    "FoldSplit",
    "IsotonicFit",
    "LogisticRegressionModel",
    "PlattFit",
    "ProbabilityInterval",
    "RandomForestModel",
    "REFERENCE_SEED",
    "ReliabilityBins",
    "ScoreTable",
    "VennAbersCalibrator",
    "VennTree",
    "apply_platt",
    "auc",
    "build_venn_tree",
    "calibrate_scores",
    "classification_metrics",
    "ece",
    "ece_minority",
    "evaluate",
    "export_reliability",
    "extract_rules",
    "fit_forest",
    "fit_logistic",
    "fit_platt",
    "fit_tree",
    "format_rules",
    "isotonic_calibrate",
    "load_csv",
    "load_score_table",
    "pava",
    "regularized_point",
    "reliability_bins",
    "render_tree",
    "repeated_stratified_kfold",
    "run_experiment",
    "write_reference_csv",
]

__version__ = "0.1.0"

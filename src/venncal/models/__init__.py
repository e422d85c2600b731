"""Binary scoring models with a uniform score-in-[0,1] interface."""

from venncal.models.logistic import LogisticRegressionModel, fit_logistic
from venncal.models.score_table import ScoreTable, load_score_table
from venncal.models.tree import DecisionTreeModel, RandomForestModel, fit_forest, fit_tree

__all__ = [
    "DecisionTreeModel",
    "LogisticRegressionModel",
    "RandomForestModel",
    "ScoreTable",
    "fit_forest",
    "fit_logistic",
    "fit_tree",
    "load_score_table",
]

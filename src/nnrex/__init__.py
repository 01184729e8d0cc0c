"""nnrex: rule-set extraction from trained feed-forward networks.

The package splits into small, composable pieces:

- :mod:`nnrex.data` -- datasets, synthetic parity generator, stratified folds
- :mod:`nnrex.mlp` -- the network, its trainer, and weight-file round trips
- :mod:`nnrex.tree` -- gain-ratio decision-tree induction and tree->rules
- :mod:`nnrex.rules` -- the symbolic rule-set model and its inference
- :mod:`nnrex.extract` -- the extraction algorithms and their baselines
- :mod:`nnrex.evaluation` -- metrics, resource tracking, cross-validation
- :mod:`nnrex.cli` -- command-line wiring
"""
from .data import Dataset, FoldSplit, gen_xor, load_csv, stratified_kfold
from .extract import (
    ExplosionGuard,
    ExtractionConfig,
    c5_direct,
    deepred_star,
    eclaire,
    eclaire_star,
    pedc5,
    remd,
    run_method,
)
from .evaluation import EvaluationReport, accuracy, auc_binary, crossval, fidelity, measure
from .mlp import Mlp, TrainConfig, forward, layer_outputs, predict_labels, train
from .rules import Rule, RuleSet, Term, canonicalize, feature_usage, predict, rule_stats, score
from .tree import DecisionTree, induce, to_ruleset

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FoldSplit", "gen_xor", "load_csv", "stratified_kfold",
    "ExplosionGuard", "ExtractionConfig", "c5_direct", "deepred_star", "eclaire", "eclaire_star",
    "pedc5", "remd", "run_method",
    "EvaluationReport", "accuracy", "auc_binary", "crossval", "fidelity", "measure",
    "Mlp", "TrainConfig", "forward", "layer_outputs", "predict_labels", "train",
    "Rule", "RuleSet", "Term", "canonicalize", "feature_usage", "predict", "rule_stats", "score",
    "DecisionTree", "induce", "to_ruleset",
    "__version__",
]

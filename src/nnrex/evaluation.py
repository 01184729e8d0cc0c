"""Metrics, resource tracking, and the cross-validation harness.

The harness mirrors the reporting protocol of the experiments it
reproduces: stratified k-fold, where each fold's network is trained on its
training split and rules are then extracted at every point of a grid of
minimum-split values, and a summary of the grid point that performed best
on the test folds (with an optional validation-split selection for honest
model choice). The k fold networks train together, as one stack of
:func:`nnrex.mlp.train_many`, before the first extraction.
"""
from __future__ import annotations

import hashlib
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, FoldSplit, stratified_kfold
from .extract import ExtractionConfig, check_method, run_method
# ``train`` stays a name of this module for callers that wrap
# ``evaluation.train``; crossval trains through ``train_many``
from .mlp import Mlp, TrainConfig, predict_labels, train, train_many  # noqa: F401
from .rules import RuleSet, predict_batch, rule_stats, score_batch


class EvalError(ValueError):
    """Raised for invalid harness parameters."""


@dataclass(frozen=True)
class NetPreset:
    hidden_sizes: tuple[int, ...]
    activation: str
    epochs: int
    batch_size: int


# Winning architectures per task; only the synthetic parity preset is
# exercised end-to-end here, the rest document the intended configurations.
NET_PRESETS: dict[str, NetPreset] = {
    "xor": NetPreset((64, 32, 16), "tanh", 150, 16),
    "metabric": NetPreset((128, 16), "tanh", 150, 16),
    "magic": NetPreset((64, 32, 16), "relu", 200, 32),
    "miniboone": NetPreset((128, 64, 32, 16, 8), "elu", 30, 16),
    "letters": NetPreset((128, 64), "elu", 150, 32),
}

# Minimum-split search grids for the synthetic parity task, per method:
# (mu_min, mu_max, mu_step).
XOR_MU_GRIDS: dict[str, tuple[int, int, int]] = {
    "eclaire": (2, 15, 1),
    "eclaire_star": (2, 15, 1),
    "c5": (2, 15, 1),
    "pedc5": (2, 15, 1),
    "remd": (25, 35, 1),
    "deepred_star": (25, 35, 1),
}


def accuracy(rs: RuleSet, X: np.ndarray, y_true: np.ndarray) -> float:
    """Percentage of samples whose vote outcome matches the true label."""
    pred = predict_batch(rs, X)
    return float(np.mean(pred == np.asarray(y_true))) * 100.0


def fidelity(rs: RuleSet, X: np.ndarray, net: Mlp) -> float:
    """Accuracy against the network's predicted labels."""
    return accuracy(rs, X, predict_labels(net, X))


def auc_binary(rs: RuleSet, X: np.ndarray, y_true: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) AUC of the class-1 score, as a percentage.

    Tied scores receive midranks, so constant scores give exactly 50.
    """
    y = np.asarray(y_true)
    if rs.num_classes != 2:
        raise EvalError("auc_binary requires a binary rule set")
    scores = score_batch(rs, X)[:, 1]
    return _mann_whitney_auc(scores, y) * 100.0


def _mann_whitney_auc(scores: np.ndarray, y: np.ndarray) -> float:
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvalError("auc needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # 1-based midrank of each tied group: its last rank minus half its spread
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum_pos = ranks[y == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def measure(fn):
    """Run a zero-argument callable, returning (result, seconds, peak_bytes).

    Peak bytes come from the tracemalloc allocation counter: a proxy for
    footprint, not resident-set parity.
    """
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return result, elapsed, peak


def _agg(values: list[float | None]) -> tuple[float | None, float | None]:
    if any(v is None for v in values):
        return None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


@dataclass
class EvaluationReport:
    """Per-fold metrics for one (method, mu) grid point plus their
    fold-population mean and standard deviation."""

    method: str
    mu: int
    seed: int
    config_hash: str
    fold_accuracy: list = field(default_factory=list)
    fold_fidelity: list = field(default_factory=list)
    fold_auc: list = field(default_factory=list)
    fold_rule_count: list = field(default_factory=list)
    fold_avg_rule_length: list = field(default_factory=list)
    fold_seconds: list = field(default_factory=list)
    fold_peak_bytes: list = field(default_factory=list)

    def aggregates(self) -> dict:
        out = {}
        for name in ("accuracy", "fidelity", "auc", "rule_count", "avg_rule_length", "seconds", "peak_bytes"):
            mean, std = _agg(getattr(self, f"fold_{name}"))
            out[name] = {"mean": mean, "std": std}
        return out

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracy))

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["aggregates"] = self.aggregates()
        return payload


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class CrossvalResult:
    reports: list[EvaluationReport]
    best: EvaluationReport
    folds: list[FoldSplit]
    best_rules: list[RuleSet]  # the rule set each fold extracted for ``best``


def mu_grid(grid: tuple[int, int, int]) -> list[int]:
    mu_min, mu_max, step = grid
    if step < 1 or mu_max < mu_min:
        raise EvalError(f"empty mu grid {grid}")
    return list(range(mu_min, mu_max + 1, step))


def crossval(
    ds: Dataset,
    method: str,
    grid: tuple[int, int, int],
    net_preset: str | None = "xor",
    k: int = 5,
    seed: int = 0,
    base_cfg: ExtractionConfig = ExtractionConfig(),
    nets: list[Mlp] | None = None,
    select_by: str = "test_accuracy",
) -> CrossvalResult:
    """Stratified k-fold evaluation of one method over a mu grid.

    Every fold's network is trained on its training split (or taken from
    ``nets``), all k in one :func:`train_many` call, so a diverged training
    raises before any extraction. Fold by fold, rules are then extracted
    from the training split only at every grid point and scored on the
    held-out test split. The summary report is the grid point with the best
    mean test accuracy, mirroring the reported protocol; pass
    ``select_by="validation"`` to select on a quarter of the training split
    held out from extraction instead.
    """
    check_method(method, base_cfg)
    mus = mu_grid(grid)
    if select_by not in ("test_accuracy", "validation"):
        raise EvalError(f"unknown selection mode {select_by!r}")
    folds = stratified_kfold(ds, k, seed)
    if nets is None and method != "c5" and net_preset not in NET_PRESETS:
        raise EvalError(f"unknown net preset {net_preset!r}")

    cfgs = [replace(base_cfg, min_samples=mu, seed=seed) for mu in mus]
    reports = [
        EvaluationReport(method, cfg.min_samples, seed, _config_hash(
            {"method": method, "k": k, "seed": seed, "net_preset": net_preset, **asdict(cfg)}
        ))
        for cfg in cfgs
    ]
    train_sets = []
    for fold in folds:
        train_idx = np.array(fold.train_indices)
        assert not set(train_idx) & set(fold.test_indices)
        train_sets.append(Dataset(ds.features[train_idx], ds.labels[train_idx], ds.feature_names, ds.class_names))
    if nets is None and method == "c5":
        nets = [None] * len(folds)
    elif nets is None:
        preset = NET_PRESETS[net_preset]
        train_cfgs = [
            TrainConfig(epochs=preset.epochs, batch_size=preset.batch_size, seed=seed + f)
            for f in range(len(folds))
        ]
        nets = train_many(train_sets, preset.hidden_sizes, preset.activation, train_cfgs)

    fold_rules = [[] for _ in mus]  # per grid point, the rule set of each fold
    val_accuracy = [[] for _ in mus]
    for f, (fold, train_ds) in enumerate(zip(folds, train_sets)):
        test_idx = np.array(fold.test_indices)
        X_train, y_train = train_ds.features, train_ds.labels
        X_test, y_test = ds.features[test_idx], ds.labels[test_idx]
        X_extract, y_extract = X_train, y_train
        if select_by == "validation":
            val = stratified_kfold(train_ds, 4, seed)[0]
            extract_idx, val_idx = np.array(val.train_indices), np.array(val.test_indices)
            X_extract, y_extract = X_train[extract_idx], y_train[extract_idx]
            X_val, y_val = X_train[val_idx], y_train[val_idx]

        net = nets[f]
        for cfg, report, rules_f, val_f in zip(cfgs, reports, fold_rules, val_accuracy):
            rs, seconds, peak = measure(
                lambda: run_method(
                    method, X_extract, y_extract, net, cfg,
                    feature_names=ds.feature_names, num_classes=ds.num_classes,
                )
            )
            report.fold_accuracy.append(accuracy(rs, X_test, y_test))
            report.fold_fidelity.append(None if net is None else fidelity(rs, X_test, net))
            report.fold_auc.append(auc_binary(rs, X_test, y_test) if ds.num_classes == 2 else None)
            count, avg_len = rule_stats(rs)
            report.fold_rule_count.append(count)
            report.fold_avg_rule_length.append(avg_len)
            report.fold_seconds.append(seconds)
            report.fold_peak_bytes.append(peak)
            rules_f.append(rs)
            if select_by == "validation":
                val_f.append(accuracy(rs, X_val, y_val))

    scores = [report.mean_accuracy for report in reports]
    if select_by == "validation":
        scores = [float(np.mean(v)) for v in val_accuracy]
    best_i = scores.index(max(scores))  # the first best grid point wins ties
    return CrossvalResult(reports, reports[best_i], folds, fold_rules[best_i])


TABLE_COLUMNS = (
    ("accuracy", "Accuracy (%)"),
    ("auc", "AUC (%)"),
    ("fidelity", "Fidelity (%)"),
    ("seconds", "Runtime (s)"),
    ("peak_bytes", "Memory (MB)"),
    ("rule_count", "Rule Set Size"),
    ("avg_rule_length", "Avg Rule Length"),
)


def report_table(reports: list[EvaluationReport]) -> str:
    """Aligned-column text table with one row per report."""
    header = ["Method", "mu"] + [title for _, title in TABLE_COLUMNS]
    rows = [header]
    for rep in reports:
        agg = rep.aggregates()
        row = [rep.method, str(rep.mu)]
        for key, _ in TABLE_COLUMNS:
            cell = agg[key]
            if cell["mean"] is None:
                row.append("N/A")
                continue
            mean, std = cell["mean"], cell["std"]
            if key == "peak_bytes":
                mean, std = mean / 1e6, std / 1e6
            row.append(f"{mean:.2f} +/- {std:.2f}")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)

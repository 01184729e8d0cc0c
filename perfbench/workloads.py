"""The benchmark's workloads: how each sets up its inputs from a seed, what one
operation is, and how its output is checked.

Every workload uses the default ``ExtractionConfig`` apart from
``min_samples``, so a change to the defaults shows in the benchmark. The
library is called only through module attributes (``extract.eclaire``), so
the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from nnrex import cli, data, evaluation, extract, mlp, rules


class CheckFailed(Exception):
    """An operation's output is wrong."""


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


class Instance:
    """One workload input set; ``reference`` is the first op's fingerprint."""

    def __init__(self, seed: int, **fields):
        self.seed = seed
        self.reference: str | None = None
        self.quality: dict[str, float] = {}
        self.__dict__.update(fields)


class Workload:
    """One benchmark workload; subclasses define ``setup``, ``op`` and
    ``fingerprint``, the fingerprint raising CheckFailed on a wrong output."""

    name: str
    rows: int  # input rows one op processes
    instances = 3
    peak_pass = True  # measure peak allocation in an untimed op

    def validate(self, inst, out) -> dict[str, float]:
        """Quality figures of an instance's first output."""
        return {}

    def check_means(self, means: dict[str, float]) -> None:
        """Check the quality figures averaged over a run's instances."""


def xor_instance(seed: int) -> Instance:
    """Fold 0 of 5 of ``gen_xor(1000, 10, seed)``, with the XOR-preset net
    trained on its 800 training rows."""
    ds = data.gen_xor(1000, 10, seed)
    fold = data.stratified_kfold(ds, 5, seed)[0]
    train_idx, test_idx = list(fold.train_indices), list(fold.test_indices)
    train_ds = data.Dataset(
        ds.features[train_idx], ds.labels[train_idx], ds.feature_names, ds.class_names
    )
    preset = evaluation.NET_PRESETS["xor"]
    net = mlp.train(
        train_ds, preset.hidden_sizes, preset.activation,
        mlp.TrainConfig(epochs=preset.epochs, batch_size=preset.batch_size, seed=seed),
    )
    return Instance(
        seed, net=net, names=ds.feature_names, X=train_ds.features,
        X_test=ds.features[test_idx], y_test=ds.labels[test_idx],
    )


class EclaireXor(Workload):
    name = "eclaire-xor"
    rows = 800
    # rule-set size, and with it op time, varies by about 14% between
    # nets; ten nets per run average most of that out
    instances = 10
    config = extract.ExtractionConfig(min_samples=2)

    def setup(self, seed, work_dir):
        return xor_instance(seed)

    def op(self, inst):
        return extract.eclaire(inst.net, inst.X, self.config, inst.names)

    def fingerprint(self, inst, rs):
        return sha256(rules.to_json(rs))

    def validate(self, inst, rs):
        count, avg_len = rules.rule_stats(rs)
        return {
            "rule_count": count,
            "avg_rule_len": avg_len,
            "fidelity_pct": evaluation.fidelity(rs, inst.X_test, inst.net),
            "accuracy_pct": evaluation.accuracy(rs, inst.X_test, inst.y_test),
        }

    def check_means(self, q):
        """The bands of the test suite's acceptance criterion 1, which like
        these means averages over several held-out splits: fidelity and
        accuracy at least 85%, at most 300 rules of mean length at most 4.5."""
        if (q["fidelity_pct"] < 85 or q["accuracy_pct"] < 85
                or q["rule_count"] > 300 or q["avg_rule_len"] > 4.5):
            raise CheckFailed(f"eclaire outside the acceptance bands: {q}")


class RemdGuard(Workload):
    """Term-wise extraction at the bottom of the remd mu grid, up to a cap.

    Not listed in BENCHMARK.json: whether and where the guard fires depends
    so much on the seed that its time is not steady, and a fired guard leaves
    no rule set to score.
    """

    name = "remd-guard"
    rows = 800
    config = extract.ExtractionConfig(min_samples=25)
    rule_cap = 300_000

    def setup(self, seed, work_dir):
        return xor_instance(seed)

    def op(self, inst):
        try:
            return extract.remd(inst.net, inst.X, self.config, inst.names, rule_cap=self.rule_cap)
        except extract.ExplosionGuard as guard:
            return guard

    def fingerprint(self, inst, out):
        if isinstance(out, extract.ExplosionGuard):
            if out.cap != self.rule_cap or out.rule_count <= out.cap:
                raise CheckFailed(f"guard fired below its cap: {out}")
            return f"guard at layer {out.layer}: {out.rule_count} rules"
        return sha256(rules.to_json(out))


class ScoreXor(Workload):
    """Scoring an extracted rule set on a fresh batch.

    Not listed in BENCHMARK.json: its 20 ms ops are the most sensitive to
    host contention, and its run medians spread too far between runs.
    """

    name = "score-xor"
    rows = 1000
    instances = 5

    def setup(self, seed, work_dir):
        inst = xor_instance(seed)
        inst.rs = extract.eclaire(inst.net, inst.X, EclaireXor.config, inst.names)
        inst.rules_sha = sha256(rules.to_json(inst.rs))
        batch = data.gen_xor(1000, 10, seed + 1)
        inst.X_batch, inst.y_batch = batch.features, batch.labels
        return inst

    def op(self, inst):
        return (
            evaluation.accuracy(inst.rs, inst.X_batch, inst.y_batch),
            evaluation.fidelity(inst.rs, inst.X_batch, inst.net),
            evaluation.auc_binary(inst.rs, inst.X_batch, inst.y_batch),
        )

    def fingerprint(self, inst, out):
        return f"{inst.rules_sha} {out!r}"

    def validate(self, inst, out):
        sums = rules.score_batch(inst.rs, inst.X_batch).sum(axis=1)
        if not np.allclose(sums, 1.0):
            raise CheckFailed("score_batch rows do not sum to 1")
        count, avg_len = rules.rule_stats(inst.rs)
        return {
            "rule_count": count,
            "avg_rule_len": avg_len,
            "fidelity_pct": out[1],
            "accuracy_pct": out[0],
        }


class CrossvalCli(Workload):
    name = "crossval-cli"
    rows = 600
    # Each op takes about 11 s, so a run has about four of them; with three
    # instances one usually runs twice, which gives op_p90_s a repeat to
    # take its tail from. evaluation.measure starts and stops tracemalloc
    # itself, so the peak comes from the reports the command writes.
    instances = 3
    peak_pass = False

    def setup(self, seed, work_dir):
        inst_dir = Path(work_dir) / f"crossval-{seed}"
        inst_dir.mkdir(parents=True)
        csv_path = inst_dir / "xor.csv"
        argv = ["gen-xor", "--n", "600", "--dims", "10", "--seed", str(seed), "--out", str(csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise CheckFailed("gen-xor failed")
        config = {
            "task": f"csv:{csv_path}", "label_column": "label", "net_preset": "xor",
            "method": "eclaire", "mu_min": 8, "mu_max": 8, "k": 3, "seed": seed,
            "out_dir": str(inst_dir / "reports"),
        }
        config_path = inst_dir / "config.json"
        config_path.write_text(json.dumps(config))
        return Instance(seed, config=str(config_path), reports=inst_dir / "reports")

    def op(self, inst):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["crossval", "--config", inst.config])

    def fingerprint(self, inst, exit_code):
        if exit_code != 0:
            raise CheckFailed(f"crossval exited with {exit_code}")
        try:
            json.loads((inst.reports / "report_mu_8.json").read_text())
            best = json.loads((inst.reports / "best_summary.json").read_text())
            rules_json = (inst.reports / "rules_best.json").read_text()
            json.loads(rules_json)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"unreadable report: {exc}") from None
        # runtime and memory columns vary between runs; the rest must not
        fixed = {k: v for k, v in best.items() if k not in ("fold_seconds", "fold_peak_bytes", "aggregates")}
        return sha256(rules_json) + sha256(json.dumps(fixed, sort_keys=True))

    def validate(self, inst, exit_code):
        agg = json.loads((inst.reports / "best_summary.json").read_text())["aggregates"]
        return {
            "rule_count": agg["rule_count"]["mean"],
            "avg_rule_len": agg["avg_rule_length"]["mean"],
            "fidelity_pct": agg["fidelity"]["mean"],
            "accuracy_pct": agg["accuracy"]["mean"],
            "peak_alloc_mb": agg["peak_bytes"]["mean"] / 1e6,
        }


WORKLOADS = {w.name: w for w in (EclaireXor(), RemdGuard(), ScoreXor(), CrossvalCli())}

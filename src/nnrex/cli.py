"""Command-line entry point wiring the library into reproducible runs.

Exit codes: 0 success, 2 configuration error (also used by argparse for
usage errors), 3 data error (including training that diverged),
4 term-wise explosion-guard abort.

Every command is deterministic for fixed flags and seed; measured runtime
and peak-memory figures are the one exception and are reported separately
from the deterministic outputs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data, evaluation, extract, mlp, rules

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EXPLOSION = 4


class ConfigError(ValueError):
    pass


def _write_dataset_csv(ds: data.Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*ds.feature_names, "label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.class_names[label]])


def cmd_gen_xor(args) -> int:
    ds = data.gen_xor(args.n, args.dims, args.seed)
    _write_dataset_csv(ds, args.out)
    print(f"wrote {ds.num_samples} samples x {ds.num_features} features to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = data.load_csv(args.data, args.label_column)
    cfg = mlp.TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed)
    try:
        hidden = [int(s) for s in args.hidden.split(",") if s]
    except ValueError:
        raise ConfigError(f"--hidden must be comma-separated integers, got {args.hidden!r}") from None
    if not hidden:
        raise ConfigError("--hidden must name at least one layer size")
    net = mlp.train(ds, hidden, args.activation, cfg)
    mlp.save(net, args.out)
    train_acc = float(np.mean(mlp.predict_labels(net, ds.features) == ds.labels)) * 100
    print(f"trained {'-'.join(map(str, hidden))} {args.activation} net: "
          f"train accuracy {train_acc:.1f}%, saved to {args.out}")
    return EXIT_OK


# The extraction knobs, by name and type: the fields of ExtractionConfig.
_KNOBS = {f.name: type(f.default) for f in dataclasses.fields(extract.ExtractionConfig)}


def _extraction_config(values: dict) -> extract.ExtractionConfig:
    return extract.ExtractionConfig(**{key: v for key, v in values.items() if key in _KNOBS})


def cmd_extract(args) -> int:
    ds = data.load_csv(args.data, args.label_column)
    net = mlp.load(args.weights) if args.weights else None
    cfg = _extraction_config(vars(args))
    rs = extract.run_method(
        args.method, ds.features, ds.labels, net, cfg,
        feature_names=ds.feature_names, num_classes=ds.num_classes,
        rule_cap=args.rule_cap,
    )
    rules.serialize(rs, args.out)
    count, avg_len = rules.rule_stats(rs)
    metrics = {
        "method": args.method,
        "mu": cfg.min_samples,
        "rule_count": count,
        "avg_rule_length": avg_len,
        "train_accuracy": evaluation.accuracy(rs, ds.features, ds.labels),
    }
    if net is not None:
        metrics["train_fidelity"] = evaluation.fidelity(rs, ds.features, net)
    metrics_path = str(args.out) + ".metrics.json"
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ds = data.load_csv(args.data, args.label_column)
    rs = rules.deserialize(args.rules)
    count, avg_len = rules.rule_stats(rs)
    metrics = {
        "accuracy": evaluation.accuracy(rs, ds.features, ds.labels),
        "rule_count": count,
        "avg_rule_length": avg_len,
    }
    if ds.num_classes == 2 and rs.num_classes == 2:
        metrics["auc"] = evaluation.auc_binary(rs, ds.features, ds.labels)
    if args.weights:
        net = mlp.load(args.weights)
        metrics["fidelity"] = evaluation.fidelity(rs, ds.features, net)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_feature_usage(args) -> int:
    rs = rules.deserialize(args.rules)
    if rs.feature_names is not None:
        names = rs.feature_names
    else:
        width = 1 + max((t.feature for r in rs.rules for t in r.premise), default=0)
        names = tuple(f"f{i}" for i in range(width))
    usage = rules.feature_usage(rs, len(names))
    for name, value in zip(names, usage):
        print(f"{name},{value:.6f}")
    return EXIT_OK


# min_samples is not a key: the mu grid sets it.
_CROSSVAL_KEYS = {
    "task": str, "label_column": str, "net_preset": str, "weights": str,
    "method": str, "mu_min": int, "mu_max": int, "mu_step": int, "k": int,
    "out_dir": str, "select_by": str,
    **{key: kind for key, kind in _KNOBS.items() if key != "min_samples"},
}


def _load_experiment_config(path, overrides: dict) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a flat JSON object")
    cfg = {}
    for key, value in raw.items():
        if key not in _CROSSVAL_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        kind = _CROSSVAL_KEYS[key]
        # an integer is also a float, but a boolean is no number
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{path}: config key {key!r} must be a {kind.__name__}, got {value!r}")
        cfg[key] = kind(value)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for required in ("task", "method"):
        if required not in cfg:
            raise ConfigError(f"{path}: missing required key {required!r}")
    if ("net_preset" in cfg) == ("weights" in cfg) and cfg["method"] != "c5":
        raise ConfigError("exactly one of net_preset / weights must be set")
    if not all(k in cfg for k in ("mu_min", "mu_max")):
        if cfg["task"] == "xor" and cfg["method"] in evaluation.XOR_MU_GRIDS:
            lo, hi, step = evaluation.XOR_MU_GRIDS[cfg["method"]]
            cfg.setdefault("mu_min", lo)
            cfg.setdefault("mu_max", hi)
            cfg.setdefault("mu_step", step)
        else:
            raise ConfigError("mu_min and mu_max are required for this task/method")
    return cfg


def cmd_crossval(args) -> int:
    overrides = {"method": args.method, "out_dir": args.out_dir, "seed": args.seed}
    cfg = _load_experiment_config(args.config, overrides)
    task = cfg["task"]
    seed = cfg.get("seed", 0)
    if task == "xor":
        ds = data.gen_xor(1000, 10, seed)
    elif task.startswith("csv:"):
        ds = data.load_csv(task[4:], cfg.get("label_column", "label"))
    else:
        raise ConfigError(f"unknown task {task!r} (use 'xor' or 'csv:<path>')")

    base = _extraction_config(cfg)
    k = cfg.get("k", 5)
    nets = None
    if "weights" in cfg:
        nets = [mlp.load(cfg["weights"])] * k
        print(f"note: all {k} folds score the one net in {cfg['weights']}, so the test folds "
              "are not held out from its training", file=sys.stderr)
    grid = (cfg["mu_min"], cfg["mu_max"], cfg.get("mu_step", 1))
    result = evaluation.crossval(
        ds, cfg["method"], grid,
        net_preset=cfg.get("net_preset"), k=k, seed=seed,
        base_cfg=base, nets=nets, select_by=cfg.get("select_by", "test_accuracy"),
    )

    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    for rep in result.reports:
        with open(out_dir / f"report_mu_{rep.mu}.json", "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(out_dir / "best_summary.json", "w") as fh:
        json.dump(result.best.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    table = evaluation.report_table(result.reports)
    (out_dir / "report_table.txt").write_text(table + "\n")
    data.export_folds(result.folds, out_dir / "folds.json")

    # feature-usage table of the best report's first-fold rule set
    rs = result.best_rules[0]
    usage = rules.feature_usage(rs, ds.num_features)
    with open(out_dir / "feature_usage.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "fraction_of_rules"])
        for name, value in zip(ds.feature_names, usage):
            writer.writerow([name, f"{value:.6f}"])
    rules.serialize(rs, out_dir / "rules_best.json")

    print(table)
    print(f"\nbest mu: {result.best.mu}  (outputs in {out_dir})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nnrex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-xor", help="generate the synthetic parity dataset as CSV")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dims", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_xor)

    p = sub.add_parser("train", help="train a network on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--hidden", default="64,32,16", help="comma-separated layer sizes")
    p.add_argument("--activation", default="tanh", choices=mlp.HIDDEN_ACTIVATIONS)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("extract", help="extract a rule set from a trained network")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--weights", help="weight file (omit only for method c5)")
    p.add_argument("--method", required=True, choices=extract.METHOD_NAMES)
    p.add_argument("--mu", dest="min_samples", metavar="MU", type=int, default=2,
                   help="minimum samples for a split")
    p.add_argument("--include-input-layer", action="store_true")
    p.add_argument("--layer-stride", type=int, default=1)
    p.add_argument("--sample-fraction", type=float, default=1.0)
    p.add_argument("--rule-drop-pct", type=float, default=0.0)
    p.add_argument("--no-winnow", dest="winnow", action="store_false")
    p.add_argument("--class-weighted", action="store_true")
    p.add_argument("--rule-cap", type=int, default=extract.DEFAULT_RULE_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("evaluate", help="evaluate a stored rule set on a CSV dataset")
    p.add_argument("--rules", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--weights", help="optional weight file for fidelity")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("crossval", help="run the cross-validation harness from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=extract.METHOD_NAMES)
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_crossval)

    p = sub.add_parser("feature-usage", help="per-feature fraction of rules mentioning it")
    p.add_argument("--rules", required=True)
    p.set_defaults(fn=cmd_feature_usage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # finite input near the float limit overflows inside numpy; the typed errors below report it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (ConfigError, extract.ExtractError, evaluation.EvalError, mlp.MlpError, rules.RuleSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (data.DataError, mlp.TrainingDiverged, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except extract.ExplosionGuard as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION


if __name__ == "__main__":
    sys.exit(main())

"""Fingerprint nnrex's deterministic outputs, one ``<case> <sha256>`` line each.

Run it on two checkouts and diff the two listings: a change that should
leave behaviour alone must leave every line as it was.

    python tools/fingerprint.py > after.txt

It imports nnrex from the ``src/`` beside it, so a copy of this file placed
in another checkout fingerprints that checkout. The cases:

* ``kfold.k<k>``: ``data.stratified_kfold`` folds, or its error message,
  over a fixed grid of row counts, class counts and seeds.
* ``gen_xor.*`` and ``load_csv.*``: the bytes ``nnrex gen-xor`` writes, and
  what ``data.load_csv`` reads back from them.
* ``forward.<activation>.batch`` and ``forward.<activation>.row``: every
  ``mlp.layer_outputs`` array and the ``mlp.forward`` output of the seeded
  nets below, on the whole input batch and on each input row as a 1-D
  vector.
* ``rules.<activation>.<config>.<method>``: ``rules.to_json`` of every
  method on seeded untrained nets under six extraction configs. A term-wise
  line also gives ``peak_live_rules``, or the guard's layer and count when it
  fires. A method that does not read a config's knob gives ``error`` and the
  message refusing it. ``weighted_winnow`` winnows class-weighted trees,
  whose roots take the dense scan.
* ``rules.<activation>.tied.<method>``: the same for the clause-wise and
  tree methods under the default config, on the inputs rounded to one
  decimal, so that the trees split columns with tied values.
* ``rules.<activation>.three.<method>``: every method under the default
  config on a net with three output classes, all of which it predicts, so
  that the intermediate, ``pedc5`` and ``c5`` trees have three classes.
* ``rules.<activation>.ten.<method>``: every method under the default
  config on a net with ten output classes, on 300 rows in ten equal
  classes, so that the trees' roots hold more than 1 bit of label entropy
  and winnowing's floor, which bounds that entropy by 1 bit, shows.
* ``xor.<config>.<method>``: ``eclaire``, ``eclaire_star`` and ``pedc5``
  at mu=2 on the seeded XOR-preset net (64-32-16, tanh) trained on
  ``gen_xor(800, 10, 1)``, over those 800 rows, under the ``default``,
  ``drop30``, ``sample0.6`` and ``weighted`` configs: trees over hundreds
  of rows and up to 64 columns, whose nodes span several blocks of the
  split scan.
* ``winnow.<case>`` and ``winnow.<case>.weighted``: the features
  ``tree.winnow_features`` keeps, over the plain rows and over their
  ``tree.sort_columns``, with unit and with class-balancing row weights.
  The cases are the ``default``, ``tied``, ``three`` and ``ten`` datasets
  above, labelled as given, and ``xor.layer<k>``: each layer's values on
  the 800 XOR rows, up to 64 columns wide, labelled by the XOR-preset
  net's predictions.
* ``train.<activation>.alone`` and ``train.<activation>.stack``: the
  ``mlp.save`` bytes and the per-epoch ``loss_out`` list of three seeded
  trainings on the three training splits of one small parity set, trained
  one by one with ``mlp.train`` and as one stack with ``mlp.train_many``. A
  checkout without ``train_many`` trains the stack's nets one by one, so
  both lines compare across checkouts.

Uses the standard library and numpy only, and runs in well under a minute.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nnrex import cli, data, evaluation, extract, mlp, rules, tree  # noqa: E402

CONFIGS = {
    "default": extract.ExtractionConfig(),
    "sample0.6": extract.ExtractionConfig(sample_fraction=0.6),
    "drop30": extract.ExtractionConfig(rule_drop_pct=30.0),
    "weighted": extract.ExtractionConfig(class_weighted=True, winnow=False),
    "stride2": extract.ExtractionConfig(layer_stride=2),
    "weighted_winnow": extract.ExtractionConfig(class_weighted=True),
}
RULE_CAP = 20_000


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def random_net(sizes, activation, seed) -> mlp.Mlp:
    """An untrained net with seeded weights (the test suite's recipe)."""
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(sizes) - 1):
        W = rng.normal(0.0, 1.0 / np.sqrt(sizes[k]), size=(sizes[k + 1], sizes[k]))
        b = rng.normal(0.0, 0.1, size=sizes[k + 1])
        kind = "softmax" if k == len(sizes) - 2 else activation
        layers.append(mlp.Layer(W, b, kind))
    return mlp.Mlp(tuple(layers))


def folds():
    for k in (2, 3, 4, 5, 7):
        outcomes = []
        for n in (6, 7, 31, 60, 301):
            for classes in (2, 3, 5):
                for seed in (0, 1):
                    labels = np.random.default_rng(n * 10 + classes).integers(0, classes, n)
                    ds = data.Dataset(np.zeros((n, 1)), labels, ("a",),
                                      tuple(f"c{i}" for i in range(classes)))
                    try:
                        split = data.stratified_kfold(ds, k, seed)
                        outcomes.append([(f.train_indices, f.test_indices) for f in split])
                    except data.DataError as exc:
                        outcomes.append(str(exc))
        yield f"kfold.k{k}", digest(outcomes)


def csv_files():
    with tempfile.TemporaryDirectory() as tmp:
        for n, dims in ((600, 10), (50, 3)):
            for seed in range(5):
                path = Path(tmp) / "xor.csv"
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["gen-xor", "--n", str(n), "--dims", str(dims),
                              "--seed", str(seed), "--out", str(path)])
                case = f"n{n}.d{dims}.s{seed}"
                yield f"gen_xor.{case}", digest(path.read_bytes())
                ds = data.load_csv(path, "label")
                yield f"load_csv.{case}", digest(ds.features.tobytes(), ds.labels.tobytes(),
                                                 ds.feature_names, ds.class_names)


def rule_line(method, ds, net, cfg=extract.ExtractionConfig()) -> str:
    """The digest of one method's rules; a term-wise line adds
    ``peak_live_rules``, or is the guard's layer and count when it fires.
    A config knob that the method does not read gives the refusal."""
    try:
        if method not in ("remd", "deepred_star"):
            rs = extract.run_method(method, ds.features, ds.labels, net, cfg,
                                    feature_names=ds.feature_names, num_classes=ds.num_classes)
            return digest(rules.to_json(rs).encode())
        stats: dict = {}
        rs = getattr(extract, method)(net, ds.features, cfg, ds.feature_names, RULE_CAP, stats)
    except extract.ExtractError as exc:
        return f"error {exc}"
    except extract.ExplosionGuard as exc:
        return f"guard layer={exc.layer} count={exc.rule_count}"
    return f"{digest(rules.to_json(rs).encode())} peak_live_rules={stats['peak_live_rules']}"


def forward_passes():
    X = np.random.default_rng(3).normal(0.0, 1.0, size=(100, 4))
    for activation in ("tanh", "relu", "elu"):
        nets = [random_net([4, 8, 4, 2], activation, seed=3), random_net([4, 8, 4, 3], activation, seed=26)]
        for case, inputs in (("batch", [X]), ("row", list(X))):
            arrays = [h.tobytes() for net in nets for x in inputs
                      for h in (*mlp.layer_outputs(net, x), mlp.forward(net, x))]
            yield f"forward.{activation}.{case}", digest(*arrays)


def rule_datasets():
    """The ``default``, ``tied``, ``three`` and ``ten`` datasets of the
    rules cases."""
    # normal inputs, which these nets split into two classes of similar size
    X = np.random.default_rng(3).normal(0.0, 1.0, size=(100, 4))
    ds = data.Dataset(X, (X[:, 0] * X[:, 1] > 0).astype(int), ("a", "b", "c", "d"), ("neg", "pos"))
    tied = data.Dataset(np.round(X, 1), ds.labels, ds.feature_names, ds.class_names)
    three = data.Dataset(X, np.digitize(X[:, 0] + X[:, 1], [-0.5, 0.5]), ds.feature_names,
                         ("low", "mid", "high"))
    X10 = np.random.default_rng(3).normal(0.0, 1.0, size=(300, 4))
    # the deciles of a weighted sum, 30 rows each; x2 and x3 carry less of
    # the signal, which a winnowing floor can keep or drop
    ranks = np.argsort(np.argsort(X10[:, 0] + X10[:, 1] + 0.5 * X10[:, 2] + 0.25 * X10[:, 3]))
    ten = data.Dataset(X10, ranks * 10 // 300, ds.feature_names, tuple(f"c{i}" for i in range(10)))
    return {"default": ds, "tied": tied, "three": three, "ten": ten}


def rule_sets():
    ds, tied, three, ten = rule_datasets().values()
    for activation in ("tanh", "relu", "elu"):
        net = random_net([4, 8, 4, 2], activation, seed=3)
        for name, cfg in CONFIGS.items():
            for method in extract.METHOD_NAMES:
                yield f"rules.{activation}.{name}.{method}", rule_line(method, ds, net, cfg)
        for method in ("eclaire", "eclaire_star", "pedc5", "c5"):
            yield f"rules.{activation}.tied.{method}", rule_line(method, tied, net)
        # seed 26 predicts each of the three classes on 19 or more rows
        net3 = random_net([4, 8, 4, 3], activation, seed=26)
        for method in extract.METHOD_NAMES:
            yield f"rules.{activation}.three.{method}", rule_line(method, three, net3)
        # seed 27 predicts six or more of the ten classes on 10 rows or more
        net10 = random_net([4, 8, 10, 10], activation, seed=27)
        for method in extract.METHOD_NAMES:
            yield f"rules.{activation}.ten.{method}", rule_line(method, ten, net10)


def xor_net(ds) -> mlp.Mlp:
    """The seeded XOR-preset net trained on ``ds``."""
    preset = evaluation.NET_PRESETS["xor"]
    return mlp.train(ds, preset.hidden_sizes, preset.activation,
                     mlp.TrainConfig(epochs=preset.epochs, batch_size=preset.batch_size, seed=1))


def xor_rule_sets():
    ds = data.gen_xor(800, 10, 1)
    net = xor_net(ds)
    for name in ("default", "drop30", "sample0.6", "weighted"):
        for method in ("eclaire", "eclaire_star", "pedc5"):
            yield f"xor.{name}.{method}", rule_line(method, ds, net, CONFIGS[name])


def winnow_lines(case, X, y, num_classes):
    """The ``winnow.<case>`` lines of rows X labelled y: the features kept
    over the plain rows and over their column sort, with unit row weights
    and with class-balancing ones."""
    cols = tree.sort_columns(X)
    balancing = data.class_weights_from_labels(y, num_classes)
    for suffix, weights in (("", np.ones(num_classes)), (".weighted", balancing)):
        plain, shared = (",".join(map(str, tree.winnow_features(rows, y, weights[y], num_classes)))
                         for rows in (X, cols))
        yield f"winnow.{case}{suffix}", f"plain={plain} sorted={shared}"


def winnow_sets():
    for name, ds in rule_datasets().items():
        yield from winnow_lines(name, ds.features, ds.labels, ds.num_classes)
    ds = data.gen_xor(800, 10, 1)
    net = xor_net(ds)
    labels = mlp.predict_labels(net, ds.features)
    for k, H in enumerate(mlp.layer_outputs(net, ds.features)[:-1]):
        yield from winnow_lines(f"xor.layer{k}", H, labels, net.num_classes)


def train_stack(datasets, hidden, activation, cfgs, loss_outs):
    if hasattr(mlp, "train_many"):
        return mlp.train_many(datasets, hidden, activation, cfgs, loss_outs)
    return [mlp.train(ds, hidden, activation, cfg, loss_out)
            for ds, cfg, loss_out in zip(datasets, cfgs, loss_outs)]


def trainings():
    ds = data.gen_xor(120, 4, 5)
    # three 80-row splits: 14-row batches, the last one ragged at 10 rows
    datasets = []
    for fold in data.stratified_kfold(ds, 3, 5):
        idx = list(fold.train_indices)
        datasets.append(data.Dataset(ds.features[idx], ds.labels[idx], ds.feature_names, ds.class_names))
    cfgs = [mlp.TrainConfig(epochs=6, batch_size=14, seed=5 + f) for f in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"

        def line(nets, loss_outs):
            parts = []
            for net, losses in zip(nets, loss_outs):
                mlp.save(net, path)
                parts += [path.read_bytes(), np.array(losses).tobytes()]
            return digest(*parts)

        for activation in ("tanh", "relu", "elu"):
            loss_outs = [[] for _ in cfgs]
            nets = [mlp.train(d, [8, 4], activation, cfg, losses)
                    for d, cfg, losses in zip(datasets, cfgs, loss_outs)]
            yield f"train.{activation}.alone", line(nets, loss_outs)
            loss_outs = [[] for _ in cfgs]
            nets = train_stack(datasets, [8, 4], activation, cfgs, loss_outs)
            yield f"train.{activation}.stack", line(nets, loss_outs)


def main() -> None:
    for source in (folds, csv_files, forward_passes, rule_sets, xor_rule_sets, winnow_sets, trainings):
        for case, line in source():
            print(case, line, flush=True)


if __name__ == "__main__":
    main()

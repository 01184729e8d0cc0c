"""Robustness properties over the entry points, on tiny data with extreme
values. In the library, training and every extraction method either return
a well-formed result or raise an error that the CLI maps to an exit code;
a rule set that comes back round-trips through JSON, is byte-identical on
a rerun and predicts valid classes only. Through the CLI, `train` and then
`extract` exit with a mapped code, print no traceback and warn nothing, and
so do `evaluate` and `feature-usage` on rule files that may not fit their
data. Only the clause-wise methods take `layer_stride` and `rule_drop_pct`
off their defaults."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import cli, data, evaluation, extract, mlp, rules
from conftest import random_net
from test_tree import EXTREME

# the errors cli.main maps to exit codes 2, 3 and 4
MAPPED_ERRORS = (
    cli.ConfigError, extract.ExtractError, evaluation.EvalError, mlp.MlpError,
    rules.RuleSetError, data.DataError, mlp.TrainingDiverged, FileNotFoundError,
    extract.ExplosionGuard,
)


@settings(max_examples=150, deadline=None)
@given(
    data_=st.data(),
    n=st.integers(1, 20),
    m=st.integers(1, 3),
    classes=st.integers(2, 4),
    hidden=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    activation=st.sampled_from(mlp.HIDDEN_ACTIVATIONS),
    method=st.sampled_from(extract.METHOD_NAMES),
    mu=st.sampled_from([2, 5]),
    seed=st.integers(0, 2**16),
)
def test_entry_points_return_or_raise_a_mapped_error(
    data_, n, m, classes, hidden, activation, method, mu, seed
):
    X = np.array(data_.draw(st.lists(st.lists(EXTREME, min_size=m, max_size=m),
                                     min_size=n, max_size=n)))
    y = np.array(data_.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    ds = data.Dataset(X, y, tuple(f"x{i}" for i in range(m)), tuple(f"c{i}" for i in range(classes)))
    cfg = extract.ExtractionConfig(min_samples=mu, seed=seed)

    def extract_rules(net):
        return extract.run_method(method, X, y, net, cfg, feature_names=ds.feature_names,
                                  num_classes=classes, rule_cap=5_000)

    with np.errstate(all="ignore"):
        try:
            net = mlp.train(ds, hidden, activation, mlp.TrainConfig(epochs=2, batch_size=4, seed=seed))
        except MAPPED_ERRORS:
            # extraction still gets a net of this shape
            net = random_net([m, *hidden, classes], activation, seed)
        try:
            rs = extract_rules(net)
        except MAPPED_ERRORS:
            return
        again = extract_rules(net)
        predicted = rules.predict_batch(rs, X)

    text = rules.to_json(rs)
    assert rules.to_json(rules.from_json(json.loads(text))) == text
    assert rules.to_json(again) == text
    assert ((0 <= predicted) & (predicted < classes)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    data_=st.data(),
    n=st.integers(2, 12),
    m=st.integers(1, 3),
    hidden=st.integers(1, 4),
    activation=st.sampled_from(mlp.HIDDEN_ACTIVATIONS),
    method=st.sampled_from(extract.METHOD_NAMES),
    mu=st.sampled_from([2, 5]),
    rule_cap=st.sampled_from([1, 5_000]),
)
def test_cli_train_then_extract_exit_with_a_mapped_code(
    data_, n, m, hidden, activation, method, mu, rule_cap
):
    allowed = {0, 2, 3, 4} if method in ("remd", "deepred_star") else {0, 2, 3}
    with tempfile.TemporaryDirectory() as tmp:
        # one CSV to train on and one to extract from, two classes at least in each
        train_csv, extract_csv, weights = (Path(tmp) / name for name in ("t.csv", "e.csv", "w.json"))
        for path in (train_csv, extract_csv):
            X = data_.draw(st.lists(st.lists(EXTREME, min_size=m, max_size=m), min_size=n, max_size=n))
            more = data_.draw(st.lists(st.sampled_from("pqr"), min_size=n - 2, max_size=n - 2))
            labels = ["p", "q", *more]
            lines = [",".join([*(f"x{i}" for i in range(m)), "label"])]
            lines += [",".join([*map(repr, row), label]) for row, label in zip(X, labels)]
            path.write_text("\n".join(lines) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["train", "--data", str(train_csv), "--hidden", str(hidden),
                               "--activation", activation, "--epochs", "2", "--batch", "4",
                               "--out", str(weights)])]
            if codes[0] == 0 or method == "c5":
                net_args = ["--weights", str(weights)] if method != "c5" else []
                codes.append(cli.main(["extract", "--data", str(extract_csv), *net_args, "--method", method,
                                       "--mu", str(mu), "--rule-cap", str(rule_cap),
                                       "--out", str(Path(tmp) / "r.json")]))
    assert codes[0] in {0, 2, 3} and codes[-1] in allowed
    assert "Traceback" not in stderr.getvalue()


@settings(max_examples=80, deadline=None)
@given(data_=st.data(), width=st.integers(1, 4))
def test_cli_read_side_commands_exit_with_a_mapped_code(data_, width):
    term = st.fixed_dictionaries({
        "feature": st.integers(-3, width + 3),
        "op": st.sampled_from([rules.OP_GT, rules.OP_LE]),
        "threshold": st.floats(-2.0, 2.0),
    })
    rule = st.fixed_dictionaries({
        "terms": st.lists(term, max_size=3),
        "conclusion": st.integers(0, 1),
        "confidence": st.floats(0.05, 1.0),
    })
    payload = {
        "version": rules.SCHEMA_VERSION, "num_classes": 2, "default_label": 0,
        "feature_names": data_.draw(st.none() | st.lists(st.sampled_from("abcdef"), max_size=6)),
        "rules": data_.draw(st.lists(rule, max_size=4)),
    }
    X = np.random.default_rng(width).uniform(-1.0, 1.0, size=(6, width))
    with tempfile.TemporaryDirectory() as tmp:
        rules_path, csv_path = Path(tmp) / "r.json", Path(tmp) / "d.csv"
        rules_path.write_text(json.dumps(payload))
        lines = [",".join([*(f"x{i}" for i in range(width)), "label"])]
        lines += [",".join([*map(repr, row), label]) for row, label in zip(X.tolist(), "pqpqpq")]
        csv_path.write_text("\n".join(lines) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["evaluate", "--rules", str(rules_path), "--data", str(csv_path)]),
                     cli.main(["feature-usage", "--rules", str(rules_path)])]
    assert set(codes) <= {0, 2, 3}
    assert "Traceback" not in stderr.getvalue()


@pytest.fixture(scope="module")
def knob_case(tmp_path_factory):
    """Rows, their labels, a net, and its weight file and CSV beside them."""
    tmp = tmp_path_factory.mktemp("knobs")
    X = np.random.default_rng(3).normal(0.0, 1.0, size=(40, 2))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    net = random_net([2, 4, 3, 2], "tanh", seed=3)
    mlp.save(net, tmp / "net.json")
    lines = ["a,b,label"] + [f"{a!r},{b!r},{'pq'[label]}" for (a, b), label in zip(X.tolist(), y)]
    (tmp / "d.csv").write_text("\n".join(lines) + "\n")
    return X, y, net, tmp


@settings(max_examples=40, deadline=None)
@given(
    data_=st.data(),
    method=st.sampled_from(extract.METHOD_NAMES),
    knob=st.sampled_from(["layer_stride", "rule_drop_pct"]),
)
def test_only_clausewise_methods_take_their_knobs(knob_case, data_, method, knob):
    values = st.integers(1, 4) if knob == "layer_stride" else st.just(0.0) | st.floats(0.0, 100.0)
    value = data_.draw(values)
    refused = method not in ("eclaire", "eclaire_star") and value != getattr(extract.ExtractionConfig(), knob)
    X, y, net, tmp = knob_case
    try:
        extract.run_method(method, X, y, net, extract.ExtractionConfig(**{knob: value}))
        message = ""
    except extract.ExtractError as exc:
        message = str(exc)
    assert bool(message) == refused and (knob in message) == refused
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["extract", "--data", str(tmp / "d.csv"), "--weights", str(tmp / "net.json"),
                         "--method", method, f"--{knob.replace('_', '-')}", str(value),
                         "--out", str(tmp / "r.json")])
    assert code == (2 if refused else 0)
    assert (knob in stderr.getvalue()) == refused

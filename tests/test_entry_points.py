"""One robustness property over the library's entry points: on tiny data
with extreme values, training and every extraction method either return a
well-formed result or raise an error that the CLI maps to an exit code.
A rule set that comes back round-trips through JSON, is byte-identical on
a rerun and predicts valid classes only."""
import json

import numpy as np
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

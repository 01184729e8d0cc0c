import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnrex import data, mlp
from conftest import full_layer_outputs, random_net


class TestForward:
    def test_zero_net_is_uniform(self):
        net = mlp.Mlp((mlp.Layer(np.zeros((2, 3)), np.zeros(2), "softmax"),))
        assert np.allclose(mlp.forward(net, np.array([1.0, -2.0, 3.0])), [0.5, 0.5])

    def test_output_normalized(self):
        net = random_net([4, 8, 3], seed=1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 4)) * 5
        probs = mlp.forward(net, X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs.min() >= 0.0

    def test_single_layer_matches_hand_computation(self):
        W = np.array([[0.5, -1.0], [2.0, 0.25]])
        b = np.array([0.1, -0.2])
        net = mlp.Mlp((mlp.Layer(W, b, "softmax"),))
        x = np.array([0.3, -0.7])
        z = W @ x + b
        expected = np.exp(z) / np.exp(z).sum()
        assert np.allclose(mlp.forward(net, x), expected)

    def test_width_mismatch_rejected(self):
        net = random_net([3, 2], seed=0)
        with pytest.raises(mlp.MlpError):
            mlp.forward(net, np.zeros(4))


class TestActivations:
    def test_layer_zero_is_input(self):
        net = random_net([3, 5, 2], seed=3)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(mlp.layer_outputs(net, x)[0], x)

    def test_last_index_is_forward(self):
        net = random_net([3, 5, 2], seed=3)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(mlp.layer_outputs(net, x)[2], mlp.forward(net, x))

    def test_hidden_tanh_matches_hand_computation(self):
        W = np.array([[1.0, 0.0], [0.5, -0.5]])
        b = np.array([0.0, 0.1])
        net = mlp.Mlp((
            mlp.Layer(W, b, "tanh"),
            mlp.Layer(np.eye(2), np.zeros(2), "softmax"),
        ))
        x = np.array([0.4, -0.8])
        assert np.allclose(mlp.layer_outputs(net, x)[1], np.tanh(W @ x + b))

    def test_layer_outputs_is_one_pass_over_every_layer(self):
        net = random_net([3, 5, 4, 2], seed=3)
        X = np.random.default_rng(1).normal(size=(6, 3))
        outs = mlp.layer_outputs(net, X)
        assert len(outs) == net.num_hidden + 2
        h = X
        for k, layer in enumerate(net.layers):
            assert np.array_equal(outs[k], h)
            z = h @ layer.weight.T + layer.bias
            h = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True) if k == 2 else np.tanh(z)
        assert np.allclose(outs[-1], h)
        single = mlp.layer_outputs(net, X[0])
        assert all(a.shape == b[0].shape and np.allclose(a, b[0]) for a, b in zip(single, outs))


class TestPredictLabels:
    def test_argmax(self):
        net = mlp.Mlp((mlp.Layer(np.array([[1.0], [0.0]]), np.zeros(2), "softmax"),))
        assert mlp.predict_labels(net, np.array([[1.0]]))[0] == 0
        assert mlp.predict_labels(net, np.array([[-1.0]]))[0] == 1

    def test_tie_takes_lowest_class(self):
        net = mlp.Mlp((mlp.Layer(np.zeros((3, 2)), np.zeros(3), "softmax"),))
        assert mlp.predict_labels(net, np.array([[0.3, 0.7]]))[0] == 0


class TestStreamOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 30),
        features=st.integers(1, 5),
        classes=st.integers(2, 4),
        hidden=st.lists(st.integers(1, 8), min_size=0, max_size=3),
        activation=st.sampled_from(mlp.HIDDEN_ACTIVATIONS),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        one_row=st.booleans(),
    )
    def test_every_array_matches_the_full_pass_bit_for_bit(
        self, seed, n, features, classes, hidden, activation, scale, one_row
    ):
        net = random_net([features, *hidden, classes], activation, seed)
        X = np.random.default_rng(seed + 1).normal(0.0, scale, size=(n, features))
        x = X[0] if one_row else X
        want = full_layer_outputs(net, x)
        got = mlp.layer_outputs(net, x)
        streamed = list(mlp.stream_layers(net, x))
        assert len(got) == len(streamed) == len(want) == net.num_hidden + 2
        for a, b, c in zip(got, streamed, want):
            assert a.shape == b.shape == c.shape and a.dtype == b.dtype == c.dtype
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert mlp.forward(net, x).tobytes() == want[-1].tobytes()
        labels = mlp.predict_labels(net, x)
        assert np.array_equal(labels, np.atleast_2d(want[-1]).argmax(axis=1))


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        shapes = [(5, 4), (4, 5), (3, 4)]
        kinds = ["tanh", "elu"]
        params = [(rng.normal(0, 0.6, s), rng.normal(0, 0.1, s[0])) for s in shapes]
        Xb = rng.normal(size=(8, 4))
        yb = rng.integers(0, 3, 8)
        wb = rng.uniform(0.5, 2.0, 8)
        layers = [mlp.Layer(W, b, kind) for (W, b), kind in zip(params, [*kinds, "softmax"])]
        grads = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        scratch = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        mlp._loss_and_grads(layers, Xb, yb, wb, grads)
        h = 1e-5
        worst = 0.0
        for k, (W, b) in enumerate(params):
            for arr, g in ((W, grads[k][0]), (b, grads[k][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + h
                    lp = mlp._loss_and_grads(layers, Xb, yb, wb, scratch)
                    arr[ix] = old - h
                    lm = mlp._loss_and_grads(layers, Xb, yb, wb, scratch)
                    arr[ix] = old
                    fd = (lp - lm) / (2 * h)
                    denom = max(abs(fd), abs(g[ix]), 1e-8)
                    worst = max(worst, abs(fd - g[ix]) / denom)
        assert worst < 1e-4


def blobs_dataset(seed=0, n=100):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.4, (n, 2)), rng.normal(3, 0.4, (n, 2))])
    y = np.array([0] * n + [1] * n)
    return data.Dataset(X, y, ("a", "b"), ("neg", "pos"))


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        ds = blobs_dataset()
        net = mlp.train(ds, [8], "relu", mlp.TrainConfig(epochs=50, batch_size=16, seed=0))
        acc = np.mean(mlp.predict_labels(net, ds.features) == ds.labels)
        assert acc >= 0.99

    def test_deterministic_for_fixed_seed(self):
        ds = blobs_dataset(seed=1)
        cfg = mlp.TrainConfig(epochs=5, batch_size=16, seed=42)
        a = mlp.train(ds, [6, 4], "tanh", cfg)
        b = mlp.train(ds, [6, 4], "tanh", cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_zero_epochs_rejected(self):
        with pytest.raises(mlp.MlpError):
            mlp.TrainConfig(epochs=0)

    def test_loss_decreases_on_parity_task(self):
        ds = data.gen_xor(300, 4, seed=2)
        losses = []
        mlp.train(ds, [16, 8], "tanh",
                  mlp.TrainConfig(epochs=30, batch_size=16, seed=0), loss_out=losses)
        assert len(losses) == 30
        assert losses[-1] < losses[0]

    def test_divergence_reports_epoch(self):
        ds = blobs_dataset(seed=9)
        cfg = mlp.TrainConfig(epochs=5, batch_size=32, seed=0, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(mlp.TrainingDiverged) as info:
                mlp.train(ds, [4, 4], "relu", cfg)
        assert 0 <= info.value.epoch < 5

    def test_overflowing_adam_moment_raises(self):
        # the loss stays finite on these features, but g**2 overflows
        X = np.array([[1e300, -2e300], [-3e300, 1e300], [2e300, 3e300], [-1e300, -3e300]])
        ds = data.Dataset(X, np.array([0, 1, 0, 1]), ("a", "b"), ("p", "n"))
        with np.errstate(over="ignore"):
            with pytest.raises(mlp.TrainingDiverged, match="squared-gradient") as info:
                mlp.train(ds, [4], "relu", mlp.TrainConfig(epochs=20, seed=0))
        assert info.value.epoch == 0

    def test_empty_hidden_rejected(self):
        with pytest.raises(mlp.MlpError):
            mlp.train(blobs_dataset(), [], "tanh", mlp.TrainConfig(epochs=1))

    @pytest.mark.parametrize("hidden", [[0], [-2], [4, 0], [4, 2.5], [3.0], ["4"]])
    def test_bad_hidden_size_rejected(self, hidden):
        with pytest.raises(mlp.MlpError, match="hidden layer sizes"):
            mlp.train(blobs_dataset(), hidden, "tanh", mlp.TrainConfig(epochs=1))

    def test_numpy_integer_hidden_size_accepted(self):
        net = mlp.train(blobs_dataset(), [np.int64(3)], "tanh", mlp.TrainConfig(epochs=1))
        assert net.layers[0].weight.shape == (3, 2)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("beta1", 1.0), ("beta1", -0.5), ("beta1", float("nan")),
        ("beta2", 1.0), ("beta2", -0.1), ("beta2", 1.5),
        ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", float("nan")),
        ("learning_rate", float("nan")),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(mlp.MlpError):
            mlp.TrainConfig(**{field: value})

    def test_range_edges_accepted(self):
        mlp.TrainConfig(beta1=0.0, beta2=0.0, epsilon=1e-300)


def _reference_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_loss_and_grads(params, acts_kind, Xb, yb, sample_w):
    """The separate forward pass and gradient list that the in-place
    backprop replaced, kept verbatim so the oracle shares no gradient code
    with the trainer."""
    hs = [Xb]
    zs = []
    h = Xb
    n_layers = len(params)
    for k, (W, b) in enumerate(params):
        z = h @ W.T + b
        zs.append(z)
        if k == n_layers - 1:
            h = _reference_softmax(z)
        else:
            h = mlp._apply_activation(z, acts_kind[k])
        hs.append(h)
    probs = hs[-1]
    n = Xb.shape[0]
    w_total = sample_w.sum()
    eps = 1e-12
    loss = -(sample_w * np.log(probs[np.arange(n), yb] + eps)).sum() / w_total

    grads = []
    delta = probs.copy()
    delta[np.arange(n), yb] -= 1.0
    delta *= (sample_w / w_total)[:, None]
    for k in range(n_layers - 1, -1, -1):
        W, b = params[k]
        gW = delta.T @ hs[k]
        gb = delta.sum(axis=0)
        grads.append((gW, gb))
        if k > 0:
            delta = delta @ W
            z = zs[k - 1]
            kind = acts_kind[k - 1]
            if kind == "tanh":
                delta *= 1.0 - hs[k] ** 2
            elif kind == "relu":
                delta *= (z > 0).astype(float)
            elif kind == "elu":
                delta *= np.where(z > 0, 1.0, mlp.ELU_ALPHA * np.exp(z))
    grads.reverse()
    return loss, grads


def _reference_train(ds, hidden_sizes, activation="tanh", cfg=mlp.TrainConfig(), loss_out=None):
    """The per-layer Adam loop that the flat-vector trainer replaced, kept
    as the oracle: the trainer must reproduce its weights bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    sizes = [ds.num_features, *hidden_sizes, ds.num_classes]
    params = []
    for k in range(len(sizes) - 1):
        params.append((mlp._glorot_init(rng, sizes[k + 1], sizes[k]), np.zeros(sizes[k + 1])))
    acts_kind = [activation] * len(hidden_sizes)

    if cfg.class_weighted:
        cw = data.class_weights_from_labels(ds.labels, ds.num_classes)
    else:
        cw = np.ones(ds.num_classes)
    weights = cw[ds.labels]

    m_state = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    v_state = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    t = 0
    n = ds.num_samples
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = _reference_loss_and_grads(
                params, acts_kind, ds.features[batch], ds.labels[batch], weights[batch]
            )
            epoch_loss += loss * len(batch)
            t += 1
            new_params = []
            for k, ((W, b), (gW, gb)) in enumerate(zip(params, grads)):
                mW, mb = m_state[k]
                vW, vb = v_state[k]
                mW = cfg.beta1 * mW + (1 - cfg.beta1) * gW
                mb = cfg.beta1 * mb + (1 - cfg.beta1) * gb
                vW = cfg.beta2 * vW + (1 - cfg.beta2) * gW**2
                vb = cfg.beta2 * vb + (1 - cfg.beta2) * gb**2
                m_state[k] = (mW, mb)
                v_state[k] = (vW, vb)
                correct1 = 1 - cfg.beta1**t
                correct2 = 1 - cfg.beta2**t
                step_W = cfg.learning_rate * (mW / correct1) / (np.sqrt(vW / correct2) + cfg.epsilon)
                step_b = cfg.learning_rate * (mb / correct1) / (np.sqrt(vb / correct2) + cfg.epsilon)
                new_params.append((W - step_W, b - step_b))
            params = new_params
        if not np.isfinite(epoch_loss):
            raise mlp.TrainingDiverged(epoch)
        if loss_out is not None:
            loss_out.append(epoch_loss / n)
    return params


def _assert_same_training(ds, hidden, activation, cfg):
    got_losses, want_losses = [], []
    net = mlp.train(ds, hidden, activation, cfg, loss_out=got_losses)
    want = _reference_train(ds, hidden, activation, cfg, loss_out=want_losses)
    assert len(net.layers) == len(want)
    for layer, (W, b) in zip(net.layers, want):
        assert np.array_equal(layer.weight, W)
        assert np.array_equal(layer.bias, b)
    assert got_losses == want_losses


class TestTrainOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        features=st.integers(1, 5),
        classes=st.integers(2, 4),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        activation=st.sampled_from(mlp.HIDDEN_ACTIVATIONS),
        batch_size=st.integers(1, 48),
        class_weighted=st.booleans(),
        epochs=st.integers(1, 3),
    )
    @example(seed=1, n=23, features=3, classes=3, hidden=[5, 4], activation="relu",
             batch_size=8, class_weighted=True, epochs=2)  # ragged last batch
    @example(seed=2, n=10, features=2, classes=2, hidden=[3], activation="elu",
             batch_size=32, class_weighted=False, epochs=3)  # one batch larger than n
    def test_weights_and_losses_match_per_layer_adam(
        self, seed, n, features, classes, hidden, activation, batch_size, class_weighted, epochs
    ):
        rng = np.random.default_rng(seed)
        ds = data.Dataset(
            rng.normal(size=(n, features)),
            rng.integers(0, classes, n),
            tuple(f"x{i}" for i in range(features)),
            tuple(f"c{i}" for i in range(classes)),
        )
        cfg = mlp.TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed,
                              class_weighted=class_weighted)
        _assert_same_training(ds, hidden, activation, cfg)

    def test_xor_preset_matches_per_layer_adam(self):
        ds = data.gen_xor(400, 10, seed=5)
        cfg = mlp.TrainConfig(epochs=20, batch_size=16, seed=5)
        _assert_same_training(ds, [64, 32, 16], "tanh", cfg)

    def test_divergence_epoch_matches_per_layer_adam(self):
        ds = blobs_dataset(seed=9)
        cfg = mlp.TrainConfig(epochs=5, batch_size=32, seed=0, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(mlp.TrainingDiverged) as got:
                mlp.train(ds, [4, 4], "relu", cfg)
            with pytest.raises(mlp.TrainingDiverged) as want:
                _reference_train(ds, [4, 4], "relu", cfg)
        assert got.value.epoch == want.value.epoch


def _random_dataset(seed, n, features, classes):
    rng = np.random.default_rng(seed)
    return data.Dataset(
        rng.normal(size=(n, features)),
        rng.integers(0, classes, n),
        tuple(f"x{i}" for i in range(features)),
        tuple(f"c{i}" for i in range(classes)),
    )


def _train_alone(ds, hidden, activation, cfg):
    """``mlp.train``'s net and losses, or the TrainingDiverged it raised."""
    losses = []
    try:
        return mlp.train(ds, hidden, activation, cfg, loss_out=losses), losses
    except mlp.TrainingDiverged as exc:
        return exc


class TestTrainManyOracle:
    """``train_many`` against ``mlp.train`` on each dataset alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        extra_rows=st.integers(1, 9),
        # per net: whether it gets the extra rows, and class weighting
        nets=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=4),
        features=st.integers(1, 5),
        classes=st.integers(2, 4),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        activation=st.sampled_from(mlp.HIDDEN_ACTIVATIONS),
        batch_size=st.integers(1, 48),
        epochs=st.integers(1, 3),
        diverging=st.one_of(st.none(), st.integers(0, 3)),
    )
    @example(seed=3, n=23, extra_rows=1, nets=[(False, True)] * 3, features=3, classes=3, hidden=[5, 4],
             activation="tanh", batch_size=8, epochs=2, diverging=None)  # one stack, ragged last batch
    @example(seed=4, n=10, extra_rows=2, nets=[(False, False), (True, False), (False, False), (True, True)],
             features=2, classes=2, hidden=[3], activation="elu", batch_size=32, epochs=3,
             diverging=None)  # unequal row counts, batches larger than n
    @example(seed=5, n=30, extra_rows=1, nets=[(False, True)] * 3, features=2, classes=2, hidden=[4, 4],
             activation="relu", batch_size=8, epochs=3, diverging=1)
    def test_nets_and_losses_match_training_alone(
        self, seed, n, extra_rows, nets, features, classes, hidden, activation, batch_size, epochs, diverging
    ):
        datasets, cfgs = [], []
        for i, (more_rows, class_weighted) in enumerate(nets):
            datasets.append(_random_dataset(seed + i, n + extra_rows * more_rows, features, classes))
            # at most one net gets a rate that can diverge, in a stack of its own
            rate = 1e200 if diverging == i else 1e-3
            cfgs.append(mlp.TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed + i,
                                        class_weighted=class_weighted, learning_rate=rate))
        with np.errstate(over="ignore", invalid="ignore"):
            alone = [_train_alone(ds, hidden, activation, cfg) for ds, cfg in zip(datasets, cfgs)]
            errors = [out for out in alone if isinstance(out, mlp.TrainingDiverged)]
            if errors:
                with pytest.raises(mlp.TrainingDiverged) as got:
                    mlp.train_many(datasets, hidden, activation, cfgs)
                assert (got.value.epoch, str(got.value)) == (errors[0].epoch, str(errors[0]))
                return
            losses = [[] for _ in datasets]
            stacked = mlp.train_many(datasets, hidden, activation, cfgs, losses)
        for net, got_losses, (want, want_losses) in zip(stacked, losses, alone):
            for layer, want_layer in zip(net.layers, want.layers, strict=True):
                assert np.array_equal(layer.weight, want_layer.weight)
                assert np.array_equal(layer.bias, want_layer.bias)
            assert got_losses == want_losses

    @pytest.mark.parametrize("scales, want", [
        # a later net that diverges at an earlier epoch is the one reported
        ((1.0, 1e-300, 1e300, 1e200), "Adam's squared-gradient average became non-finite at epoch 0"),
        # at the same epoch, the first net in input order is
        ((1e-300, 1.0), "Adam's squared-gradient average became non-finite at epoch 1"),
        ((1.0, 1e-300), "training loss became non-finite at epoch 1"),
    ])
    def test_first_diverging_net_of_a_stack_raises_at_its_epoch(self, scales, want):
        # one stack, every net at a rate that diverges, with features scaled
        # so that they diverge at different epochs and in different ways
        datasets = []
        for s, scale in enumerate(scales):
            ds = _random_dataset(1, 30, 2, 2)
            datasets.append(data.Dataset(ds.features * scale, ds.labels, ds.feature_names, ds.class_names))
        cfgs = [mlp.TrainConfig(epochs=4, batch_size=30, seed=s, learning_rate=1e200) for s in range(len(scales))]
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            alone = [_train_alone(ds, [4, 4], "relu", cfg) for ds, cfg in zip(datasets, cfgs)]
            with pytest.raises(mlp.TrainingDiverged) as got:
                mlp.train_many(datasets, [4, 4], "relu", cfgs)
        # min keeps the first of equal epochs
        first = min(alone, key=lambda exc: exc.epoch)
        assert str(got.value) == str(first) == want
        assert got.value.epoch == first.epoch

    def test_only_same_shaped_nets_with_seed_only_config_differences_share_a_stack(self, monkeypatch):
        stacks = []
        real = mlp._train_stack

        def recording(datasets, *args):
            stacks.append([ds.num_samples for ds in datasets])
            return real(datasets, *args)

        monkeypatch.setattr(mlp, "_train_stack", recording)
        datasets = [_random_dataset(s, rows, 3, 2) for s, rows in enumerate((20, 21, 20, 20, 21))]
        cfgs = [mlp.TrainConfig(epochs=1, seed=s, class_weighted=s != 3) for s in range(5)]
        nets = mlp.train_many(datasets, [4], "tanh", cfgs)
        assert stacks == [[20, 20], [21, 21], [20]]
        assert len(nets) == 5

    def test_one_config_per_dataset_required(self):
        with pytest.raises(mlp.MlpError, match="one config"):
            mlp.train_many([blobs_dataset()] * 2, [3], "tanh", [mlp.TrainConfig(epochs=1)])


class TestSaveLoad:
    def test_round_trip_is_exact(self, tmp_path):
        net = random_net([4, 6, 3], activation="elu", seed=5)
        path = tmp_path / "net.json"
        mlp.save(net, path)
        loaded = mlp.load(path)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 4))
        assert np.array_equal(mlp.forward(net, X), mlp.forward(loaded, X))
        for la, lb in zip(net.layers, loaded.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_truncated_file_rejected(self, tmp_path):
        net = random_net([3, 2], seed=7)
        path = tmp_path / "net.json"
        mlp.save(net, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(mlp.MlpError):
            mlp.load(path)

    def test_externally_written_schema_loads(self, tmp_path):
        payload = {
            "version": 1,
            "input_width": 2,
            "layers": [
                {"activation": "tanh", "rows": 2, "cols": 2,
                 "weights": [1.0, 0.0, 0.0, 1.0], "bias": [0.0, 0.0]},
                {"activation": "softmax", "rows": 2, "cols": 2,
                 "weights": [2.0, 0.0, 0.0, 2.0], "bias": [0.0, 0.0]},
            ],
        }
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(payload))
        net = mlp.load(path)
        probs = mlp.forward(net, np.array([1.0, -1.0]))
        z = 2 * np.tanh(np.array([1.0, -1.0]))
        assert np.allclose(probs, np.exp(z) / np.exp(z).sum())

    def test_zero_size_layer_rejected(self, tmp_path):
        with pytest.raises(mlp.MlpError, match="zero-size"):
            mlp.Mlp((
                mlp.Layer(np.zeros((0, 3)), np.zeros(0), "tanh"),
                mlp.Layer(np.zeros((2, 0)), np.zeros(2), "softmax"),
            ))
        payload = {
            "version": 1,
            "input_width": 3,
            "layers": [
                {"activation": "tanh", "rows": 0, "cols": 3, "weights": [], "bias": []},
                {"activation": "softmax", "rows": 2, "cols": 0, "weights": [], "bias": [0.0, 0.0]},
            ],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(mlp.MlpError, match="zero-size"):
            mlp.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"version": 9, "input_width": 1, "layers": []}')
        with pytest.raises(mlp.MlpError, match="version"):
            mlp.load(path)

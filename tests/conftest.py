import numpy as np
import pytest

from nnrex import data, evaluation, extract, mlp, rules, tree


@pytest.fixture(scope="session")
def xor_ds():
    return data.gen_xor(1000, 10, seed=7)


@pytest.fixture(scope="session")
def xor_folds(xor_ds):
    return data.stratified_kfold(xor_ds, 5, seed=7)


@pytest.fixture(scope="session")
def quick_xor_net(xor_ds, xor_folds):
    """A cheaply trained net on fold-0 training data, for extraction units."""
    fold = xor_folds[0]
    train_ds = data.Dataset(
        xor_ds.features[list(fold.train_indices)],
        xor_ds.labels[list(fold.train_indices)],
        xor_ds.feature_names,
        xor_ds.class_names,
    )
    return mlp.train(train_ds, [16, 8], "tanh", mlp.TrainConfig(epochs=40, batch_size=32, seed=3))


@pytest.fixture(scope="session")
def xor_preset_net(xor_ds, xor_folds):
    """The XOR-preset net (64-32-16, tanh) trained on fold-0 training data."""
    fold = xor_folds[0]
    train_ds = data.Dataset(
        xor_ds.features[list(fold.train_indices)],
        xor_ds.labels[list(fold.train_indices)],
        xor_ds.feature_names,
        xor_ds.class_names,
    )
    preset = evaluation.NET_PRESETS["xor"]
    return mlp.train(
        train_ds, preset.hidden_sizes, preset.activation,
        mlp.TrainConfig(epochs=preset.epochs, batch_size=preset.batch_size, seed=7),
    )


def random_net(sizes, activation="tanh", seed=0):
    """Build an untrained network with seeded random weights."""
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(sizes) - 1):
        W = rng.normal(0.0, 1.0 / np.sqrt(sizes[k]), size=(sizes[k + 1], sizes[k]))
        b = rng.normal(0.0, 0.1, size=sizes[k + 1])
        kind = "softmax" if k == len(sizes) - 2 else activation
        layers.append(mlp.Layer(W, b, kind))
    return mlp.Mlp(tuple(layers))


def full_layer_outputs(net, x):
    """The forward pass as it was before it streamed, kept as a reference:
    every layer's output from one pass, each pre-activation alive until the
    next layer's."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != net.input_width:
        raise mlp.MlpError(f"input width {h.shape[1]} does not match network input {net.input_width}")
    outs = [h]
    for layer in net.layers:
        z = h @ layer.weight.T + layer.bias
        h = mlp._apply_activation(z, layer.activation)
        outs.append(h)
    return [h[0] for h in outs] if squeeze else outs


# Oracles for code the library itself no longer needs: a tree walked row by
# row, a premise evaluated term by term, eclaire's per-layer rules, and its
# intermediate rules' truths evaluated premise by premise.


def tree_depth(t):
    """The longest root-to-leaf path of a tree, in edges."""
    depths = {t.root: 0}
    worst = 0
    for i, node in enumerate(t.nodes):
        d = depths[i]
        worst = max(worst, d)
        if not node.is_leaf:
            depths[node.left] = d + 1
            depths[node.right] = d + 1
    return worst


def tree_predict(t, X):
    """The class of the leaf each row of X reaches."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0], dtype=int)
    for r in range(X.shape[0]):
        i = t.root
        while not t.nodes[i].is_leaf:
            node = t.nodes[i]
            i = node.left if X[r, node.feature] <= node.threshold else node.right
        out[r] = t.nodes[i].klass
    return out


def term_holds(term, x):
    v = x[term.feature]
    return v > term.threshold if term.op == rules.OP_GT else v <= term.threshold


def eval_premise(premise, x):
    """True iff every term holds on x; the empty conjunction is true."""
    return all(term_holds(t, x) for t in premise)


def eclaire_layer_rules(net, X, cfg=extract.ExtractionConfig()):
    """Each selected layer's substituted rules, in layer order, before
    eclaire unions and canonicalizes them."""
    return extract._clausewise(net, X, cfg)[1]


def premise_truths(net, X, cfg=extract.ExtractionConfig(), input_layer=False):
    """``extract._premise_truths`` premise by premise: each selected layer's
    intermediate rules from ``to_ruleset``, the lowest-confidence ones
    dropped, and each survivor's premise evaluated on the layer's
    activations. Gives ``[(layer, [(conclusion, confidence, true rows),
    ...]), ...]``."""
    X, labels, default, weights = extract._label_pass(net, X, cfg)
    layers = mlp.layer_outputs(net, X)
    out = []
    for layer in extract._selected_layers(net, cfg, input_layer):
        H = layers[layer]
        t = tree.induce(H, labels, cfg.min_samples, weights, cfg.winnow, net.num_classes)
        kept = rules.drop_low_confidence(tree.to_ruleset(t, default), cfg.rule_drop_pct).rules
        out.append((layer, [(r.conclusion, r.confidence, np.flatnonzero(rules.premise_mask(r.premise, H)))
                            for r in kept]))
    return out

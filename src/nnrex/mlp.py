"""Feed-forward network with per-layer output capture and a small
self-contained trainer (Adam on weighted softmax cross-entropy).

Inference streams the layers: :func:`stream_layers` yields each layer's
output in turn and keeps only the current one, and :func:`layer_outputs`,
:func:`forward` and :func:`predict_labels` all read that one loop.

The trainer builds the returned network's layers up front and updates
them in place: every weight and bias is a view into one flat parameter
vector, and backprop writes each layer's gradient straight into its view of
one flat gradient vector. Each Adam step then updates the whole vector at
once, with the per-element operations of the textbook per-layer update in
the same order, so the trained weights are the same floats. Minibatches are
slices of one shuffled copy of the data per epoch.

:func:`train_many` trains several same-shaped networks, such as the fold
networks of a cross-validation, as one stack: every parameter, gradient and
Adam moment gains a leading net axis, and each step runs the same ufunc and
matmul calls once for the whole stack, which is where most of a small
network's step time goes. Each network keeps its own random stream,
shuffle, class weights and loss, and comes out bit for bit as
:func:`train` makes it alone; :func:`train` is a stack of one, which runs
on plain 2-D arrays.

Networks are immutable after training or loading and safe to share across
threads; training mutates a private instance only.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, class_weights_from_labels

HIDDEN_ACTIVATIONS = ("tanh", "relu", "elu")
ELU_ALPHA = 1.0

WEIGHTS_SCHEMA_VERSION = 1


class MlpError(ValueError):
    """Raised for structural problems in a network or weight file."""


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, what: str = "training loss"):
        super().__init__(f"{what} became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str


@dataclass(frozen=True)
class Mlp:
    """Stack of dense layers; hidden activations in {tanh, relu, elu},
    final activation fixed to softmax."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise MlpError("network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        for i, layer in enumerate(self.layers):
            if layer.weight.ndim != 2 or layer.bias.shape != (layer.weight.shape[0],):
                raise MlpError(f"layer {i}: weight/bias shape mismatch")
            if layer.weight.size == 0:
                raise MlpError(f"layer {i}: zero-size weight matrix {layer.weight.shape}")
            if not (np.all(np.isfinite(layer.weight)) and np.all(np.isfinite(layer.bias))):
                raise MlpError(f"layer {i}: non-finite parameters")
            if i + 1 < len(self.layers):
                if layer.activation not in HIDDEN_ACTIVATIONS:
                    raise MlpError(f"layer {i}: unknown hidden activation {layer.activation!r}")
                if self.layers[i + 1].weight.shape[1] != layer.weight.shape[0]:
                    raise MlpError(f"layer {i}->{i + 1}: dimensions do not chain")
            else:
                if layer.activation != "softmax":
                    raise MlpError("final activation must be softmax")

    @property
    def input_width(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def num_hidden(self) -> int:
        return len(self.layers) - 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    seed: int = 0
    class_weighted: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise MlpError("epochs must be >= 1")
        if self.batch_size < 1:
            raise MlpError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise MlpError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise MlpError("beta1 and beta2 must be in [0, 1)")
        if not self.epsilon > 0:
            raise MlpError("epsilon must be positive")


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "elu":
        return np.where(z > 0, z, ELU_ALPHA * np.expm1(z))
    if kind == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    raise MlpError(f"unknown activation {kind!r}")


def _layer_forward(h: np.ndarray, layer: Layer) -> np.ndarray:
    """One layer's output on ``h``: the bias and a tanh or relu activation
    are applied in place on the product, which gives the same floats as
    ``_apply_activation(h @ W.T + b)`` without a second array. For elu and
    softmax the pre-activation is freed on return."""
    z = h @ layer.weight.T
    # column by column: the same sums as z += b, without the 64 KB buffer
    # that numpy's broadcasting add allocates beside both layers
    for j, b in enumerate(layer.bias):
        z[:, j] += b
    if layer.activation == "tanh":
        return np.tanh(z, out=z)
    if layer.activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return _apply_activation(z, layer.activation)


def stream_layers(net: Mlp, x: np.ndarray):
    """Yield every layer's output in order, 0..d+1: 0 is the input itself,
    d+1 the softmax output, the rest the post-activation values of the
    hidden layers. Only the current layer is held, so a caller that keeps
    none of them runs the net beside one activation (and the next one while
    it is computed). Accepts a single vector or a batch."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != net.input_width:
        raise MlpError(f"input width {h.shape[1]} does not match network input {net.input_width}")
    yield h[0] if squeeze else h
    for layer in net.layers:
        h = _layer_forward(h, layer)
        yield h[0] if squeeze else h


def layer_outputs(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output from one pass, indexed 0..d+1 as
    :func:`stream_layers` yields them."""
    return list(stream_layers(net, x))


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Class-probability output; accepts a single vector or a batch."""
    for h in stream_layers(net, x):
        pass
    return h


def predict_labels(net: Mlp, X: np.ndarray) -> np.ndarray:
    """argmax of the output distribution; ties go to the lowest class index."""
    probs = np.atleast_2d(forward(net, X))
    return probs.argmax(axis=1)


def _glorot_init(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def _loss_and_grads(layers, Xb, yb, sample_w, grads, index=None):
    """Weighted softmax cross-entropy; its gradient for each layer is
    written into that layer's ``(gW, gb)`` pair of ``grads``.

    Loss = sum_i w_i * CE_i / sum_i w_i, so balanced weights reduce to the
    plain mean. Every array may carry leading net axes, with a bias as
    ``(..., 1, out)``: a stack of nets then takes one step together, each net
    on its own batch, and gets its own loss. ``index`` is ``np.ix_`` over the
    shape of ``yb``, which with ``yb`` picks each row's label entry; a caller
    that loops over batches passes it precomputed.
    """
    if index is None:
        index = np.ix_(*map(np.arange, yb.shape))
    hs = [Xb]
    zs = []
    for layer in layers:
        z = hs[-1] @ layer.weight.swapaxes(-1, -2)
        z += layer.bias
        zs.append(z)
        hs.append(_apply_activation(z, layer.activation))
    # the loss reads the probabilities before delta takes their array over
    delta = hs.pop()
    label = (*index, yb)
    w_total = sample_w.sum(axis=-1, keepdims=True)
    loss = -(sample_w * np.log(delta[label] + 1e-12)).sum(axis=-1) / w_total[..., 0]

    delta[label] -= 1.0
    delta *= (sample_w / w_total)[..., None]
    for k in range(len(layers) - 1, -1, -1):
        gW, gb = grads[k]
        np.matmul(delta.swapaxes(-1, -2), hs[k], out=gW)
        delta.sum(axis=-2, out=gb)
        if k > 0:
            delta = delta @ layers[k].weight
            z = zs[k - 1]
            kind = layers[k - 1].activation
            if kind == "tanh":
                delta *= 1.0 - hs[k] ** 2
            elif kind == "relu":
                delta *= (z > 0).astype(float)
            elif kind == "elu":
                delta *= np.where(z > 0, 1.0, ELU_ALPHA * np.exp(z))
    return loss


def train(
    ds: Dataset,
    hidden_sizes: list[int] | tuple[int, ...],
    activation: str = "tanh",
    cfg: TrainConfig = TrainConfig(),
    loss_out: list[float] | None = None,
) -> Mlp:
    """Train a new network on the dataset with minibatch Adam.

    Deterministic for a fixed config seed. Raises :class:`TrainingDiverged`
    when the epoch loss or Adam's squared-gradient average stops being
    finite. Mean per-epoch losses are appended to ``loss_out`` when given.
    This is :func:`train_many` on one dataset.
    """
    return train_many([ds], hidden_sizes, activation, [cfg], None if loss_out is None else [loss_out])[0]


def train_many(
    datasets: list[Dataset],
    hidden_sizes: list[int] | tuple[int, ...],
    activation: str,
    cfgs: list[TrainConfig],
    loss_outs: list[list[float]] | None = None,
) -> list[Mlp]:
    """Train one network per dataset, the i-th with ``cfgs[i]``, and return
    them in order; each is bit for bit the network :func:`train` returns
    for its dataset and config, and ``loss_outs[i]`` gets its losses.

    Networks whose datasets have the same shape and whose configs differ in
    ``seed`` at most take every minibatch step together as one stack: each
    keeps its own random stream, shuffle, class weights and loss, and the
    stack pays numpy's per-call costs once per step. Stacks train in the
    order of their first network. At the end of every epoch each network of
    the stack is checked, and the first one, in input order, whose loss or
    Adam's squared-gradient average is non-finite raises
    :class:`TrainingDiverged` for that epoch.
    """
    if not hidden_sizes:
        raise MlpError("hidden_sizes must be nonempty")
    for size in hidden_sizes:
        if not isinstance(size, numbers.Integral) or size < 1:
            raise MlpError(f"hidden layer sizes must be integers >= 1, got {size!r}")
    if activation not in HIDDEN_ACTIVATIONS:
        raise MlpError(f"unknown activation {activation!r}")
    if len(cfgs) != len(datasets) or (loss_outs is not None and len(loss_outs) != len(datasets)):
        raise MlpError("train_many needs one config (and loss list) per dataset")
    stacks: dict[tuple, list[int]] = {}
    for i, (ds, cfg) in enumerate(zip(datasets, cfgs)):
        key = (ds.num_samples, ds.num_features, ds.num_classes, replace(cfg, seed=0))
        stacks.setdefault(key, []).append(i)
    nets = [None] * len(datasets)
    for members in stacks.values():
        trained = _train_stack(
            [datasets[i] for i in members], hidden_sizes, activation, [cfgs[i] for i in members],
            None if loss_outs is None else [loss_outs[i] for i in members],
        )
        for i, net in zip(members, trained):
            nets[i] = net
    return nets


def _train_stack(datasets, hidden_sizes, activation, cfgs, loss_outs) -> list[Mlp]:
    """Train same-shaped networks whose configs differ in seed at most, each
    on its dataset, with one minibatch Adam loop."""
    cfg, k = cfgs[0], len(datasets)
    # the stack's net axis; a lone net runs on plain 2-D arrays
    lead = (k,) if k > 1 else ()
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    ds0 = datasets[0]
    sizes = [ds0.num_features, *hidden_sizes, ds0.num_classes]
    kinds = [activation] * len(hidden_sizes) + ["softmax"]
    # per net, every W and b is a view into the flat theta, and its gW and gb
    # the same view into the flat gradient g, so Adam updates all of them
    # with a few whole-array ufunc calls per step; m and v are its moments,
    # step and denom scratch arrays
    theta = np.zeros(lead + (sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:])),))
    m, v, g, step, denom = (np.zeros_like(theta) for _ in range(5))
    layers, grads, nets = [], [], [[] for _ in datasets]
    offset = 0
    for fan_in, fan_out, kind in zip(sizes, sizes[1:], kinds):
        end = offset + fan_out * fan_in
        W = theta[..., offset:end].reshape(lead + (fan_out, fan_in))
        b = theta[..., end : end + fan_out]
        for net, rng, W_i, b_i in zip(nets, rngs, W.reshape(k, fan_out, fan_in), b.reshape(k, fan_out)):
            W_i[...] = _glorot_init(rng, fan_out, fan_in)
            net.append(Layer(W_i, b_i, kind))
        # the bias on a row axis, which broadcasts over a batch
        layers.append(Layer(W, b[..., None, :], kind))
        grads.append((g[..., offset:end].reshape(lead + (fan_out, fan_in)), g[..., end : end + fan_out]))
        offset = end + fan_out

    features = [ds.features for ds in datasets]
    labels = [ds.labels for ds in datasets]
    weights = []
    for ds, c in zip(datasets, cfgs):
        cw = class_weights_from_labels(ds.labels, ds.num_classes) if c.class_weighted else np.ones(ds.num_classes)
        weights.append(cw[ds.labels])

    b1, b2 = cfg.beta1, cfg.beta2
    t = 0
    n, size = ds0.num_samples, cfg.batch_size
    # the label index of a full batch and of a ragged last one
    index = {nb: np.ix_(*(np.arange(d) for d in lead + (nb,))) for nb in (min(size, n), n % size or size)}
    for epoch in range(cfg.epochs):
        order = [rng.permutation(n) for rng in rngs]
        X, y, w = (np.stack([a[o] for a, o in zip(arrays, order)]) for arrays in (features, labels, weights))
        if not lead:
            X, y, w = X[0], y[0], w[0]
        epoch_loss = 0.0
        for start in range(0, n, size):
            batch = slice(start, start + size)
            yb = y[..., batch]
            nb = yb.shape[-1]
            loss = _loss_and_grads(layers, X[..., batch, :], yb, w[..., batch], grads, index[nb])
            epoch_loss += loss * nb
            t += 1
            # each Adam line keeps the per-layer formula's operation order,
            # so the floats are equal
            m *= b1
            m += np.multiply(g, 1 - b1, out=step)
            v *= b2
            v += np.multiply(np.square(g, out=step), 1 - b2, out=step)
            np.divide(m, 1 - b1**t, out=step)
            step *= cfg.learning_rate
            np.sqrt(np.divide(v, 1 - b2**t, out=denom), out=denom)
            denom += cfg.epsilon
            step /= denom
            theta -= step
        finite_v = np.isfinite(v).reshape(k, -1).all(axis=1)
        for finite_loss, finite_v_i in zip(np.isfinite(epoch_loss).reshape(k), finite_v):
            if not finite_loss:
                raise TrainingDiverged(epoch)
            # an overflowed g**2 leaves v at inf and every later step at 0
            if not finite_v_i:
                raise TrainingDiverged(epoch, "Adam's squared-gradient average")
        if loss_outs is not None:
            for loss_out, mean_loss in zip(loss_outs, np.reshape(epoch_loss / n, k)):
                loss_out.append(mean_loss)
    return [Mlp(tuple(net)) for net in nets]


def save(net: Mlp, path) -> None:
    payload = {
        "version": WEIGHTS_SCHEMA_VERSION,
        "input_width": net.input_width,
        "layers": [
            {
                "activation": layer.activation,
                "rows": layer.weight.shape[0],
                "cols": layer.weight.shape[1],
                "weights": [float(v) for v in layer.weight.ravel()],
                "bias": [float(v) for v in layer.bias],
            }
            for layer in net.layers
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load(path) -> Mlp:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MlpError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("version") != WEIGHTS_SCHEMA_VERSION:
        raise MlpError(f"{path}: unsupported weight-file version")
    try:
        layers = []
        for spec in payload["layers"]:
            rows, cols = int(spec["rows"]), int(spec["cols"])
            W = np.array(spec["weights"], dtype=float).reshape(rows, cols)
            b = np.array(spec["bias"], dtype=float)
            layers.append(Layer(W, b, str(spec["activation"])))
        net = Mlp(tuple(layers))
        if net.input_width != int(payload["input_width"]):
            raise MlpError(f"{path}: declared input width does not match layer shapes")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, MlpError):
            raise
        raise MlpError(f"{path}: malformed weight file: {exc}") from None
    return net

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

Networks are immutable after training or loading and safe to share across
threads; training mutates a private instance only.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

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


def _loss_and_grads(layers, Xb, yb, sample_w, grads) -> float:
    """Weighted softmax cross-entropy; its gradient for each layer is
    written into that layer's ``(gW, gb)`` pair of ``grads``.

    Loss = sum_i w_i * CE_i / sum_i w_i, so balanced weights reduce to the
    plain mean.
    """
    hs = [Xb]
    zs = []
    for layer in layers:
        zs.append(hs[-1] @ layer.weight.T + layer.bias)
        hs.append(_apply_activation(zs[-1], layer.activation))
    # the loss reads the probabilities before delta takes their array over
    delta = hs.pop()
    rows = np.arange(Xb.shape[0])
    w_total = sample_w.sum()
    loss = -(sample_w * np.log(delta[rows, yb] + 1e-12)).sum() / w_total

    delta[rows, yb] -= 1.0
    delta *= (sample_w / w_total)[:, None]
    for k in range(len(layers) - 1, -1, -1):
        gW, gb = grads[k]
        np.matmul(delta.T, hs[k], out=gW)
        delta.sum(axis=0, out=gb)
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
    """
    if not hidden_sizes:
        raise MlpError("hidden_sizes must be nonempty")
    for size in hidden_sizes:
        if not isinstance(size, numbers.Integral) or size < 1:
            raise MlpError(f"hidden layer sizes must be integers >= 1, got {size!r}")
    if activation not in HIDDEN_ACTIVATIONS:
        raise MlpError(f"unknown activation {activation!r}")
    rng = np.random.default_rng(cfg.seed)
    sizes = [ds.num_features, *hidden_sizes, ds.num_classes]
    kinds = [activation] * len(hidden_sizes) + ["softmax"]
    # every W and b is a view into the flat theta, and its gW and gb the same
    # view into the flat gradient g, so Adam updates all of them with a few
    # whole-vector ufunc calls per step; m and v are its moments, step and
    # denom scratch vectors
    theta = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:])))
    m, v, g, step, denom = (np.zeros_like(theta) for _ in range(5))
    layers, grads = [], []
    offset = 0
    for fan_in, fan_out, kind in zip(sizes, sizes[1:], kinds):
        end = offset + fan_out * fan_in
        W = theta[offset:end].reshape(fan_out, fan_in)
        W[...] = _glorot_init(rng, fan_out, fan_in)
        layers.append(Layer(W, theta[end : end + fan_out], kind))
        grads.append((g[offset:end].reshape(fan_out, fan_in), g[end : end + fan_out]))
        offset = end + fan_out

    if cfg.class_weighted:
        cw = class_weights_from_labels(ds.labels, ds.num_classes)
    else:
        cw = np.ones(ds.num_classes)
    weights = cw[ds.labels]

    b1, b2 = cfg.beta1, cfg.beta2
    t = 0
    n = ds.num_samples
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        X, y, w = ds.features[order], ds.labels[order], weights[order]
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            loss = _loss_and_grads(layers, X[batch], y[batch], w[batch], grads)
            epoch_loss += loss * len(y[batch])
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
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(epoch)
        # an overflowed g**2 leaves v at inf and every later step at 0
        if not np.isfinite(v).all():
            raise TrainingDiverged(epoch, "Adam's squared-gradient average")
        if loss_out is not None:
            loss_out.append(epoch_loss / n)
    return Mlp(tuple(layers))


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

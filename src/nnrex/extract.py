"""Rule-extraction algorithms over a trained network.

Four extraction families share one configuration:

* clause-wise decompositional extraction (``eclaire``): each hidden layer
  independently yields intermediate rules mapping its activations to the
  network's predicted labels; every intermediate premise is then replaced,
  as a whole clause, by the input-space rules that approximate its truth
  value. Rule growth is additive in the number of substituted premises.
* term-wise decompositional baselines (``remd``, ``deepred_star``): rules
  are rewritten backwards layer by layer, replacing each term separately
  and recombining the replacements as a Cartesian product, which grows
  multiplicatively and is protected by an explosion guard.
* pedagogical baseline (``pedc5``): one tree from inputs to the network's
  predicted labels.
* direct baseline (``c5_direct``): one tree from inputs to true labels.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import class_weights_from_labels, stratified_sample_indices
from .mlp import Mlp, layer_outputs
from .rules import (
    Rule,
    RuleSet,
    add_canonical,
    canonicalize,
    drop_low_confidence,
    premise_mask,
)
from .tree import SortedColumns, induce, sort_columns, to_ruleset

METHOD_NAMES = ("eclaire", "eclaire_star", "remd", "deepred_star", "pedc5", "c5")

DEFAULT_RULE_CAP = 1_000_000


class ExtractError(ValueError):
    """Raised for incompatible inputs or configurations."""


class ExplosionGuard(RuntimeError):
    """Term-wise substitution exceeded the configured rule cap."""

    def __init__(self, rule_count: int, cap: int, layer: int):
        super().__init__(
            f"term-wise substitution at layer {layer} needs {rule_count} rules, "
            f"exceeding the cap of {cap}"
        )
        self.rule_count = rule_count
        self.cap = cap
        self.layer = layer


@dataclass(frozen=True)
class ExtractionConfig:
    """Shared extraction knobs.

    ``min_samples`` is the minimum node size a tree split requires, the
    principal complexity control. ``layer_stride``, ``sample_fraction`` and
    ``rule_drop_pct`` are the growth-coping mechanisms: hidden-layer
    subsampling, training-set subsampling, and confidence-ranked pruning of
    intermediate rules before substitution.
    """

    min_samples: int = 2
    include_input_layer: bool = False
    layer_stride: int = 1
    sample_fraction: float = 1.0
    rule_drop_pct: float = 0.0
    winnow: bool = True
    class_weighted: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.min_samples < 2:
            raise ExtractError("min_samples must be >= 2")
        if self.layer_stride < 1:
            raise ExtractError("layer_stride must be >= 1")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ExtractError("sample_fraction must be in (0, 1]")
        if not 0.0 <= self.rule_drop_pct <= 100.0:
            raise ExtractError("rule_drop_pct must be in [0, 100]")


def _as_rows(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.isfinite(X).all():
        raise ExtractError("data contains non-finite values")
    return X


def _labelled(X: np.ndarray, labels: np.ndarray, cfg: ExtractionConfig, num_classes: int):
    """The rows a tree is induced from: (X, labels, majority label, class
    weights or None), after the seeded stratified subsample."""
    if cfg.sample_fraction < 1.0:
        rng = np.random.default_rng(cfg.seed)
        idx = stratified_sample_indices(labels, cfg.sample_fraction, rng)
        X, labels = X[idx], labels[idx]
    weights = class_weights_from_labels(labels, num_classes) if cfg.class_weighted else None
    return X, labels, int(np.argmax(np.bincount(labels, minlength=num_classes))), weights


@dataclass(frozen=True)
class _Prepared:
    """The extraction rows and everything every method derives from them."""

    X: np.ndarray
    labels: np.ndarray  # the network's predicted labels
    default: int  # majority predicted label
    label_weights: np.ndarray | None
    layers: list[np.ndarray | None]  # outputs of layers 0..d+1 on X; eclaire frees each once used


def _finite_layer_outputs(net: Mlp, X: np.ndarray) -> list[np.ndarray]:
    """:func:`layer_outputs`, rejecting a pass whose values overflow."""
    layers = layer_outputs(net, X)
    for k, h in enumerate(layers):
        if not np.isfinite(h).all():
            raise ExtractError(f"network layer {k} gives non-finite values on this data")
    return layers


def _prepare(net: Mlp, X: np.ndarray, cfg: ExtractionConfig) -> _Prepared:
    """Validate X, label it with the network, subsample it, and run the
    network over the kept rows once."""
    X = _as_rows(X)
    if X.shape[1] != net.input_width:
        raise ExtractError(f"data width {X.shape[1]} does not match network input {net.input_width}")
    layers = _finite_layer_outputs(net, X)
    X, labels, default, weights = _labelled(X, layers[-1].argmax(axis=1), cfg, net.num_classes)
    if cfg.sample_fraction < 1.0:
        # a fresh pass rather than a row slice: BLAS may round a product
        # over a different row count differently
        layers = _finite_layer_outputs(net, X)
    return _Prepared(X, labels, default, weights, layers)


def substitute_clause(
    rule: Rule,
    X: np.ndarray | SortedColumns,
    premise_truth: np.ndarray,
    min_samples: int,
    class_weight: np.ndarray | None = None,
    winnow: bool = True,
) -> list[Rule]:
    """Replace one intermediate rule by input-space rules approximating the
    truth of its whole premise.

    Induces a tree from X to the premise-truth labels and keeps the premises
    of leaves concluding TRUE, each mapped to the original rule's conclusion
    with confidence = original confidence x leaf confidence. An empty list
    means the premise could not be approximated as true anywhere and the
    intermediate rule is dropped.
    """
    truth = np.asarray(premise_truth).astype(int)
    if truth.shape != (X.shape[0],):
        raise ExtractError("premise_truth length must match X")
    tree = induce(X, truth, min_samples, class_weight, winnow, num_classes=2)
    substituted = []
    for leaf_rule in to_ruleset(tree, 0).rules:
        if leaf_rule.conclusion == 1:
            substituted.append(
                Rule(leaf_rule.premise, rule.conclusion, rule.confidence * leaf_rule.confidence)
            )
    return substituted


def clausewise_substitute(
    intermediate_rules,
    H: np.ndarray,
    X: np.ndarray | SortedColumns,
    min_samples: int,
    class_weighted: bool = False,
    winnow: bool = True,
) -> list[Rule]:
    """Clause-wise substitution of a whole intermediate rule set, returned
    raw (pre-deduplication): exactly the concatenation of each rule's
    substitution, so the output size is the sum of TRUE-premise counts.
    The columns of X are sorted once for all substitution trees."""
    X = sort_columns(X)
    out: list[Rule] = []
    for rule in intermediate_rules:
        truth = premise_mask(rule.premise, H)
        weights = class_weights_from_labels(truth.astype(int), 2) if class_weighted else None
        out.extend(substitute_clause(rule, X, truth, min_samples, weights, winnow))
    return out


def _selected_layers(net: Mlp, cfg: ExtractionConfig) -> list[int]:
    layers = list(range(1, net.num_hidden + 1, cfg.layer_stride))
    if cfg.include_input_layer:
        layers = [0] + layers
    if not layers:
        raise ExtractError("no layers selected for extraction")
    return layers


def _clausewise_layers(net: Mlp, prep: _Prepared, cfg: ExtractionConfig) -> list[tuple[int, list[Rule]]]:
    out = []
    for layer in _selected_layers(net, cfg):
        # nothing reads a layer's activations after its substitution, so they
        # leave prep here and are freed with H: the trees of later layers then
        # run beside less than the forward pass held
        H, prep.layers[layer] = prep.layers[layer], None
        tree = induce(H, prep.labels, cfg.min_samples, prep.label_weights, cfg.winnow, net.num_classes)
        intermediate = drop_low_confidence(to_ruleset(tree, prep.default), cfg.rule_drop_pct)
        out.append((layer, clausewise_substitute(
            intermediate.rules, H, prep.X, cfg.min_samples, cfg.class_weighted, cfg.winnow
        )))
    return out


def eclaire_layer_rules(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
) -> list[tuple[int, list[Rule]]]:
    """Per-layer clause-wise extraction, before merging.

    Each selected layer is processed independently of the others, in layer
    order: induce an intermediate tree from its activations to the network's
    predicted labels, optionally drop the lowest-confidence intermediate
    rules, then substitute every surviving premise with input-space rules.
    """
    return _clausewise_layers(net, _prepare(net, X, cfg), cfg)


def eclaire(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Clause-wise decompositional extraction; see :func:`eclaire_layer_rules`.

    Contributions of all selected layers are unioned and canonicalized. The
    default label is the majority predicted label of the extraction set.
    """
    prep = _prepare(net, X, cfg)
    all_rules = [r for _, contributed in _clausewise_layers(net, prep, cfg) for r in contributed]
    return canonicalize(RuleSet(tuple(all_rules), prep.default, net.num_classes, feature_names))


def eclaire_star(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Eclectic variant: the input layer joins the hidden representations."""
    return eclaire(net, X, replace(cfg, include_input_layer=True), feature_names)


def _combinations(rule: Rule, per_term: list[list[Rule]]):
    """Yield the Cartesian recombination of one rule's per-term replacement
    lists one combined rule at a time: premises unioned, confidences
    multiplied into the rule's own."""
    for combo in itertools.product(*per_term):
        conf = rule.confidence
        for r in combo:
            conf *= r.confidence
        yield Rule(frozenset().union(*(r.premise for r in combo)), rule.conclusion, conf)


def termwise_substitute(rule: Rule, term_rules: dict) -> list[Rule]:
    """Cartesian recombination of per-term replacements for one rule.

    ``term_rules`` maps each premise term to the list of TRUE-premise rules
    substituting it. The raw (pre-deduplication) output size is the product
    of the per-term list sizes; a term with no TRUE premises annihilates the
    rule.
    """
    return list(_combinations(rule, [term_rules[t] for t in sorted(rule.premise)]))


def _termwise_extract(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig,
    feature_names,
    rule_cap: int,
    keep_history: bool,
    stats: dict | None = None,
) -> RuleSet:
    d = net.num_hidden
    if d == 0:
        raise ExtractError("term-wise extraction needs at least one hidden layer")
    prep = _prepare(net, X, cfg)
    top_tree = induce(
        prep.layers[d], prep.labels, cfg.min_samples, prep.label_weights, cfg.winnow, net.num_classes
    )
    current = list(to_ruleset(top_tree, prep.default).rules)
    # the per-layer sets stay referenced until extraction finishes: the
    # memory profile that separates deepred_star from remd
    history = [current] if keep_history else []

    # live-rule accounting: how many rule objects the strategy keeps alive
    # at once, the footprint difference between eager rewriting and full
    # materialization
    peak_live = 0
    for layer in range(d, 0, -1):
        prev_cols = sort_columns(prep.layers[layer - 1])
        held = len(current) + sum(map(len, history))
        term_cache: dict = {}
        step_rules: list[Rule] = []
        seen: dict = {}
        expanded = cached = 0
        for rule in current:
            per_term = []
            for t in sorted(rule.premise):
                if t not in term_cache:
                    term_cache[t] = clausewise_substitute(
                        [Rule(frozenset([t]), 0, 1.0)], prep.layers[layer], prev_cols,
                        cfg.min_samples, cfg.class_weighted, cfg.winnow,
                    )
                    cached += len(term_cache[t])
                per_term.append(term_cache[t])
            # the guard counts the pre-deduplication expansion: that product
            # is what grows multiplicatively and must stay bounded
            expanded += math.prod(map(len, per_term))
            if expanded > rule_cap:
                raise ExplosionGuard(expanded, rule_cap, layer)
            # combinations arrive one at a time, and vacuous and duplicate
            # ones are discarded at once: only the surviving set is held
            for new_rule in _combinations(rule, per_term):
                add_canonical(step_rules, seen, new_rule)
            peak_live = max(peak_live, held + len(step_rules) + cached)
        current = step_rules
        if keep_history:
            history.append(current)

    if stats is not None:
        stats["peak_live_rules"] = peak_live
    return RuleSet(tuple(current), prep.default, net.num_classes, feature_names)


def remd(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
    rule_cap: int = DEFAULT_RULE_CAP,
    stats: dict | None = None,
) -> RuleSet:
    """Term-wise backward substitution with eager per-step rewriting: only
    the current rule set is kept in memory between layer steps."""
    return _termwise_extract(net, X, cfg, feature_names, rule_cap, keep_history=False, stats=stats)


def deepred_star(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
    rule_cap: int = DEFAULT_RULE_CAP,
    stats: dict | None = None,
) -> RuleSet:
    """Term-wise backward substitution that materializes and retains every
    per-layer intermediate rule set, trading memory for inspectability; the
    final rule set matches :func:`remd` up to deduplication ordering."""
    return _termwise_extract(net, X, cfg, feature_names, rule_cap, keep_history=True, stats=stats)


def pedc5(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Pedagogical baseline: a single tree from inputs to predicted labels."""
    prep = _prepare(net, X, cfg)
    tree = induce(prep.X, prep.labels, cfg.min_samples, prep.label_weights, cfg.winnow, net.num_classes)
    return canonicalize(to_ruleset(tree, prep.default, feature_names))


def c5_direct(
    X: np.ndarray,
    y: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    num_classes: int | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Direct baseline: a single tree from inputs to true labels."""
    X = _as_rows(X)
    y = np.asarray(y, dtype=int)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    num_classes = max(num_classes, 2)
    X, y, default, weights = _labelled(X, y, cfg, num_classes)
    tree = induce(X, y, cfg.min_samples, weights, cfg.winnow, num_classes)
    return canonicalize(to_ruleset(tree, default, feature_names))


def run_method(
    method: str,
    X: np.ndarray,
    y: np.ndarray | None = None,
    net: Mlp | None = None,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
    num_classes: int | None = None,
    rule_cap: int = DEFAULT_RULE_CAP,
) -> RuleSet:
    """Dispatch by method name: eclaire | eclaire_star | remd | deepred_star
    | pedc5 | c5."""
    if method not in METHOD_NAMES:
        raise ExtractError(f"unknown method {method!r}; choose one of {', '.join(METHOD_NAMES)}")
    if method == "c5":
        if y is None:
            raise ExtractError("method c5 requires true labels")
        return c5_direct(X, y, cfg, num_classes, feature_names)
    if net is None:
        raise ExtractError(f"method {method} requires a network")
    if method == "eclaire":
        return eclaire(net, X, cfg, feature_names)
    if method == "eclaire_star":
        return eclaire_star(net, X, cfg, feature_names)
    if method == "remd":
        return remd(net, X, cfg, feature_names, rule_cap)
    if method == "deepred_star":
        return deepred_star(net, X, cfg, feature_names, rule_cap)
    return pedc5(net, X, cfg, feature_names)

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

Every network method first labels the rows with one streamed pass of the
network, which holds one layer's activations at a time, and then subsamples
them. ``pedc5`` needs nothing more. ``eclaire`` streams the kept rows once
more, up to its last selected layer, and keeps of each layer only the
intermediate rules and the rows where their premises hold, so the
substitution trees run beside those and no activations. A layer's
substitution trees share one sort of the input's columns, made once per
extraction, and grow together level by level as one forest
(:func:`~nnrex.tree.grow_forest`). The term-wise methods read two adjacent
layers at each backward step, so their second pass over the kept rows
keeps every layer's outputs.

``eclaire_star`` is ``eclaire`` with the input layer selected too. Only these
two read ``layer_stride`` and ``rule_drop_pct``; every other method, called
directly or through :func:`run_method`, refuses either knob off its default
(:func:`check_method`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
# numpy would load this on first use, and a traced extraction count its 1 MB
import numpy.random  # noqa: F401

from .data import class_weights_from_labels, stratified_sample_indices
from .mlp import Mlp, stream_layers
from .rules import (
    Rule,
    RuleSet,
    add_canonical,
    canonicalize,
    drop_low_confidence,
    premise_mask,
)
from .tree import SortedColumns, grow_forest, induce, sort_columns, to_ruleset

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
    intermediate rules before substitution. ``layer_stride`` and
    ``rule_drop_pct`` are clause-wise only: see :func:`check_method`.
    """

    min_samples: int = 2
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


def _check_known(method: str) -> None:
    if method not in METHOD_NAMES:
        raise ExtractError(f"unknown method {method!r}; choose one of {', '.join(METHOD_NAMES)}")


def check_method(method: str, cfg: ExtractionConfig) -> None:
    """Reject an unknown method, and ``layer_stride`` or ``rule_drop_pct``
    off its default for a method other than eclaire and eclaire_star."""
    _check_known(method)
    unread = () if method in ("eclaire", "eclaire_star") else ("layer_stride", "rule_drop_pct")
    for knob in unread:
        if getattr(cfg, knob) != getattr(ExtractionConfig, knob):
            raise ExtractError(f"method {method} does not read {knob}; only eclaire and eclaire_star do")


def _as_rows(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not X.shape[0]:
        raise ExtractError("data has no rows")
    if not np.isfinite(X).all():
        raise ExtractError("data contains non-finite values")
    return X


def _labelled(X: np.ndarray, labels: np.ndarray, cfg: ExtractionConfig, num_classes: int):
    """The rows a tree is induced from: (X, labels, majority label, class
    weights or None), after the seeded stratified subsample."""
    if cfg.sample_fraction < 1.0:
        rng = np.random.default_rng(cfg.seed)
        idx = stratified_sample_indices(labels, cfg.sample_fraction, rng)
        if not idx.size:
            raise ExtractError(f"sample_fraction {cfg.sample_fraction} keeps none of the {len(labels)} rows")
        X, labels = X[idx], labels[idx]
    weights = class_weights_from_labels(labels, num_classes) if cfg.class_weighted else None
    return X, labels, int(np.argmax(np.bincount(labels, minlength=num_classes))), weights


def _finite(layers):
    """Pass layer outputs through, indexed 0..d+1, rejecting the first one
    whose values overflow."""
    for k, h in enumerate(layers):
        # finite extremes mean finite values, with no bool array the layer's size
        if not (np.isfinite(h.min()) and np.isfinite(h.max())):
            raise ExtractError(f"network layer {k} gives non-finite values on this data")
        yield h


def _label_pass(net: Mlp, X: np.ndarray, cfg: ExtractionConfig):
    """Validate X, label it with one streamed pass of the network, which
    holds one layer's activations at a time, and subsample it: see
    :func:`_labelled`."""
    X = _as_rows(X)
    if X.shape[1] != net.input_width:
        raise ExtractError(f"data width {X.shape[1]} does not match network input {net.input_width}")
    for out in _finite(stream_layers(net, X)):
        pass
    return _labelled(X, out.argmax(axis=1), cfg, net.num_classes)


def _true_leaf_rules(rule: Rule, tree) -> list[Rule]:
    """The premises of the tree's leaves concluding TRUE, each mapped to the
    rule's conclusion with confidence = rule confidence x leaf confidence."""
    return [
        Rule(leaf_rule.premise, rule.conclusion, rule.confidence * leaf_rule.confidence)
        for leaf_rule in to_ruleset(tree, 0).rules
        if leaf_rule.conclusion == 1
    ]


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
    return _true_leaf_rules(rule, induce(X, truth, min_samples, class_weight, winnow, num_classes=2))


class _Truths:
    """The premise-truth label vector of each rule, built when the forest
    asks for it, from the rows where the rule's premise holds."""

    def __init__(self, true_rows, n: int):
        self.true_rows, self.n = true_rows, n

    def __len__(self):
        return len(self.true_rows)

    def __getitem__(self, i: int) -> np.ndarray:
        truth = np.zeros(self.n, dtype=np.uint8)
        truth[self.true_rows[i]] = 1
        return truth


def _substitute_all(rules_and_rows, X: SortedColumns, min_samples: int, class_weighted: bool,
                    winnow: bool) -> list[Rule]:
    """Substitute each rule, given with the rows where its premise holds, as
    :func:`substitute_clause` does: the substitution trees of all the rules
    share X's column sort and grow together, as one forest."""
    rules_and_rows = list(rules_and_rows)
    truths = _Truths([rows for _, rows in rules_and_rows], X.shape[0])
    weights = [class_weights_from_labels(truths[i], 2) for i in range(len(truths))] if class_weighted else None
    trees = grow_forest(X, truths, min_samples, weights, winnow)
    return [r for (rule, _), tree in zip(rules_and_rows, trees) for r in _true_leaf_rules(rule, tree)]


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
    rules_and_rows = ((rule, np.flatnonzero(premise_mask(rule.premise, H))) for rule in intermediate_rules)
    return _substitute_all(rules_and_rows, X, min_samples, class_weighted, winnow)


def _selected_layers(net: Mlp, cfg: ExtractionConfig, input_layer: bool) -> list[int]:
    layers = list(range(1, net.num_hidden + 1, cfg.layer_stride))
    if input_layer:
        layers = [0] + layers
    if not layers:
        raise ExtractError("no layers selected for extraction")
    return layers


def _premise_truths(net: Mlp, X: np.ndarray, labels: np.ndarray, default: int,
                    weights: np.ndarray | None, cfg: ExtractionConfig, input_layer: bool):
    """Walk the network over the extraction rows up to the last selected
    layer. Each selected layer gets its intermediate tree, and keeps only
    each surviving intermediate rule's conclusion and confidence with the
    rows where its premise holds on the layer's activations, which are
    dropped before the next layer is computed.
    Returns ``[(layer, [(rule, true rows), ...]), ...]`` in layer order."""
    selected = _selected_layers(net, cfg, input_layer)
    out = []
    # a fresh pass over the kept rows gives the label pass's floats: the
    # same rows in the same order
    for layer, H in enumerate(_finite(stream_layers(net, X))):
        if layer in selected:
            tree = induce(H, labels, cfg.min_samples, weights, cfg.winnow, net.num_classes)
            intermediate = drop_low_confidence(to_ruleset(tree, default), cfg.rule_drop_pct).rules
            # substitution reads a rule's conclusion and confidence only, so
            # the premise goes once its truth is known; a layer's premises
            # nearly partition the rows, so their row indices together take
            # about one index per row
            out.append((layer, [
                (Rule(frozenset(), rule.conclusion, rule.confidence),
                 np.flatnonzero(premise_mask(rule.premise, H)))
                for rule in intermediate
            ]))
            # nothing of this layer but its truths may outlive it
            del tree, intermediate
        if layer == selected[-1]:
            return out


def _clausewise(net: Mlp, X: np.ndarray, cfg: ExtractionConfig,
                input_layer: bool = False) -> tuple[int, list[tuple[int, list[Rule]]]]:
    """The majority predicted label and each selected layer's substituted
    rules; ``input_layer`` selects layer 0 too. The substitution trees run
    after the walk, beside only the truths and X's column sort, made once
    for every layer."""
    X, labels, default, weights = _label_pass(net, X, cfg)
    truths = _premise_truths(net, X, labels, default, weights, cfg, input_layer)
    cols = sort_columns(X)
    return default, [
        (layer, _substitute_all(rules_and_rows, cols, cfg.min_samples, cfg.class_weighted, cfg.winnow))
        for layer, rules_and_rows in truths
    ]


def _eclaire(net: Mlp, X: np.ndarray, cfg: ExtractionConfig, feature_names, input_layer: bool) -> RuleSet:
    default, per_layer = _clausewise(net, X, cfg, input_layer)
    all_rules = [r for _, contributed in per_layer for r in contributed]
    return canonicalize(RuleSet(tuple(all_rules), default, net.num_classes, feature_names))


def eclaire(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Clause-wise decompositional extraction.

    Each selected layer is processed independently of the others, in layer
    order: induce an intermediate tree from its activations to the network's
    predicted labels, optionally drop the lowest-confidence intermediate
    rules, then substitute every surviving premise with input-space rules.
    Contributions of all selected layers are unioned and canonicalized. The
    default label is the majority predicted label of the extraction set.
    """
    return _eclaire(net, X, cfg, feature_names, input_layer=False)


def eclaire_star(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Eclectic variant: the input layer joins the hidden representations."""
    return _eclaire(net, X, cfg, feature_names, input_layer=True)


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
    X, labels, default, weights = _label_pass(net, X, cfg)
    # each backward step reads two adjacent layers, so this second pass
    # over the kept rows keeps them all
    layers = list(_finite(stream_layers(net, X)))
    top_tree = induce(layers[d], labels, cfg.min_samples, weights, cfg.winnow, net.num_classes)
    current = list(to_ruleset(top_tree, default).rules)
    # the per-layer sets stay referenced until extraction finishes: the
    # memory profile that separates deepred_star from remd
    history = [current] if keep_history else []

    # live-rule accounting: how many rule objects the strategy keeps alive
    # at once, the footprint difference between eager rewriting and full
    # materialization
    peak_live = 0
    for layer in range(d, 0, -1):
        prev_cols = sort_columns(layers[layer - 1])
        held = sum(map(len, history)) if keep_history else len(current)
        term_cache: dict = {}
        step_rules: list[Rule] = []
        seen: dict = {}
        expanded = cached = 0
        # the first pass fills the term cache in rule order and counts the
        # expansion, so the guard fires before any combination is built
        cached_by_rule = []
        for rule in current:
            for t in sorted(rule.premise):
                if t not in term_cache:
                    term_cache[t] = clausewise_substitute(
                        [Rule(frozenset([t]), 0, 1.0)], layers[layer], prev_cols,
                        cfg.min_samples, cfg.class_weighted, cfg.winnow,
                    )
                    cached += len(term_cache[t])
            # the guard counts the pre-deduplication expansion: that product
            # is what grows multiplicatively and must stay bounded
            expanded += math.prod(len(term_cache[t]) for t in rule.premise)
            if expanded > rule_cap:
                raise ExplosionGuard(expanded, rule_cap, layer)
            cached_by_rule.append(cached)
        for rule, cached in zip(current, cached_by_rule):
            # combinations arrive one at a time, and vacuous and duplicate
            # ones are discarded at once: only the surviving set is held
            for new_rule in _combinations(rule, [term_cache[t] for t in sorted(rule.premise)]):
                add_canonical(step_rules, seen, new_rule)
            peak_live = max(peak_live, held + len(step_rules) + cached)
        current = step_rules
        if keep_history:
            history.append(current)

    if stats is not None:
        stats["peak_live_rules"] = peak_live
    return RuleSet(tuple(current), default, net.num_classes, feature_names)


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
    check_method("remd", cfg)
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
    check_method("deepred_star", cfg)
    return _termwise_extract(net, X, cfg, feature_names, rule_cap, keep_history=True, stats=stats)


def pedc5(
    net: Mlp,
    X: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Pedagogical baseline: a single tree from inputs to predicted labels."""
    check_method("pedc5", cfg)
    X, labels, default, weights = _label_pass(net, X, cfg)
    tree = induce(X, labels, cfg.min_samples, weights, cfg.winnow, net.num_classes)
    return canonicalize(to_ruleset(tree, default, feature_names))


def c5_direct(
    X: np.ndarray,
    y: np.ndarray,
    cfg: ExtractionConfig = ExtractionConfig(),
    num_classes: int | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """Direct baseline: a single tree from inputs to true labels, whole
    numbers in [0, num_classes), by default [0, largest label]."""
    check_method("c5", cfg)
    X = _as_rows(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ExtractError(f"{y.size} true labels for {X.shape[0]} rows")
    if not (np.isfinite(y) & (y == np.floor(y))).all():
        raise ExtractError("true labels must be whole numbers")
    num_classes = max(int(y.max()) + 1 if num_classes is None else num_classes, 2)
    if y.min() < 0 or y.max() >= num_classes:
        raise ExtractError(f"true labels must lie in [0, {num_classes})")
    X, y, default, weights = _labelled(X, y.astype(int), cfg, num_classes)
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
    | pedc5 | c5. Each method checks the config itself."""
    _check_known(method)
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

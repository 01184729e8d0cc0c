"""Span recording around the public functions of ``nnrex``, and the
per-layer metrics derived from the spans.

The package imports with ``from .x import y``, so each function is wrapped at
every module attribute its callers read (``nnrex.extract.induce`` as well as
``nnrex.tree.induce``). Per-rule helpers such as ``normalize_premise`` are
deliberately left unwrapped: their cost shows as the self time of the public
call that encloses them. Spans assume one thread, which holds because every
workload uses ``n_threads=1``.
"""
from __future__ import annotations

import functools
import importlib
import time


def _rows(args, kwargs, result):
    x = args[1]
    return len(x) if getattr(x, "ndim", 1) == 2 else 1


def _tree_size(args, kwargs, result):
    return (len(result.nodes), result.leaf_count())


def _ruleset_len(args, kwargs, result):
    return len(result.rules)


def _list_len(args, kwargs, result):
    return len(result)


def _canonicalize_in_out(args, kwargs, result):
    return (len(args[0].rules), len(result.rules))


# (module, attribute, span name, recorder of the call's size)
TARGETS = (
    ("data", "gen_xor", "data.gen_xor", None),
    ("data", "load_csv", "data.load_csv", None),
    ("data", "stratified_kfold", "data.stratified_kfold", None),
    ("evaluation", "stratified_kfold", "data.stratified_kfold", None),
    ("mlp", "train", "mlp.train", None),
    ("evaluation", "train", "mlp.train", None),
    ("mlp", "forward", "mlp.forward", _rows),
    ("tree", "induce", "tree.induce", _tree_size),
    ("extract", "induce", "tree.induce", _tree_size),
    ("tree", "winnow_features", "tree.winnow_features", None),
    ("tree", "to_ruleset", "tree.to_ruleset", _ruleset_len),
    ("extract", "to_ruleset", "tree.to_ruleset", _ruleset_len),
    ("rules", "canonicalize", "rules.canonicalize", _canonicalize_in_out),
    ("extract", "canonicalize", "rules.canonicalize", _canonicalize_in_out),
    ("rules", "premise_mask", "rules.premise_mask", None),
    ("extract", "premise_mask", "rules.premise_mask", None),
    ("rules", "predict_batch", "rules.predict_batch", None),
    ("evaluation", "predict_batch", "rules.predict_batch", None),
    ("rules", "score_batch", "rules.score_batch", None),
    ("evaluation", "score_batch", "rules.score_batch", None),
    ("rules", "drop_low_confidence", "rules.drop_low_confidence", _ruleset_len),
    ("extract", "drop_low_confidence", "rules.drop_low_confidence", _ruleset_len),
    ("extract", "eclaire", "extract.eclaire", None),
    ("extract", "remd", "extract.remd", None),
    ("extract", "substitute_clause", "extract.substitute_clause", _list_len),
    ("extract", "termwise_substitute", "extract.termwise_substitute", _list_len),
    ("evaluation", "run_method", "evaluation.run_method", None),
    ("evaluation", "accuracy", "evaluation.accuracy", None),
    ("evaluation", "fidelity", "evaluation.fidelity", None),
    ("evaluation", "auc_binary", "evaluation.auc_binary", None),
    ("evaluation", "measure", "evaluation.measure", None),
    ("evaluation", "crossval", "evaluation.crossval", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_crossval", "cli.cmd_crossval", None),
)

METRIC_SPANS = ("evaluation.accuracy", "evaluation.fidelity", "evaluation.auc_binary")

# Hidden layers of the XOR preset net (64-32-16) that eclaire extracts from.
HIDDEN_LAYERS = (1, 2, 3)


class Span:
    __slots__ = ("name", "start", "end", "parent", "size")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.size = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per wrapped call: name, start, end, parent and size.

    Spans stay in memory until the run ends. ``install`` replaces every
    target attribute with a recording wrapper and ``remove`` restores the
    originals, so nothing is wrapped while the tracer is off.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, size in TARGETS:
            module = importlib.import_module(f"nnrex.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, size))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def _roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    return root


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


# Span names whose total time (outermost spans only) is a metric "<name>.s".
TIMED = (
    "data.gen_xor", "data.load_csv", "data.stratified_kfold", "mlp.train", "mlp.forward",
    "tree.induce", "tree.winnow_features", "tree.to_ruleset", "rules.canonicalize",
    "rules.premise_mask", "rules.predict_batch", "rules.score_batch",
    "extract.substitute_clause", "extract.termwise_substitute", "evaluation.measure",
    "evaluation.run_method", "evaluation.crossval",
)
# Per-layer metric names, in the order BENCHMARK.json lists them (without
# "trace.overhead", which run.py adds from its own timings).
PER_LAYER_METRICS = (
    "data.gen_xor.s", "data.load_csv.s", "data.stratified_kfold.s",
    "mlp.train.s", "mlp.train.calls", "mlp.forward.s", "mlp.forward.calls", "mlp.forward.rows",
    "tree.induce.s", "tree.induce.calls", "tree.induce.self_s", "tree.winnow_features.s",
    "tree.to_ruleset.s", "tree.nodes", "tree.leaves",
    "rules.canonicalize.s", "rules.canonicalize.calls", "rules.premise_mask.s",
    "rules.premise_mask.calls", "rules.predict_batch.s", "rules.score_batch.s", "rules.kept_ratio",
    "extract.substitute_clause.s", "extract.substitute_clause.calls",
    "extract.substitute_clause.useful_ratio",
    *(
        f"extract.layer{layer}.{key}"
        for layer in HIDDEN_LAYERS
        for key in ("intermediate_tree_s", "substitution_s", "intermediate_rules", "rules")
    ),
    "extract.termwise_substitute.s", "extract.termwise_substitute.calls",
    "extract.expanded_rules", "extract.remd.self_s",
    "evaluation.measure.s", "evaluation.run_method.s", "evaluation.crossval.s",
    "evaluation.metrics.s", "cli.crossval.self_s", "cli.crossval.train_s",
)


def layer_metrics(spans: list[Span], root_weights: dict[str, float]) -> dict[str, float]:
    """The metrics of ``PER_LAYER_METRICS`` from one traced run.

    Every span lies under a root span named after its phase ("setup" or
    "op"); ``root_weights`` maps each phase to 1 / (its number of roots), so
    each metric describes one setup plus one op. A name that re-enters itself
    counts only its outermost span.
    """
    roots = _roots(spans)
    selfs = self_seconds(spans)
    weight = [root_weights[spans[r].name] for r in roots]
    m = dict.fromkeys(PER_LAYER_METRICS, 0.0)
    useful = kept_in = kept_out = 0.0
    for i, s in enumerate(spans):
        w = weight[i]
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name in TIMED:
            if not _has_ancestor(spans, i, (s.name,)):
                m[f"{s.name}.s"] += w * s.seconds
            calls = f"{s.name}.calls"
            if calls in m:
                m[calls] += w
        # a call that raised has no size
        sized = s.size is not None
        if s.name == "mlp.forward" and sized:
            m["mlp.forward.rows"] += w * s.size
        elif s.name == "mlp.train" and parent == "cli.cmd_crossval":
            m["cli.crossval.train_s"] += w * s.seconds
        elif s.name == "tree.induce":
            m["tree.induce.self_s"] += w * selfs[i]
            if sized:
                m["tree.nodes"] += w * s.size[0]
                m["tree.leaves"] += w * s.size[1]
        elif s.name == "rules.canonicalize" and parent == "extract.eclaire" and sized:
            kept_in += w * s.size[0]
            kept_out += w * s.size[1]
        elif s.name == "extract.substitute_clause" and s.size:
            useful += w
        elif s.name == "extract.termwise_substitute" and sized:
            m["extract.expanded_rules"] += w * s.size
        elif s.name == "extract.remd":
            m["extract.remd.self_s"] += w * selfs[i]
        elif s.name in ("cli.main", "cli.cmd_crossval"):
            m["cli.crossval.self_s"] += w * selfs[i]
        if s.name in METRIC_SPANS and not _has_ancestor(spans, i, METRIC_SPANS):
            m["evaluation.metrics.s"] += w * s.seconds
    calls = m["extract.substitute_clause.calls"]
    m["extract.substitute_clause.useful_ratio"] = useful / calls if calls else 0.0
    m["rules.kept_ratio"] = kept_out / kept_in if kept_in else 0.0
    for key, value in eclaire_layers(spans, weight).items():
        m[key] += value
    return m


def eclaire_layers(spans: list[Span], weight: list[float]) -> dict[str, float]:
    """Per network layer: intermediate-tree time and rule count, and the
    substitution time and rule count it contributes.

    Inside one ``eclaire`` call the intermediate trees run first, one per
    hidden layer in order, then the substitutions in the same layer order;
    each substitution is attributed to a layer by that serial call order.
    """
    m = {key: 0.0 for key in PER_LAYER_METRICS if key.startswith("extract.layer")}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0 and spans[s.parent].name == "extract.eclaire":
            children.setdefault(s.parent, []).append(i)
    for parent, kids in children.items():
        w = weight[parent]
        trees = [spans[i] for i in kids if spans[i].name == "tree.induce"]
        kept = [spans[i].size for i in kids if spans[i].name == "rules.drop_low_confidence"]
        subs = [spans[i] for i in kids if spans[i].name == "extract.substitute_clause"]
        for layer, tree in zip(HIDDEN_LAYERS, trees):
            m[f"extract.layer{layer}.intermediate_tree_s"] += w * tree.seconds
        pos = 0
        for layer, n_rules in zip(HIDDEN_LAYERS, kept):
            m[f"extract.layer{layer}.intermediate_rules"] += w * n_rules
            for sub in subs[pos : pos + n_rules]:
                m[f"extract.layer{layer}.substitution_s"] += w * sub.seconds
                m[f"extract.layer{layer}.rules"] += w * (sub.size or 0)
            pos += n_rules
    return m

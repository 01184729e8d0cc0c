"""Top-down binary decision-tree induction over continuous features.

Splits are chosen by gain ratio on class-weighted entropy, with candidate
thresholds placed at midpoints between adjacent distinct values whose
sample groups are not pure in the same class (at the lower value when the
midpoint rounds up to the upper one). Two standard guards keep the
inducer from chasing sampling noise:

* the information gain of each candidate is corrected by log2(T)/N for the
  T candidate thresholds the feature offers at that node, and only splits
  with positive corrected gain are eligible;
* an optional winnowing pre-pass (on by default) drops features whose best
  standalone root gain is indistinguishable from the zero-gain noise floor.

The tree is fully deterministic: gain-ratio ties go to the lowest feature
index, then the lowest threshold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import OP_GT, OP_LE, Rule, RuleSet, Term, normalize_premise

GAIN_EPS = 1e-12

# Winnow noise floor: a root split must beat both a small fraction of the
# label entropy and the expected best chance gain over T candidate cuts,
# capped at half the root entropy so perfect splits on tiny samples survive.
WINNOW_ENTROPY_FRACTION = 0.05
WINNOW_NOISE_MULTIPLIER = 3.0
WINNOW_ENTROPY_CAP = 0.5


class TreeError(ValueError):
    """Raised for invalid induction inputs."""


@dataclass
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    klass: int = -1
    histogram: np.ndarray | None = None
    confidence: float = 0.0
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class DecisionTree:
    nodes: list[TreeNode]
    num_classes: int
    root: int = 0

    def leaf_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    def leaf_count(self) -> int:
        return len(self.leaf_ids())

    def depth(self) -> int:
        depths = {self.root: 0}
        worst = 0
        for i, node in enumerate(self.nodes):
            d = depths[i]
            worst = max(worst, d)
            if not node.is_leaf:
                depths[node.left] = d + 1
                depths[node.right] = d + 1
        return worst

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0], dtype=int)
        for r in range(X.shape[0]):
            i = self.root
            while not self.nodes[i].is_leaf:
                node = self.nodes[i]
                i = node.left if X[r, node.feature] <= node.threshold else node.right
            out[r] = self.nodes[i].klass
        return out


def _xlogx(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a, dtype=float)
    positive = a > 0
    out[positive] = a[positive] * np.log2(a[positive])
    return out


def _entropy(wcounts: np.ndarray) -> float:
    total = wcounts.sum()
    if total <= 0:
        return 0.0
    return float(np.log2(total) - _xlogx(wcounts).sum() / total)


def leaf_confidence(correct: int, total: int) -> float:
    """Laplace-corrected purity of a leaf: (correct + 1) / (total + 2)."""
    return (correct + 1) / (total + 2)


@dataclass(frozen=True)
class _FeatureSplit:
    ratio: float
    threshold: float
    adjusted_gain: float
    best_raw_gain: float
    n_candidates: int


def _best_for_feature(xcol, y, w, num_classes, parent_entropy) -> _FeatureSplit | None:
    """Best candidate split of one feature at one node, or None."""
    order = np.argsort(xcol, kind="stable")
    xs = xcol[order]
    ys = y[order]
    ws = w[order]
    n = len(xs)

    value_cuts = np.flatnonzero(xs[:-1] != xs[1:])
    if value_cuts.size == 0:
        return None
    starts = np.concatenate(([0], value_cuts + 1))
    gmin = np.minimum.reduceat(ys, starts)
    gmax = np.maximum.reduceat(ys, starts)
    pure = gmin == gmax
    # skip cuts between two groups that are pure in the same class
    skippable = pure[:-1] & pure[1:] & (gmin[:-1] == gmin[1:])
    cand = np.flatnonzero(~skippable)
    if cand.size == 0:
        return None
    ends = np.append(value_cuts, n - 1)
    cut_pos = ends[cand]

    cum = np.empty((num_classes, n))
    for c in range(num_classes):
        cum[c] = np.cumsum(ws * (ys == c))
    left = cum[:, cut_pos]
    totals = cum[:, -1]
    right = totals[:, None] - left

    wl = left.sum(axis=0)
    wr = right.sum(axis=0)
    total = totals.sum()
    h_left = np.where(wl > 0, np.log2(np.maximum(wl, 1e-300)) - _xlogx(left).sum(axis=0) / np.maximum(wl, 1e-300), 0.0)
    h_right = np.where(wr > 0, np.log2(np.maximum(wr, 1e-300)) - _xlogx(right).sum(axis=0) / np.maximum(wr, 1e-300), 0.0)
    gains = parent_entropy - (wl * h_left + wr * h_right) / total

    n_candidates = cand.size
    adjusted = gains - np.log2(n_candidates) / n
    split_info = np.log2(total) - (_xlogx(wl) + _xlogx(wr)) / total
    valid = (adjusted > GAIN_EPS) & (split_info > GAIN_EPS) & (wl > 0) & (wr > 0)

    best_raw_gain = float(gains.max())
    if not valid.any():
        return _FeatureSplit(-np.inf, np.nan, -np.inf, best_raw_gain, n_candidates)
    ratios = np.where(valid, adjusted / np.maximum(split_info, 1e-300), -np.inf)
    i = int(np.argmax(ratios))  # first max: lowest threshold wins ties
    p = cut_pos[i]
    with np.errstate(over="ignore"):
        threshold = (xs[p] + xs[p + 1]) / 2.0
    if threshold >= xs[p + 1]:
        # the midpoint of two adjacent floats rounded up to the larger one,
        # or overflowed to inf; fall back to the lower observed value so the
        # split still separates
        threshold = xs[p]
    return _FeatureSplit(float(ratios[i]), float(threshold), float(adjusted[i]), best_raw_gain, n_candidates)


def winnow_features(X: np.ndarray, y: np.ndarray, w: np.ndarray, num_classes: int) -> np.ndarray:
    """Feature pre-selection: keep features whose best standalone root gain
    clears the zero-gain noise floor. Returns the kept feature indices."""
    parent_entropy = _entropy(np.bincount(y, weights=w, minlength=num_classes))
    if parent_entropy <= 0:
        return np.arange(X.shape[1])
    n = X.shape[0]
    kept = []
    for f in range(X.shape[1]):
        split = _best_for_feature(X[:, f], y, w, num_classes, parent_entropy)
        if split is None:
            continue
        floor = min(
            max(
                WINNOW_ENTROPY_FRACTION * parent_entropy,
                WINNOW_NOISE_MULTIPLIER * np.log2(split.n_candidates + 1) / n,
            ),
            WINNOW_ENTROPY_CAP * parent_entropy,
        )
        if split.best_raw_gain > floor:
            kept.append(f)
    return np.array(kept, dtype=int)


def induce(
    X: np.ndarray,
    y: np.ndarray,
    min_samples: int,
    class_weight: np.ndarray | None = None,
    winnow: bool = True,
    num_classes: int | None = None,
) -> DecisionTree:
    """Grow a binary tree top-down until nodes are pure, smaller than
    ``min_samples``, or offer no split with positive corrected gain.

    ``class_weight`` multiplies per-sample counts inside entropy and
    majority computations; leaf confidences always use raw counts.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int)
    if X.shape[0] < 1:
        raise TreeError("empty input")
    if not np.isfinite(X).all():
        raise TreeError("non-finite feature values")
    if min_samples < 2:
        raise TreeError(f"min_samples must be >= 2, got {min_samples}")
    if y.shape != (X.shape[0],):
        raise TreeError("label vector length mismatch")
    if num_classes is None:
        num_classes = len(class_weight) if class_weight is not None else int(y.max()) + 1
    num_classes = max(num_classes, 2)
    if y.min() < 0 or y.max() >= num_classes:
        raise TreeError("label outside [0, num_classes)")
    if class_weight is None:
        w = np.ones(X.shape[0])
    else:
        w = np.asarray(class_weight, dtype=float)[y]

    if winnow:
        allowed = winnow_features(X, y, w, num_classes)
    else:
        allowed = np.arange(X.shape[1])

    nodes: list[TreeNode] = []
    # stack entries: (sample indices, parent node id, is_left_child)
    stack: list[tuple[np.ndarray, int, bool]] = [(np.arange(X.shape[0]), -1, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        nid = len(nodes)
        nodes.append(TreeNode())
        if parent >= 0:
            if is_left:
                nodes[parent].left = nid
            else:
                nodes[parent].right = nid

        ys = y[idx]
        ws = w[idx]
        hist = np.bincount(ys, minlength=num_classes).astype(float)
        whist = np.bincount(ys, weights=ws, minlength=num_classes)
        parent_entropy = _entropy(whist)

        split = None
        if len(idx) >= min_samples and parent_entropy > 0:
            best_ratio = -np.inf
            for f in allowed:
                cand = _best_for_feature(X[idx, f], ys, ws, num_classes, parent_entropy)
                if cand is not None and cand.ratio > best_ratio:
                    best_ratio = cand.ratio
                    split = (int(f), cand.threshold)

        node = nodes[nid]
        node.n_samples = len(idx)
        node.histogram = hist
        if split is None:
            node.klass = int(np.argmax(whist))
            node.confidence = leaf_confidence(int(hist[node.klass]), len(idx))
        else:
            node.feature, node.threshold = split
            mask = X[idx, node.feature] <= node.threshold
            assert mask.any() and not mask.all(), "split left a child empty"
            # push right first so the left subtree is numbered first
            stack.append((idx[~mask], nid, False))
            stack.append((idx[mask], nid, True))
    return DecisionTree(nodes, num_classes)


def to_ruleset(
    tree: DecisionTree,
    default_label: int,
    feature_names: tuple[str, ...] | None = None,
) -> RuleSet:
    """One rule per leaf, premises read off the root-to-leaf path.

    Each premise is the path's conditions in normal form (see
    :func:`normalize_premise`): one lower and/or upper bound per feature.
    Every split leaves both children non-empty, so no path is vacuous.
    Rules appear in left-to-right leaf order.
    """
    rules: list[Rule] = []
    stack: list[tuple[int, tuple[Term, ...]]] = [(tree.root, ())]
    while stack:
        nid, path = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            rules.append(Rule(normalize_premise(path), node.klass, node.confidence))
            continue
        f, t = node.feature, node.threshold
        # right pushed first so leaves emerge in left-to-right order
        stack.append((node.right, path + (Term(f, OP_GT, t),)))
        stack.append((node.left, path + (Term(f, OP_LE, t),)))
    return RuleSet(tuple(rules), default_label, tree.num_classes, feature_names)

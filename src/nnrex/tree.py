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

Split search scans all candidate features of a node at once, block by
block, with numpy, and evaluates gains only at candidate cuts, with the
same float operations in the same order as a per-feature search. Rows
passed as :class:`SortedColumns` are presorted (SLIQ-style, Mehta et al.
1996): every column's stable row order is computed once and shared by all
trees induced from those rows, as clause-wise substitution does, and a
node's order is that order filtered to its rows. A plain array is sorted
per node and block instead, so a tree over a wide hidden layer never holds
a sort of all its columns. A block holds at most ``BLOCK_COLUMNS`` columns
of the input's full height, so the scan's memory grows with the input but
stays a few columns' worth.
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
    out = np.zeros(a.shape)
    positive = a > 0
    np.log2(a, out=out, where=positive)
    np.multiply(out, a, out=out, where=positive)
    return out


def _entropy(wcounts: np.ndarray) -> float:
    total = wcounts.sum()
    if total <= 0:
        return 0.0
    return float(np.log2(total) - _xlogx(wcounts).sum() / total)


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0, the class axis, each adding its classes in the order
    numpy's 1-D sum of one column does (one by one below 8 values, pairwise
    from 8 on), so every sum matches that column's sum bit for bit."""
    if len(a) < 8:
        return a.sum(axis=0)
    return np.ascontiguousarray(np.moveaxis(a, 0, -1)).sum(axis=-1)


def _weight_and_entropy(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total weight and entropy of class weights laid out along axis 0.
    Works in place, one class at a time, to hold few temporaries at once:
    ``counts`` is left holding the x log2 x terms."""
    total = _class_sum(counts)
    for c in range(len(counts)):
        counts[c] = _xlogx(counts[c])
    spread = _class_sum(counts)
    safe = np.maximum(total, 1e-300)
    spread /= safe
    entropy = np.log2(safe, out=safe)
    entropy -= spread
    entropy[~(total > 0)] = 0.0
    return total, entropy


def leaf_confidence(correct: int, total: int) -> float:
    """Laplace-corrected purity of a leaf: (correct + 1) / (total + 2)."""
    return (correct + 1) / (total + 2)


# Cells (rows x columns) one block of the split scan holds, counted in
# columns of the full input's height: a larger block lifts the extraction's
# peak memory above its forward pass, a smaller one adds numpy call overhead.
BLOCK_COLUMNS = 3


@dataclass(frozen=True)
class SortedColumns:
    """Induction rows with each column's stable ascending row order, sorted
    once and shared by every tree induced from the same rows."""

    X: np.ndarray
    order: np.ndarray  # order[f] is the stable argsort of X[:, f]

    @property
    def shape(self) -> tuple[int, ...]:
        """The rows' shape, so callers can check sizes on either input."""
        return self.X.shape


def _finite_rows(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise TreeError("empty input")
    if not np.isfinite(X).all():
        raise TreeError("non-finite feature values")
    return X


def sort_columns(X) -> SortedColumns:
    """Sort every column of X once; an already sorted input is returned as is."""
    if isinstance(X, SortedColumns):
        return X
    X = _finite_rows(X)
    return SortedColumns(X, np.argsort(X.T, axis=1, kind="stable"))


@dataclass(frozen=True)
class _Sample:
    """What every node scan of one tree reads."""

    X: np.ndarray
    order: np.ndarray | None  # column orders when the rows were presorted
    y: np.ndarray
    w: np.ndarray
    num_classes: int

    def blocks(self, n: int, features: np.ndarray) -> list[np.ndarray]:
        """``features`` in blocks of at most BLOCK_COLUMNS x len(X) cells at
        a node of ``n`` rows."""
        width = max(1, BLOCK_COLUMNS * len(self.X) // n)
        return [features[i:i + width] for i in range(0, len(features), width)]

    def sorted_rows(self, idx: np.ndarray, block: np.ndarray) -> np.ndarray:
        """The node's rows (``idx``, ascending) in each block column's stable
        value order, one column per row of the result."""
        if self.order is None:
            return idx[np.argsort(self.X[idx[:, None], block].T, axis=1, kind="stable")]
        if len(idx) == len(self.X):
            return self.order[block]
        member = np.zeros(len(self.X), dtype=bool)
        member[idx] = True
        rows = np.empty((len(block), len(idx)), dtype=np.intp)
        for j, f in enumerate(block):
            o = self.order[f]
            rows[j] = o[member[o]]
        return rows


@dataclass(frozen=True)
class _CutGains:
    """The candidate cuts of a block of features at one node, in (column,
    position) order, with their information gains."""

    xs: np.ndarray  # (columns, rows) node values, each row sorted
    cuts: np.ndarray  # flat position in xs of each candidate's last left row
    col: np.ndarray  # block column of each candidate
    n_candidates: np.ndarray  # per block column
    gains: np.ndarray
    sizes: np.ndarray  # (2, candidates) class-weighted size of the left and right sides
    total: np.ndarray


def _cut_gains(s: _Sample, idx: np.ndarray, block: np.ndarray, parent_entropy: float) -> _CutGains:
    """Information gain of every candidate cut of the block's features at
    the node of rows ``idx``.

    Candidates sit between adjacent distinct values whose sample groups are
    not pure in the same class; gains are evaluated only there. Each
    block-sized temporary is deleted once used, which the memory bound of
    ``BLOCK_COLUMNS`` relies on.
    """
    rows = s.sorted_rows(idx, block)
    xs = s.X[rows, block[:, None]]
    ys = s.y[rows]
    ws = s.w[rows]
    del rows
    b, n = xs.shape

    # flat position of the first row of each group of equal values
    new_value = np.ones((b, n), dtype=bool)
    np.not_equal(xs[:, 1:], xs[:, :-1], out=new_value[:, 1:])
    starts = np.flatnonzero(new_value)
    # label changes counted along the rows: two adjacent groups are pure in
    # the same class exactly when no label changes from the first row of
    # the one to the last row of the other
    np.not_equal(ys[:, 1:], ys[:, :-1], out=new_value[:, 1:])
    new_value[:, 0] = False
    changes = np.cumsum(new_value.ravel(), dtype=np.int32)
    del new_value
    ends = np.append(starts[1:], b * n) - 1
    keep = changes[ends[1:]] != changes[starts[:-1]]
    del changes, ends
    if b > 1:
        # a cut ends every group but a row's last
        keep[np.searchsorted(starts, np.arange(1, b) * n) - 1] = False
    cuts = starts[1:][keep] - 1
    del starts, keep
    col = cuts // n
    n_candidates = np.bincount(col, minlength=b)

    # per-class cumulative weight along each column: sides[c, 0] holds the
    # left side of each candidate, sides[c, 1] the right
    sides = np.empty((s.num_classes, 2, cuts.size))
    totals = np.empty((s.num_classes, b))
    for c in range(s.num_classes):
        cum = ws * (ys == c)
        np.cumsum(cum, axis=1, out=cum)
        sides[c, 0] = cum.ravel()[cuts]
        totals[c] = cum[:, -1]
        del cum
    del ys, ws
    np.subtract(totals[:, col], sides[:, 0], out=sides[:, 1])
    total = _class_sum(totals)[col]
    sizes, (h_left, h_right) = _weight_and_entropy(sides)
    del sides
    gains = parent_entropy - (sizes[0] * h_left + sizes[1] * h_right) / total
    return _CutGains(xs, cuts, col, n_candidates, gains, sizes, total)


def _best_split(s: _Sample, idx: np.ndarray, block: np.ndarray, parent_entropy: float):
    """The block's best split at one node as (gain ratio, block column,
    threshold), or None. Only cuts with positive gain corrected by
    log2(T)/N for a feature's T candidates are eligible; the first maximum
    in (column, position) order wins, so ties go to the lowest feature and
    then the lowest threshold."""
    g = _cut_gains(s, idx, block, parent_entropy)
    n = g.xs.shape[1]
    adjusted = g.gains - np.log2(g.n_candidates[g.col]) / n
    xlogx = _xlogx(g.sizes)
    split_info = np.log2(g.total) - (xlogx[0] + xlogx[1]) / g.total
    valid = (adjusted > GAIN_EPS) & (split_info > GAIN_EPS) & (g.sizes > 0).all(axis=0)
    if not valid.any():
        return None
    ratios = np.where(valid, adjusted / np.maximum(split_info, 1e-300), -np.inf)
    i = int(np.argmax(ratios))
    j, p = divmod(int(g.cuts[i]), n)
    lo, hi = g.xs[j, p], g.xs[j, p + 1]
    with np.errstate(over="ignore"):
        threshold = (lo + hi) / 2.0
    if not lo <= threshold < hi:
        # the midpoint of two adjacent floats rounded up to the larger one,
        # or overflowed to +-inf; fall back to the lower observed value so
        # the split still separates
        threshold = lo
    return float(ratios[i]), j, float(threshold)


def _sample(X, y, w, num_classes) -> _Sample:
    # the narrowest label type keeps the per-block label copies small
    y = np.asarray(y).astype(np.min_scalar_type(num_classes - 1))
    if isinstance(X, SortedColumns):
        return _Sample(X.X, X.order, y, w, num_classes)
    return _Sample(np.atleast_2d(np.asarray(X, dtype=float)), None, y, w, num_classes)


def winnow_features(X, y: np.ndarray, w: np.ndarray, num_classes: int) -> np.ndarray:
    """Feature pre-selection: keep features whose best standalone root gain
    clears the zero-gain noise floor. Returns the kept feature indices.
    ``X`` is an array or its :class:`SortedColumns`."""
    s = _sample(X, y, w, num_classes)
    parent_entropy = _entropy(np.bincount(s.y, weights=s.w, minlength=num_classes))
    features = np.arange(s.X.shape[1])
    if parent_entropy <= 0:
        return features
    n = len(s.X)
    kept = []
    for block in s.blocks(n, features):
        g = _cut_gains(s, np.arange(n), block, parent_entropy)
        has = g.n_candidates > 0
        best_raw_gain = np.full(len(block), -np.inf)
        best_raw_gain[has] = np.maximum.reduceat(g.gains, (np.cumsum(g.n_candidates) - g.n_candidates)[has])
        floor = np.minimum(
            np.maximum(
                WINNOW_ENTROPY_FRACTION * parent_entropy,
                WINNOW_NOISE_MULTIPLIER * np.log2(g.n_candidates + 1) / n,
            ),
            WINNOW_ENTROPY_CAP * parent_entropy,
        )
        kept.extend(block[has & (best_raw_gain > floor)])
    return np.array(kept, dtype=int)


def induce(
    X,
    y: np.ndarray,
    min_samples: int,
    class_weight: np.ndarray | None = None,
    winnow: bool = True,
    num_classes: int | None = None,
) -> DecisionTree:
    """Grow a binary tree top-down until nodes are pure, smaller than
    ``min_samples``, or offer no split with positive corrected gain.

    ``X`` is an array or the :class:`SortedColumns` of one, which trees
    induced from the same rows share. ``class_weight`` multiplies
    per-sample counts inside entropy and majority computations; leaf
    confidences always use raw counts.
    """
    cols = X if isinstance(X, SortedColumns) else None
    X = _finite_rows(X if cols is None else cols.X)
    y = np.asarray(y, dtype=int)
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
        allowed = winnow_features(X if cols is None else cols, y, w, num_classes)
    else:
        allowed = np.arange(X.shape[1])
    sample = _sample(X if cols is None else cols, y, w, num_classes)

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
            for block in sample.blocks(len(idx), allowed):
                best = _best_split(sample, idx, block, parent_entropy)
                if best is not None and best[0] > best_ratio:
                    best_ratio = best[0]
                    split = (int(block[best[1]]), best[2])

        node = nodes[nid]
        node.n_samples = len(idx)
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

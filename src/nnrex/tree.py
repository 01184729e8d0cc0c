"""Top-down binary decision-tree induction over continuous features.

Splits are chosen by gain ratio on class-weighted entropy, with candidate
thresholds placed at midpoints between adjacent distinct values whose
sample groups are not pure in the same class (at the lower value when the
midpoint rounds up to the upper one). Two standard guards keep the
inducer from chasing sampling noise:

* the information gain of each candidate is corrected by log2(T)/N for the
  T candidate thresholds the feature offers at that node, and only splits
  with positive corrected gain are eligible;
* optional winnowing (on by default) drops features whose best standalone
  root gain is indistinguishable from the zero-gain noise floor.

The tree is fully deterministic: gain-ratio ties go to the lowest feature
index, then the lowest threshold.

Split search scores many segments at once with numpy, a segment being one
node's rows sorted on one feature, and evaluates gains only at candidate
cuts, with the same float operations in the same order as a per-feature
search. Class-weighted sizes come from exact integer class counts: k rows
of a class of weight w weigh w added k times in turn, which is what a
running sum over the rows adds up to. A pass holds at most
``BLOCK_COLUMNS`` columns of the input's full height, so the scan's memory
grows with the input but stays a few columns' worth.

A tree over a plain array grows one node at a time and sorts each column
once (SPRINT's attribute lists, Shafer et al. 1996): the root sorts its
rows per block of features and keeps each kept feature's order, in the
narrowest unsigned type that indexes the rows, and a split hands each child
its share of its parent's orders by a stable partition. Inner nodes gather
their values through those orders and never sort. A parent's orders are
freed once it has split, and the nodes waiting to grow hold disjoint rows,
so a tree holds at most twice its root's orders.

Rows given as :class:`SortedColumns` are presorted once (SLIQ, Mehta et
al. 1996) and grow as a forest (:func:`grow_forest`): all trees induced
from the same rows, as a layer's clause-wise substitution trees are, grow
together level by level, and a level is one segmented scan over the active
nodes of every tree, in as few passes as the block budget allows. The
roots of two-class trees are scanned sparsely (SPRINT-style, Shafer et al.
1996) from their minority class's value groups, every root in the same
passes. Nodes are then numbered in preorder, so each tree of a forest
equals the tree grown from the plain array, node for node.

Every node is scanned once, and a node that holds one class becomes a leaf
without a scan. At the root, the same gains give both the winnowing
decision and the split, and the inner nodes scan only the features the
root kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import OP_GT, OP_LE, Rule, RuleSet, Term, normalize_premise

GAIN_EPS = 1e-12

# Winnow noise floor: a root split must beat both a small fraction of the
# label entropy and the expected best chance gain over T candidate cuts,
# capped at half the root entropy so perfect splits on tiny samples survive.
# Both entropy terms use the root entropy bounded by 1 bit, the most a binary
# split can gain, so the floor does not grow with the class count.
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


def _weigh(counts: np.ndarray, tree: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Class-weighted sizes of the class counts laid out along axis 0, the
    counts of column j being rows of tree ``tree[j]``, whose class weights
    are ``weights[tree[j]]`` (all 1 when ``weights`` is None). k rows of
    weight w weigh w added k times in turn, which is what a cumulative sum
    or a weighted bincount over the rows adds up, bit for bit."""
    if weights is None:
        return counts.astype(float)
    out = np.empty(counts.shape)
    for t in np.unique(tree):
        at = tree == t
        for c, w in enumerate(weights[t]):
            k = counts[c, at]
            out[c, at] = np.cumsum(np.append(0.0, np.full(k.max(), w)))[k]
    return out


def leaf_confidence(correct: int, total: int) -> float:
    """Laplace-corrected purity of a leaf: (correct + 1) / (total + 2)."""
    return (correct + 1) / (total + 2)


# Cells (rows x columns) one pass of the split scan holds, counted in
# columns of the full input's height: a larger pass lifts the extraction's
# peak memory above its forward pass, a smaller one adds numpy call overhead.
BLOCK_COLUMNS = 3


@dataclass(frozen=True)
class SortedColumns:
    """Induction rows with each column's stable ascending row order, sorted
    once and shared by every tree induced from the same rows, and each row's
    value group: the span of that order holding the row's value."""

    X: np.ndarray
    order: np.ndarray  # int32 (columns, rows): order[f] is the stable argsort of X[:, f]
    start: np.ndarray  # int32 (columns, rows): where row r's group starts in order[f]
    end: np.ndarray  # int32 (columns, rows): one past where it ends

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
    n, m = X.shape
    order, start, end = (np.empty((m, n), dtype=np.int32) for _ in range(3))
    for f in range(m):
        # column by column, so the int64 argsort is one column's size
        o = np.argsort(X[:, f], kind="stable")
        new_value = np.append(True, X[o[1:], f] != X[o[:-1], f])
        bounds = np.append(np.flatnonzero(new_value), n)
        group = np.cumsum(new_value) - 1
        order[f] = o
        start[f, o] = bounds[group]
        end[f, o] = bounds[group + 1]
    return SortedColumns(X, order, start, end)


@dataclass(frozen=True)
class _CutGains:
    """The candidate cuts of one pass's segments, each a node's rows sorted
    on one feature, in (segment, position) order, with their information
    gains."""

    n: np.ndarray  # rows at each segment's node
    entropy: np.ndarray  # class-weighted entropy of each segment's node
    col: np.ndarray  # segment of each candidate
    pos: np.ndarray  # position of each candidate's last left row: see _dense_gains and _sparse_gains
    n_candidates: np.ndarray  # per segment
    gains: np.ndarray
    sizes: np.ndarray  # (2, candidates) class-weighted size of the left and right sides
    total: np.ndarray


def _gains(sides: np.ndarray, totals: np.ndarray, col: np.ndarray, tree: np.ndarray,
           weights: np.ndarray | None, entropy: np.ndarray):
    """Information gain, side sizes and node size of each candidate cut, from
    the class counts left of each cut in sides[:, 0] of ``sides`` (classes,
    2, candidates), which this overwrites, and ``totals`` (classes,
    segments) of each segment; candidate j cuts segment col[j], of tree
    tree[col[j]]."""
    if weights is not None:
        sides[:, 0] = _weigh(sides[:, 0].astype(np.int64), tree[col], weights)
    totals = _weigh(totals, tree, weights)
    np.subtract(totals[:, col], sides[:, 0], out=sides[:, 1])
    total = _class_sum(totals)[col]
    sizes, (h_left, h_right) = _weight_and_entropy(sides)
    return entropy[col] - (sizes[0] * h_left + sizes[1] * h_right) / total, sizes, total


def _dense_gains(xs: np.ndarray, ys: np.ndarray, seg_start: np.ndarray, n: np.ndarray, entropy: np.ndarray,
                 tree: np.ndarray, weights: np.ndarray | None, num_classes: int) -> _CutGains:
    """Information gain of every candidate cut of segments laid end to end:
    segment s holds the n[s] rows of one node of tree tree[s], sorted on one
    feature, from position seg_start[s] of their values ``xs`` and labels
    ``ys``. A candidate's ``pos`` is its last left row's position in ``xs``.

    Candidates sit between adjacent distinct values whose sample groups are
    not pure in the same class; gains are evaluated only there. Each
    pass-sized temporary is deleted once used, which the memory bound of
    ``BLOCK_COLUMNS`` relies on.
    """
    size = len(xs)
    # flat position of the first row of each group of equal values
    new_value = np.empty(size, dtype=bool)
    new_value[0] = True
    np.not_equal(xs[1:], xs[:-1], out=new_value[1:])
    new_value[seg_start] = True
    starts = np.flatnonzero(new_value)
    # label changes counted along the rows: two adjacent groups are pure in
    # the same class exactly when no label changes from the first row of
    # the one to the last row of the other
    np.not_equal(ys[1:], ys[:-1], out=new_value[1:])
    changes = np.cumsum(new_value, dtype=np.int32)
    del new_value
    ends = np.append(starts[1:], size) - 1
    keep = changes[ends[1:]] != changes[starts[:-1]]
    del changes, ends
    # a cut ends every group but a segment's last
    keep[np.searchsorted(starts, seg_start[1:]) - 1] = False
    cuts = starts[1:][keep] - 1
    del starts, keep
    col = np.searchsorted(seg_start, cuts, side="right") - 1

    # class counts left of each cut and in each segment, from running
    # counts; the last class has the rows the others leave
    sides = np.empty((num_classes, 2, cuts.size))
    totals = np.empty((num_classes, len(seg_start)), dtype=np.int64)
    running = np.zeros(size + 1, dtype=np.int32)
    past, first, seg_end = cuts + 1, seg_start[col], seg_start + n
    for c in range(num_classes - 1):
        np.cumsum(ys == c, dtype=np.int32, out=running[1:])
        np.subtract(running[past], running[first], out=sides[c, 0])
        np.subtract(running[seg_end], running[seg_start], out=totals[c])
    del running
    past -= first
    np.subtract(past, sides[:-1, 0].sum(axis=0), out=sides[-1, 0])
    np.subtract(n, totals[:-1].sum(axis=0), out=totals[-1])
    del past, first
    gains = _gains(sides, totals, col, tree, weights, entropy)
    return _CutGains(n, entropy, col, cuts, np.bincount(col, minlength=len(seg_start)), *gains)


def _sparse_gains(cols: SortedColumns, rows: np.ndarray, seg_start: np.ndarray, features: np.ndarray,
                  minority: np.ndarray, counts: np.ndarray, entropy: np.ndarray, tree: np.ndarray,
                  weights: np.ndarray | None) -> _CutGains:
    """:func:`_dense_gains` at the roots of two-class trees over presorted
    rows, from value groups: segment s holds the rows of class minority[s]
    of the root of tree tree[s], from position seg_start[s] of ``rows``, for
    feature features[s], and counts[:, s] counts that root's classes. A
    candidate's ``pos`` is its last left row's position in its feature's
    sorted column.

    Two adjacent groups without such a row are pure in the same class, so
    every candidate is a bound of a group holding one. Counts are exact
    integers, so the gains are the dense scan's floats."""
    n, size = len(cols.X), len(rows)
    segment = np.repeat(np.arange(len(seg_start)), np.diff(np.append(seg_start, size)))
    # the groups holding one of the rows, ordered per segment (disjoint
    # spans in start order are in end order too), at the first of their rows
    f, base = features[segment], segment * (n + 1)
    starts = np.sort(cols.start[f, rows] + base) - base
    ends = np.sort(cols.end[f, rows] + base) - base
    new_group = np.append(True, starts[1:] != starts[:-1])
    new_group[seg_start] = True
    at = np.flatnonzero(new_group)
    col = segment[at]
    lo, hi = starts[at], ends[at]
    del f, base, starts, ends, new_group, segment
    before = at - seg_start[col]  # the class's rows in earlier groups of the segment
    inside = np.diff(np.append(at, size))
    full = inside == hi - lo
    # a bound shared by two such groups is one candidate, or none when both
    # groups hold only the class: they are then pure in the same class
    shared = (col[1:] == col[:-1]) & (hi[:-1] == lo[1:])
    keep = np.stack([lo > 0, hi < n], axis=1)
    keep[1:, 0] &= ~shared
    keep[:-1, 1] &= ~(shared & full[:-1] & full[1:])
    keep = keep.ravel()
    t = np.stack([lo, hi], axis=1).ravel()[keep]  # rows left of each cut
    mine = np.stack([before, before + inside], axis=1).ravel()[keep]  # of them, the class's
    col = np.repeat(col, 2)[keep]
    del lo, hi, before, inside, full, shared, keep

    sides = np.empty((2, 2, t.size))
    sides[1, 0] = np.where(minority[col] == 1, mine, t - mine)
    np.subtract(t, sides[1, 0], out=sides[0, 0])
    del mine
    t -= 1  # the position of each cut's last left row
    gains = _gains(sides, counts, col, tree, weights, entropy)
    return _CutGains(np.full(len(seg_start), n), entropy, col, t, np.bincount(col, minlength=len(seg_start)), *gains)


def _ratios(g: _CutGains) -> np.ndarray:
    """Gain ratio of every candidate, -inf where it is not eligible: only
    cuts with positive gain corrected by log2(T)/N for a feature's T
    candidates are."""
    adjusted = g.gains - np.log2(g.n_candidates[g.col]) / g.n[g.col]
    xlogx = _xlogx(g.sizes)
    split_info = np.log2(g.total) - (xlogx[0] + xlogx[1]) / g.total
    valid = (adjusted > GAIN_EPS) & (split_info > GAIN_EPS) & (g.sizes > 0).all(axis=0)
    return np.where(valid, adjusted / np.maximum(split_info, 1e-300), -np.inf)


def _thresholds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # the midpoint of two adjacent floats rounded up to the larger one, or
    # overflowed to +-inf: the lower observed value still separates
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def _winnowed(g: _CutGains) -> np.ndarray:
    """Per segment, whether its best raw gain clears the noise floor."""
    has = g.n_candidates > 0
    best_raw_gain = np.full(len(has), -np.inf)
    best_raw_gain[has] = np.maximum.reduceat(g.gains, (np.cumsum(g.n_candidates) - g.n_candidates)[has])
    entropy = np.minimum(g.entropy, 1.0)
    floor = np.minimum(
        np.maximum(
            WINNOW_ENTROPY_FRACTION * entropy,
            WINNOW_NOISE_MULTIPLIER * np.log2(g.n_candidates + 1) / g.n,
        ),
        WINNOW_ENTROPY_CAP * entropy,
    )
    return has & (best_raw_gain > floor)


def _passes(cells: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive runs of the segments of ``cells`` cells each, as (first,
    past last), holding at most ``budget`` cells but at least one segment."""
    runs, first, held = [], 0, 0
    for i, c in enumerate(cells.tolist()):
        if held + c > budget and i > first:
            runs.append((first, i))
            first, held = i, 0
        held += c
    return runs + [(first, len(cells))]


def _search(seg_node: np.ndarray, seg_feature: np.ndarray, cells: np.ndarray, budget: int,
            scan, winnow: bool, num_nodes: int):
    """The best split of each of ``num_nodes`` nodes over its segments,
    scanned in passes of at most ``budget`` cells: segment s is node
    seg_node[s] (non-decreasing) on feature seg_feature[s], of cells[s]
    rows. ``scan(first, last)`` gives the pass's :class:`_CutGains` and a
    function from candidate indices to the values either side of each cut.

    Returns each node's split feature (-1 for none) and threshold, and per
    segment whether it clears the winnow noise floor (all of them when
    ``winnow`` is false). A split is the first maximum gain ratio among the
    cleared segments, in (segment, position) order, so ties go to the
    lowest feature, then the lowest threshold."""
    best = np.full(num_nodes, -np.inf)
    feature, threshold = np.full(num_nodes, -1), np.zeros(num_nodes)
    kept = np.ones(len(cells), dtype=bool)
    for first, last in _passes(cells, budget):
        g, values = scan(first, last)
        if winnow:
            kept[first:last] = _winnowed(g)
        ratios = _ratios(g)
        ratios[~kept[first:last][g.col]] = -np.inf
        if ratios.size:
            node = seg_node[first:last][g.col]
            head = np.flatnonzero(np.append(True, node[1:] != node[:-1]))
            top = np.maximum.reduceat(ratios, head)
            hit = np.flatnonzero(ratios == np.repeat(top, np.diff(np.append(head, ratios.size))))
            hit = hit[np.append(True, node[hit[1:]] != node[hit[:-1]])]  # the first per node
            better = top > best[node[head]]
            i, k = hit[better], node[head][better]
            best[k] = top[better]
            feature[k] = seg_feature[first:last][g.col[i]]
            threshold[k] = _thresholds(*values(i))
        del g, values, ratios  # before the next pass's scan
    return feature, threshold, kept


@dataclass(frozen=True)
class _Sample:
    """What every node scan of one tree over a plain array reads."""

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None  # (1, classes): the tree's class weights; None for unit weights
    num_classes: int


def _index_type(n: int) -> np.dtype:
    """The narrowest unsigned type that indexes ``n`` rows."""
    return np.min_scalar_type(max(n - 1, 0))


def _cut_gains(s: _Sample, rows: np.ndarray, block: np.ndarray, parent_entropy: float) -> tuple[_CutGains, np.ndarray]:
    """:func:`_dense_gains` of the block's features at one node, a segment
    per feature, from ``rows`` (features, node rows): the node's rows sorted
    on each of those features. Also gives the values sorted per segment."""
    b, n = rows.shape
    xs = s.X[rows, block[:, None]].ravel()
    ys = s.y[rows].ravel()
    return _dense_gains(xs, ys, np.arange(b) * n, np.full(b, n), np.full(b, parent_entropy),
                        np.zeros(b, dtype=int), s.weights, s.num_classes), xs


def _scan(s: _Sample, orders: np.ndarray | None, features: np.ndarray, parent_entropy: float, winnow: bool):
    """One scan of a node over ``features``, block by block. ``orders``
    holds the node's rows sorted on each feature, or is None at the root,
    whose rows are all of the sample's: the root sorts them here, a block
    at a time, and with ``winnow`` keeps only the features that clear the
    winnow noise floor. Returns the kept features, their orders, and the
    best split over those as (feature, threshold), or None. The split is
    the first maximum gain ratio in (feature, position) order, so ties go
    to the lowest feature, then the lowest threshold."""
    root = orders is None
    n = len(s.X) if root else orders.shape[1]
    kept, sorted_rows = [features[:0]], [np.empty((0, n), dtype=_index_type(n))]
    best_ratio, split = -np.inf, None
    width = max(1, BLOCK_COLUMNS * len(s.X) // n)
    for i in range(0, len(features), width):
        block = features[i:i + width]
        if root:
            rows = np.argsort(s.X[:, block].T, axis=1, kind="stable").astype(_index_type(n))
        else:
            rows = orders[i:i + width]
        g, xs = _cut_gains(s, rows, block, parent_entropy)
        ratios = _ratios(g)
        if root:
            keep = _winnowed(g) if winnow else np.ones(len(block), dtype=bool)
            ratios[~keep[g.col]] = -np.inf
            kept.append(block[keep])
            sorted_rows.append(rows[keep])
        if ratios.size:
            j = int(np.argmax(ratios))
            if ratios[j] > best_ratio:
                p = g.pos[j]
                best_ratio, split = ratios[j], (int(block[g.col[j]]), float(_thresholds(xs[p], xs[p + 1])))
        del g, xs, ratios, rows  # before the next block's scan
    if not root:
        return features, orders, split
    return np.concatenate(kept), np.concatenate(sorted_rows), split


def _partition(X: np.ndarray, orders: np.ndarray, j: int, feature: int, threshold: float,
               left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children's orders of a node split on ``feature`` at
    ``threshold``: each row of ``orders``, the node's rows sorted on one
    feature (row j on the split's), split stably into the rows that go left
    and the rest, compared with the ``<=`` of :func:`to_ruleset`'s terms.
    Each child gets its own array, so the parent's is freed once both exist.
    ``left`` is scratch space, a flag per row of X."""
    rows = orders[j]
    left[rows] = X[rows, feature] <= threshold
    goes_left = left[orders]
    k, n_left = len(orders), int(np.count_nonzero(goes_left[0]))
    assert 0 < n_left < len(rows), "split left a child empty"
    return orders[goes_left].reshape(k, n_left), orders[~goes_left].reshape(k, -1)


def _sample(X, y, weights, num_classes) -> _Sample:
    # the narrowest label type keeps the per-pass label copies small
    y = np.asarray(y).astype(np.min_scalar_type(num_classes - 1))
    return _Sample(np.atleast_2d(np.asarray(X, dtype=float)), y,
                   None if weights is None else np.asarray(weights, dtype=float)[None], num_classes)


def winnow_features(X, y: np.ndarray, w: np.ndarray, num_classes: int) -> np.ndarray:
    """Feature pre-selection: keep features whose best standalone root gain
    clears the zero-gain noise floor. Returns the kept feature indices.
    ``X`` is an array or its :class:`SortedColumns`; ``w`` gives each row
    its class's weight."""
    X = X.X if isinstance(X, SortedColumns) else X
    y, w = np.asarray(y), np.asarray(w, dtype=float)
    weights = np.zeros(num_classes)
    weights[y] = w
    if not (weights[y] == w).all():
        raise TreeError("row weights must be their classes' weights")
    s = _sample(X, y, None if (w == 1).all() else weights, num_classes)
    parent_entropy = _entropy(np.bincount(s.y, weights=w, minlength=num_classes))
    features = np.arange(s.X.shape[1])
    if parent_entropy <= 0:
        return features
    return _scan(s, None, features, parent_entropy, True)[0]


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
    With ``winnow``, the root's own split scan also winnows the features,
    and its children only scan the features it kept.

    ``X`` is an array or the :class:`SortedColumns` of one, which trees
    induced from the same rows share: over those, the tree grows as a
    forest of one (:func:`grow_forest`). ``class_weight`` multiplies
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
    if class_weight is not None and len(class_weight) != num_classes:
        raise TreeError(f"{len(class_weight)} class weights for {num_classes} classes")
    if cols is not None:
        y = y.astype(np.min_scalar_type(num_classes - 1))
        weights = None if class_weight is None else [class_weight]
        return next(grow_forest(cols, [y], min_samples, weights, winnow, num_classes))
    sample = _sample(X, y, class_weight, num_classes)
    allowed = np.arange(X.shape[1])  # narrowed by the root's winnowing
    one_tree = np.zeros(1, dtype=int)
    left = np.empty(X.shape[0], dtype=bool)

    nodes: list[TreeNode] = []
    # stack entries: (the node's rows sorted on each allowed feature, None
    # at the root, parent node id, is_left_child)
    stack: list[tuple[np.ndarray | None, int, bool]] = [(None, -1, False)]
    while stack:
        orders, parent, is_left = stack.pop()
        nid = len(nodes)
        nodes.append(TreeNode())
        if parent >= 0:
            if is_left:
                nodes[parent].left = nid
            else:
                nodes[parent].right = nid

        labels = y if orders is None else y[orders[0]]
        hist = np.bincount(labels, minlength=num_classes)
        whist = _weigh(hist[:, None], one_tree, sample.weights)[:, 0]

        split = None
        if len(labels) >= min_samples and np.count_nonzero(whist) > 1:
            allowed, orders, split = _scan(sample, orders, allowed, _entropy(whist), winnow)

        node = nodes[nid]
        node.n_samples = len(labels)
        if split is None:
            node.klass = int(np.argmax(whist))
            node.confidence = leaf_confidence(int(hist[node.klass]), len(labels))
        else:
            node.feature, node.threshold = split
            lefts, rights = _partition(X, orders, int(np.searchsorted(allowed, node.feature)), *split, left)
            # push right first so the left subtree is numbered first
            stack.append((rights, nid, False))
            stack.append((lefts, nid, True))
            del lefts, rights
    return DecisionTree(nodes, num_classes)


def _segments(bounds: np.ndarray, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions, in arrays laid end to end from ``bounds``, of the given
    spans laid end to end in turn, and where each span starts among them."""
    lengths = bounds[spans + 1] - bounds[spans]
    seg_start = np.cumsum(lengths) - lengths
    return np.repeat(bounds[spans] - seg_start, lengths) + np.arange(lengths.sum()), seg_start


@dataclass
class _Level:
    """The nodes of a forest at one depth: each node's tree, size and class
    counts (classes, nodes), and the rows and labels of the nodes to scan,
    laid end to end in node order from ``bounds``."""

    tree: np.ndarray
    n: np.ndarray
    counts: np.ndarray
    whist: np.ndarray | None = None  # class-weighted counts
    scanned: np.ndarray | None = None  # the nodes to scan
    rows: np.ndarray | None = None
    labels: np.ndarray | None = None
    bounds: np.ndarray | None = None


class _Forest:
    """Trees over the same presorted rows, grown together level by level.
    A level's split children are numbered in pairs, left then right, in the
    order of their parents."""

    def __init__(self, cols: SortedColumns, ys, min_samples: int, weights: np.ndarray | None, num_classes: int):
        self.cols, self.X, self.ys = cols, np.ascontiguousarray(cols.X), ys
        # each row's position in each column's sorted order
        self.rank = np.empty_like(cols.order)
        for f, o in enumerate(cols.order):
            self.rank[f, o] = np.arange(len(o), dtype=self.rank.dtype)
        self.min_samples, self.weights, self.num_classes = min_samples, weights, num_classes
        self.budget = BLOCK_COLUMNS * len(cols.X)

    def _weigh(self, level: _Level) -> _Level:
        """Each node's class-weighted counts, and the nodes to scan: those of
        ``min_samples`` rows or more holding two classes of nonzero weight."""
        level.whist = _weigh(level.counts, level.tree, self.weights)
        level.scanned = np.flatnonzero((level.n >= self.min_samples) & (np.count_nonzero(level.whist, axis=0) > 1))
        return level

    def _sparse_roots(self, level: _Level, entropy: np.ndarray, winnow: bool):
        """:func:`_search` of the scanned roots of two-class trees, every
        feature of every root from the rows of the root's minority class."""
        roots = level.scanned
        counts = level.counts[:, roots]
        minority = (2 * counts[1] <= level.n[roots]).astype(int)
        rows = np.concatenate([np.flatnonzero(self.ys[t] == c) for t, c in zip(roots, minority)]).astype(np.int32)
        bounds = np.append(0, np.cumsum(counts[minority, np.arange(len(roots))]))
        m = self.X.shape[1]
        seg_node, seg_feature = np.repeat(np.arange(len(roots)), m), np.tile(np.arange(m), len(roots))

        def scan(first, last):
            node, features = seg_node[first:last], seg_feature[first:last]
            at, seg_start = _segments(bounds, node)
            g = _sparse_gains(self.cols, rows[at], seg_start, features, minority[node], counts[:, node],
                              entropy[node], roots[node], self.weights)

            def values(i):
                f, p = features[g.col[i]], g.pos[i]
                return self.X[self.cols.order[f, p], f], self.X[self.cols.order[f, p + 1], f]
            return g, values
        # a row of a sparse segment gives up to two candidates, which hold
        # more than a dense cell: a third of the budget keeps the sparse
        # passes' peak under the dense ones'
        return _search(seg_node, seg_feature, np.diff(bounds)[seg_node], self.budget // 3, scan, winnow, len(roots))

    def _dense(self, level: _Level, entropy: np.ndarray, allowed: np.ndarray, winnow: bool):
        """:func:`_search` of the scanned nodes over their trees' allowed
        features, each segment's rows sorted by their value groups."""
        nodes = level.scanned
        seg_node, seg_feature = np.nonzero(allowed[level.tree[nodes]])
        n = len(self.X)

        def scan(first, last):
            node, features = seg_node[first:last], seg_feature[first:last]
            at, seg_start = _segments(level.bounds, node)
            lengths = np.diff(np.append(seg_start, len(at)))
            # each cell's key orders it by segment, then by its row's rank in
            # the feature's sorted column, and carries its label in the last
            # digit, so that one sort of the keys gives each segment's rows;
            # (features, rows) arrays are read flat, at feature * rows + index
            column = np.repeat(features * n, lengths)
            base = np.repeat(np.arange(len(node)) * n, lengths)
            key = base + np.take(self.rank, column + level.rows[at])
            key *= self.num_classes
            key += level.labels[at]
            del at
            key.sort()
            ys = (key % self.num_classes).astype(level.labels.dtype)
            key //= self.num_classes
            key -= base
            key += column
            del base
            rows = np.take(self.cols.order, key)
            del key
            xs = np.take(self.X, rows.astype(np.int64) * self.X.shape[1] + column // n)
            del rows, column
            g = _dense_gains(xs, ys, seg_start, level.n[nodes][node], entropy[node], level.tree[nodes][node],
                             self.weights, self.num_classes)
            return g, lambda i: (xs[g.pos[i]], xs[g.pos[i] + 1])
        return _search(seg_node, seg_feature, np.diff(level.bounds)[seg_node], self.budget, scan, winnow, len(nodes))

    def _cells(self, level: _Level, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows and labels of the level's scanned nodes ``first`` to
        ``last``, laid end to end: all rows at a root."""
        if level.rows is None:
            roots = level.scanned[first:last]
            return (np.tile(np.arange(len(self.X), dtype=np.int32), len(roots)),
                    np.concatenate([self.ys[t] for t in roots]))
        at = slice(level.bounds[first], level.bounds[last])
        return level.rows[at], level.labels[at]

    def _children(self, level: _Level, feature: np.ndarray, threshold: np.ndarray) -> _Level:
        """The children of the scanned nodes that split, on ``feature`` at
        ``threshold`` (-1 for none), with the rows of those to scan. Chunks
        of whole nodes of at most the pass budget's cells go at a time."""
        split = feature >= 0
        lengths = np.diff(level.bounds)
        first_child = 2 * (np.cumsum(split) - split)
        parts, rows, labels = [], [], []
        for first, last in _passes(lengths, self.budget):
            r, lab = self._cells(level, first, last)
            node = np.repeat(np.arange(first, last), lengths[first:last])
            moving = split[node]
            node, r, lab = node[moving], r[moving], lab[moving]
            c0, c1 = first_child[first], first_child[last - 1] + 2 * split[last - 1]
            values = np.take(self.X, r.astype(np.int64) * self.X.shape[1] + feature[node])
            child = first_child[node] - c0 + (values > threshold[node])
            del values
            del node
            c = self.num_classes
            counts = np.bincount(child * c + lab, minlength=(c1 - c0) * c).reshape(c1 - c0, c).T
            part = self._weigh(_Level(np.repeat(level.tree[level.scanned[first:last][split[first:last]]], 2),
                                      counts.sum(axis=0), counts))
            scan = np.zeros(c1 - c0, dtype=bool)
            scan[part.scanned] = True
            kept = np.flatnonzero(scan[child])
            # in the narrowest type, which sorts by radix below 2**16
            kept = kept[np.argsort(child[kept].astype(np.min_scalar_type(c1 - c0)), kind="stable")]
            rows.append(r[kept])
            labels.append(lab[kept])
            part.scanned += c0
            parts.append(part)
            del r, lab, child, kept
        children = _Level(*(np.concatenate([getattr(p, a) for p in parts], axis=-1)
                            for a in ("tree", "n", "counts", "whist", "scanned")))
        children.rows, children.labels = np.concatenate(rows), np.concatenate(labels)
        del rows, labels
        children.bounds = np.append(0, np.cumsum(children.n[children.scanned]))
        return children

    def grow(self, winnow: bool):
        """Yield the trees in order, once all have grown."""
        c, (n, m), count = self.num_classes, self.X.shape, len(self.ys)
        counts = np.zeros((c, count), dtype=np.int64)
        for t in range(count):
            counts[:, t] = np.bincount(self.ys[t], minlength=c)
        level = self._weigh(_Level(np.arange(count), np.full(count, n), counts))
        allowed = np.ones((count, m), dtype=bool)  # narrowed by each root's winnowing
        level.bounds = np.arange(len(level.scanned) + 1) * n
        records, first_id, root = [], 0, True
        while True:
            entropy = _weight_and_entropy(level.whist[:, level.scanned])[1]
            if not len(level.scanned):
                found, found_threshold, kept = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=bool)
            elif root and c == 2:
                found, found_threshold, kept = self._sparse_roots(level, entropy, winnow)
            else:
                if level.rows is None:
                    level.rows, level.labels = self._cells(level, 0, len(level.scanned))
                found, found_threshold, kept = self._dense(level, entropy, allowed, winnow and root)
            if root:
                seg_node, seg_feature = np.nonzero(allowed[level.scanned])
                allowed[level.scanned[seg_node], seg_feature] = kept

            size = len(level.n)
            feature, threshold = np.full(size, -1), np.zeros(size)
            feature[level.scanned], threshold[level.scanned] = found, found_threshold
            split = np.flatnonzero(feature >= 0)
            klass = np.argmax(level.whist, axis=0)
            confidence = leaf_confidence(level.counts[klass, np.arange(size)], level.n)
            klass[split], confidence[split] = -1, 0.0
            left, right = np.full(size, -1), np.full(size, -1)
            left[split] = first_id + size + 2 * np.arange(len(split))
            right[split] = left[split] + 1
            records.append((level.tree, feature, threshold, left, right, klass, confidence, level.n))
            first_id += size
            if not len(split):
                break
            level, root = self._children(level, found, found_threshold), False
        yield from self._trees(records)

    def _trees(self, records):
        """Each tree from its nodes' records, renumbered from level order to
        preorder, one tree at a time."""
        tree, *fields = (np.concatenate(field) for field in zip(*records))
        by_tree = np.argsort(tree, kind="stable")
        bounds = np.searchsorted(tree[by_tree], np.arange(len(self.ys) + 1))
        for first, last in zip(bounds[:-1], bounds[1:]):
            ids = by_tree[first:last]
            feature, threshold, left, right, klass, confidence, size = (f[ids].tolist() for f in fields)
            local = dict(zip(ids.tolist(), range(len(ids))))
            local[-1] = -1
            left, right = [local[i] for i in left], [local[i] for i in right]
            order, stack = [], [0]
            while stack:
                i = stack.pop()
                order.append(i)
                if feature[i] >= 0:
                    stack += (right[i], left[i])
            new = {old: k for k, old in enumerate(order)}
            new[-1] = -1
            yield DecisionTree([
                TreeNode(feature[i], threshold[i], new[left[i]], new[right[i]], klass[i], confidence[i], size[i])
                for i in order
            ], self.num_classes)


def grow_forest(cols: SortedColumns, ys, min_samples: int, class_weights=None, winnow: bool = True,
                num_classes: int = 2):
    """Yield one tree per label vector of ``ys``, labels in [0,
    num_classes), over the same presorted rows: each the tree
    :func:`induce` grows from that vector, with ``class_weights`` one weight
    vector per tree, or None. ``ys`` is read tree by tree, so it may build
    each vector when asked for it.

    The trees grow together, level by level (SLIQ, Mehta et al. 1996). A
    level scans every (node, feature) segment of every tree's nodes to
    split, in passes of at most ``BLOCK_COLUMNS`` columns' worth of cells,
    so a level costs a few numpy calls per pass however many trees and
    nodes it holds. The roots of two-class trees are scanned sparsely, all
    of them in the same passes, from their minority class's rows.
    """
    if not len(ys):
        return iter(())
    weights = None if class_weights is None else np.asarray(class_weights, dtype=float).reshape(len(ys), num_classes)
    return _Forest(cols, ys, min_samples, weights, num_classes).grow(winnow)


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


def leaf_rows(tree: DecisionTree, X) -> list[tuple[TreeNode, np.ndarray]]:
    """Each leaf with the rows of X that reach it, ascending, in the
    left-to-right leaf order of :func:`to_ruleset`: one walk of the tree,
    comparing with the same ``<=`` as induction. So each leaf's rows are
    where its rule's premise holds."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out: list[tuple[TreeNode, np.ndarray]] = []
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out.append((node, idx))
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.right, idx[~mask]))
        stack.append((node.left, idx[mask]))
    return out

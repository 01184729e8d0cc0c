import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import extract, tree
from nnrex.rules import predict_batch, premise_mask
from conftest import tree_depth, tree_predict


def random_problem(rng, n_max=200, m_max=8):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    num_classes = int(rng.integers(2, 5))
    X = rng.uniform(-1, 1, size=(n, m))
    y = rng.integers(0, num_classes, size=n)
    return X, y, num_classes


class TestInduce:
    def test_pure_input_single_leaf_confidence(self):
        X = np.random.default_rng(0).normal(size=(7, 3))
        t = tree.induce(X, np.zeros(7, dtype=int), 2, num_classes=2)
        assert t.leaf_count() == 1
        # Laplace-corrected purity of an N-sample pure leaf
        assert t.nodes[t.root].confidence == pytest.approx(8 / 9)

    def test_two_point_split_at_midpoint(self):
        t = tree.induce(np.array([[0.0], [1.0]]), np.array([0, 1]), 2)
        root = t.nodes[t.root]
        assert not root.is_leaf
        assert root.feature == 0
        assert root.threshold == 0.5
        assert t.leaf_count() == 2
        assert all(t.nodes[i].n_samples == 1 for i in t.leaf_ids())

    def test_min_samples_below_two_rejected(self):
        with pytest.raises(tree.TreeError):
            tree.induce(np.zeros((3, 1)), np.array([0, 1, 0]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        X = np.array([[0.0, 1.0], [bad, 2.0], [1.0, 3.0]])
        with pytest.raises(tree.TreeError, match="non-finite"):
            tree.induce(X, np.array([0, 1, 0]), 2)

    @pytest.mark.parametrize("lo, hi", [(0.3, np.nextafter(0.3, 1)), (1 - 2**-53, 1.0)])
    def test_adjacent_floats_split_at_lower_value(self, lo, hi):
        # the midpoint of these pairs rounds up to the larger value
        assert (lo + hi) / 2 == hi
        X = np.array([[lo], [lo], [hi], [hi]])
        t = tree.induce(X, np.array([0, 0, 1, 1]), 2, winnow=False)
        assert t.nodes[t.root].threshold == lo
        assert t.leaf_count() == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("winnow", [True, False])
    def test_overflowing_midpoint_splits_at_lower_value_without_warning(self, winnow):
        # the midpoints of these pairs overflow to +inf and -inf
        for lo, hi in ((1e308, 1.7e308), (-1.7e308, -1e308)):
            X = np.array([[lo], [lo], [hi], [hi]])
            t = tree.induce(X, np.array([0, 0, 1, 1]), 2, winnow=winnow)
            assert t.nodes[t.root].threshold == lo

    def test_empty_input_rejected(self):
        with pytest.raises(tree.TreeError):
            tree.induce(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)

    def test_no_split_below_min_samples(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(40, 2))
        y = (X[:, 0] > 0.5).astype(int)
        t = tree.induce(X, y, min_samples=50)
        assert t.leaf_count() == 1

    def test_raising_min_samples_never_grows_the_tree(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            X = rng.uniform(size=(80, 3))
            y = ((X[:, 0] > 0.4) ^ (X[:, 1] > 0.6)).astype(int) ^ (rng.random(80) < 0.1)
            y = y.astype(int)
            leaf_counts = [
                tree.induce(X, y, mu, winnow=False).leaf_count() for mu in (2, 5, 10, 20, 40)
            ]
            assert all(a >= b for a, b in zip(leaf_counts, leaf_counts[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(60, 4))
        y = (X[:, 1] > 0.3).astype(int)
        a = tree.induce(X, y, 2)
        b = tree.induce(X, y, 2)
        assert [(n.feature, n.threshold, n.klass) for n in a.nodes] == [
            (n.feature, n.threshold, n.klass) for n in b.nodes
        ]

    def test_class_weights_flip_majority(self):
        # a 3-vs-1 leaf flips to the minority class once it outweighs 3:1
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        t_plain = tree.induce(X, y, 2, num_classes=2)
        t_weighted = tree.induce(X, y, 2, class_weight=np.array([1.0, 4.0]))
        assert t_plain.nodes[t_plain.root].klass == 0
        assert t_weighted.nodes[t_weighted.root].klass == 1

    def test_weighted_confidence_uses_raw_counts(self):
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        t = tree.induce(X, y, 2, class_weight=np.array([1.0, 4.0]))
        # leaf class is 1 (weighted majority) but only 1 of 4 samples match
        assert t.nodes[t.root].confidence == pytest.approx((1 + 1) / (4 + 2))


class TestToRuleset:
    def test_single_leaf_gives_one_empty_rule(self):
        t = tree.induce(np.zeros((5, 2)), np.zeros(5, dtype=int), 2, num_classes=2)
        rs = tree.to_ruleset(t, default_label=0)
        assert len(rs.rules) == 1
        assert rs.rules[0].premise == frozenset()

    def test_depth_two_grid_gives_four_two_term_rules(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 2, 3])
        t = tree.induce(X, y, 2)
        rs = tree.to_ruleset(t, 0)
        assert len(rs.rules) == 4
        assert all(len(r.premise) == 2 for r in rs.rules)
        assert sorted(r.conclusion for r in rs.rules) == [0, 1, 2, 3]

    def test_redundant_path_bounds_are_tightened(self):
        # force two splits on the same feature along a path
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.uniform(0, 1, 50), rng.uniform(1, 2, 50), rng.uniform(2, 3, 50)])
        y = np.array([0] * 50 + [1] * 50 + [0] * 50)
        t = tree.induce(x[:, None], y, 2, winnow=False)
        rs = tree.to_ruleset(t, 0)
        for r in rs.rules:
            per_dir = {}
            for term in r.premise:
                key = (term.feature, term.op)
                assert key not in per_dir, "same-direction bound not merged"
                per_dir[key] = term.threshold

    def test_rule_count_equals_leaf_count(self):
        rng = np.random.default_rng(5)
        X, y, L = random_problem(rng)
        t = tree.induce(X, y, 3, num_classes=L, winnow=False)
        rs = tree.to_ruleset(t, 0)
        assert len(rs.rules) == t.leaf_count()


class TestStructuralBounds:
    """Randomized suite for the induction-size bounds and the partition
    property; the acceptance suite runs a larger version."""

    def test_bounds_and_partition(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            X, y, L = random_problem(rng, n_max=120, m_max=6)
            winnow = bool(rng.random() < 0.5)
            mu = int(rng.integers(2, 12))
            n = len(y)
            t = tree.induce(X, y, mu, winnow=winnow, num_classes=L)
            rs = tree.to_ruleset(t, 0)

            assert t.leaf_count() <= n
            assert tree_depth(t) <= n - 1
            lengths = [len(r.premise) for r in rs.rules]
            assert max(lengths) <= n - 1
            unique_terms = {term for r in rs.rules for term in r.premise}
            assert len(unique_terms) <= 2 * (n - 1)

            fired = np.stack([premise_mask(r.premise, X) for r in rs.rules])
            assert np.array_equal(fired.sum(axis=0), np.ones(n))

    def test_tree_predict_matches_rule_of_its_leaf(self):
        rng = np.random.default_rng(7)
        X, y, L = random_problem(rng, n_max=100)
        t = tree.induce(X, y, 2, num_classes=L, winnow=False)
        rs = tree.to_ruleset(t, 0)
        pred_tree = tree_predict(t, X)
        for r in rs.rules:
            mask = premise_mask(r.premise, X)
            assert np.all(pred_tree[mask] == r.conclusion)


class TestParityDegeneracy:
    def test_raw_parity_data_yields_tiny_near_chance_tree(self):
        # no single feature carries marginal signal, so feature winnowing
        # collapses the tree to (near) a lone majority leaf, reproducing the
        # flat-induction failure the extraction pipeline is meant to beat
        from nnrex import data

        ds = data.gen_xor(1000, 10, seed=5)
        t = tree.induce(ds.features[:800], ds.labels[:800], 2, num_classes=2)
        pred = tree_predict(t, ds.features[800:])
        test_acc = np.mean(pred == ds.labels[800:])
        assert t.leaf_count() <= 3
        assert test_acc < 0.65


class TestWinnow:
    def test_noise_features_dropped_signal_kept(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(400, 5))
        y = (X[:, 2] > 0.5).astype(int)
        kept = tree.winnow_features(X, y, np.ones(400), 2)
        assert list(kept) == [2]

    def test_all_noise_drops_everything(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(400, 4))
        y = rng.integers(0, 2, 400)
        kept = tree.winnow_features(X, y, np.ones(400), 2)
        assert len(kept) == 0

    def test_tiny_perfect_split_survives(self):
        kept = tree.winnow_features(np.array([[0.0], [1.0]]), np.array([0, 1]), np.ones(2), 2)
        assert list(kept) == [0]

    @pytest.mark.parametrize("num_classes", [3, 5, 10, 26])
    def test_c5_accuracy_holds_up_as_the_class_count_grows(self, num_classes):
        # the label is the argmax of a seeded linear map of 16 uniform
        # features, so every feature carries signal; with winnowing, c5 stays
        # within 5 points of its test accuracy without it (an entropy floor
        # that grows with log2 k dropped 11-18 points at k = 5, 10 and 26)
        rng = np.random.default_rng(num_classes)
        W = rng.normal(size=(16, num_classes))
        X = rng.uniform(-1, 1, size=(3000, 16))
        y = (X @ W).argmax(axis=1)
        accuracy = {}
        for winnow in (True, False):
            cfg = extract.ExtractionConfig(min_samples=2, winnow=winnow)
            rs = extract.c5_direct(X[:1000], y[:1000], cfg, num_classes)
            accuracy[winnow] = np.mean(predict_batch(rs, X[1000:]) == y[1000:]) * 100
        assert accuracy[True] >= accuracy[False] - 5.0


FINITE = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.3, 1 - 2**-53, -1.0])


# FINITE plus values whose sums overflow, for the termination properties only
EXTREME = FINITE | st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])


def assert_induction_partitions(X, y, min_samples, winnow):
    """Induction returns, every split has two non-empty children, and the
    leaf rules partition the rows."""
    t = tree.induce(X, y, min_samples, winnow=winnow, num_classes=3)
    assert t.nodes[t.root].n_samples == len(X)
    for node in t.nodes:
        if not node.is_leaf:
            left, right = t.nodes[node.left], t.nodes[node.right]
            assert left.n_samples > 0 and right.n_samples > 0
            assert left.n_samples + right.n_samples == node.n_samples
    fired = np.array([premise_mask(r.premise, X) for r in tree.to_ruleset(t, 0).rules])
    assert np.array_equal(fired.sum(axis=0), np.ones(len(X)))


def labels(n):
    return st.lists(st.integers(0, 2), min_size=n, max_size=n).map(np.array)


class TestTerminationProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(2, 30), st.integers(1, 3), st.integers(2, 4), st.booleans())
    def test_adjacent_float_columns(self, data, n, m, min_samples, winnow):
        lo = np.array(data.draw(st.lists(EXTREME, min_size=m, max_size=m)))
        upper = np.array(data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
        X = np.where(upper.reshape(n, m), np.nextafter(lo, np.inf), lo)
        assert_induction_partitions(X, data.draw(labels(n)), min_samples, winnow)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(2, 30), st.integers(1, 3), st.integers(2, 4), st.booleans())
    def test_constant_columns(self, data, n, m, min_samples, winnow):
        constant = data.draw(st.lists(EXTREME, min_size=m, max_size=m))
        varying = data.draw(st.lists(EXTREME, min_size=n, max_size=n))
        X = np.column_stack([np.full(n, c) for c in constant] + [varying])
        assert_induction_partitions(X, data.draw(labels(n)), min_samples, winnow)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(2, 30), st.integers(2, 4), st.booleans())
    def test_duplicate_rows(self, data, k, n, min_samples, winnow):
        pool = np.array(data.draw(st.lists(
            st.lists(EXTREME, min_size=2, max_size=2), min_size=k, max_size=k)))
        picks = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        X = pool[picks]
        assert_induction_partitions(X, data.draw(labels(n)), min_samples, winnow)


# Reference split search: the per-feature loop the presorted block scan
# replaced, kept here verbatim in its arithmetic. The scan must reproduce its
# trees node for node, to the last bit of every threshold and confidence.


def ref_xlogx(a):
    out = np.zeros_like(a, dtype=float)
    positive = a > 0
    out[positive] = a[positive] * np.log2(a[positive])
    return out


def ref_entropy(wcounts):
    total = wcounts.sum()
    if total <= 0:
        return 0.0
    return float(np.log2(total) - ref_xlogx(wcounts).sum() / total)


def ref_best_for_feature(xcol, y, w, num_classes, parent_entropy):
    """(ratio, threshold, best raw gain, candidate count) or None."""
    order = np.argsort(xcol, kind="stable")
    xs, ys, ws = xcol[order], y[order], w[order]
    n = len(xs)
    value_cuts = np.flatnonzero(xs[:-1] != xs[1:])
    if value_cuts.size == 0:
        return None
    starts = np.concatenate(([0], value_cuts + 1))
    gmin = np.minimum.reduceat(ys, starts)
    gmax = np.maximum.reduceat(ys, starts)
    pure = gmin == gmax
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
    h_left = np.where(wl > 0, np.log2(np.maximum(wl, 1e-300)) - ref_xlogx(left).sum(axis=0) / np.maximum(wl, 1e-300), 0.0)
    h_right = np.where(wr > 0, np.log2(np.maximum(wr, 1e-300)) - ref_xlogx(right).sum(axis=0) / np.maximum(wr, 1e-300), 0.0)
    gains = parent_entropy - (wl * h_left + wr * h_right) / total
    adjusted = gains - np.log2(cand.size) / n
    split_info = np.log2(total) - (ref_xlogx(wl) + ref_xlogx(wr)) / total
    valid = (adjusted > tree.GAIN_EPS) & (split_info > tree.GAIN_EPS) & (wl > 0) & (wr > 0)
    best_raw_gain = float(gains.max())
    if not valid.any():
        return -np.inf, np.nan, best_raw_gain, cand.size
    ratios = np.where(valid, adjusted / np.maximum(split_info, 1e-300), -np.inf)
    i = int(np.argmax(ratios))
    p = cut_pos[i]
    with np.errstate(over="ignore"):
        threshold = (xs[p] + xs[p + 1]) / 2.0
    if threshold >= xs[p + 1]:
        threshold = xs[p]
    return float(ratios[i]), float(threshold), best_raw_gain, cand.size


def ref_winnow(X, y, w, num_classes):
    parent_entropy = ref_entropy(np.bincount(y, weights=w, minlength=num_classes))
    if parent_entropy <= 0:
        return np.arange(X.shape[1])
    n = X.shape[0]
    kept = []
    for f in range(X.shape[1]):
        split = ref_best_for_feature(X[:, f], y, w, num_classes, parent_entropy)
        if split is None:
            continue
        # the floor's entropy terms are bounded by the 1 bit a binary split
        # can gain at most
        bounded = min(parent_entropy, 1.0)
        floor = min(
            max(
                tree.WINNOW_ENTROPY_FRACTION * bounded,
                tree.WINNOW_NOISE_MULTIPLIER * np.log2(split[3] + 1) / n,
            ),
            tree.WINNOW_ENTROPY_CAP * bounded,
        )
        if split[2] > floor:
            kept.append(f)
    return np.array(kept, dtype=int)


def ref_induce(X, y, min_samples, class_weight, winnow, num_classes):
    """Node tuples (feature, threshold, left, right, class, confidence,
    n_samples) of the reference tree."""
    w = np.ones(len(y)) if class_weight is None else np.asarray(class_weight, dtype=float)[y]
    allowed = ref_winnow(X, y, w, num_classes) if winnow else np.arange(X.shape[1])
    nodes = []
    stack = [(np.arange(len(y)), -1, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        nid = len(nodes)
        nodes.append([-1, 0.0, -1, -1, -1, 0.0, len(idx)])
        if parent >= 0:
            nodes[parent][2 if is_left else 3] = nid
        ys, ws = y[idx], w[idx]
        hist = np.bincount(ys, minlength=num_classes)
        whist = np.bincount(ys, weights=ws, minlength=num_classes)
        parent_entropy = ref_entropy(whist)
        split = None
        if len(idx) >= min_samples and parent_entropy > 0:
            best_ratio = -np.inf
            for f in allowed:
                cand = ref_best_for_feature(X[idx, f], ys, ws, num_classes, parent_entropy)
                if cand is not None and cand[0] > best_ratio:
                    best_ratio = cand[0]
                    split = (int(f), cand[1])
        if split is None:
            klass = int(np.argmax(whist))
            nodes[nid][4] = klass
            nodes[nid][5] = tree.leaf_confidence(int(hist[klass]), len(idx))
        else:
            nodes[nid][0], nodes[nid][1] = split
            mask = X[idx, split[0]] <= split[1]
            stack.append((idx[~mask], nid, False))
            stack.append((idx[mask], nid, True))
    return [tuple(node) for node in nodes]


def node_tuples(t):
    return [(n.feature, n.threshold, n.left, n.right, n.klass, n.confidence, n.n_samples) for n in t.nodes]


WEIGHTS = st.sampled_from([0.1, 1 / 3, 0.625, 1.0, 3.7, 7.77])


@st.composite
def induction_cases(draw):
    """Small problems rich in ties: integer, rounded, free and adjacent-float
    columns, duplicate rows, constant columns, 2 to 9 classes, optional class
    weights, and more columns than one root block holds."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 3 * tree.BLOCK_COLUMNS))
    num_classes = draw(st.sampled_from([2, 2, 3, 3, 4, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integer", "rounded", "free", "adjacent"]))
    if kind == "integer":
        X = rng.integers(0, 4, (n, m)).astype(float)
    elif kind == "rounded":
        X = np.round(rng.normal(size=(n, m)), 1)
    elif kind == "free":
        X = rng.uniform(-1, 1, (n, m))
    else:
        lo = rng.normal(size=m)
        X = np.where(rng.random((n, m)) < 0.5, lo, np.nextafter(lo, np.inf))
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), n)]  # duplicate rows
    if draw(st.booleans()):
        X[:, draw(st.integers(0, m - 1))] = draw(FINITE)  # a constant column
    if draw(st.booleans()):
        y = (X[:, 0] > np.median(X[:, 0])).astype(int) + (rng.random(n) < 0.2)
        y = np.minimum(y, num_classes - 1)
    else:
        y = rng.integers(0, num_classes, n)
    class_weight = draw(st.none() | st.lists(WEIGHTS, min_size=num_classes, max_size=num_classes))
    return X, y, num_classes, class_weight, draw(st.booleans()), draw(st.integers(2, 4))


def assert_matches_reference(X, y, num_classes, class_weight, winnow, min_samples):
    expected = ref_induce(X, y, min_samples, class_weight, winnow, num_classes)
    plain = tree.induce(X, y, min_samples, class_weight, winnow, num_classes)
    assert node_tuples(plain) == expected
    shared = tree.induce(tree.sort_columns(X), y, min_samples, class_weight, winnow, num_classes)
    assert node_tuples(shared) == expected
    w = np.ones(len(y)) if class_weight is None else np.asarray(class_weight)[y]
    assert np.array_equal(tree.winnow_features(X, y, w, num_classes), ref_winnow(X, y, w, num_classes))


class TestSplitSearchOracle:
    @settings(max_examples=150, deadline=None)
    @given(induction_cases())
    def test_matches_per_feature_reference(self, case):
        assert_matches_reference(*case)

    def test_matches_reference_on_wide_multi_block_nodes(self):
        # a few hundred rows and up to 30 columns: the root and its children
        # span several blocks, and deeper nodes pack many columns into one
        rng = np.random.default_rng(11)
        for trial in range(25):
            n, m = int(rng.integers(100, 320)), int(rng.integers(4, 31))
            num_classes = int(rng.choice([2, 3, 9]))
            X = np.round(rng.normal(size=(n, m)), int(rng.integers(1, 4)))
            y = ((X[:, 0] > 0) ^ (X[:, 1 % m] > 0.5) ^ (rng.random(n) < 0.1)).astype(int)
            y = np.minimum(y + rng.integers(0, num_classes, n) * (rng.random(n) < 0.2), num_classes - 1)
            class_weight = rng.choice([0.625, 1.0, 3.7, 1 / 3], num_classes) if trial % 2 else None
            assert_matches_reference(X, y, num_classes, class_weight, bool(trial % 3), int(rng.integers(2, 6)))

    def test_many_weighted_classes_add_in_numpy_order(self):
        # from 8 classes on, numpy's 1-D sum adds pairwise, not one by one;
        # tied integer columns give near-tied gains that tell the orders apart
        for seed in range(12):
            rng = np.random.default_rng(seed)
            num_classes = 9 if seed % 2 else 12
            X = rng.integers(0, 6, (100, 12)).astype(float)
            y = rng.integers(0, num_classes, 100)
            class_weight = rng.choice([0.1, 1 / 3, 0.625, 3.7, 7.77], num_classes)
            assert_matches_reference(X, y, num_classes, class_weight, False, 2)

    def test_sorted_columns_are_stable_argsorts(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, -0.0], [0.5, 2.0]])
        cols = tree.sort_columns(X)
        assert cols.order.tolist() == [[1, 3, 0, 2], [0, 1, 2, 3]]
        assert tree.sort_columns(cols) is cols

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sort_columns_rejects_non_finite_input(self, bad):
        with pytest.raises(tree.TreeError, match="non-finite"):
            tree.sort_columns(np.array([[0.0], [bad]]))


class TestLeafRows:
    @settings(max_examples=100, deadline=None)
    @given(induction_cases())
    def test_leaves_partition_the_rows_where_their_rules_hold(self, case):
        X, y, num_classes, class_weight, winnow, min_samples = case
        t = tree.induce(X, y, min_samples, class_weight, winnow, num_classes)
        leaves = tree.leaf_rows(t, X)
        assert [leaf for leaf, _ in leaves] == [t.nodes[i] for i in t.leaf_ids()]
        assert np.array_equal(np.sort(np.concatenate([rows for _, rows in leaves])), np.arange(len(y)))
        for (leaf, rows), rule in zip(leaves, tree.to_ruleset(t, 0).rules, strict=True):
            assert (leaf.klass, leaf.confidence, leaf.n_samples) == (rule.conclusion, rule.confidence, len(rows))
            assert np.array_equal(rows, np.flatnonzero(premise_mask(rule.premise, X)))


@st.composite
def sparse_root_cases(draw):
    """Two-class, unit-weight problems for the sparse root scan: tied
    integer or rounded columns, adjacent groups that hold only TRUE rows, one
    TRUE row or one FALSE row, TRUE rows at a column's extremes, constant
    columns, and enough columns and TRUE rows to need several blocks."""
    n = draw(st.integers(2, 80))
    m = draw(st.integers(1, 4 * tree.BLOCK_COLUMNS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 6)), (n, m)).astype(float)
    else:
        X = np.round(rng.normal(size=(n, m)), 1)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, m - 1))] = draw(FINITE)  # a constant column
    x = X[:, draw(st.integers(0, m - 1))]
    kind = draw(st.sampled_from(["random", "half", "one", "all but one", "extremes", "runs"]))
    if kind == "random":
        y = rng.random(n) < draw(st.floats(0.05, 0.95))
    elif kind == "half":
        y = rng.permutation(n) < n // 2
    elif kind in ("one", "all but one"):
        y = np.arange(n) == rng.integers(n)
        y = ~y if kind == "all but one" else y
    elif kind == "extremes":
        y = (x == x.min()) | (x == x.max())
    else:
        # TRUE on neighbouring values: adjacent groups of TRUE rows only
        values = np.unique(x)
        k = int(rng.integers(len(values)))
        y = (x >= values[k]) & (x <= values[min(k + 2, len(values) - 1)])
    if draw(st.booleans()):
        y = y ^ (rng.random(n) < 0.1)
    return X, y.astype(int), draw(st.booleans()), draw(st.integers(2, 4))


class TestSparseRootScan:
    @settings(max_examples=300, deadline=None)
    @given(sparse_root_cases())
    def test_matches_dense_scan_and_reference(self, case):
        X, y, winnow, min_samples = case
        expected = ref_induce(X, y, min_samples, None, winnow, 2)
        cols = tree.sort_columns(X)
        assert node_tuples(tree.induce(cols, y, min_samples, None, winnow, 2)) == expected
        assert node_tuples(tree.induce(X, y, min_samples, None, winnow, 2)) == expected
        w = np.ones(len(y))
        kept = ref_winnow(X, y, w, 2)
        assert np.array_equal(tree.winnow_features(cols, y, w, 2), kept)
        assert np.array_equal(tree.winnow_features(X, y, w, 2), kept)

    def test_unit_weight_root_makes_no_dense_scan(self, monkeypatch):
        # the substitution trees' root must not fall back to the dense scan
        rng = np.random.default_rng(5)
        X = rng.integers(0, 6, (300, 10)).astype(float)
        y = ((X[:, 2] > 3) ^ (rng.random(300) < 0.05)).astype(int)
        scanned = []
        real = tree._cut_gains
        monkeypatch.setattr(tree, "_cut_gains", lambda *args: scanned.append(args) or real(*args))
        # only the root may split at min_samples = rows
        t = tree.induce(tree.sort_columns(X), y, len(y), num_classes=2)
        assert t.nodes[t.root].feature == 2
        assert scanned == []
        assert node_tuples(tree.induce(X, y, len(y), num_classes=2)) == node_tuples(t)
        assert scanned

    def test_group_bounds_span_equal_values(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, -0.0], [0.5, 2.0]])
        cols = tree.sort_columns(X)
        assert cols.order.dtype == np.int32
        assert cols.start.tolist() == [[2, 0, 2, 1], [0, 0, 0, 3]]
        assert cols.end.tolist() == [[4, 1, 4, 2], [3, 3, 3, 4]]


class TestOneScanPerNode:
    def counted_scans(self, monkeypatch):
        scanned = []
        real = tree._cut_gains
        monkeypatch.setattr(tree, "_cut_gains", lambda *args: scanned.append(args) or real(*args))
        return scanned

    def test_pure_node_is_not_searched(self, monkeypatch):
        # the entropy of 47 rows of one class rounds above 0
        assert tree._entropy(np.array([47.0, 0.0])) > 0
        scanned = self.counted_scans(monkeypatch)
        X = np.random.default_rng(12).normal(size=(47, 3))
        t = tree.induce(X, np.ones(47, dtype=int), 2, num_classes=2)
        assert t.leaf_count() == 1 and t.nodes[t.root].klass == 1
        assert scanned == []

    def test_root_scans_each_feature_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.integers(0, 6, (120, 10)).astype(float)
        y = ((X[:, 4] > 2) ^ (rng.random(120) < 0.1)).astype(int)
        expected = node_tuples(tree.induce(X, y, 2, num_classes=2))
        scanned = self.counted_scans(monkeypatch)
        monkeypatch.setattr(tree, "winnow_features", None)  # induce must not call it
        t = tree.induce(X, y, 2, winnow=True, num_classes=2)
        assert node_tuples(t) == expected and t.nodes[t.root].feature == 4
        root_blocks = [block for s, rows, block, _ in scanned if rows.shape[1] == len(X)]
        assert len(root_blocks) > 1
        assert sorted(np.concatenate(root_blocks).tolist()) == list(range(10))

    def test_no_inner_node_sorts(self, monkeypatch):
        # the root sorts each column once, and its descendants split its
        # orders: every sort a plain-array tree makes is of full columns
        rng = np.random.default_rng(14)
        X = np.round(rng.normal(size=(300, 12)), 1)
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0.3) ^ (rng.random(300) < 0.1)).astype(int) + (X[:, 2] > 1)
        weights = [1.0, 0.625, 3.7]
        expected = ref_induce(X, y, 2, weights, False, 3)
        sorted_lengths = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: sorted_lengths.append(np.shape(a)[-1])
                            or real(a, *args, **kw))
        t = tree.induce(X, y, 2, weights, winnow=False, num_classes=3)
        assert node_tuples(t) == expected and len(t.nodes) > 20
        assert len(sorted_lengths) == 4 and set(sorted_lengths) == {300}


@st.composite
def forest_cases(draw):
    """Several label vectors over the same rows, as a layer's substitution
    trees have: TRUE sets that are disjoint, overlap, are empty or hold one
    row, or labels of 3 to 9 classes; class weights per tree, tied and
    constant columns, and duplicate rows."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 3 * tree.BLOCK_COLUMNS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 6)), (n, m)).astype(float)
    else:
        X = np.round(rng.normal(size=(n, m)), 1)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), n)]  # duplicate rows
    if draw(st.booleans()):
        X[:, draw(st.integers(0, m - 1))] = draw(FINITE)  # a constant column
    count = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["disjoint", "overlapping", "empty", "one row", "classes"]))
    if kind == "disjoint":
        part = rng.integers(0, count, n)
        ys = [(part == t).astype(int) for t in range(count)]
    elif kind == "overlapping":
        ys = [(rng.random(n) < rng.random()).astype(int) for _ in range(count)]
    elif kind == "empty":
        ys = [np.zeros(n, dtype=int) if t % 2 else (rng.random(n) < 0.3).astype(int) for t in range(count)]
    elif kind == "one row":
        ys = [(np.arange(n) == rng.integers(n)).astype(int) for _ in range(count)]
    num_classes = draw(st.sampled_from([3, 4, 9])) if kind == "classes" else 2
    if kind == "classes":
        ys = [rng.integers(0, num_classes, n) for _ in range(count)]
    weights = draw(st.none() | st.lists(st.lists(WEIGHTS, min_size=num_classes, max_size=num_classes),
                                        min_size=count, max_size=count))
    return X, ys, num_classes, weights, draw(st.booleans()), draw(st.integers(2, 6))


class TestForest:
    @settings(max_examples=200, deadline=None)
    @given(forest_cases())
    def test_every_tree_matches_the_reference(self, case):
        X, ys, num_classes, weights, winnow, min_samples = case
        trees = list(tree.grow_forest(tree.sort_columns(X), ys, min_samples, weights, winnow, num_classes))
        assert len(trees) == len(ys)
        for t, y in enumerate(ys):
            w = None if weights is None else weights[t]
            assert node_tuples(trees[t]) == ref_induce(X, y, min_samples, w, winnow, num_classes)

    def test_no_trees(self):
        assert list(tree.grow_forest(tree.sort_columns(np.zeros((3, 2))), [], 2)) == []

    def test_scans_grow_with_levels_and_cells_not_trees(self, monkeypatch):
        # a layer's worth of trees, one per cell of a grid over two columns,
        # like the leaves of an intermediate tree: every level's nodes of
        # every tree go in passes of at most BLOCK_COLUMNS x N cells, each
        # but a level's last holding more than two columns' worth
        rng = np.random.default_rng(3)
        n, m = 600, 6
        X = rng.integers(0, 6, (n, m)).astype(float)
        cell = (X[:, 0] * 6 + X[:, 1]).astype(int)
        ys = [((cell == c) ^ (rng.random(n) < 0.02)).astype(int) for c in range(36)]
        scans = []
        real = tree._dense_gains
        monkeypatch.setattr(tree, "_dense_gains", lambda *args: scans.append(len(args[0])) or real(*args))
        trees = list(tree.grow_forest(tree.sort_columns(X), ys, 2, winnow=False))

        cells, scanned = {}, 0  # per depth, the cells of the inner levels' scanned nodes
        for t in trees:
            depth = {0: 0}
            for i, node in enumerate(t.nodes):
                if not node.is_leaf:
                    depth[node.left] = depth[node.right] = depth[i] + 1
                pure = node.confidence == (node.n_samples + 1) / (node.n_samples + 2)
                if depth[i] and (not node.is_leaf or (node.n_samples >= 2 and not pure)):
                    cells[depth[i]] = cells.get(depth[i], 0) + node.n_samples * m
                    scanned += 1
        assert sum(scans) == sum(cells.values())
        assert len(scans) <= sum(1 + c // (2 * n) for c in cells.values())
        assert len(scans) * 3 < scanned

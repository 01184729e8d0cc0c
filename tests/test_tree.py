import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import tree
from nnrex.rules import premise_mask


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
        assert all(t.nodes[i].histogram.sum() == 1 for i in t.leaf_ids())

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
        X = np.array([[1e308], [1e308], [1.7e308], [1.7e308]])
        t = tree.induce(X, np.array([0, 0, 1, 1]), 2, winnow=winnow)
        assert t.nodes[t.root].threshold == 1e308

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
            assert t.depth() <= n - 1
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
        pred_tree = t.predict(X)
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
        pred = t.predict(ds.features[800:])
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


FINITE = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.3, 1 - 2**-53, -1.0])


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
        lo = np.array(data.draw(st.lists(FINITE, min_size=m, max_size=m)))
        upper = np.array(data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
        X = np.where(upper.reshape(n, m), np.nextafter(lo, np.inf), lo)
        assert_induction_partitions(X, data.draw(labels(n)), min_samples, winnow)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(2, 30), st.integers(1, 3), st.integers(2, 4), st.booleans())
    def test_constant_columns(self, data, n, m, min_samples, winnow):
        constant = data.draw(st.lists(FINITE, min_size=m, max_size=m))
        varying = data.draw(st.lists(FINITE, min_size=n, max_size=n))
        X = np.column_stack([np.full(n, c) for c in constant] + [varying])
        assert_induction_partitions(X, data.draw(labels(n)), min_samples, winnow)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(2, 30), st.integers(2, 4), st.booleans())
    def test_duplicate_rows(self, data, k, n, min_samples, winnow):
        pool = np.array(data.draw(st.lists(
            st.lists(FINITE, min_size=2, max_size=2), min_size=k, max_size=k)))
        picks = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        X = pool[picks]
        assert_induction_partitions(X, data.draw(labels(n)), min_samples, winnow)

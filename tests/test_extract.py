import gc
import tracemalloc

import numpy as np
import pytest

from nnrex import data, evaluation, extract, mlp, rules, tree
from nnrex.rules import OP_GT, Rule, Term, premise_mask


# Truth patterns whose substitution trees are forced to carve one TRUE leaf
# per interval: candidate thresholds exist only at class boundaries, so the
# tree cuts exactly there and yields as many TRUE leaves as intervals.
IV3 = ((0.10, 0.20), (0.40, 0.50), (0.70, 0.80))
IV3B = ((0.25, 0.35), (0.55, 0.65), (0.88, 0.97))
IV4 = ((0.05, 0.15), (0.30, 0.40), (0.55, 0.65), (0.85, 0.95))


def interval_truth(intervals, n=400):
    x = (np.arange(n) / (n - 1))[:, None]
    truth = np.zeros(n, dtype=bool)
    for a, b in intervals:
        truth |= (x[:, 0] >= a) & (x[:, 0] <= b)
    return x, truth


def forced_counts(intervals, n=400):
    """Independent oracle: substitution yields one TRUE premise per interval."""
    return len(intervals)


class TestSubstituteClause:
    def test_always_true_premise_gives_single_empty_rule(self):
        X = np.random.default_rng(0).uniform(size=(30, 2))
        rule = Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.9)
        out = extract.substitute_clause(rule, X, np.ones(30, dtype=bool), 2)
        assert len(out) == 1
        assert out[0].premise == frozenset()
        assert out[0].conclusion == 1

    def test_never_true_premise_gives_empty_list(self):
        X = np.random.default_rng(0).uniform(size=(30, 2))
        rule = Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.9)
        assert extract.substitute_clause(rule, X, np.zeros(30, dtype=bool), 2) == []

    def test_confidence_multiplies(self):
        X, truth = interval_truth(IV3)
        rule = Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.5)
        out = extract.substitute_clause(rule, X, truth, 2, winnow=False)
        # pure TRUE leaves of size ~40 have Laplace confidence just under 1
        for r in out:
            assert r.confidence < 0.5
            assert r.confidence > 0.5 * 0.9

    def test_monotone_hidden_unit_recovers_input_threshold(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(500, 10))
        # one tanh unit reading x1 only; premise on it is exactly x1 > 0.5
        W0 = np.zeros((1, 10))
        W0[0, 0] = 1.0
        net = mlp.Mlp((
            mlp.Layer(W0, np.zeros(1), "tanh"),
            mlp.Layer(np.array([[1.0], [-1.0]]), np.zeros(2), "softmax"),
        ))
        H = mlp.layer_outputs(net, X)[1]
        premise = frozenset({Term(0, OP_GT, float(np.tanh(0.5)))})
        truth = premise_mask(premise, H)
        out = extract.substitute_clause(Rule(premise, 0, 1.0), X, truth, 2)
        fired = np.zeros(len(X), dtype=bool)
        for r in out:
            fired |= premise_mask(r.premise, X)
        agreement = np.mean(fired == (X[:, 0] > 0.5))
        assert agreement >= 0.95


class TestCountingLaws:
    def test_clausewise_is_additive(self):
        X, truth3 = interval_truth(IV3)
        _, truth4 = interval_truth(IV4)
        H = np.column_stack([truth3.astype(float), truth4.astype(float)])
        r1 = Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.9)
        r2 = Rule(frozenset({Term(1, OP_GT, 0.5)}), 1, 0.8)
        out = extract.clausewise_substitute([r1, r2], H, X, 2, winnow=False)
        assert len(out) == forced_counts(IV3) + forced_counts(IV4) == 7

    def test_termwise_is_multiplicative(self):
        X, truth3 = interval_truth(IV3)
        _, truth4 = interval_truth(IV4)
        rule = Rule(frozenset({Term(0, OP_GT, 0.5), Term(1, OP_GT, 0.5)}), 1, 0.9)
        term_rules = {
            Term(0, OP_GT, 0.5): extract.substitute_clause(
                Rule(frozenset(), 0, 1.0), X, truth3, 2, winnow=False),
            Term(1, OP_GT, 0.5): extract.substitute_clause(
                Rule(frozenset(), 0, 1.0), X, truth4, 2, winnow=False),
        }
        out = extract.termwise_substitute(rule, term_rules)
        assert len(out) == forced_counts(IV3) * forced_counts(IV4) == 12

    def test_three_by_three_against_additive_six(self):
        # the same clause set costs 9 rules term-wise but 6 clause-wise
        X, truth_a = interval_truth(IV3)
        _, truth_b = interval_truth(IV3B)
        H = np.column_stack([truth_a.astype(float), truth_b.astype(float)])
        t_a, t_b = Term(0, OP_GT, 0.5), Term(1, OP_GT, 0.5)
        term_rules = {
            t_a: extract.substitute_clause(Rule(frozenset(), 0, 1.0), X, truth_a, 2, winnow=False),
            t_b: extract.substitute_clause(Rule(frozenset(), 0, 1.0), X, truth_b, 2, winnow=False),
        }
        two_term = Rule(frozenset({t_a, t_b}), 1, 0.9)
        assert len(extract.termwise_substitute(two_term, term_rules)) == 9
        singles = [Rule(frozenset({t_a}), 1, 0.9), Rule(frozenset({t_b}), 1, 0.9)]
        assert len(extract.clausewise_substitute(singles, H, X, 2, winnow=False)) == 6

    def test_single_term_rules_degenerate_to_additive(self):
        X, truth3 = interval_truth(IV3)
        rule = Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.9)
        term_rules = {
            Term(0, OP_GT, 0.5): extract.substitute_clause(
                Rule(frozenset(), 0, 1.0), X, truth3, 2, winnow=False)
        }
        assert len(extract.termwise_substitute(rule, term_rules)) == forced_counts(IV3)

    def test_empty_substitution_annihilates_rule(self):
        rule = Rule(frozenset({Term(0, OP_GT, 0.5), Term(1, OP_GT, 0.5)}), 1, 0.9)
        term_rules = {
            Term(0, OP_GT, 0.5): [Rule(frozenset({Term(0, OP_GT, 0.3)}), 0, 0.9)],
            Term(1, OP_GT, 0.5): [],
        }
        assert extract.termwise_substitute(rule, term_rules) == []


class TestEclaire:
    def test_constant_net_gives_default_rule(self):
        net = mlp.Mlp((
            mlp.Layer(np.zeros((4, 3)), np.zeros(4), "tanh"),
            mlp.Layer(np.zeros((3, 4)), np.zeros(3), "tanh"),
            mlp.Layer(np.zeros((2, 3)), np.zeros(2), "softmax"),
        ))
        X = np.random.default_rng(2).uniform(size=(50, 3))
        # every layer contributes exactly one always-true rule pre-dedup
        per_layer = extract.eclaire_layer_rules(net, X)
        assert [len(contributed) for _, contributed in per_layer] == [1, 1]
        rs = extract.eclaire(net, X)
        assert len(rs.rules) == 1
        assert rs.rules[0].premise == frozenset()
        assert rs.rules[0].conclusion == 0
        assert rules.predict(rs, X[0]) == 0

    def test_additive_law_holds_per_layer(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        cfg = extract.ExtractionConfig(min_samples=5)
        per_layer = extract.eclaire_layer_rules(quick_xor_net, X, cfg)
        yhat = mlp.predict_labels(quick_xor_net, X)
        default = int(np.argmax(np.bincount(yhat)))
        for layer, contributed in per_layer:
            H = mlp.layer_outputs(quick_xor_net, X)[layer]
            t = tree.induce(H, yhat, 5, num_classes=2)
            intermediate = tree.to_ruleset(t, default)
            expected = 0
            for r in intermediate.rules:
                truth = premise_mask(r.premise, H)
                expected += len(extract.substitute_clause(r, X, truth, 5))
            assert len(contributed) == expected

    def test_layer_contributions_independent_of_selection(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        all_layers = dict(extract.eclaire_layer_rules(
            quick_xor_net, X, extract.ExtractionConfig(min_samples=5, layer_stride=1)))
        strided = dict(extract.eclaire_layer_rules(
            quick_xor_net, X, extract.ExtractionConfig(min_samples=5, layer_stride=2)))
        assert set(strided) == {1}.union({1 + 2} if quick_xor_net.num_hidden >= 3 else set())
        for layer, contributed in strided.items():
            assert contributed == all_layers[layer]

    def test_include_input_layer_adds_layer_zero(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        cfg = extract.ExtractionConfig(min_samples=5, include_input_layer=True)
        layers = [layer for layer, _ in extract.eclaire_layer_rules(quick_xor_net, X, cfg)]
        assert layers[0] == 0

    def test_no_dead_rules_on_training_data(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        rs = extract.eclaire(quick_xor_net, X, extract.ExtractionConfig(min_samples=5))
        for r in rs.rules:
            assert premise_mask(r.premise, X).any()

    def test_deterministic_rerun(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        cfg = extract.ExtractionConfig(min_samples=5, sample_fraction=0.5, seed=9)
        assert extract.eclaire(quick_xor_net, X, cfg) == extract.eclaire(quick_xor_net, X, cfg)

    def test_rule_drop_prunes_intermediates(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        full = extract.eclaire(quick_xor_net, X, extract.ExtractionConfig(min_samples=5))
        pruned = extract.eclaire(
            quick_xor_net, X, extract.ExtractionConfig(min_samples=5, rule_drop_pct=50))
        assert len(pruned.rules) <= len(full.rules)

    def test_no_hidden_layers_rejected(self):
        net = mlp.Mlp((mlp.Layer(np.zeros((2, 3)), np.zeros(2), "softmax"),))
        with pytest.raises(extract.ExtractError, match="no layers"):
            extract.eclaire(net, np.zeros((4, 3)))

    def test_width_mismatch_rejected(self, quick_xor_net):
        with pytest.raises(extract.ExtractError, match="width"):
            extract.eclaire(quick_xor_net, np.zeros((4, 3)))

    def test_eclaire_star_equals_flagged_eclaire(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:200]
        cfg = extract.ExtractionConfig(min_samples=5)
        star = extract.eclaire_star(quick_xor_net, X, cfg)
        flagged = extract.eclaire(
            quick_xor_net, X, extract.ExtractionConfig(min_samples=5, include_input_layer=True))
        assert star == flagged

    def test_substitution_trees_share_one_column_sort(self, xor_ds, quick_xor_net, monkeypatch):
        # every substitution tree of a layer gets the same sorted columns,
        # still through substitute_clause and its induce
        seen = []
        real = extract.induce

        def recording(X, *args, **kwargs):
            seen.append(X)
            return real(X, *args, **kwargs)

        monkeypatch.setattr(extract, "induce", recording)
        per_layer = extract.eclaire_layer_rules(quick_xor_net, xor_ds.features[:300])
        shared = [X for X in seen if isinstance(X, tree.SortedColumns)]
        assert len(shared) == len(seen) - len(per_layer)
        assert len({id(X) for X in shared}) == len(per_layer)


def traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("rows", [800, 400])
    def test_trees_stay_under_the_forward_pass_peak(self, xor_ds, xor_folds, xor_preset_net, rows):
        # the forward pass sets eclaire's peak allocation; the split scan's
        # block budget must keep every tree below it
        X = xor_ds.features[list(xor_folds[0].train_indices)][:rows]
        cfg = extract.ExtractionConfig(min_samples=2)
        extract.eclaire(xor_preset_net, X, cfg)
        prepare = traced_peak(lambda: extract._prepare(xor_preset_net, X, cfg))
        assert traced_peak(lambda: extract.eclaire(xor_preset_net, X, cfg)) <= prepare


def blobs_net_and_data(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.4, (80, 2)), rng.normal(3, 0.4, (80, 2))])
    y = np.array([0] * 80 + [1] * 80)
    ds = data.Dataset(X, y, ("a", "b"), ("neg", "pos"))
    net = mlp.train(ds, [5, 4], "tanh", mlp.TrainConfig(epochs=60, batch_size=16, seed=seed))
    return net, ds


class TestTermwiseBaselines:
    def test_remd_and_deepred_agree(self):
        net, ds = blobs_net_and_data()
        cfg = extract.ExtractionConfig(min_samples=5)
        a = extract.remd(net, ds.features, cfg, ds.feature_names)
        b = extract.deepred_star(net, ds.features, cfg, ds.feature_names)
        assert {(r.premise, r.conclusion) for r in a.rules} == {(r.premise, r.conclusion) for r in b.rules}
        assert a.default_label == b.default_label

    def test_deepred_retains_more_live_rules(self):
        net, ds = blobs_net_and_data(seed=3)
        cfg = extract.ExtractionConfig(min_samples=3)
        stats_remd, stats_deepred = {}, {}
        extract.remd(net, ds.features, cfg, stats=stats_remd)
        extract.deepred_star(net, ds.features, cfg, stats=stats_deepred)
        assert stats_deepred["peak_live_rules"] > stats_remd["peak_live_rules"]

    @pytest.mark.parametrize("method", [extract.remd, extract.deepred_star])
    def test_output_is_already_canonical(self, method):
        for seed, mu in ((0, 5), (3, 3)):
            net, ds = blobs_net_and_data(seed)
            rs = method(net, ds.features, extract.ExtractionConfig(min_samples=mu))
            assert len(rs.rules) > 1
            assert rules.canonicalize(rs) == rs

    def test_explosion_guard_trips_with_structured_error(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        with pytest.raises(extract.ExplosionGuard) as info:
            extract.remd(quick_xor_net, X, extract.ExtractionConfig(min_samples=2), rule_cap=10)
        assert info.value.cap == 10
        assert info.value.rule_count > 10
        assert info.value.layer >= 1

    def test_guard_bounds_memory(self, xor_ds, xor_folds, quick_xor_net):
        # each rule's combinations stream into the deduplicated step set, so
        # memory stays near that set and the term cache (about 1.5 MB here)
        # rather than the raw expansion the guard counts (10 MB held whole)
        X = xor_ds.features[list(xor_folds[0].train_indices)][:300]
        cfg = extract.ExtractionConfig(min_samples=10)

        def fire():
            with pytest.raises(extract.ExplosionGuard):
                extract.remd(quick_xor_net, X, cfg, rule_cap=20_000)

        assert traced_peak(fire) < 4_000_000

    def test_empty_top_ruleset_means_default_only(self):
        # a constant network yields a single empty-premise top rule, which
        # substitutes into the always-true rule
        net = mlp.Mlp((
            mlp.Layer(np.zeros((3, 2)), np.zeros(3), "tanh"),
            mlp.Layer(np.zeros((2, 3)), np.zeros(2), "softmax"),
        ))
        X = np.random.default_rng(4).uniform(size=(40, 2))
        rs = extract.remd(net, X)
        assert len(rs.rules) == 1
        assert rs.rules[0].premise == frozenset()


class TestFlatBaselines:
    def test_pedc5_constant_net_is_single_default_rule(self):
        net = mlp.Mlp((mlp.Layer(np.zeros((2, 3)), np.zeros(2), "softmax"),))
        X = np.random.default_rng(5).uniform(size=(40, 3))
        rs = extract.pedc5(net, X)
        assert len(rs.rules) == 1
        assert rs.rules[0].premise == frozenset()

    def test_pedc5_matches_c5_when_net_is_perfect(self):
        net, ds = blobs_net_and_data(seed=6)
        yhat = mlp.predict_labels(net, ds.features)
        assert np.array_equal(yhat, ds.labels), "fixture net must be perfect on train"
        a = extract.pedc5(net, ds.features, feature_names=ds.feature_names)
        b = extract.c5_direct(ds.features, ds.labels, feature_names=ds.feature_names)
        assert a == b

    def test_c5_on_separable_blobs_is_accurate(self):
        _, ds = blobs_net_and_data(seed=7)
        rs = extract.c5_direct(ds.features, ds.labels)
        assert evaluation.accuracy(rs, ds.features, ds.labels) >= 99.0


class TestRunMethod:
    @pytest.mark.parametrize("method", extract.METHOD_NAMES)
    def test_non_finite_input_rejected(self, method, xor_ds, quick_xor_net):
        X = xor_ds.features[:60].copy()
        X[7, 3] = np.nan
        with pytest.raises(extract.ExtractError, match="non-finite"):
            extract.run_method(
                method, X, xor_ds.labels[:60], quick_xor_net, extract.ExtractionConfig(min_samples=5)
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["eclaire", "eclaire_star", "remd", "deepred_star", "pedc5"])
    @pytest.mark.parametrize("sample_fraction", [1.0, 0.5])
    def test_overflowing_layer_output_rejected(self, method, sample_fraction):
        # finite input whose first hidden layer overflows to inf
        net = mlp.Mlp((
            mlp.Layer(np.full((3, 2), 1e200), np.zeros(3), "relu"),
            mlp.Layer(np.ones((2, 3)), np.zeros(2), "softmax"),
        ))
        X = np.random.default_rng(5).uniform(1e200, 2e200, size=(40, 2))
        cfg = extract.ExtractionConfig(min_samples=5, sample_fraction=sample_fraction)
        with pytest.raises(extract.ExtractError, match="layer 1 gives non-finite"):
            extract.run_method(method, X, net=net, cfg=cfg)

    @pytest.mark.parametrize("method", ["eclaire", "eclaire_star", "remd", "deepred_star", "pedc5"])
    def test_one_forward_pass_per_extraction(self, method, monkeypatch):
        net, ds = blobs_net_and_data()
        passes = []
        original = extract.layer_outputs
        monkeypatch.setattr(
            extract, "layer_outputs", lambda net, x: passes.append(len(x)) or original(net, x)
        )
        extract.run_method(method, ds.features, net=net, cfg=extract.ExtractionConfig(min_samples=5))
        assert passes == [ds.num_samples]

    def test_bad_sample_fraction_rejected(self):
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(extract.ExtractError, match="sample_fraction"):
                extract.ExtractionConfig(sample_fraction=fraction)

    def test_unknown_method_rejected(self):
        with pytest.raises(extract.ExtractError, match="unknown method"):
            extract.run_method("magic", np.zeros((4, 2)))

    def test_c5_requires_labels(self):
        with pytest.raises(extract.ExtractError, match="true labels"):
            extract.run_method("c5", np.zeros((4, 2)))

    def test_net_methods_require_net(self):
        with pytest.raises(extract.ExtractError, match="requires a network"):
            extract.run_method("eclaire", np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_dispatch_matches_direct_calls(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:200]
        cfg = extract.ExtractionConfig(min_samples=5)
        via_dispatch = extract.run_method("eclaire", X, None, quick_xor_net, cfg)
        direct = extract.eclaire(quick_xor_net, X, cfg)
        assert via_dispatch == direct

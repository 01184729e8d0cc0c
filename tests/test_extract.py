import gc
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import data, evaluation, extract, mlp, rules, tree
from nnrex.rules import OP_GT, Rule, Term, premise_mask
from conftest import eclaire_layer_rules, full_layer_outputs, random_net


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
        per_layer = eclaire_layer_rules(net, X)
        assert [len(contributed) for _, contributed in per_layer] == [1, 1]
        rs = extract.eclaire(net, X)
        assert len(rs.rules) == 1
        assert rs.rules[0].premise == frozenset()
        assert rs.rules[0].conclusion == 0
        assert rules.predict(rs, X[0]) == 0

    def test_additive_law_holds_per_layer(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:300]
        cfg = extract.ExtractionConfig(min_samples=5)
        per_layer = eclaire_layer_rules(quick_xor_net, X, cfg)
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
        all_layers = dict(eclaire_layer_rules(
            quick_xor_net, X, extract.ExtractionConfig(min_samples=5, layer_stride=1)))
        strided = dict(eclaire_layer_rules(
            quick_xor_net, X, extract.ExtractionConfig(min_samples=5, layer_stride=2)))
        assert set(strided) == {1}.union({1 + 2} if quick_xor_net.num_hidden >= 3 else set())
        for layer, contributed in strided.items():
            assert contributed == all_layers[layer]

    def test_include_input_layer_adds_layer_zero(self, xor_ds, quick_xor_net):
        # eclaire_star is eclaire's union over layer 0 and eclaire's layers
        X = xor_ds.features[:300]
        cfg = extract.ExtractionConfig(min_samples=5, layer_stride=2)
        default, per_layer = extract._clausewise(quick_xor_net, X, cfg, input_layer=True)
        assert per_layer[0][0] == 0
        assert per_layer[1:] == eclaire_layer_rules(quick_xor_net, X, cfg)
        union = tuple(r for _, contributed in per_layer for r in contributed)
        assert extract.eclaire_star(quick_xor_net, X, cfg) == rules.canonicalize(
            rules.RuleSet(union, default, quick_xor_net.num_classes))

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

    def test_substitution_trees_share_one_column_sort(self, xor_ds, quick_xor_net, monkeypatch):
        # every substitution tree of an extraction, over all its layers,
        # gets the same sorted columns, through one forest per layer; induce
        # grows only the intermediate trees, from plain arrays
        forests, induced = [], []
        real_forest, real_induce = extract.grow_forest, extract.induce

        def forest(cols, ys, *args, **kwargs):
            forests.append(cols)
            return real_forest(cols, ys, *args, **kwargs)

        def induce(X, *args, **kwargs):
            induced.append(X)
            return real_induce(X, *args, **kwargs)

        monkeypatch.setattr(extract, "grow_forest", forest)
        monkeypatch.setattr(extract, "induce", induce)
        per_layer = eclaire_layer_rules(quick_xor_net, xor_ds.features[:300])
        assert len(forests) == len(induced) == len(per_layer) > 1
        assert not any(isinstance(X, tree.SortedColumns) for X in induced)
        assert all(isinstance(cols, tree.SortedColumns) for cols in forests)
        assert len({id(cols) for cols in forests}) == 1


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
        # the split scan's block budget must keep every tree below the
        # all-layer forward pass that the term-wise methods hold
        X = xor_ds.features[list(xor_folds[0].train_indices)][:rows]
        cfg = extract.ExtractionConfig(min_samples=2)
        extract.eclaire(xor_preset_net, X, cfg)
        every_layer = traced_peak(lambda: list(extract._finite(mlp.stream_layers(xor_preset_net, X))))
        assert traced_peak(lambda: extract.eclaire(xor_preset_net, X, cfg)) <= every_layer

    def test_first_subsampled_extraction_peaks_like_the_next(self, xor_ds, xor_folds, xor_preset_net,
                                                             tmp_path):
        # in a fresh process, numpy's one-time allocations would inflate the
        # first measured peak over the next one
        mlp.save(xor_preset_net, tmp_path / "net.json")
        np.save(tmp_path / "X.npy", xor_ds.features[list(xor_folds[0].train_indices)])
        script = f"""
import sys
sys.path.insert(0, {str(Path(extract.__file__).parents[1])!r})
import numpy as np
from nnrex import evaluation, extract, mlp
net, X = mlp.load({str(tmp_path / "net.json")!r}), np.load({str(tmp_path / "X.npy")!r})
cfg = extract.ExtractionConfig(min_samples=2, sample_fraction=0.6)
print(*(evaluation.measure(lambda: extract.eclaire(net, X, cfg))[2] for _ in range(2)))
"""
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        first, second = map(int, out.stdout.split())
        assert abs(first - second) <= 4096

    @pytest.mark.parametrize("rows", [800, 400])
    def test_streamed_eclaire_peaks_under_three_quarters_of_the_full_pass(
            self, xor_ds, xor_folds, xor_preset_net, rows):
        # eclaire holds one layer's activations at a time (two while the
        # next is computed) and keeps each intermediate rule's truth as row
        # indices, so it stays well under the pass that held every layer
        # and its pre-activation at once
        X = xor_ds.features[list(xor_folds[0].train_indices)][:rows]
        cfg = extract.ExtractionConfig(min_samples=2)
        extract.eclaire(xor_preset_net, X, cfg)
        # the full pass as extraction ran it: every layer checked for finite values
        full = traced_peak(lambda: [np.isfinite(h).all() for h in full_layer_outputs(xor_preset_net, X)])
        assert traced_peak(lambda: extract.eclaire(xor_preset_net, X, cfg)) <= 0.75 * full


def blobs_net_and_data(seed=0, hidden=(5, 4)):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.4, (80, 2)), rng.normal(3, 0.4, (80, 2))])
    y = np.array([0] * 80 + [1] * 80)
    ds = data.Dataset(X, y, ("a", "b"), ("neg", "pos"))
    net = mlp.train(ds, list(hidden), "tanh", mlp.TrainConfig(epochs=60, batch_size=16, seed=seed))
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

    def test_one_hidden_layer_holds_the_same_live_rules(self):
        # with one hidden layer there is no earlier set for deepred_star to
        # retain, so both strategies hold the same rules at every step
        net, ds = blobs_net_and_data(seed=3, hidden=(5,))
        cfg = extract.ExtractionConfig(min_samples=3)
        stats_remd, stats_deepred = {}, {}
        extract.remd(net, ds.features, cfg, stats=stats_remd)
        extract.deepred_star(net, ds.features, cfg, stats=stats_deepred)
        assert stats_deepred["peak_live_rules"] == stats_remd["peak_live_rules"]

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


class TestDirectCallsCheckTheirConfig:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["remd", "deepred_star", "pedc5", "c5"]),
           st.sampled_from(["layer_stride", "rule_drop_pct"]), st.data())
    def test_unread_knob_refused(self, method, knob, draw):
        # the clause-wise knobs off their defaults, on a method that never
        # reads them, called without run_method
        value = draw.draw(st.integers(2, 9) if knob == "layer_stride"
                          else st.floats(1e-9, 100.0, allow_nan=False))
        cfg = extract.ExtractionConfig(min_samples=5, **{knob: value})
        net = random_net([3, 4, 2], seed=1)
        X = np.random.default_rng(2).normal(size=(30, 3))
        call = {
            "remd": lambda: extract.remd(net, X, cfg),
            "deepred_star": lambda: extract.deepred_star(net, X, cfg),
            "pedc5": lambda: extract.pedc5(net, X, cfg),
            "c5": lambda: extract.c5_direct(X, (X[:, 0] > 0).astype(int), cfg),
        }[method]
        with pytest.raises(extract.ExtractError, match=f"method {method} does not read {knob}"):
            call()


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
    @pytest.mark.parametrize("sample_fraction", [1.0, 0.6])
    def test_streamed_passes_per_extraction(self, method, sample_fraction, monkeypatch):
        # a label pass over every row through the output layer; eclaire then
        # walks the kept rows once, up to its last selected layer, the
        # term-wise methods walk them through the output layer, and pedc5
        # needs nothing more
        net, ds = blobs_net_and_data()
        passes = []
        original = extract.stream_layers

        def counting(net, x):
            passes.append([len(x), 0])
            for h in original(net, x):
                passes[-1][1] += 1
                yield h

        monkeypatch.setattr(extract, "stream_layers", counting)
        cfg = extract.ExtractionConfig(min_samples=5, sample_fraction=sample_fraction)
        extract.run_method(method, ds.features, net=net, cfg=cfg)
        counts = np.bincount(mlp.predict_labels(net, ds.features))
        kept = int(sum(np.floor(sample_fraction * counts + 0.5)))
        d = net.num_hidden
        last = d + 1 if method.startswith("eclaire") else d + 2
        walk = [[kept, last]] if method != "pedc5" else []
        assert passes == [[ds.num_samples, d + 2]] + walk

    @pytest.mark.parametrize("method, X, y, num_classes, match", [
        *((method, np.zeros((0, 2)), np.zeros(0, dtype=int), 2, "no rows")
          for method in extract.METHOD_NAMES),
        ("c5", np.zeros((0, 2)), np.zeros(0, dtype=int), None, "no rows"),
        ("c5", np.zeros((4, 2)), np.zeros(3, dtype=int), None, "3 true labels for 4 rows"),
        ("c5", np.zeros((4, 2)), np.array([0, 1, -1, 0]), None, r"must lie in \[0, 2\)"),
        ("c5", np.zeros((4, 2)), np.array([0, 1, 2, 0]), 2, r"must lie in \[0, 2\)"),
        ("c5", np.zeros((4, 2)), np.array([0, 1, 0.5, 0]), 2, "whole numbers"),
    ], ids=[*extract.METHOD_NAMES, "c5-inferred-classes", "short-labels", "negative", "too-large",
            "fractional"])
    def test_bad_rows_or_labels_raise_extract_error(self, method, X, y, num_classes, match):
        with pytest.raises(extract.ExtractError, match=match):
            extract.run_method(method, X, y, random_net([2, 3, 2]), num_classes=num_classes)

    @pytest.mark.parametrize("method", extract.METHOD_NAMES)
    def test_subsample_of_no_rows_rejected(self, method):
        # 80 rows per class, of which a fraction of 0.001 keeps none
        net, ds = blobs_net_and_data()
        cfg = extract.ExtractionConfig(min_samples=5, sample_fraction=0.001)
        with pytest.raises(extract.ExtractError, match="sample_fraction 0.001 keeps none of the 160 rows"):
            extract.run_method(method, ds.features, ds.labels, net, cfg)

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

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nnrex import data, evaluation, extract, mlp, rules
from nnrex.rules import OP_GT, Rule, RuleSet, Term
from conftest import random_net


def perfect_ruleset():
    return RuleSet(
        (
            Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.9),
            Rule(frozenset({Term(0, rules.OP_LE, 0.5)}), 0, 0.9),
        ),
        0, 2, ("a",),
    )


class TestAccuracy:
    def test_perfect_rules_score_100(self):
        rs = perfect_ruleset()
        X = np.array([[0.1], [0.9], [0.4], [0.7]])
        y = np.array([0, 1, 0, 1])
        assert evaluation.accuracy(rs, X, y) == 100.0

    def test_default_only_matches_majority_rate(self):
        rs = RuleSet((), 0, 2)
        y = np.array([0] * 526 + [1] * 474)
        X = np.zeros((1000, 1))
        assert evaluation.accuracy(rs, X, y) == pytest.approx(52.6)

    def test_hand_counted_fixture(self):
        # 7 of 10 predictions match by construction
        rs = perfect_ruleset()
        X = np.array([[0.9]] * 7 + [[0.1]] * 3)
        y = np.array([1] * 7 + [1] * 3)
        assert evaluation.accuracy(rs, X, y) == pytest.approx(70.0)


class TestFidelity:
    def test_rules_from_constant_net_are_fully_faithful(self):
        net = mlp.Mlp((mlp.Layer(np.zeros((2, 1)), np.zeros(2), "softmax"),))
        rs = extract.pedc5(net, np.array([[0.1], [0.9]]))
        X = np.random.default_rng(0).uniform(size=(50, 1))
        assert evaluation.fidelity(rs, X, net) == 100.0

    def test_fidelity_is_accuracy_against_net_labels(self, xor_ds, quick_xor_net):
        X = xor_ds.features[:200]
        rs = extract.pedc5(quick_xor_net, X)
        yhat = mlp.predict_labels(quick_xor_net, X)
        assert evaluation.fidelity(rs, X, quick_xor_net) == evaluation.accuracy(rs, X, yhat)


class TestAucBinary:
    def test_perfect_separation_is_100(self):
        rs = perfect_ruleset()
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([0, 0, 1, 1])
        assert evaluation.auc_binary(rs, X, y) == 100.0

    def test_constant_scores_give_50(self):
        rs = RuleSet((), 0, 2)
        X = np.zeros((20, 1))
        y = np.array([0, 1] * 10)
        assert evaluation.auc_binary(rs, X, y) == 50.0

    def test_six_sample_fixture_matches_manual_rank_sum(self):
        # scores by region: x <= 3.5 -> 0.4/0.6, 3.5 < x <= 5.5 -> 0.8/1.0,
        # x > 5.5 -> 1.7/1.9. labels [0,0,1,0,1,1] over x = 1..6.
        # midranks: {1,2,3} -> 2, {4,5} -> 4.5, {6} -> 6; positive rank sum
        # = 2 + 4.5 + 6 = 12.5; U = 12.5 - 6 = 6.5; AUC = 6.5/9.
        rs = RuleSet(
            (
                Rule(frozenset(), 1, 0.4),
                Rule(frozenset({Term(0, OP_GT, 3.5)}), 1, 0.4),
                Rule(frozenset(), 0, 0.2),
                Rule(frozenset({Term(0, OP_GT, 5.5)}), 1, 0.9),
            ),
            0, 2,
        )
        X = np.arange(1.0, 7.0)[:, None]
        y = np.array([0, 0, 1, 0, 1, 1])
        assert evaluation.auc_binary(rs, X, y) == pytest.approx(100 * 6.5 / 9, abs=1e-12)

    def test_label_independent_scores_near_50(self):
        rng = np.random.default_rng(1)
        values = []
        for trial in range(30):
            scores = rng.uniform(size=200)
            y = rng.integers(0, 2, 200)
            if y.min() == y.max():
                continue
            values.append(evaluation._mann_whitney_auc(scores, y) * 100)
        assert abs(np.mean(values) - 50.0) < 2.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 1)),
                    min_size=2, max_size=40))
    def test_midranks_match_pairwise_u(self, pairs):
        scores = np.array([s for s, _ in pairs])
        y = np.array([c for _, c in pairs])
        assume(y.min() != y.max())
        pos, neg = scores[y == 1], scores[y == 0]
        u = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        assert evaluation._mann_whitney_auc(scores, y) == u / (len(pos) * len(neg))


class TestMeasure:
    def test_noop_is_fast(self):
        _, seconds, peak = evaluation.measure(lambda: None)
        assert seconds < 0.05
        assert peak >= 0

    def test_sleep_calibration(self):
        _, seconds, _ = evaluation.measure(lambda: time.sleep(0.1))
        assert abs(seconds - 0.1) <= 0.05

    def test_allocation_is_counted(self):
        _, _, peak = evaluation.measure(lambda: np.zeros(1_000_000))
        assert peak >= 8_000_000

    def test_termwise_explosion_outweighs_clausewise_peak(self, xor_ds, quick_xor_net):
        # on a configuration where term-wise substitution blows up, its peak
        # allocation dwarfs the clause-wise run even though the guard stops it
        X = xor_ds.features[:300]
        cfg = extract.ExtractionConfig(min_samples=2)

        def guarded_remd():
            try:
                extract.remd(quick_xor_net, X, cfg, rule_cap=50_000)
            except extract.ExplosionGuard:
                pass

        _, _, peak_remd = evaluation.measure(guarded_remd)
        _, _, peak_eclaire = evaluation.measure(lambda: extract.eclaire(quick_xor_net, X, cfg))
        assert peak_remd >= peak_eclaire


def tiny_blobs(n_per=60, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.5, (n_per, 2)), rng.normal(3, 0.5, (n_per, 2))])
    y = np.array([0] * n_per + [1] * n_per)
    return data.Dataset(X, y, ("a", "b"), ("neg", "pos"))


@pytest.fixture(scope="module")
def blob_crossval():
    ds = tiny_blobs()
    net = mlp.train(ds, [6], "tanh", mlp.TrainConfig(epochs=30, batch_size=16, seed=0))
    result = evaluation.crossval(
        ds, "eclaire", (2, 4, 1), net_preset=None, k=3, seed=5, nets=[net] * 3
    )
    return ds, net, result


class TestCrossval:
    def test_shapes_and_fold_sizes(self, blob_crossval):
        ds, _, result = blob_crossval
        assert len(result.reports) == 3  # mu in {2,3,4}
        for rep in result.reports:
            assert len(rep.fold_accuracy) == 3
        for fold in result.folds:
            assert len(fold.test_indices) == 40

    def test_aggregates_recompute_exactly(self, blob_crossval):
        _, _, result = blob_crossval
        for rep in result.reports:
            agg = rep.aggregates()
            assert agg["accuracy"]["mean"] == pytest.approx(np.mean(rep.fold_accuracy))
            assert agg["accuracy"]["std"] == pytest.approx(np.std(rep.fold_accuracy))
            assert agg["rule_count"]["mean"] == pytest.approx(np.mean(rep.fold_rule_count))

    def test_best_has_max_mean_accuracy(self, blob_crossval):
        _, _, result = blob_crossval
        best_acc = max(np.mean(r.fold_accuracy) for r in result.reports)
        assert np.mean(result.best.fold_accuracy) == best_acc

    def test_deterministic_modulo_resources(self, blob_crossval):
        ds, net, first = blob_crossval
        second = evaluation.crossval(
            ds, "eclaire", (2, 4, 1), net_preset=None, k=3, seed=5, nets=[net] * 3
        )
        for a, b in zip(first.reports, second.reports):
            assert a.fold_accuracy == b.fold_accuracy
            assert a.fold_fidelity == b.fold_fidelity
            assert a.fold_auc == b.fold_auc
            assert a.fold_rule_count == b.fold_rule_count
            assert a.config_hash == b.config_hash

    def test_c5_method_needs_no_net(self):
        ds = tiny_blobs(seed=2)
        result = evaluation.crossval(ds, "c5", (2, 3, 1), net_preset=None, k=3, seed=1)
        assert all(v is None for v in result.best.fold_fidelity)
        assert np.mean(result.best.fold_accuracy) >= 95.0

    def test_validation_selection_runs(self):
        ds = tiny_blobs(seed=3)
        net = mlp.train(ds, [6], "tanh", mlp.TrainConfig(epochs=20, batch_size=16, seed=0))
        result = evaluation.crossval(
            ds, "pedc5", (2, 3, 1), net_preset=None, k=3, seed=2, nets=[net] * 3,
            select_by="validation",
        )
        assert result.best.mu in (2, 3)

    def test_validation_split_computed_once_per_fold(self, monkeypatch):
        # one split into k folds, then one validation split per fold, however
        # many grid points reuse them
        calls = []
        real = evaluation.stratified_kfold

        def counting(ds, k, seed):
            calls.append(k)
            return real(ds, k, seed)

        monkeypatch.setattr(evaluation, "stratified_kfold", counting)
        ds = tiny_blobs(seed=3)
        evaluation.crossval(ds, "c5", (2, 5, 1), net_preset=None, k=3, seed=2, select_by="validation")
        assert calls == [3, 4, 4, 4]

    def test_each_fold_trains_its_net_then_extracts_at_every_grid_point(self, monkeypatch):
        # one training call for all k fold nets, then the extractions fold
        # by fold, each from its own fold's net
        calls, trained = [], []
        real_run = evaluation.run_method

        def recording_train(train_sets, hidden_sizes, activation, cfgs):
            calls.append(("train", [cfg.seed for cfg in cfgs]))
            trained.extend(random_net([d.num_features, 4, d.num_classes], activation, cfg.seed)
                           for d, cfg in zip(train_sets, cfgs))
            return list(trained)

        def recording_run(method, X, y, net, *args, **kwargs):
            calls.append(("run", next(f for f, fold_net in enumerate(trained) if fold_net is net)))
            return real_run(method, X, y, net, *args, **kwargs)

        monkeypatch.setattr(evaluation, "train_many", recording_train)
        monkeypatch.setattr(evaluation, "run_method", recording_run)
        evaluation.crossval(tiny_blobs(seed=6), "pedc5", (2, 3, 1), net_preset="xor", k=3, seed=0)
        assert calls == [("train", [0, 1, 2])] + [("run", f) for f in range(3) for _ in range(2)]

    def test_empty_grid_rejected(self):
        ds = tiny_blobs(seed=4)
        with pytest.raises(evaluation.EvalError):
            evaluation.crossval(ds, "c5", (5, 4, 1), net_preset=None, k=3, seed=0)

    def test_unknown_method_rejected(self):
        ds = tiny_blobs(seed=4)
        with pytest.raises(extract.ExtractError):
            evaluation.crossval(ds, "sorcery", (2, 2, 1), net_preset=None, k=3, seed=0)

    @pytest.mark.parametrize("knob, value", [("layer_stride", 2), ("rule_drop_pct", 10.0)])
    def test_unread_knob_refused_before_any_fold(self, monkeypatch, knob, value):
        def fail(*args, **kwargs):
            raise AssertionError("crossval went on past a knob its method does not read")

        monkeypatch.setattr(evaluation, "stratified_kfold", fail)
        monkeypatch.setattr(evaluation, "train_many", fail)
        cfg = extract.ExtractionConfig(**{knob: value})
        with pytest.raises(extract.ExtractError, match=f"method remd does not read {knob}"):
            evaluation.crossval(tiny_blobs(seed=4), "remd", (25, 26, 1), net_preset="xor", k=3, base_cfg=cfg)


class TestReportRendering:
    def test_table_marks_missing_as_na(self, blob_crossval):
        ds, _, _ = blob_crossval
        result = evaluation.crossval(ds, "c5", (2, 2, 1), net_preset=None, k=3, seed=1)
        table = evaluation.report_table(result.reports)
        assert "N/A" in table
        assert "Accuracy (%)" in table


class TestPresets:
    def test_xor_preset_matches_reference_configuration(self):
        preset = evaluation.NET_PRESETS["xor"]
        assert preset.hidden_sizes == (64, 32, 16)
        assert preset.activation == "tanh"
        assert preset.epochs == 150
        assert preset.batch_size == 16

    def test_xor_grids_cover_all_methods(self):
        for method in extract.METHOD_NAMES:
            assert method in evaluation.XOR_MU_GRIDS
        assert evaluation.XOR_MU_GRIDS["eclaire"] == (2, 15, 1)
        assert evaluation.XOR_MU_GRIDS["remd"] == (25, 35, 1)

    def test_mu_grid_expansion(self):
        assert evaluation.mu_grid((2, 15, 1)) == list(range(2, 16))
        assert evaluation.mu_grid((25, 35, 5)) == [25, 30, 35]

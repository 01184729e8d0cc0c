"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with ``pytest -s`` to see
them inline).

The end-to-end criteria share one synthetic-parity experiment: a fixed
1000x10 dataset, a fixed 5-fold split, and one trained network per fold.
"""
import time

import numpy as np
import pytest

from nnrex import data, evaluation, extract, mlp, rules, tree
from nnrex.rules import OP_GT, Rule, RuleSet, Term, premise_mask
from conftest import random_net

SEED = 7
GRID = (2, 15, 1)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="session")
def preset_nets(xor_ds, xor_folds):
    preset = evaluation.NET_PRESETS["xor"]
    nets = []
    for f, fold in enumerate(xor_folds):
        train_ds = data.Dataset(
            xor_ds.features[list(fold.train_indices)],
            xor_ds.labels[list(fold.train_indices)],
            xor_ds.feature_names,
            xor_ds.class_names,
        )
        nets.append(mlp.train(
            train_ds, preset.hidden_sizes, preset.activation,
            mlp.TrainConfig(epochs=preset.epochs, batch_size=preset.batch_size, seed=SEED + f),
        ))
    return nets


@pytest.fixture(scope="session")
def eclaire_result(xor_ds, preset_nets):
    return evaluation.crossval(
        xor_ds, "eclaire", GRID, net_preset=None, k=5, seed=SEED, nets=preset_nets
    )


class TestCriterion1XorEndToEnd:
    def test_networks_reach_reference_quality(self, xor_ds, xor_folds, preset_nets):
        accs = []
        for fold, net in zip(xor_folds, preset_nets):
            X_test = xor_ds.features[list(fold.test_indices)]
            y_test = xor_ds.labels[list(fold.test_indices)]
            accs.append(np.mean(mlp.predict_labels(net, X_test) == y_test))
        assert np.mean(accs) >= 0.90, f"mean net test accuracy {np.mean(accs):.3f}"

    def test_eclaire_bands(self, eclaire_result):
        best = eclaire_result.best
        acc = float(np.mean(best.fold_accuracy))
        fid = float(np.mean(best.fold_fidelity))
        count = float(np.mean(best.fold_rule_count))
        length = float(np.mean(best.fold_avg_rule_length))
        ok = acc >= 85.0 and fid >= 85.0 and count <= 300 and length <= 4.5
        report(1, ok,
               f"mu={best.mu}: accuracy={acc:.1f}% (>=85), fidelity={fid:.1f}% (>=85), "
               f"rules={count:.1f} (<=300), avg_len={length:.2f} (<=4.5)")


class TestCriterion2BaselineDegeneracy:
    def test_flat_induction_collapses(self, xor_ds, preset_nets, eclaire_result):
        ped = evaluation.crossval(
            xor_ds, "pedc5", GRID, net_preset=None, k=5, seed=SEED, nets=preset_nets
        ).best
        c5 = evaluation.crossval(
            xor_ds, "c5", GRID, net_preset=None, k=5, seed=SEED
        ).best
        eclaire_acc = float(np.mean(eclaire_result.best.fold_accuracy))
        details = []
        ok = True
        for name, rep in (("pedc5", ped), ("c5", c5)):
            acc = float(np.mean(rep.fold_accuracy))
            count = float(np.mean(rep.fold_rule_count))
            margin = eclaire_acc - acc
            ok &= acc <= 65.0 and count <= 10 and margin >= 20.0
            details.append(f"{name}: acc={acc:.1f}% (<=65), rules={count:.1f} (<=10), "
                           f"margin={margin:.1f} (>=20)")
        report(2, ok, "; ".join(details))


class TestCriterion3FeatureUsageConcentration:
    def test_first_two_features_dominate(self, xor_ds, xor_folds, preset_nets, eclaire_result):
        fold = xor_folds[0]
        X = xor_ds.features[list(fold.train_indices)]
        cfg = extract.ExtractionConfig(min_samples=eclaire_result.best.mu, seed=SEED)
        rs = extract.eclaire(preset_nets[0], X, cfg, xor_ds.feature_names)
        usage = rules.feature_usage(rs, xor_ds.num_features)
        combined = usage[0] + usage[1]
        other_max = float(usage[2:].max())
        mention = np.mean([
            any(t.feature in (0, 1) for t in r.premise) for r in rs.rules
        ])
        ok = combined >= 3.0 * other_max and mention >= 0.5
        report(3, ok,
               f"usage(x1)+usage(x2)={combined:.2f} vs 3*max(other)={3 * other_max:.2f}; "
               f"{mention:.0%} of rules mention x1 or x2 (>=50%)")


IV3 = ((0.10, 0.20), (0.40, 0.50), (0.70, 0.80))
IV4 = ((0.05, 0.15), (0.30, 0.40), (0.55, 0.65), (0.85, 0.95))


def interval_truth(intervals, n=400):
    x = (np.arange(n) / (n - 1))[:, None]
    truth = np.zeros(n, dtype=bool)
    for a, b in intervals:
        truth |= (x[:, 0] >= a) & (x[:, 0] <= b)
    return x, truth


class TestCriterion4CountingLaws:
    def test_additive_and_multiplicative_counts(self):
        t0 = time.perf_counter()
        X, truth3 = interval_truth(IV3)
        _, truth4 = interval_truth(IV4)
        # substitution trees are forced to one TRUE leaf per interval:
        # N1 = 3 and N2 = 4
        H = np.column_stack([truth3.astype(float), truth4.astype(float)])
        r1 = Rule(frozenset({Term(0, OP_GT, 0.5)}), 1, 0.9)
        r2 = Rule(frozenset({Term(1, OP_GT, 0.5)}), 1, 0.8)
        clausewise = extract.clausewise_substitute([r1, r2], H, X, 2, winnow=False)

        two_term = Rule(frozenset({Term(0, OP_GT, 0.5), Term(1, OP_GT, 0.5)}), 1, 0.9)
        term_rules = {
            Term(0, OP_GT, 0.5): extract.substitute_clause(
                Rule(frozenset(), 0, 1.0), X, truth3, 2, winnow=False),
            Term(1, OP_GT, 0.5): extract.substitute_clause(
                Rule(frozenset(), 0, 1.0), X, truth4, 2, winnow=False),
        }
        termwise = extract.termwise_substitute(two_term, term_rules)
        elapsed = time.perf_counter() - t0
        ok = (
            len(term_rules[Term(0, OP_GT, 0.5)]) == 3
            and len(term_rules[Term(1, OP_GT, 0.5)]) == 4
            and len(clausewise) == 7
            and len(termwise) == 12
            and elapsed < 1.0
        )
        report(4, ok,
               f"N1=3, N2=4: clause-wise emitted {len(clausewise)} (=7), "
               f"term-wise emitted {len(termwise)} (=12), in {elapsed:.3f}s (<1s)")


class TestCriterion5TreeBounds:
    def test_randomized_induction_bounds(self):
        rng = np.random.default_rng(SEED)
        trials = 200
        violations = 0
        for trial in range(trials):
            n = int(rng.integers(2, 201))
            m = int(rng.integers(1, 9))
            num_classes = int(rng.integers(2, 5))
            X = rng.uniform(-1, 1, size=(n, m))
            noise = rng.random()
            if noise < 0.5:
                y = rng.integers(0, num_classes, size=n)
            else:
                y = (X[:, 0] > rng.uniform(-0.5, 0.5)).astype(int)
            mu = int(rng.integers(2, 12))
            winnow = bool(rng.random() < 0.5)
            t = tree.induce(X, y, mu, winnow=winnow, num_classes=num_classes)
            rs = tree.to_ruleset(t, 0)
            lengths = [len(r.premise) for r in rs.rules]
            unique_terms = {term for r in rs.rules for term in r.premise}
            fired = np.stack([premise_mask(r.premise, X) for r in rs.rules])
            if not (
                t.leaf_count() <= n
                and max(lengths) <= n - 1
                and len(unique_terms) <= 2 * (n - 1)
                and np.array_equal(fired.sum(axis=0), np.ones(n))
            ):
                violations += 1
        report(5, violations == 0, f"{trials} randomized inductions, {violations} violations")


class TestCriterion6Determinism:
    def test_rerun_stability(self, xor_ds, preset_nets):
        X = xor_ds.features[:800]
        nets = {
            "trained": preset_nets[0],
            "random3": random_net([10, 12, 9, 6, 2], activation="tanh", seed=41),
        }
        ok = True
        details = []
        for name, net in nets.items():
            outs = [
                rules.to_json(extract.eclaire(
                    net, X, extract.ExtractionConfig(min_samples=4, seed=SEED)))
                for _ in range(4)
            ]
            same = len(set(outs)) == 1
            ok &= same
            details.append(f"{name}: 4 runs byte-identical={same}")
        report(6, ok, "; ".join(details))


class TestCriterion7CopingMechanisms:
    def test_subsampling_and_rule_dropping(self, xor_ds, xor_folds, preset_nets):
        def run_config(cfg):
            # timed untraced, as the median of three runs per fold: under
            # tracemalloc the time would be mostly the tracer's
            fids, times = [], []
            for fold, net in zip(xor_folds, preset_nets):
                X = xor_ds.features[list(fold.train_indices)]
                X_test = xor_ds.features[list(fold.test_indices)]
                seconds = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    rs = extract.eclaire(net, X, cfg)
                    seconds.append(time.perf_counter() - t0)
                fids.append(evaluation.fidelity(rs, X_test, net))
                times.append(float(np.median(seconds)))
            return float(np.mean(fids)), float(np.mean(times))

        base_fid, base_time = run_config(extract.ExtractionConfig(min_samples=2, seed=SEED))
        half_fid, half_time = run_config(
            extract.ExtractionConfig(min_samples=2, sample_fraction=0.5, seed=SEED))
        drop_fid, _ = run_config(
            extract.ExtractionConfig(min_samples=2, rule_drop_pct=25, seed=SEED))

        fid_drop_half = base_fid - half_fid
        time_drop = (base_time - half_time) / base_time
        fid_drop_rules = base_fid - drop_fid
        ok = fid_drop_half <= 2.0 and time_drop >= 0.30 and fid_drop_rules <= 2.0
        report(7, ok,
               f"half-sample: fidelity drop {fid_drop_half:.2f}pts (<=2), "
               f"time drop {time_drop:.0%} (>=30%); "
               f"drop 25% rules: fidelity drop {fid_drop_rules:.2f}pts (<=2)")


class TestCriterion8ExplosionGuard:
    def test_termwise_bounded_and_eclaire_fast(self, xor_ds, preset_nets):
        X = xor_ds.features[:800]
        cfg = extract.ExtractionConfig(min_samples=2, seed=SEED)
        t0 = time.perf_counter()
        outcome = "terminated"
        try:
            extract.remd(preset_nets[0], X, cfg)
        except extract.ExplosionGuard as exc:
            outcome = f"aborted with structured guard ({exc.rule_count} > {exc.cap})"
        remd_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        extract.eclaire(preset_nets[0], X, cfg)
        eclaire_time = time.perf_counter() - t0
        ok = eclaire_time < 120.0
        report(8, ok,
               f"term-wise {outcome} in {remd_time:.1f}s; "
               f"clause-wise finished in {eclaire_time:.1f}s (<120s)")


class TestCriterion9NumericalChecks:
    def test_gradient_softmax_and_auc(self):
        # gradient vs central differences on a 3-hidden-layer toy net
        rng = np.random.default_rng(13)
        shapes = [(5, 4), (4, 5), (3, 4), (2, 3)]
        kinds = ["tanh", "elu", "tanh"]
        params = [(rng.normal(0, 0.5, s), rng.normal(0, 0.1, s[0])) for s in shapes]
        Xb = rng.normal(size=(10, 4))
        yb = rng.integers(0, 2, 10)
        wb = rng.uniform(0.5, 1.5, 10)
        layers = [mlp.Layer(W, b, kind) for (W, b), kind in zip(params, [*kinds, "softmax"])]
        grads = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        scratch = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        mlp._loss_and_grads(layers, Xb, yb, wb, grads)
        h = 1e-5
        worst = 0.0
        for k, (W, b) in enumerate(params):
            for arr, g in ((W, grads[k][0]), (b, grads[k][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + h
                    lp = mlp._loss_and_grads(layers, Xb, yb, wb, scratch)
                    arr[ix] = old - h
                    lm = mlp._loss_and_grads(layers, Xb, yb, wb, scratch)
                    arr[ix] = old
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8))

        # softmax normalization over 10^4 random inputs
        net = random_net([6, 8, 3], seed=2)
        X = np.random.default_rng(3).normal(size=(10_000, 6)) * 4
        max_dev = float(np.abs(mlp.forward(net, X).sum(axis=1) - 1.0).max())

        # AUC fixture vs the manual Mann-Whitney rank computation:
        # scores 2/3 (x<=3.5), 0.8 (3.5<x<=5.5), 1.7/1.9 (x>5.5) over labels
        # [0,0,1,0,1,1] give positive midranks 2, 4.5, 6 -> U=6.5, AUC=6.5/9
        rs = RuleSet(
            (
                Rule(frozenset(), 1, 0.4),
                Rule(frozenset({Term(0, OP_GT, 3.5)}), 1, 0.4),
                Rule(frozenset(), 0, 0.2),
                Rule(frozenset({Term(0, OP_GT, 5.5)}), 1, 0.9),
            ),
            0, 2,
        )
        auc = evaluation.auc_binary(rs, np.arange(1.0, 7.0)[:, None], np.array([0, 0, 1, 0, 1, 1]))
        auc_exact = abs(auc - 100 * 6.5 / 9) < 1e-12

        ok = worst < 1e-4 and max_dev < 1e-6 and auc_exact
        report(9, ok,
               f"gradient rel err {worst:.2e} (<1e-4); softmax dev {max_dev:.2e} (<1e-6); "
               f"AUC fixture exact={auc_exact}")

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import rules
from nnrex.rules import OP_GT, OP_LE, Rule, RuleSet, Term
from conftest import eval_premise


def rs_of(rule_specs, default=0, num_classes=2, names=None):
    built = tuple(Rule(frozenset(terms), concl, conf) for terms, concl, conf in rule_specs)
    return RuleSet(built, default, num_classes, names)


terms_strategy = st.builds(
    Term,
    feature=st.integers(0, 3),
    op=st.sampled_from([OP_GT, OP_LE]),
    threshold=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)
rules_strategy = st.builds(
    Rule,
    premise=st.frozensets(terms_strategy, max_size=4),
    conclusion=st.integers(0, 2),
    confidence=st.floats(0.01, 1.0),
)
rulesets_strategy = st.builds(
    RuleSet,
    rules=st.lists(rules_strategy, max_size=8).map(tuple),
    default_label=st.integers(0, 2),
    num_classes=st.just(3),
)


class TestEvalPremise:
    def test_empty_premise_is_true(self):
        assert eval_premise(frozenset(), np.array([1.0, 2.0]))

    def test_gt_is_strict(self):
        premise = {Term(0, OP_GT, 0.5)}
        assert not eval_premise(premise, np.array([0.5]))
        assert eval_premise(premise, np.array([0.5000001]))

    def test_le_is_inclusive(self):
        premise = {Term(0, OP_LE, 0.5)}
        assert eval_premise(premise, np.array([0.5]))

    def test_grid_truth_table(self):
        premise = {Term(0, OP_GT, 0.5), Term(1, OP_LE, 0.5)}
        grid = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
        expected = [False, False, True, False]
        got = [eval_premise(premise, np.array(p)) for p in grid]
        assert got == expected

    def test_premise_mask_matches_scalar(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(50, 4))
        premise = {Term(0, OP_GT, 0.1), Term(2, OP_LE, 0.3), Term(3, OP_GT, -0.5)}
        mask = rules.premise_mask(premise, X)
        scalar = np.array([eval_premise(premise, x) for x in X])
        assert np.array_equal(mask, scalar)


class TestPredict:
    def test_empty_set_returns_default(self):
        rs = RuleSet((), default_label=1, num_classes=2)
        assert rules.predict(rs, np.array([0.0])) == 1

    def test_single_fired_rule(self):
        rs = rs_of([([Term(0, OP_GT, 0.0)], 1, 0.9)])
        assert rules.predict(rs, np.array([1.0])) == 1
        assert rules.predict(rs, np.array([-1.0])) == 0  # default

    def test_majority_vote(self):
        rs = rs_of([
            ([Term(0, OP_GT, -1.0)], 0, 0.5),
            ([Term(0, OP_LE, 1.0)], 0, 0.5),
            ([], 1, 0.99),
        ])
        assert rules.predict(rs, np.array([0.0])) == 0

    def test_vote_tie_broken_by_confidence(self):
        rs = rs_of([([], 0, 0.3), ([], 1, 0.8)])
        assert rules.predict(rs, np.array([0.0])) == 1

    def test_full_tie_prefers_lower_class(self):
        rs = rs_of([([], 1, 0.5), ([], 0, 0.5)])
        assert rules.predict(rs, np.array([0.0])) == 0

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        rs = rs_of([
            ([Term(0, OP_GT, 0.2)], 1, 0.7),
            ([Term(1, OP_LE, 0.0)], 0, 0.6),
            ([Term(0, OP_LE, 0.2), Term(1, OP_GT, 0.1)], 1, 0.5),
        ])
        X = rng.uniform(-1, 1, size=(40, 2))
        batch = rules.predict_batch(rs, X)
        scalar = [rules.predict(rs, x) for x in X]
        assert list(batch) == scalar


class TestScore:
    def test_no_fired_rules_one_hot_default(self):
        rs = RuleSet((), default_label=1, num_classes=2)
        assert np.allclose(rules.score(rs, np.array([0.0])), [0.0, 1.0])

    def test_confidence_ratio(self):
        rs = rs_of([([], 0, 0.9), ([], 1, 0.1)])
        assert np.allclose(rules.score(rs, np.array([0.0])), [0.9, 0.1])

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        rs = rs_of([
            ([Term(0, OP_GT, 0.0)], 1, 0.7),
            ([Term(0, OP_LE, 0.5)], 0, 0.4),
        ])
        X = rng.uniform(-1, 1, size=(30, 1))
        s = rules.score_batch(rs, X)
        assert np.allclose(s.sum(axis=1), 1.0)

    def test_argmax_matches_predict_without_tiebreak(self):
        # when vote counts already decide, argmax(score) can disagree with the
        # vote; restrict to single-vote-per-class sets where they coincide
        rng = np.random.default_rng(3)
        rs = rs_of([
            ([Term(0, OP_GT, 0.0)], 1, 0.8),
            ([Term(0, OP_LE, 0.0)], 0, 0.6),
        ])
        X = rng.uniform(-1, 1, size=(50, 1))
        assert np.array_equal(rules.score_batch(rs, X).argmax(axis=1), rules.predict_batch(rs, X))


# Few premises, dyadic confidences and rows on the thresholds, so duplicate
# rules, equal premises with different confidences, vote ties across classes
# and empty premises are common, and confidence sums are exact in any order.
vote_terms = st.builds(
    Term, feature=st.integers(0, 1), op=st.sampled_from([OP_GT, OP_LE]),
    threshold=st.sampled_from([-0.5, 0.0, 0.5]),
)
vote_rules = st.builds(
    Rule,
    premise=st.frozensets(vote_terms, max_size=2),
    conclusion=st.integers(0, 2),
    confidence=st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
)
vote_sets = st.builds(
    RuleSet, rules=st.lists(vote_rules, max_size=10).map(tuple),
    default_label=st.integers(0, 2), num_classes=st.just(3),
)
vote_rows = st.lists(
    st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=2, max_size=2),
    min_size=1, max_size=12,
).map(np.array)


def reference_vote(rs, x):
    """(predicted class, class scores) for one row from the canonical set."""
    fired = [r for r in rules.canonicalize(rs).rules if eval_premise(r.premise, x)]
    if not fired:
        return rs.default_label, np.eye(rs.num_classes)[rs.default_label]
    votes = [sum(r.conclusion == c for r in fired) for c in range(rs.num_classes)]
    mass = [sum(r.confidence for r in fired if r.conclusion == c) for c in range(rs.num_classes)]
    pred = max(range(rs.num_classes), key=lambda c: (votes[c], mass[c], -c))
    return pred, np.array(mass) / sum(mass)


class TestClassVotes:
    @settings(max_examples=200, deadline=None)
    @given(vote_sets, vote_rows)
    def test_predict_and_score_match_per_row_reference(self, rs, X):
        expected = [reference_vote(rs, x) for x in X]
        assert list(rules.predict_batch(rs, X)) == [p for p, _ in expected]
        assert [rules.predict(rs, x) for x in X] == [p for p, _ in expected]
        assert np.array_equal(rules.score_batch(rs, X), np.array([s for _, s in expected]))


class TestCanonicalize:
    def test_dominated_lower_bound_dropped(self):
        rs = rs_of([([Term(0, OP_GT, 0.2), Term(0, OP_GT, 0.5)], 1, 0.9)])
        out = rules.canonicalize(rs)
        assert out.rules[0].premise == frozenset({Term(0, OP_GT, 0.5)})

    def test_vacuous_rule_removed(self):
        rs = rs_of([([Term(0, OP_GT, 0.5), Term(0, OP_LE, 0.3)], 1, 0.9)])
        assert len(rules.canonicalize(rs).rules) == 0

    def test_equal_bounds_are_vacuous(self):
        rs = rs_of([([Term(0, OP_GT, 0.5), Term(0, OP_LE, 0.5)], 1, 0.9)])
        assert len(rules.canonicalize(rs).rules) == 0

    def test_duplicates_keep_max_confidence(self):
        rs = rs_of([([Term(0, OP_GT, 0.5)], 1, 0.4), ([Term(0, OP_GT, 0.5)], 1, 0.8)])
        out = rules.canonicalize(rs)
        assert len(out.rules) == 1
        assert out.rules[0].confidence == 0.8

    @settings(max_examples=200, deadline=None)
    @given(rulesets_strategy)
    def test_idempotent(self, rs):
        once = rules.canonicalize(rs)
        twice = rules.canonicalize(once)
        assert once == twice

    @settings(max_examples=50, deadline=None)
    @given(rulesets_strategy, st.integers(0, 2**31 - 1))
    def test_semantic_preservation(self, rs, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3, 3, size=(200, 4))
        before = rules.predict_batch(rs, X)
        after = rules.predict_batch(rules.canonicalize(rs), X)
        assert np.array_equal(before, after)

    def test_semantic_preservation_dense_sampling(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            built = []
            for _ in range(rng.integers(1, 10)):
                terms = [
                    Term(int(rng.integers(0, 4)),
                         OP_GT if rng.random() < 0.5 else OP_LE,
                         float(rng.uniform(-1, 1)))
                    for _ in range(rng.integers(0, 5))
                ]
                built.append(Rule(frozenset(terms), int(rng.integers(0, 3)), float(rng.uniform(0.1, 1.0))))
            rs = RuleSet(tuple(built), 0, 3)
            X = rng.uniform(-2, 2, size=(10_000, 4))
            assert np.array_equal(
                rules.predict_batch(rs, X),
                rules.predict_batch(rules.canonicalize(rs), X),
            )


class TestFeatureUsage:
    def test_single_rule(self):
        rs = rs_of([([Term(0, OP_GT, 0.5)], 1, 0.9)])
        assert np.allclose(rules.feature_usage(rs, 3), [1.0, 0.0, 0.0])

    def test_two_rules_split(self):
        rs = rs_of([([Term(0, OP_GT, 0.5)], 1, 0.9), ([Term(1, OP_LE, 0.2)], 0, 0.9)])
        assert np.allclose(rules.feature_usage(rs, 3), [0.5, 0.5, 0.0])

    def test_empty_premises_count_nothing(self):
        rs = rs_of([([], 1, 0.9), ([Term(2, OP_GT, 0.0)], 0, 0.9)])
        assert np.allclose(rules.feature_usage(rs, 3), [0.0, 0.0, 0.5])

    def test_repeated_feature_counts_once_per_rule(self):
        rs = rs_of([([Term(0, OP_GT, 0.1), Term(0, OP_LE, 0.9)], 1, 0.9)])
        assert np.allclose(rules.feature_usage(rs, 2), [1.0, 0.0])


class TestDropLowConfidence:
    def test_zero_is_identity(self):
        rs = rs_of([([], 0, 0.5), ([], 1, 0.9)])
        assert rules.drop_low_confidence(rs, 0) == rs

    def test_hundred_empties(self):
        rs = rs_of([([], 0, 0.5), ([], 1, 0.9)])
        assert len(rules.drop_low_confidence(rs, 100).rules) == 0

    def test_quarter_of_eight(self):
        rs = rs_of([([], i % 2, 0.1 * (i + 1)) for i in range(8)])
        out = rules.drop_low_confidence(rs, 25)
        assert len(out.rules) == 6
        assert min(r.confidence for r in out.rules) == pytest.approx(0.3)

    def test_ties_drop_in_insertion_order(self):
        rs = rs_of([([Term(0, OP_GT, 0.0)], 0, 0.5), ([Term(1, OP_GT, 0.0)], 1, 0.5)])
        out = rules.drop_low_confidence(rs, 50)
        assert len(out.rules) == 1
        assert out.rules[0].conclusion == 1


class TestRuleStats:
    def test_default_only_counts_as_one_empty_rule(self):
        rs = RuleSet((), 0, 2)
        assert rules.rule_stats(rs) == (1, 0.0)

    def test_mean_length(self):
        rs = rs_of([
            ([Term(0, OP_GT, 0.1), Term(1, OP_LE, 0.2)], 0, 0.9),
            ([Term(0, OP_GT, 0.1), Term(1, OP_LE, 0.2), Term(2, OP_GT, 0.3), Term(3, OP_LE, 0.4)], 1, 0.9),
        ])
        assert rules.rule_stats(rs) == (2, 3.0)


class TestSerialization:
    def test_round_trip_random_sets(self, tmp_path):
        rng = np.random.default_rng(23)
        for trial in range(200):
            built = []
            for _ in range(rng.integers(0, 6)):
                terms = [
                    Term(int(rng.integers(0, 5)),
                         OP_GT if rng.random() < 0.5 else OP_LE,
                         float(rng.normal()))
                    for _ in range(rng.integers(0, 4))
                ]
                built.append(Rule(frozenset(terms), int(rng.integers(0, 2)), float(rng.uniform(0.05, 1))))
            rs = RuleSet(tuple(built), int(rng.integers(0, 2)), 2, ("a", "b", "c", "d", "e"))
            path = tmp_path / f"rs{trial}.json"
            rules.serialize(rs, path)
            assert rules.deserialize(path) == rs

    def test_hand_written_file_loads(self, tmp_path):
        payload = {
            "version": 1,
            "num_classes": 2,
            "default_label": 0,
            "feature_names": ["height", "width"],
            "rules": [
                {
                    "terms": [{"feature": 0, "op": ">", "threshold": 1.5}],
                    "conclusion": 1,
                    "confidence": 0.75,
                }
            ],
        }
        p = tmp_path / "hand.json"
        p.write_text(json.dumps(payload))
        rs = rules.deserialize(p)
        assert rs.rules[0].premise == frozenset({Term(0, OP_GT, 1.5)})
        assert rules.predict(rs, np.array([2.0, 0.0])) == 1

    def test_malformed_op_rejected(self, tmp_path):
        payload = {
            "version": 1, "num_classes": 2, "default_label": 0, "feature_names": None,
            "rules": [{"terms": [{"feature": 0, "op": ">=", "threshold": 1.0}],
                       "conclusion": 1, "confidence": 0.5}],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(rules.RuleSetError):
            rules.deserialize(p)

    @pytest.mark.parametrize("feature, names", [(-1, None), (-2, ["a", "b"]), (2, ["a", "b"])])
    def test_feature_index_outside_the_columns_rejected(self, feature, names):
        payload = {
            "version": 1, "num_classes": 2, "default_label": 0, "feature_names": names,
            "rules": [{"terms": [{"feature": feature, "op": ">", "threshold": 1.0}],
                       "conclusion": 1, "confidence": 0.5}],
        }
        with pytest.raises(rules.RuleSetError, match=f"feature index {feature} out of range"):
            rules.from_json(payload)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "v9.json"
        p.write_text('{"version": 9, "rules": []}')
        with pytest.raises(rules.RuleSetError, match="version"):
            rules.deserialize(p)

"""Symbolic rule-set model: threshold terms, conjunctive rules, inference.

A rule set is an unordered bag of IF-THEN rules over one feature space.
Prediction is one-rule-one-vote among the rules whose premise fires; the
default label answers when nothing fires. All query operations treat the
rule set as immutable; manipulation operations return new values.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

OP_GT = ">"
OP_LE = "<="

SCHEMA_VERSION = 1


class RuleSetError(ValueError):
    """Raised for malformed rules or incompatible rule-set operations."""


@dataclass(frozen=True, order=True)
class Term:
    """A single threshold condition on one feature: (x_f > v) or (x_f <= v)."""

    feature: int
    op: str
    threshold: float

    def __post_init__(self):
        if self.op not in (OP_GT, OP_LE):
            raise RuleSetError(f"unknown op {self.op!r}")
        if not np.isfinite(self.threshold):
            raise RuleSetError("threshold must be finite")

    def holds(self, x) -> bool:
        v = x[self.feature]
        return v > self.threshold if self.op == OP_GT else v <= self.threshold

    def __str__(self):
        return f"x{self.feature} {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class Rule:
    """A conjunction of terms mapping to a class with a confidence in (0, 1]."""

    premise: frozenset[Term]
    conclusion: int
    confidence: float

    def __post_init__(self):
        object.__setattr__(self, "premise", frozenset(self.premise))
        if not 0.0 < self.confidence <= 1.0:
            raise RuleSetError(f"confidence must be in (0, 1], got {self.confidence}")

    @property
    def key(self) -> tuple:
        return (self.premise, self.conclusion)

    def sorted_terms(self) -> list[Term]:
        return sorted(self.premise)

    def __str__(self):
        if not self.premise:
            cond = "TRUE"
        else:
            cond = " AND ".join(str(t) for t in self.sorted_terms())
        return f"IF {cond} THEN class {self.conclusion} ({self.confidence:.3f})"


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    default_label: int
    num_classes: int
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.num_classes < 2:
            raise RuleSetError("num_classes must be >= 2")
        if not 0 <= self.default_label < self.num_classes:
            raise RuleSetError("default_label out of range")
        for r in self.rules:
            if not 0 <= r.conclusion < self.num_classes:
                raise RuleSetError(f"conclusion {r.conclusion} out of range")

    def __len__(self):
        return len(self.rules)


def eval_premise(premise, x) -> bool:
    """True iff every term holds on x; the empty conjunction is true."""
    return all(t.holds(x) for t in premise)


def premise_mask(premise, X: np.ndarray) -> np.ndarray:
    """Vectorized premise evaluation over the rows of X."""
    mask = np.ones(X.shape[0], dtype=bool)
    for t in premise:
        col = X[:, t.feature]
        mask &= (col > t.threshold) if t.op == OP_GT else (col <= t.threshold)
    return mask


def _class_votes(rs: RuleSet, X: np.ndarray):
    """(canonical rule set, per-class count of fired rules, per-class fired
    confidence mass); both arrays are (num_classes, rows)."""
    rs = canonicalize(rs)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fired = np.empty((len(rs.rules), X.shape[0]), dtype=bool)
    for i, r in enumerate(rs.rules):
        fired[i] = premise_mask(r.premise, X)
    conclusions = np.array([r.conclusion for r in rs.rules])
    confidences = np.array([r.confidence for r in rs.rules])
    votes = np.zeros((rs.num_classes, X.shape[0]))
    mass = np.zeros((rs.num_classes, X.shape[0]))
    for c in range(rs.num_classes):
        of_c = fired[conclusions == c]
        votes[c] = of_c.sum(axis=0)
        mass[c] = (of_c * confidences[conclusions == c, None]).sum(axis=0)
    return rs, votes, mass


def predict_batch(rs: RuleSet, X: np.ndarray) -> np.ndarray:
    """Majority vote of fired rules per row.

    Inference always sees the canonical rule set, so a rule repeated in the
    list still casts a single vote. Vote ties go to the class with the
    higher summed confidence among its fired rules, then to the lower class
    index; rows firing no rule get the default label.
    """
    rs, votes, mass = _class_votes(rs, X)
    rows = np.arange(votes.shape[1])
    best = np.zeros(votes.shape[1], dtype=int)
    for c in range(1, rs.num_classes):
        better = (votes[c] > votes[best, rows]) | (
            (votes[c] == votes[best, rows]) & (mass[c] > mass[best, rows])
        )
        best[better] = c
    best[votes.sum(axis=0) == 0] = rs.default_label
    return best


def predict(rs: RuleSet, x) -> int:
    """Class for a single sample; see :func:`predict_batch` for the vote rule."""
    return int(predict_batch(rs, np.asarray(x, dtype=float)[None, :])[0])


def score_batch(rs: RuleSet, X: np.ndarray) -> np.ndarray:
    """Confidence-weighted class scores per row, summing to 1.

    score_c = (confidence mass of fired rules concluding c) / (total fired
    confidence mass); rows firing nothing get a one-hot on the default label.
    Like :func:`predict_batch`, scoring sees the canonical rule set.
    """
    rs, _, mass = _class_votes(rs, X)
    scores = mass.T
    total = scores.sum(axis=1)
    none = total <= 0.0
    scores[~none] /= total[~none, None]
    scores[none, :] = 0.0
    scores[none, rs.default_label] = 1.0
    return scores


def score(rs: RuleSet, x) -> np.ndarray:
    return score_batch(rs, np.asarray(x, dtype=float)[None, :])[0]


def normalize_premise(premise) -> frozenset[Term] | None:
    """Tighten bounds per (feature, direction); None when unsatisfiable.

    Keeps the largest lower bound per '>' feature and the smallest upper
    bound per '<=' feature; the region is empty when upper <= lower.
    """
    lower: dict[int, Term] = {}
    upper: dict[int, Term] = {}
    for t in premise:
        if t.op == OP_GT:
            if t.feature not in lower or t.threshold > lower[t.feature].threshold:
                lower[t.feature] = t
        else:
            if t.feature not in upper or t.threshold < upper[t.feature].threshold:
                upper[t.feature] = t
    for f in lower.keys() & upper.keys():
        if upper[f].threshold <= lower[f].threshold:
            return None
    return frozenset([*lower.values(), *upper.values()])


def add_canonical(out: list[Rule], index: dict[tuple, int], rule: Rule) -> None:
    """Add one rule to a canonical rule list in place.

    ``index`` maps each (premise, conclusion) key in ``out`` to its
    position. The premise is tightened; a vacuous rule is dropped, and a
    duplicate key keeps the maximum confidence at its first position.
    """
    premise = normalize_premise(rule.premise)
    if premise is None:
        return
    key = (premise, rule.conclusion)
    if key in index:
        i = index[key]
        if rule.confidence > out[i].confidence:
            out[i] = Rule(premise, rule.conclusion, rule.confidence)
    else:
        index[key] = len(out)
        out.append(Rule(premise, rule.conclusion, rule.confidence))


def canonicalize(rs: RuleSet) -> RuleSet:
    """Tighten every premise, drop vacuous rules, and merge exact duplicates
    (same premise and conclusion) keeping the maximum confidence. Idempotent;
    preserves first-occurrence rule order."""
    out: list[Rule] = []
    index: dict[tuple, int] = {}
    for r in rs.rules:
        add_canonical(out, index, r)
    return RuleSet(tuple(out), rs.default_label, rs.num_classes, rs.feature_names)


def merge(a: RuleSet, b: RuleSet) -> RuleSet:
    """Union of two rule sets over the same label space, canonicalized."""
    if a.num_classes != b.num_classes:
        raise RuleSetError(f"class-count mismatch: {a.num_classes} vs {b.num_classes}")
    if a.default_label != b.default_label:
        raise RuleSetError(f"default-label mismatch: {a.default_label} vs {b.default_label}")
    names = a.feature_names if a.feature_names is not None else b.feature_names
    return canonicalize(RuleSet(a.rules + b.rules, a.default_label, a.num_classes, names))


def feature_usage(rs: RuleSet, num_features: int) -> np.ndarray:
    """Fraction of rules whose premise mentions each feature.

    Empty-premise rules count toward no feature; an empty rule set yields
    all zeros.
    """
    usage = np.zeros(num_features)
    if not rs.rules:
        return usage
    for r in rs.rules:
        for f in {t.feature for t in r.premise}:
            usage[f] += 1.0
    return usage / len(rs.rules)


def drop_low_confidence(rs: RuleSet, pct: float) -> RuleSet:
    """Remove the floor(pct * |rules| / 100) lowest-confidence rules.

    Confidence ties are broken by insertion order (earlier rules dropped
    first); the survivors keep their original relative order.
    """
    if not 0.0 <= pct <= 100.0:
        raise RuleSetError(f"pct must be in [0, 100], got {pct}")
    n_drop = int(len(rs.rules) * pct // 100)
    if n_drop == 0:
        return rs
    ranked = sorted(range(len(rs.rules)), key=lambda i: (rs.rules[i].confidence, i))
    dropped = set(ranked[:n_drop])
    kept = tuple(r for i, r in enumerate(rs.rules) if i not in dropped)
    return RuleSet(kept, rs.default_label, rs.num_classes, rs.feature_names)


def rule_stats(rs: RuleSet) -> tuple[int, float]:
    """(rule count, mean premise length); the implicit default stands in as
    one rule of length zero when the set is empty."""
    if not rs.rules:
        return 1, 0.0
    lengths = [len(r.premise) for r in rs.rules]
    return len(rs.rules), float(np.mean(lengths))


def serialize(rs: RuleSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(rs))
        fh.write("\n")


def to_json(rs: RuleSet) -> str:
    payload = {
        "version": SCHEMA_VERSION,
        "num_classes": rs.num_classes,
        "default_label": rs.default_label,
        "feature_names": list(rs.feature_names) if rs.feature_names is not None else None,
        "rules": [
            {
                "terms": [
                    {"feature": t.feature, "op": t.op, "threshold": t.threshold}
                    for t in r.sorted_terms()
                ],
                "conclusion": r.conclusion,
                "confidence": r.confidence,
            }
            for r in rs.rules
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def deserialize(path) -> RuleSet:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RuleSetError(f"{path}: not valid JSON: {exc}") from None
    return from_json(payload, source=str(path))


def from_json(payload: dict, source: str = "<json>") -> RuleSet:
    if not isinstance(payload, dict):
        raise RuleSetError(f"{source}: expected a JSON object")
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise RuleSetError(f"{source}: unsupported schema version {version!r}")
    try:
        rules = []
        for spec in payload["rules"]:
            terms = frozenset(
                Term(int(t["feature"]), str(t["op"]), float(t["threshold"]))
                for t in spec["terms"]
            )
            rules.append(Rule(terms, int(spec["conclusion"]), float(spec["confidence"])))
        names = payload.get("feature_names")
        return RuleSet(
            tuple(rules),
            int(payload["default_label"]),
            int(payload["num_classes"]),
            tuple(names) if names is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, RuleSetError):
            raise
        raise RuleSetError(f"{source}: malformed rule set: {exc}") from None

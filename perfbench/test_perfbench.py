"""Tests of the benchmark's own logic: span arithmetic, percentile choice,
wrapper installation, and that tracing leaves the library's output unchanged.

Run from the repository root with ``python -m pytest perfbench``.
"""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nnrex  # noqa: E402
from nnrex import data, evaluation, extract, mlp, rules  # noqa: E402

import bench  # noqa: E402
from spans import PER_LAYER_METRICS, TARGETS, Span, Tracer, layer_metrics, self_seconds  # noqa: E402

MODULES = ("data", "mlp", "tree", "rules", "extract", "evaluation", "cli")


def span(name, start, end, parent=-1, size=None):
    s = Span(name, parent)
    s.start, s.end, s.size = start, end, size
    return s


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("op", 0.0, 10.0),
            span("extract.eclaire", 1.0, 9.0, 0),
            span("extract.substitute_clause", 2.0, 6.0, 1, 1),
            span("tree.induce", 3.0, 5.0, 2, (3, 2)),
            span("tree.induce", 6.5, 8.0, 1, (1, 1)),
        ]
        assert self_seconds(spans) == pytest.approx([2.0, 2.5, 2.0, 2.0, 1.5])
        m = layer_metrics(spans, {"op": 1.0})
        assert m["tree.induce.s"] == pytest.approx(3.5)
        assert m["tree.induce.self_s"] == pytest.approx(3.5)
        assert m["tree.induce.calls"] == 2
        assert m["tree.nodes"] == 4 and m["tree.leaves"] == 3
        assert m["extract.substitute_clause.s"] == pytest.approx(4.0)

    def test_reentrant_spans_count_once(self):
        spans = [
            span("op", 0.0, 10.0),
            span("evaluation.fidelity", 0.0, 4.0, 0),
            span("evaluation.accuracy", 1.0, 3.0, 1),
            span("rules.canonicalize", 5.0, 9.0, 0, (4, 3)),
            span("rules.canonicalize", 6.0, 7.0, 3, (3, 3)),
        ]
        assert self_seconds(spans) == pytest.approx([2.0, 2.0, 2.0, 3.0, 1.0])
        m = layer_metrics(spans, {"op": 1.0})
        assert m["evaluation.metrics.s"] == pytest.approx(4.0)
        assert m["rules.canonicalize.s"] == pytest.approx(4.0)
        assert m["rules.canonicalize.calls"] == 2

    def test_call_that_raised_counts_time_but_no_size(self):
        spans = [span("op", 0.0, 2.0), span("tree.induce", 0.5, 1.5, 0)]
        m = layer_metrics(spans, {"op": 1.0})
        assert m["tree.induce.s"] == pytest.approx(1.0)
        assert m["tree.induce.calls"] == 1 and m["tree.nodes"] == 0

    def test_phases_are_weighted_per_root(self):
        spans = [
            span("setup", 0.0, 4.0),
            span("mlp.train", 0.0, 3.0, 0),
            span("setup", 4.0, 8.0),
            span("mlp.train", 4.0, 5.0, 2),
            span("op", 8.0, 9.0),
            span("mlp.train", 8.0, 8.5, 4),
        ]
        m = layer_metrics(spans, {"setup": 0.5, "op": 1.0})
        assert m["mlp.train.s"] == pytest.approx(2.0 + 0.5)
        assert m["mlp.train.calls"] == pytest.approx(2.0)


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
        (9999, 99.0), (10000, 99.9),
    ])
    def test_choice_from_sample_count(self, n, expected):
        assert bench.tail_percentile(n) == expected

    def test_quantile_matches_numpy(self):
        xs = list(np.random.default_rng(0).exponential(size=37))
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert bench.quantile(xs, q) == pytest.approx(np.quantile(xs, q))

    def test_instance_quantiles_of_one_instance_are_its_quantiles(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert bench.instance_quantiles([xs]) == pytest.approx(
            (bench.quantile(xs, 0.5), bench.quantile(xs, 0.9)))

    def test_instance_quantiles_weigh_each_instance_once(self):
        # the slow instance's extra ops do not pull p50 towards it
        fast, slow = [1.0, 2.0, 3.0, 4.0, 5.0], [30.0] * 20
        p50, p90 = bench.instance_quantiles([fast, slow])
        assert p50 == pytest.approx((3.0 + 30.0) / 2)
        # 21 of the 25 ratios are 1, so the tail ratio is 1
        assert p90 == pytest.approx(p50)

    def test_instance_quantiles_pool_the_tail_over_instances(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        p50, p90 = bench.instance_quantiles([xs, [10 * x for x in xs]])
        assert p50 == pytest.approx(16.5)
        assert p90 == pytest.approx(16.5 * 5 / 3)


def module_attributes():
    mods = [nnrex] + [importlib.import_module(f"nnrex.{m}") for m in MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


class TestWrappers:
    def test_install_and_remove_restore_every_attribute(self):
        before = module_attributes()
        tracer = Tracer()
        tracer.install()
        during = module_attributes()
        changed = {key for key in before if during[key] is not before[key]}
        assert changed == {(f"nnrex.{m}", attr) for m, attr, _, _ in TARGETS}
        tracer.remove()
        after = module_attributes()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_double_install_rejected(self):
        tracer = Tracer()
        tracer.install()
        try:
            with pytest.raises(RuntimeError):
                tracer.install()
        finally:
            tracer.remove()

    def test_benchmark_json_lists_every_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        names = [*PER_LAYER_METRICS, "trace.overhead"]
        assert listed == [(name, bench.unit_of(name)) for name in names]


@pytest.fixture(scope="module")
def small_net():
    ds = data.gen_xor(300, 5, 11)
    net = mlp.train(ds, [12, 8, 6], "tanh", mlp.TrainConfig(epochs=20, batch_size=16, seed=11))
    return ds, net


class TestTracedOutput:
    def test_traced_rules_are_byte_identical(self, small_net):
        ds, net = small_net
        cfg = extract.ExtractionConfig(min_samples=2)
        plain = extract.eclaire(net, ds.features, cfg, ds.feature_names)
        plain_auc = evaluation.auc_binary(plain, ds.features, ds.labels)
        tracer = Tracer()
        tracer.install()
        try:
            traced = tracer.wrap("op", extract.eclaire)(net, ds.features, cfg, ds.feature_names)
            traced_auc = evaluation.auc_binary(traced, ds.features, ds.labels)
        finally:
            tracer.remove()
        assert tracer.spans
        assert rules.to_json(traced) == rules.to_json(plain)
        assert traced_auc == plain_auc

    def test_layer_attribution_adds_up(self, small_net):
        ds, net = small_net
        tracer = Tracer()
        tracer.install()
        try:
            op = tracer.wrap("op", extract.eclaire)
            rs = op(net, ds.features, extract.ExtractionConfig(min_samples=2))
        finally:
            tracer.remove()
        m = layer_metrics(tracer.spans, {"op": 1.0})
        layers = (1, 2, 3)
        assert sum(m[f"extract.layer{i}.intermediate_rules"] for i in layers) == (
            m["extract.substitute_clause.calls"]
        )
        raw = sum(m[f"extract.layer{i}.rules"] for i in layers)
        assert m["rules.kept_ratio"] == pytest.approx(len(rs.rules) / raw)
        assert m["tree.induce.calls"] == m["extract.substitute_clause.calls"] + len(layers)
        assert set(m) == set(PER_LAYER_METRICS)


def test_fails_without_sources(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eclaire-xor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

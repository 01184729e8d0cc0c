"""The run of one workload: setup, the timed or traced loop, checks, and the
metrics and context it reports."""
from __future__ import annotations

import gc
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics
from workloads import CheckFailed

QUALITY_UNITS = {"rule_count": "count", "avg_rule_len": "terms", "fidelity_pct": "%",
                 "accuracy_pct": "%", "peak_alloc_mb": "MB"}


def quantile(samples, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def instance_quantiles(per_instance: list[list[float]]) -> tuple[float, float]:
    """p50 and p90 of op time, each instance weighed once.

    Op time depends on the instance's inputs (its net's rule-set size) as
    well as on the host, and a quantile of the pooled times would follow the
    seed's mix of nets. p50 is the mean of the instances' medians. p90 is p50
    times the 90th percentile of each op's time over its instance's median:
    an instance runs too few ops for a tail of its own, so the ratios of all
    ops give the tail.
    """
    medians = [statistics.median(times) for times in per_instance]
    ratios = [t / m for times, m in zip(per_instance, medians) for t in times]
    p50 = statistics.fmean(medians)
    return p50, p50 * quantile(ratios, 0.9)


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    for permille in (999, 990, 900):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return None


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


class QuietGate:
    """Holds back the next timed step while the host is contended.

    On a shared virtual machine the host's speed swings by up to 2x over
    periods of seconds. Before each timed step the gate times a fixed probe:
    small numpy and dict work like nnrex's, but none of its code. While the
    probe runs more than ``SLACK`` times slower than its best time so far,
    the gate sleeps and probes again, for at most ``MAX_WAIT`` seconds. The
    step that follows is timed on its own; the wait is not part of it.
    """

    SLACK = 1.2
    MAX_WAIT = 3.0
    FRESH = 0.25  # seconds for which a quiet probe stays valid

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((800, 10))
        self.W = rng.standard_normal((64, 10))
        self.y = (self.X[:, 0] > 0).astype(int)
        self.best = min(self.probe() for _ in range(5))
        self.quiet_at = -self.FRESH
        self.waits = 0
        self.waited = 0.0

    def probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(24):
            h = np.tanh(self.X @ self.W.T)
            for f in range(8):
                counts = np.cumsum(self.y[np.argsort(h[:, f], kind="stable")])
                {i: counts[i] for i in range(0, len(counts), 8)}
        return time.perf_counter() - t0

    def wait(self):
        start = time.perf_counter()
        if start - self.quiet_at < self.FRESH:
            return
        while True:
            seconds = self.probe()
            self.best = min(self.best, seconds)
            if seconds <= self.SLACK * self.best:
                self.quiet_at = time.perf_counter()
                break
            if time.perf_counter() - start > self.MAX_WAIT:
                break
            self.waits += 1
            time.sleep(0.1)
        self.waited += time.perf_counter() - start


class Run:
    """One benchmark run of one workload; fills the counters it reports."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.seeds = [seed * workload.instances + j for j in range(workload.instances)]
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.work_dir = work_dir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.times: list[float] = []
        self.instance_times: dict[int, list[float]] = {}
        self.traced_times: list[float] = []
        self.peak_bytes: int | None = None
        self.bands_ok = True
        self.gate = QuietGate()

    def setup(self):
        setup = self.workload.setup
        if self.tracer:
            self.tracer.install()
            setup = self.tracer.wrap("setup", setup)
        try:
            self.instances = []
            for seed in self.seeds:
                self.gate.wait()
                t0 = time.perf_counter()
                self.instances.append(setup(seed, self.work_dir))
                self.setup_times.append(time.perf_counter() - t0)
        finally:
            if self.tracer:
                self.tracer.remove()

    def op(self, inst, traced: bool = False, peak: bool = False):
        """Run, time and check one operation; failures are counted, not raised."""
        self.attempted += 1
        op = self.workload.op
        gc.collect()
        if not peak:
            self.gate.wait()
        if traced:
            self.tracer.install()
            op = self.tracer.wrap("op", op)
        elif peak:
            tracemalloc.start()
        try:
            t0 = time.perf_counter()
            out = op(inst)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed op is counted and the run goes on
            self.fail(f"op raised {type(exc).__name__}: {exc}")
            return
        finally:
            if traced:
                self.tracer.remove()
            elif peak:
                self.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        try:
            fingerprint = self.workload.fingerprint(inst, out)
            if inst.reference is None:
                inst.quality = self.workload.validate(inst, out)
                inst.reference = fingerprint
            elif fingerprint != inst.reference:
                raise CheckFailed(f"instance {inst.seed}: output differs from its first op")
        except CheckFailed as exc:
            self.fail(str(exc))
            return
        if traced:
            self.traced_times.append(elapsed)
        elif not peak:
            self.times.append(elapsed)
            self.instance_times.setdefault(inst.seed, []).append(elapsed)

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)

    def loop(self):
        """Closed loop for ``seconds``, visiting every instance at least once."""
        if self.workload.peak_pass and not self.tracer:
            self.op(self.instances[0], peak=True)
        start = time.perf_counter()
        i = 0
        while i < len(self.instances) or time.perf_counter() - start < self.seconds:
            inst = self.instances[i % len(self.instances)]
            self.op(inst)
            if self.tracer:
                self.op(inst, traced=True)
            i += 1

    def check_means(self):
        """Average each quality figure over the instances and check the
        workload's bands on the averages."""
        self.means = {}
        for key in QUALITY_UNITS:
            values = [inst.quality[key] for inst in self.instances if key in inst.quality]
            if values and len(values) == len(self.instances):
                self.means[key] = statistics.fmean(values)
        try:
            self.workload.check_means(self.means)
        except CheckFailed as exc:
            self.problems.append(str(exc))
            self.bands_ok = False

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        m = {"setup_s": (statistics.median(self.setup_times), "s")}
        if self.times:
            p50, p90 = instance_quantiles(list(self.instance_times.values()))
            m["op_p50_s"] = (p50, "s")
            m["op_p90_s"] = (p90, "s")
            m["rows_per_s"] = (self.workload.rows * len(self.times) / sum(self.times), "1/s")
        if self.peak_bytes is not None:
            m["peak_alloc_mb"] = (self.peak_bytes / 1e6, "MB")
        for key, value in self.means.items():
            m[key] = (value, QUALITY_UNITS[key])
        m["success_pct"] = (100.0 * (self.attempted - self.failed) / self.attempted, "%")
        return m

    def per_layer(self) -> dict[str, tuple[float, str]]:
        if not (self.times and self.traced_times):
            return {}
        weights = {"setup": 1.0 / len(self.instances), "op": 1.0 / len(self.traced_times)}
        m = layer_metrics(self.tracer.spans, weights)
        m["trace.overhead"] = statistics.median(self.traced_times) / statistics.median(self.times)
        return {name: (value, unit_of(name)) for name, value in m.items()}

    def context(self, root: Path) -> dict:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        n = len(self.times)
        tail = tail_percentile(n)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "instance_seeds": self.seeds,
            "traced": bool(self.tracer),
            "git_sha": git_sha(root),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "src_lines": src_lines(root),
            "op_samples": n,
            "tail": None if tail is None else {"percentile": tail, "s": quantile(self.times, tail / 100)},
            "setup_s": self.setup_times,
            "gate": {"waits": self.gate.waits, "waited_s": self.gate.waited},
            "fingerprints": [inst.reference for inst in self.instances],
            "problems": self.problems[:10],
        }

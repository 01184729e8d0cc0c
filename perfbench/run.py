"""nnrex benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload eclaire-xor --seed 1 --seconds 40 --trace 0

Each run sets up the workload's ``instances`` input sets, derived from
``--seed``, then runs the workload's operation in a closed loop, one at
a time and round-robin over the input sets, for ``--seconds``. Every output
is checked. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics, plus the
tracing overhead as traced over untraced median op time. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nnrex" / "__init__.py").is_file():
        print(f"error: no nnrex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # pin BLAS before numpy loads it, so every run uses one thread; hence
    # the late imports
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from bench import Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
        run.setup()
        run.loop()
        run.check_means()
        metrics = run.per_layer() if args.trace else run.end_to_end()
        context = run.context(ROOT)
        context["blas_threads"] = {key: os.environ[key] for key in BLAS_ENV}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": run.failed == 0 and run.bands_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

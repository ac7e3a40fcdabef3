"""Benchmark of the sdta solver: end-to-end metrics and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload sf-chrono --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  The program is imported from
``src/`` of the checkout this file sits in, never from an installed copy.
Each run sets the workload up several times (``setup_s`` is the median),
then repeats the workload's top-level call until ``--seconds`` have passed,
checking every repetition's outputs.  ``iter_s`` is the untraced
repetitions' seconds over their outer iterations: the run's mean cost of an
outer iteration, which does not depend on how many iterations a seed needs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions; the traced ones wrap the calls into each
layer (see ``spans.py``) and give the per-layer metrics, a per-layer table,
and the tracing overhead against the untraced ones.  Spans are written to
``perfbench/out/``.

The line before the last is the full report (all metrics, failures and the
environment); the last line is the result object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def bootstrap() -> None:
    """Cap BLAS threads and put this checkout's ``src`` first on the path."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "sdta" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sdta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdta
    if Path(sdta.__file__).resolve().parent != (SRC / "sdta").resolve():
        raise SystemExit(f"perfbench: sdta was imported from {sdta.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    bootstrap()
    import runner
    if args.workload not in runner.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(runner.WORKLOADS)}")
    report, result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        runner.print_table(report)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

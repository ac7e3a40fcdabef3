"""Store the output digests the benchmark compares each repetition with.

    python3 perfbench/make_references.py --seeds 24 sf-chrono diamond-iter

Solves each named workload (all by default) once per seed 0..seeds-1 with
the program in ``src/``, requires every other output check to pass, and
writes the digests into ``perfbench/references.json``.  Run it only when a
change to the program is meant to change its outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    bootstrap()
    import checks
    from workloads import WORKLOADS

    entries = {}
    for name in args.workloads or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = {}
        for seed in range(args.seeds):
            outputs = workload.solve(workload.setup(seed, workload.params))
            problems = checks.check(outputs, None)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            seeds[str(seed)] = checks.digests(outputs)
            print(f"{name} seed {seed}: {outputs['iterations']} iterations", flush=True)
        entries[name] = {"params": workload.params, "seeds": seeds}

    stored = json.loads(checks.REFERENCES.read_text()) if checks.REFERENCES.is_file() else {}
    stored.update(entries)
    checks.REFERENCES.write_text(json.dumps(stored, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

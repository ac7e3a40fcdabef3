"""Command-line front end.

Subcommands: validate inputs, solve the equilibrium, run a single load,
dump policy tables, benchmark the two loaders, and sweep the perturbation
factor.  Each command reads its inputs, computes, and only then writes its
results directory, so a command that fails leaves none behind.  The
directory holds a manifest recording the config, input digests, version
and stage timings; result tables are deterministic so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import __version__
from .choice import splits_for
from .equilibrium import (
    LOADERS,
    SolverConfig,
    _load,
    average_expected_time,
    msa_solve,
)
from .errors import ParseError, SdtaError, ValidationError
from .events import free_flow_distribution, parse_ttd
from .fixtures import fixture_path
from .loading import LoaderStats
from .network import parse_network, read_mapping
from .policy import generate_policies
from .scenario import parse_scenario

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _resolve(arg: str, kind: str) -> Path:
    """A literal path, or the name of a packaged ``<name>.<kind>.yaml``
    fixture: twolinks, diamond, sf or twosf for a network ("net") or a
    scenario ("scn"), parallel3 for a distribution ("ttd")."""
    path = Path(arg)
    if path.exists():
        return path
    try:
        return fixture_path(f"{arg}.{kind}.yaml")
    except FileNotFoundError:
        raise ParseError(f"no such file or fixture: {arg}") from None


def _inputs(args, solver: bool = True):
    """The network, the scenario with ``--steps`` applied (None if no
    scenario is named), the solver config (None unless ``solver``) and the
    input paths for the manifest."""
    paths = {"network": _resolve(args.network, "net")}
    network = parse_network(paths["network"])
    scenario = None
    if args.scenario is not None:
        paths["scenario"] = _resolve(args.scenario, "scn")
        doc = read_mapping(paths["scenario"])
        if args.steps is not None:
            doc = {**doc, "steps": args.steps}
        scenario = parse_scenario(doc, network)
    return network, scenario, _config_from(args) if solver else None, paths


def _config_from(args) -> SolverConfig:
    """The solver config from the options given; each option's ``dest`` is
    its field, and fields without one keep their defaults."""
    given = vars(args)
    config = {f.name: given[f.name] for f in dataclasses.fields(SolverConfig) if f.name in given}
    if "policies" in given:
        if args.policies < 1:
            raise ValidationError("--policies must be at least 1")
        if "z" not in config:
            # --policies N alone takes N - 1 factors from 1.5 in steps of 0.5
            config["z"] = tuple(1.0 + 0.5 * k for k in range(1, args.policies))
        elif len(config["z"]) != args.policies - 1:
            raise ValidationError("--policies disagrees with the --z list length")
    return SolverConfig(**config)


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that cannot become a directory before any work:
    its nearest existing path must be one."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ParseError(f"--out {out}: {existing} is not a directory")


def _write_run(args, command: str, config: dict | None,
               inputs: dict[str, Path], timings: dict[str, float],
               tables: Sequence[tuple] = (), report: tuple[str, dict] | None = None,
               time_write: bool = True) -> int:
    """Create ``--out``, write the command's tables, its JSON report and the
    manifest, print the report (or where the first table went) and return
    the exit code 0.

    Commands call this last, once their work has succeeded, so a failed
    command leaves no directory.  Each table is a file name, a header and
    an iterable of rows, which streams to disk.  The seconds spent on
    tables and report are the "write" timing when ``time_write`` is set.
    The manifest's "environment" records what timings depend on: the
    Python, numpy and PyYAML versions, whether documents were parsed by
    libyaml, and the CPU count.
    """
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        with (out / name).open("w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
    if report is not None:
        (out / report[0]).write_text(json.dumps(report[1], indent=2) + "\n")
    if time_write:
        timings = {**timings, "write": time.perf_counter() - t0}
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {name: {"path": str(p),
                          "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                   for name, p in inputs.items()},
        "timing_s": {k: round(v, 6) for k, v in timings.items()},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "pyyaml": yaml.__version__, "libyaml": yaml.__with_libyaml__,
                        "cpu_count": os.cpu_count()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(json.dumps(report[1]) if report else f"wrote {out / tables[0][0]}")
    return 0


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _split_rows(splits):
    for label in splits.labels:
        row = splits.row(label)
        for t in range(1, splits.horizon_steps + 1):
            yield [label, t, _fmt(row[t])]


def _result_tables(splits, ttd) -> list[tuple]:
    """The final splits and travel times, as ``_write_run`` tables."""
    ttd_rows = ([r, link.id, t, _fmt(ttd.values[r, i, t])]
                for r in range(ttd.n_realizations)
                for i, link in enumerate(ttd.links)
                for t in range(1, ttd.horizon_steps + 1))
    return [("splits.csv", ["policy", "t", "eta"], _split_rows(splits)),
            ("travel_times.csv", ["realization", "link", "t", "seconds"], ttd_rows)]


def cmd_validate(args) -> int:
    network, scenario, _, _ = _inputs(args, solver=False)
    report = {"network": "ok", "links": len(network.links),
              "nodes": len(network.nodes)}
    if scenario is not None:
        report["scenario"] = "ok"
        report["realizations"] = scenario.n_realizations
        report["steps"] = scenario.horizon_steps
        report["warnings"] = list(scenario.warnings)
    print(json.dumps(report, indent=2))
    return 0


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    network, scenario, config, inputs = _inputs(args)
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = msa_solve(network, scenario, config)
    t_solve = time.perf_counter() - t0

    summary = {
        "iterations": result.iterations,
        "converged": result.converged,
        "final_delta": None if result.final_delta != result.final_delta
        else result.final_delta,
        "average_expected_time_s": average_expected_time(result),
    }
    trace_rows = ([rec.iteration, *row,
                   "" if rec.delta != rec.delta else _fmt(rec.delta),
                   _fmt(rec.seconds * 1000.0)]
                  for rec in result.trace for row in _split_rows(rec.splits))
    tables = [*_result_tables(result.final_splits, result.final_ttd),
              ("trace.csv", ["l", "policy", "t", "eta", "delta", "ms"], trace_rows)]
    return _write_run(args, "solve", dataclasses.asdict(config), inputs,
                      {"parse": t_parse, "solve": t_solve},
                      tables, ("summary.json", summary))


def _policies_on_free_flow(network, scenario, config):
    free = free_flow_distribution(network, scenario)
    policies, tree = generate_policies(free, config.z)
    splits = splits_for(policies, tree, config.choice_params())
    return policies, tree, splits


def cmd_load(args) -> int:
    t0 = time.perf_counter()
    network, scenario, config, inputs = _inputs(args)
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    policies, tree, splits = _policies_on_free_flow(network, scenario, config)
    stats = LoaderStats()
    ttd = _load(network, policies, splits, scenario, config, stats)
    t_load = time.perf_counter() - t0

    return _write_run(args, "load", dataclasses.asdict(config), inputs,
                      {"parse": t_parse, "load": t_load},
                      _result_tables(splits, ttd),
                      ("summary.json", dataclasses.asdict(stats)))


def cmd_policies(args) -> int:
    t0 = time.perf_counter()
    path = _resolve(args.ttd, "ttd")
    policies, _ = generate_policies(parse_ttd(path), args.z)
    t_gen = time.perf_counter() - t0

    rows = ([policy.label, node, t, "|".join(map(str, support)), nxt, via, _fmt(e)]
            for policy in policies
            for node, t, support, nxt, via, e in policy.export_rows())
    header = ["policy", "node", "t", "support", "next_node", "via_link", "expected_s"]
    return _write_run(args, "policies", None, {"ttd": path}, {"generate": t_gen},
                      [("policies.csv", header, rows)])


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValidationError("--repeat must be at least 1")
    network, scenario, config, inputs = _inputs(args)
    policies, tree, splits = _policies_on_free_flow(network, scenario, config)

    timings = {}
    counters = {}
    for name in LOADERS:
        best = float("inf")
        for _ in range(args.repeat):
            stats = LoaderStats()
            t0 = time.perf_counter()
            _load(network, policies, splits, scenario,
                  dataclasses.replace(config, loader=name), stats)
            best = min(best, time.perf_counter() - t0)
        timings[name] = best
        counters[name] = dataclasses.asdict(stats)
    report = {
        **{f"{name}_s": seconds for name, seconds in timings.items()},
        "speedup": timings["iter"] / timings["chrono"],
        "counters": counters,
        "k_inner": config.k_inner,
    }
    return _write_run(args, "bench", dataclasses.asdict(config), inputs, timings,
                      report=("bench.json", report), time_write=False)


def cmd_sweep(args) -> int:
    network, scenario, base, inputs = _inputs(args)
    t0 = time.perf_counter()
    rows = []
    # each value is a solve of its own, so values may repeat
    for config in [dataclasses.replace(base, z=(zv,)) for zv in args.z_values]:
        result = msa_solve(network, scenario, config)
        optimal_row = result.final_splits.row(result.final_policies[0].label)
        for t in range(1, result.final_splits.horizon_steps + 1):
            rows.append([_fmt(config.z[0]), t, _fmt(optimal_row[t])])
    t_sweep = time.perf_counter() - t0

    return _write_run(args, "sweep", {**dataclasses.asdict(base), "z": args.z_values},
                      inputs, {"sweep": t_sweep},
                      [("sweep.csv", ["z", "t", "eta_optimal"], rows)], time_write=False)


# options that set solver config fields (``dest``) or, for --policies, the
# number of z factors; unset ones are left out of the parsed arguments
SOLVER_OPTIONS = {
    "--loader": dict(choices=LOADERS),
    "--policies": dict(type=int, help="number of policies (optimal plus suboptimal)"),
    "--z": dict(type=float, nargs="+", help="perturbation factors, one per suboptimal policy"),
    "--kappa": dict(type=float),
    "--iters": dict(dest="k_outer", metavar="N", type=int, help="max outer iterations"),
    "--inner-iters": dict(dest="k_inner", metavar="N", type=int),
    "--eps": dict(dest="convergence_eps", metavar="EPS", type=float),
    "--strict-origin": dict(action="store_true",
                            help="drop unserved origin demand instead of queueing it"),
}


def _add_common(p: argparse.ArgumentParser, omit: Sequence[str] = ()) -> None:
    """Inputs, --out, --steps and the solver options but those in ``omit``,
    which the command does not read."""
    p.add_argument("network", help="network file or fixture name")
    p.add_argument("scenario", help="scenario file or fixture name")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--steps", type=int, default=None,
                   help="override the scenario horizon")
    for flag, spec in SOLVER_OPTIONS.items():
        if flag not in omit:
            p.add_argument(flag, default=argparse.SUPPRESS, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdta",
        description="Policy-based stochastic dynamic traffic assignment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # subcommands take whole option names only, so that an option one of
    # them lacks is an error there, not a prefix of another (--z of --z-values)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", allow_abbrev=False, help="check a network (and scenario)")
    p.add_argument("network")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", allow_abbrev=False, help="run the equilibrium solver")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("load", allow_abbrev=False, help="run one network loading pass")
    _add_common(p, omit=("--iters", "--eps"))
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("policies", allow_abbrev=False,
                       help="dump policy tables for a distribution")
    p.add_argument("ttd", help="travel time distribution file or 'parallel3'")
    p.add_argument("--out", default="results")
    p.add_argument("--z", type=float, nargs="+", default=SolverConfig.z)
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser("bench", allow_abbrev=False, help="time the two loaders on equal inputs")
    _add_common(p, omit=("--loader", "--iters", "--eps"))
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", allow_abbrev=False,
                       help="final optimal split per perturbation factor")
    _add_common(p, omit=("--z", "--policies"))
    p.add_argument("--z-values", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "out" in args:
            _check_out(Path(args.out))
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        for item in err.violations:
            print(f"  - {item}", file=sys.stderr)
        return EXIT_VALIDATION
    except SdtaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as err:  # pragma: no cover
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

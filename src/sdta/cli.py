"""Command-line front end.

Subcommands: validate inputs, solve the equilibrium, run a single load,
dump policy tables, benchmark the two loaders, and sweep the perturbation
factor.  Results land in a directory with a manifest recording the config,
input digests, version and stage timings; result tables are
deterministic so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .choice import splits_for
from .equilibrium import (
    SolverConfig,
    _load,
    average_expected_time,
    msa_solve,
)
from .errors import ParseError, SdtaError, ValidationError
from .events import free_flow_distribution, parse_ttd
from .fixtures import FIXTURES, fixture_path
from .loading import LoaderStats
from .network import parse_network
from .policy import generate_policies
from .scenario import parse_scenario

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _resolve(arg: str, kind: str) -> Path:
    """A literal path, or a fixture name (twolinks, diamond, sf, twosf)."""
    p = Path(arg)
    if p.exists():
        return p
    if arg in FIXTURES:
        net_file, scn_file = FIXTURES[arg]
        return fixture_path(net_file if kind == "network" else scn_file)
    raise ParseError(f"no such file or fixture: {arg}")


def _read_network(arg: str):
    path = _resolve(arg, "network")
    return path, parse_network(path.read_text())


def _read_scenario(arg: str, network, steps_override: int | None):
    path = _resolve(arg, "scenario")
    doc = yaml.safe_load(path.read_text())
    if steps_override is not None:
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: scenario root must be a mapping")
        doc["steps"] = int(steps_override)
    return path, parse_scenario(doc, network)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_from(args) -> SolverConfig:
    z = tuple(args.z) if args.z is not None else (1.5, 2.0)
    if args.policies is not None:
        if args.policies < 1:
            raise ValidationError("--policies must be at least 1")
        if args.z is None:
            defaults = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
            if args.policies - 1 > len(defaults):
                raise ValidationError("give --z explicitly for that many policies")
            z = defaults[: args.policies - 1]
        elif len(z) != args.policies - 1:
            raise ValidationError("--policies disagrees with the --z list length")
    return SolverConfig(
        k_outer=args.iters,
        z=z,
        kappa=args.kappa,
        loader=args.loader,
        k_inner=args.inner_iters,
        convergence_eps=args.eps,
        strict_origin=args.strict_origin,
    )


def _write_manifest(out: Path, command: str, config: SolverConfig | None,
                    inputs: dict[str, Path], timings: dict[str, float]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": None if config is None else dataclasses.asdict(config),
        "inputs": {name: {"path": str(p), "sha256": _digest(p)}
                   for name, p in inputs.items()},
        "timing_s": {k: round(v, 6) for k, v in timings.items()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _write_splits(out: Path, splits) -> None:
    with (out / "splits.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["policy", "t", "eta"])
        for label in splits.labels:
            row = splits.row(label)
            for t in range(1, splits.horizon_steps + 1):
                w.writerow([label, t, _fmt(row[t])])


def _write_ttd(out: Path, ttd, name: str = "travel_times.csv") -> None:
    with (out / name).open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["realization", "link", "t", "seconds"])
        for r in range(ttd.n_realizations):
            for i, link in enumerate(ttd.links):
                for t in range(1, ttd.horizon_steps + 1):
                    w.writerow([r, link.id, t, _fmt(ttd.values[r, i, t])])


def _write_trace(out: Path, trace) -> None:
    with (out / "trace.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["l", "policy", "t", "eta", "delta", "ms"])
        for rec in trace:
            delta = "" if rec.delta != rec.delta else _fmt(rec.delta)
            ms = _fmt(rec.seconds * 1000.0)
            for label in rec.splits.labels:
                row = rec.splits.row(label)
                for t in range(1, rec.splits.horizon_steps + 1):
                    w.writerow([rec.iteration, label, t, _fmt(row[t]), delta, ms])


def cmd_validate(args) -> int:
    _, network = _read_network(args.network)
    report = {"network": "ok", "links": len(network.links),
              "nodes": len(network.nodes)}
    if args.scenario is not None:
        _, scenario = _read_scenario(args.scenario, network, args.steps)
        report["scenario"] = "ok"
        report["realizations"] = scenario.n_realizations
        report["steps"] = scenario.horizon_steps
        report["warnings"] = list(scenario.warnings)
    print(json.dumps(report, indent=2))
    return 0


def cmd_solve(args) -> int:
    out = _out_dir(args)
    t0 = time.perf_counter()
    net_path, network = _read_network(args.network)
    scn_path, scenario = _read_scenario(args.scenario, network, args.steps)
    config = _config_from(args)
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = msa_solve(network, scenario, config)
    t_solve = time.perf_counter() - t0

    t0 = time.perf_counter()
    _write_splits(out, result.final_splits)
    _write_ttd(out, result.final_ttd)
    _write_trace(out, result.trace)
    summary = {
        "iterations": result.iterations,
        "converged": result.converged,
        "final_delta": None if result.final_delta != result.final_delta
        else result.final_delta,
        "average_expected_time_s": average_expected_time(result),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    t_write = time.perf_counter() - t0
    _write_manifest(
        out, "solve", config,
        {"network": net_path, "scenario": scn_path},
        {"parse": t_parse, "solve": t_solve, "write": t_write},
    )
    print(json.dumps(summary))
    return 0


def _policies_on_free_flow(network, scenario, config):
    free = free_flow_distribution(network, scenario)
    policies, tree = generate_policies(free, config.z)
    splits = splits_for(policies, tree, config.choice_params())
    return policies, tree, splits


def cmd_load(args) -> int:
    out = _out_dir(args)
    t0 = time.perf_counter()
    net_path, network = _read_network(args.network)
    scn_path, scenario = _read_scenario(args.scenario, network, args.steps)
    config = _config_from(args)
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    policies, tree, splits = _policies_on_free_flow(network, scenario, config)
    stats = LoaderStats()
    ttd = _load(network, policies, splits, scenario, config, stats)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    _write_ttd(out, ttd)
    _write_splits(out, splits)
    report = {"time_loops": stats.time_loops, "translations": stats.translations,
              "node_updates": stats.node_updates}
    (out / "summary.json").write_text(json.dumps(report, indent=2) + "\n")
    t_write = time.perf_counter() - t0
    _write_manifest(out, "load", config,
                    {"network": net_path, "scenario": scn_path},
                    {"parse": t_parse, "load": t_load, "write": t_write})
    print(json.dumps(report))
    return 0


def cmd_policies(args) -> int:
    out = _out_dir(args)
    t0 = time.perf_counter()
    path = Path(args.ttd)
    if not path.exists() and args.ttd == "parallel3":
        path = fixture_path("parallel3.ttd.yaml")
    if not path.exists():
        raise ParseError(f"no such file: {args.ttd}")
    ttd = parse_ttd(path.read_text())
    z = tuple(args.z) if args.z is not None else (1.5, 2.0)
    policies, tree = generate_policies(ttd, z)
    t_gen = time.perf_counter() - t0

    t0 = time.perf_counter()
    with (out / "policies.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["policy", "node", "t", "support", "next_node", "via_link",
                    "expected_s"])
        for policy in policies:
            for node, t, support, nxt, via, e in policy.export_rows():
                sup = "|".join(str(s) for s in support)
                w.writerow([policy.label, node, t, sup, nxt, via, _fmt(e)])
    t_write = time.perf_counter() - t0
    _write_manifest(out, "policies", None, {"ttd": path},
                    {"generate": t_gen, "write": t_write})
    print(f"wrote {out / 'policies.csv'}")
    return 0


def cmd_bench(args) -> int:
    out = _out_dir(args)
    net_path, network = _read_network(args.network)
    scn_path, scenario = _read_scenario(args.scenario, network, args.steps)
    config = _config_from(args)
    policies, tree, splits = _policies_on_free_flow(network, scenario, config)

    timings = {}
    counters = {}
    for name in ("chrono", "iter"):
        best = float("inf")
        stats = LoaderStats()
        for _ in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            _load(network, policies, splits, scenario,
                  dataclasses.replace(config, loader=name), stats)
            best = min(best, time.perf_counter() - t0)
        timings[name] = best
        counters[name] = {"time_loops": stats.time_loops,
                          "translations": stats.translations,
                          "node_updates": stats.node_updates}
    report = {
        "chrono_s": timings["chrono"],
        "iter_s": timings["iter"],
        "speedup": timings["iter"] / timings["chrono"],
        "counters": counters,
        "k_inner": config.k_inner,
    }
    (out / "bench.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(out, "bench", config,
                    {"network": net_path, "scenario": scn_path},
                    {"chrono": timings["chrono"], "iter": timings["iter"]})
    print(json.dumps(report))
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    net_path, network = _read_network(args.network)
    scn_path, scenario = _read_scenario(args.scenario, network, args.steps)
    base = _config_from(args)
    t0 = time.perf_counter()
    rows = []
    for zv in args.z_values:
        result = msa_solve(network, scenario, dataclasses.replace(base, z=(zv,)))
        optimal_row = result.final_splits.row(result.final_policies[0].label)
        for t in range(1, result.final_splits.horizon_steps + 1):
            rows.append((zv, t, optimal_row[t]))
    t_sweep = time.perf_counter() - t0

    with (out / "sweep.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["z", "t", "eta_optimal"])
        for zv, t, eta in rows:
            w.writerow([_fmt(zv), t, _fmt(eta)])
    _write_manifest(out, "sweep", None,
                    {"network": net_path, "scenario": scn_path},
                    {"sweep": t_sweep})
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def _add_common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:
        p.add_argument("network", help="network file or fixture name")
        p.add_argument("scenario", help="scenario file or fixture name")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--loader", choices=("chrono", "iter"), default="chrono")
    p.add_argument("--policies", type=int, default=None,
                   help="number of policies (optimal plus suboptimal)")
    p.add_argument("--z", type=float, nargs="+", default=None,
                   help="perturbation factors, one per suboptimal policy")
    p.add_argument("--kappa", type=float, default=-0.01)
    p.add_argument("--iters", type=int, default=50, help="max outer iterations")
    p.add_argument("--inner-iters", type=int, default=5)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--strict-origin", action="store_true",
                   help="drop unserved origin demand instead of queueing it")
    p.add_argument("--steps", type=int, default=None,
                   help="override the scenario horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdta",
        description="Policy-based stochastic dynamic traffic assignment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network (and scenario)")
    p.add_argument("network")
    p.add_argument("scenario", nargs="?", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the equilibrium solver")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("load", help="run one network loading pass")
    _add_common(p)
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("policies", help="dump policy tables for a distribution")
    p.add_argument("ttd", help="travel time distribution file or 'parallel3'")
    p.add_argument("--out", default="results")
    p.add_argument("--z", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser("bench", help="time the two loaders on equal inputs")
    _add_common(p)
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="final optimal split per perturbation factor")
    _add_common(p)
    p.add_argument("--z-values", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except yaml.YAMLError as err:
        print(f"error: invalid document: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        for item in getattr(err, "violations", ()):
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

"""Runs one workload: set-up, repetitions, checks, metrics and the report."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from hashlib import sha256
from pathlib import Path

import checks
from spans import ROOT_SPAN, Tracer, layer_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 51

END_TO_END = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}

# Which end-to-end metric each layer should move, on which workload:
#   loading.po_ltm.*, loading.node_updates*  -> iter_s on sf-chrono; nothing on diamond-iter
#   loading.translate.*, loading.path_ltm.*,
#   loading.iterative_loading.s, time_loops  -> iter_s on diamond-iter (the engine is
#                                               shared with po_ltm: read sf-chrono too)
#   kernels.*.calls                          -> explain loading time on both workloads
#   policy.*, events.*, choice.splits_for.s  -> iter_s: ~9% of sf-chrono, ~2% of diamond-iter
#   equilibrium.self_s                       -> guards iter_s on both workloads
#   network.*, scenario.*                    -> setup_s
LAYER_SPANS = {  # per-layer metric -> span name whose self time it reports
    "loading.po_ltm.s": "loading.po_ltm",
    "loading.translate.s": "loading.translate",
    "loading.path_ltm.s": "loading.path_ltm",
    "loading.iterative_loading.s": "loading.iterative_loading",
    "policy.generate_policies.s": "policy.generate_policies",
    "policy.dot_spi.s": "policy.dot_spi",
    "policy.lp_policy.s": "policy.lp_policy",
    "policy.horizon_shortest.s": "policy.horizon_shortest",
    "events.generate_events.s": "events.generate_events",
    "events.round_to_grid.s": "events.round_to_grid",
    "choice.splits_for.s": "choice.splits_for",
    "equilibrium.self_s": "equilibrium.msa_solve",
}
LAYER_CALLS = {  # per-layer metric -> span name whose call count it reports
    "loading.po_ltm.calls": "loading.po_ltm",
    "loading.path_ltm.calls": "loading.path_ltm",
    "policy.dot_spi.calls": "policy.dot_spi",
}
LOADER_STATS = {  # per-layer metric -> LoaderStats field
    "loading.node_updates": "node_updates",
    "loading.translations": "translations",
    "loading.time_loops": "time_loops",
}
KERNEL_CALLS = ("kernels.sending_flow.calls", "kernels.receiving_flow.calls",
                "kernels.link_travel_time.calls", "kernels.interp.calls")
SETUP_SPANS = {"network.parse_network.s": "network.parse_network",
               "scenario.parse_scenario.s": "scenario.parse_scenario"}


PER_LAYER = {
    **{name: "s" for name in (*LAYER_SPANS, *SETUP_SPANS)},
    **{name: "count" for name in
       (*LAYER_CALLS, *LOADER_STATS, *KERNEL_CALLS, "events.tree_events")},
    "loading.node_updates_per_s": "1/s",  # node updates per loader-busy second
    "trace.overhead": "ratio",  # traced over untraced top-level call, minus one
    "trace.coverage": "ratio",  # share of the top-level call inside named spans
}


def _git_commit() -> str | None:
    git = ROOT / ".git"
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


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    digest = sha256()
    for path in sorted((SRC / "sdta").rglob("*")):
        if path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def summarize(samples: list[float]) -> dict:
    """Median and sample count, plus the highest percentile that still has
    ten samples beyond it when there are enough samples for one."""
    out = {"median": statistics.median(samples), "n": len(samples), "samples": samples}
    q = math.floor(100 * (1 - 10 / len(samples)))
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def _repetitions(workload, inputs, reference, seconds, tracer):
    """Repeat the workload's call while another one fits in ``seconds``.

    Yields (repetition name, traced, seconds, outputs, problems).  A
    repetition is started only if one as long as the longest so far still
    ends within ``seconds``, so a run never overshoots by a repetition.
    With a tracer, repetitions alternate untraced and traced, and the run
    has at least one of each.
    """
    started = time.perf_counter()
    longest = 0.0
    k = 0
    while True:
        rep = f"rep{k}"
        traced = tracer is not None and k % 2 == 1
        outputs = None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(rep), tracer.span(ROOT_SPAN):
                    outputs = workload.solve(inputs)
            else:
                outputs = workload.solve(inputs)
            elapsed = time.perf_counter() - t0
            problems = checks.check(outputs, reference)
        except Exception:  # a raising repetition counts as failed; keep measuring
            elapsed = time.perf_counter() - t0
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        yield rep, traced, elapsed, outputs, problems
        k += 1
        longest = max(longest, elapsed)
        if time.perf_counter() - started + longest > seconds and (tracer is None or k >= 2):
            return


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (full report, result object)."""
    workload = WORKLOADS[workload_name]
    params = workload.params
    tracer = Tracer(f"{workload_name}/seed{seed}") if trace else None

    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.installed(f"setup{i}"):
                inputs = workload.setup(seed, params)
        else:
            inputs = workload.setup(seed, params)
        setup_times.append(time.perf_counter() - t0)

    reference = checks.load_reference(workload_name, seed, params)
    failures, solve, iterations, traced_reps = [], [], [], []
    iters = margin = None
    for rep, traced, elapsed, outputs, problems in _repetitions(
        workload, inputs, reference, seconds, tracer
    ):
        if problems:
            failures.append({"rep": rep, "problems": problems})
        if outputs is not None:
            iters = outputs["iterations"]
            margin = checks.free_flow_margin(outputs)
        if traced:
            traced_reps.append((rep, elapsed, (outputs or {}).get("stats")))
        else:
            solve.append(elapsed)
            # a repetition that raised has no iteration count; count it as one
            iterations.append(outputs["iterations"] if outputs else 1)
        del outputs  # so the next repetition does not run beside this one's outputs

    attempted = len(solve) + len(traced_reps)
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": workload.why,
        "params": params,
        "environment": environment(),
        "setup_s": summarize(setup_times),
        "solve_s": summarize(solve),
        # Seconds per outer iteration over the whole run, the inverse of the
        # run's throughput.  On a shared 2-vCPU VM the CPU's speed swings by up
        # to 2x for tens of seconds; a mean over the run moves smoothly with the
        # share of the run spent slow, where a median over a few repetitions jumps.
        "iter_s": sum(solve) / sum(iterations),
        "iter_s_per_rep": summarize([s / n for s, n in zip(solve, iterations)]),
        "outer_iters": iters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "reference": "checked" if reference is not None else f"none stored for seed {seed}",
        "free_flow_margin_s": margin,
    }

    if trace:
        values = _traced_values(tracer, traced_reps, statistics.median(solve))
        units = PER_LAYER
        report["layers"] = _layer_table(tracer, traced_reps)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload_name}-seed{seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "id"], "spans": tracer.spans}
        ))
        report["spans_file"] = spans_file.name
    else:
        values = {"setup_s": report["setup_s"]["median"],
                  "iter_s": report["iter_s"],
                  "peak_rss_mb": report["peak_rss_mb"]}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return report, result


def _rep_layers(tracer, rep: str, stats) -> dict:
    """Per-layer metrics of one traced repetition."""
    times = layer_times(tracer.spans, tracer.rep_id(rep))
    counts = tracer.counts[tracer.rep_id(rep)]
    out = {name: times.get(span, {}).get("self_s", 0.0) for name, span in LAYER_SPANS.items()}
    out.update({name: times.get(span, {}).get("calls", 0) for name, span in LAYER_CALLS.items()})
    out.update({name: getattr(stats, field) if stats else 0
                for name, field in LOADER_STATS.items()})
    out.update({name: counts[name] for name in (*KERNEL_CALLS, "events.tree_events")})
    busy = sum(times.get(span, {}).get("inclusive_s", 0.0)
               for span in ("loading.po_ltm", "loading.iterative_loading"))
    out["loading.node_updates_per_s"] = out["loading.node_updates"] / busy if busy else 0.0
    root = times[ROOT_SPAN]
    out["trace.coverage"] = 1.0 - (root["self_s"] + out["equilibrium.self_s"]) / root["inclusive_s"]
    return out


def _traced_values(tracer, traced_reps, untraced_solve_s: float) -> dict:
    """Low medians (an observed value) over traced repetitions, parse times
    from the traced set-ups, and the traced repetitions' slowdown against the
    untraced ones."""
    reps = [_rep_layers(tracer, rep, stats) for rep, _, stats in traced_reps]
    values = {name: statistics.median_low(r[name] for r in reps) for name in reps[0]}
    setups = [layer_times(tracer.spans, tracer.rep_id(f"setup{i}"))
              for i in range(SETUP_REPEATS)]
    for name, span in SETUP_SPANS.items():
        values[name] = statistics.median_low(s.get(span, {}).get("self_s", 0.0) for s in setups)
    traced_s = statistics.median_low(elapsed for _, elapsed, _ in traced_reps)
    values["trace.overhead"] = traced_s / untraced_solve_s - 1.0
    return values


def _layer_table(tracer, traced_reps) -> dict:
    """Per span name: median self and inclusive seconds, calls, and self time
    as a share of the traced top-level call."""
    reps = [layer_times(tracer.spans, tracer.rep_id(rep)) for rep, _, _ in traced_reps]
    table = {}
    for name in reps[0]:
        row = {key: statistics.median_low(r.get(name, {}).get(key, 0) for r in reps)
               for key in ("self_s", "inclusive_s", "calls")}
        row["share"] = statistics.median_low(
            r.get(name, {}).get("self_s", 0.0) / r[ROOT_SPAN]["inclusive_s"] for r in reps
        )
        table[name] = row
    return dict(sorted(table.items(), key=lambda item: -item[1]["self_s"]))


def print_table(report: dict) -> None:
    print(f"{report['workload']} seed {report['seed']}: per-layer self time, "
          f"traced top-level call = 100%")
    for name, row in report["layers"].items():
        print(f"  {name:28s} {row['self_s']:10.4f} s {100 * row['share']:6.1f}% "
              f"{row['calls']:8.0f} calls")

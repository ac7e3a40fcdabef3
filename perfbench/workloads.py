"""Seeded inputs and the top-level call of each benchmark workload.

Every workload has a ``setup`` that turns (seed, params) into inputs, and a
``solve`` that makes the one top-level call being timed and returns the
outputs the checks read.  The seed drives this file's own numpy generator,
never a generator inside ``sdta``, so a change to the program cannot change
its own benchmark inputs.

The program is reached through module attributes (``sdta.network``,
``sdta.equilibrium``, ...) looked up at call time, so the traced run can wrap
them from outside the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np
import yaml

import sdta.equilibrium
import sdta.events
import sdta.fixtures
import sdta.network
import sdta.scenario

NOISE_FLOOR = 0.05  # smallest factor a noisy element may be scaled by


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict[str, Any]
    setup: Callable[[int, dict], dict]
    solve: Callable[[dict], dict]


def _read_network(fixture: str):
    net_file, _ = sdta.fixtures.FIXTURES[fixture]
    text = sdta.fixtures.fixture_path(net_file).read_text()
    return sdta.network.parse_network(text)


def _noisy(scenario, cov: float, rng: np.random.Generator):
    """Scale every demand and capacity element by max(floor, 1 + cov * N(0, 1))."""
    out = []
    for real in scenario.realizations:
        factors = np.maximum(NOISE_FLOOR, 1.0 + cov * rng.standard_normal(real.demand.size))
        demand = real.demand * factors
        demand[0] = 0.0
        capacity = {}
        for link_id in sorted(real.capacity):
            series = real.capacity[link_id]
            capacity[link_id] = series * np.maximum(
                NOISE_FLOOR, 1.0 + cov * rng.standard_normal(series.size)
            )
        out.append(sdta.scenario.Realization(real.probability, demand, capacity))
    return replace(scenario, realizations=tuple(out))


def setup_msa(seed: int, params: dict) -> dict:
    network = _read_network(params["fixture"])
    _, scn_file = sdta.fixtures.FIXTURES[params["fixture"]]
    doc = yaml.safe_load(sdta.fixtures.fixture_path(scn_file).read_text())
    doc["steps"] = params["steps"]
    scenario = sdta.scenario.parse_scenario(doc, network)
    scenario = _noisy(scenario, params["cov"], np.random.default_rng(seed))
    free_flow = sdta.events.free_flow_distribution(network, scenario)
    config = sdta.equilibrium.SolverConfig(
        loader=params["loader"], k_inner=params.get("k_inner", 5)
    )
    return {"network": network, "scenario": scenario, "config": config,
            "free_flow": free_flow}


def solve_msa(inputs: dict) -> dict:
    result = sdta.equilibrium.msa_solve(
        inputs["network"], inputs["scenario"], inputs["config"]
    )
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "final_delta": result.final_delta,
        "eps": inputs["config"].convergence_eps,
        "splits": result.final_splits.eta,
        "policies": result.final_policies,
        "tree": result.tree,
        "travel_times": result.final_ttd.values,
        "free_flow": inputs["free_flow"].values,
        "dt": inputs["scenario"].dt,
        "stats": result.stats,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sf-chrono",
            "msa_solve on sf (36 links, 11 diverges), steps=250, loader=chrono, "
            "cov 0.05 noise: the chronological loader (po_ltm, _Engine.step) is "
            "~90% of the time",
            {"fixture": "sf", "steps": 250, "loader": "chrono", "cov": 0.05},
            setup_msa,
            solve_msa,
        ),
        Workload(
            "diamond-iter",
            "msa_solve on diamond (7 links), steps=300, loader=iter, k_inner=5, "
            "cov 0.05 noise: policy-to-path translation and path_ltm on a small "
            "network",
            {"fixture": "diamond", "steps": 300, "loader": "iter", "k_inner": 5,
             "cov": 0.05},
            setup_msa,
            solve_msa,
        ),
    )
}

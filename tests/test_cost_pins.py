"""Pins on the solver's cost structure, read as counts and allocations
rather than wall time.

These properties keep the loaders and the backward solve fast, and
breaking any of them leaves every value the same, so no value test sees it:

- after its first step, an engine step allocates nothing that grows with
  the horizon or the network: its temporaries live in buffers made once;
- ``po_ltm`` matches events only at the steps ``_route_steps`` marks, and
  computes travel-time columns at most once per matched step plus once
  after the sweep;
- ``iterative_loading`` translates each realization once per inner round
  and builds one engine per round;
- ``_run_dot_spi`` solves ``block`` levels per array pass.
"""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import sdta.loading as loading
import sdta.policy as policy
from conftest import load_scenario
from sdta import Realization, iterative_loading, po_ltm
from sdta.loading import _Engine, _Turns
from test_engine import BASE, DIAMOND, POLICIES, SF, SF_PATHS, SPLITS
from test_matching import iterate

# A per-step temporary of the horizon's length on sf, (T+1)·L·R doubles at
# 250 steps, 36 links and 3 realizations, is about 216 KB.
STEP_PEAK_BYTES = 64 * 1024


def spy(monkeypatch, target, attribute, log):
    """Log every call of ``target.attribute`` as (attribute, args, result)."""
    original = getattr(target, attribute)

    def wrapper(*args):
        out = original(*args)
        log.append((attribute, args, out))
        return out
    monkeypatch.setattr(target, attribute, wrapper)


def test_engine_steps_allocate_nothing_that_grows_with_the_problem():
    scn = load_scenario("sf", SF, steps=250)
    reals = scn.realizations
    scn = dataclasses.replace(scn, realizations=tuple(
        Realization(real.probability, 3.0 * real.demand, real.capacity) for real in reals))
    paths = SF_PATHS[:3]
    turns = _Turns(SF)
    mu = np.full((len(paths), scn.horizon_steps + 1), 1.0 / len(paths))
    engine = _Engine(turns, scn, [mu] * len(reals), strict_origin=False)
    route = turns.path_routes(paths, SF)
    engine.set_route(np.broadcast_to(route, (len(reals),) + route.shape))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # as the loaders
        engine.step(1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for t in range(2, 102):
                engine.step(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.count_nonzero(engine.up[..., 101], axis=1).min() >= 10   # flow moved on
    assert peak - start < STEP_PEAK_BYTES


@pytest.mark.parametrize("name, matches", [("sf", 99), ("diamond", 0)])
def test_po_ltm_matches_only_at_the_marked_steps(monkeypatch, name, matches):
    net, scn, policies, splits = iterate(name)
    T = scn.horizon_steps
    log = []
    for target, attribute in ((loading, "_route_steps"), (loading, "nearest_events"),
                              (_Engine, "columns"), (_Engine, "step")):
        spy(monkeypatch, target, attribute, log)
    po_ltm(net, policies, splits, scn)

    # each match and each columns call belongs to the step that follows it,
    # T+1 after the sweep
    at, upcoming = {"nearest_events": [], "columns": []}, 1
    for attribute, args, out in log:
        if attribute == "_route_steps":
            matched = np.flatnonzero(out[0]).tolist()
        elif attribute == "step":
            upcoming = args[1] + 1
        else:
            at[attribute].append(upcoming)
    assert len(matched) == matches
    assert at["nearest_events"] == matched
    calls = Counter(at["columns"])
    assert calls[T + 1] == 1 and max(calls.values()) == 1
    assert set(calls) <= set(matched) | {T + 1}


@pytest.mark.parametrize("k_inner", [1, 3])
def test_iterative_loading_translates_each_realization_once_a_round(monkeypatch, k_inner):
    log = []
    spy(monkeypatch, loading, "_translate_info", log)
    spy(monkeypatch, _Engine, "__init__", log)
    iterative_loading(DIAMOND, POLICIES, SPLITS, BASE, k_inner=k_inner)
    calls = Counter(attribute for attribute, _, _ in log)
    assert calls == {"_translate_info": BASE.n_realizations * k_inner, "__init__": k_inner}


@pytest.mark.parametrize("name", ["sf", "diamond"])
def test_dot_spi_solves_a_block_of_levels_per_pass(monkeypatch, name):
    """Levels 1..T-1 are solved in passes of ``block`` levels, the smallest
    step count at those steps (4 on the sf iterate, 30 on diamond): one
    ``_choose`` call per pass, together covering every event column once."""
    net, _, policies, _ = iterate(name)
    ttd, tree = policies[0].defining_ttd, policies[0].tree
    T = ttd.horizon_steps
    first = policy.horizon_shortest(ttd, tree, net.destination)
    log = []
    spy(monkeypatch, policy, "_choose", log)
    policy._run_dot_spi([ttd], tree, net.destination, [None], first)
    block = int(ttd.steps[..., 1:T].min())
    assert block == {"sf": 4, "diamond": 30}[name]
    assert len(log) == math.ceil((T - 1) / block)
    assert sum(args[0].shape[1] for _, args, _ in log) == tree.start[T] - tree.start[1]

"""Pins on the loaders' cost structure, read as counts and allocations
rather than wall time.

Two properties keep the loaders fast, and breaking either leaves every
value the same, so no value test sees it:

- after its first step, an engine step allocates nothing that grows with
  the horizon or the network: its temporaries live in buffers made once;
- ``po_ltm`` matches events only at the steps ``_route_steps`` marks, and
  computes travel-time columns at most once per matched step plus once
  after the sweep.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import sdta.loading as loading
from conftest import load_scenario
from sdta import po_ltm
from sdta.loading import _Engine, _prefix_demand, _Turns
from test_engine import SF, SF_PATHS
from test_matching import iterate

# A per-step temporary of the horizon's length on sf, (T+1)·L·R doubles at
# 250 steps, 36 links and 3 realizations, is about 216 KB.
STEP_PEAK_BYTES = 64 * 1024


def test_engine_steps_allocate_nothing_that_grows_with_the_problem():
    scn = load_scenario("sf", SF, steps=250)
    reals = scn.realizations
    paths = SF_PATHS[:3]
    turns = _Turns(SF)
    engine = _Engine(turns, [real.capacity for real in reals], scn.dt,
                     scn.horizon_steps, len(paths), strict_origin=False)
    mu = np.full((len(paths), scn.horizon_steps + 1), 1.0 / len(paths))
    cum = np.stack([_prefix_demand(3.0 * real.demand, mu) for real in reals])
    route = turns.path_routes(paths, SF)
    engine.set_route(np.broadcast_to(route, (len(reals),) + route.shape))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # as the loaders
        engine.step(1, cum)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for t in range(2, 102):
                engine.step(t, cum)
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

    def spy(target, attribute):
        original = getattr(target, attribute)

        def wrapper(*args):
            out = original(*args)
            log.append((attribute, args, out))
            return out
        monkeypatch.setattr(target, attribute, wrapper)

    for target, attribute in ((loading, "_route_steps"), (loading, "nearest_events"),
                              (_Engine, "columns"), (_Engine, "step")):
        spy(target, attribute)
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

"""``po_ltm`` matches events only where a route can change.

At a step where every policy takes the same links at the diverges under
each of the step's events, the matched event cannot change the route
table, so ``po_ltm`` neither matches nor needs that step's travel times
before a later match reads them.  ``oracles.po_ltm_every_step`` matches
every step and records every column as it goes; both must give the same
travel times and diagnostics, bit for bit.  On diamond and twolinks almost
no step's route depends on the event, so the sf and twosf iterates carry
the check; the test asserts that they have such steps.
"""

import numpy as np
import pytest

from conftest import load_network, load_scenario
from oracles import po_ltm_every_step
from sdta import SolverConfig, msa_solve, perturbed, po_ltm

CASES = {"sf": 250, "twosf": 250, "diamond": 300, "twolinks": 300}


def iterate(name):
    """Network, scenario and policy set after three MSA iterations on a
    noisy copy of the fixture, as the benchmark loads them."""
    net = load_network(name)
    scn = perturbed(load_scenario(name, net, steps=CASES[name]), 0.05,
                    np.random.default_rng(901))
    result = msa_solve(net, scn, SolverConfig(k_outer=3, convergence_eps=1e-12))
    return net, scn, result.final_policies, result.final_splits


def event_dependent_steps(net, policies):
    """Steps at which some policy's decision at some diverge differs between
    the step's events, read off the policies' own tables."""
    diverges = [n for n in net.nodes if len(net.out_links[n]) == 2]
    steps = set()
    for p in policies:
        rows = p.choices[[p.node_index[n] for n in diverges]]
        for t in range(1, p.horizon_steps + 1):
            columns = p.tree.start[t] + np.arange(p.tree.member[t].max() + 1)
            if np.any(rows[:, columns] != rows[:, columns[:1]]):
                steps.add(t)
    return steps


@pytest.fixture(scope="module", params=list(CASES))
def loaded(request):
    return request.param, iterate(request.param)


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_matching_only_where_routes_differ_loads_as_every_step(loaded, strict):
    name, (net, scn, policies, splits) = loaded
    if name in ("sf", "twosf"):
        assert len(event_dependent_steps(net, policies)) >= 50
    diagnostics = []
    ttd = po_ltm(net, policies, splits, scn, strict_origin=strict, diagnostics=diagnostics)
    values, results = po_ltm_every_step(net, policies, splits, scn, strict_origin=strict)
    assert ttd.values.tobytes() == values.tobytes()
    assert len(diagnostics) == len(results) == scn.n_realizations
    for got, want in zip(diagnostics, results):
        for field in ("travel_times", "origin_backlog", "vehicles_in_network"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert (got.released, got.exited, got.demand_total) == (
            want.released, want.exited, want.demand_total)

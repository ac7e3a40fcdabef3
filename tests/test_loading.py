import dataclasses
import warnings

import numpy as np
import pytest
import yaml

from conftest import load_network, load_scenario, read_fixture
from sdta import (
    ChoiceParams,
    LinkSpec,
    LoaderStats,
    Network,
    PathSet,
    Realization,
    ValidationError,
    free_flow_distribution,
    generate_policies,
    iterative_loading,
    links_of,
    logit_splits,
    parse_network,
    path_ltm,
    po_ltm,
    single_route_pathset,
    splits_for,
    with_realizations,
)
import sdta.loading as loading
from sdta.loading import _stacked, _translate_info, _Turns

KAPPA = ChoiceParams()


def policies_and_splits(net, scn, zs=(1.5, 2.0)):
    ff = free_flow_distribution(net, scn)
    policies, tree = generate_policies(ff, zs)
    return policies, splits_for(policies, tree, KAPPA)


def test_single_route_pathset(twolinks):
    net, scn = twolinks
    ps = single_route_pathset(net, scn.horizon_steps)
    assert ps.paths == (("1-2", "2-3"),)
    assert ps.mu.shape == (1, scn.horizon_steps + 1)
    assert np.all(ps.mu == 1.0)
    _Turns(net).path_routes(ps.paths, net)


def test_pathset_validation(twolinks):
    net, _ = twolinks
    with pytest.raises(ValidationError):
        _Turns(net).path_routes(PathSet((("1-2", "nope"),), np.ones((1, 11))).paths, net)
    with pytest.raises(ValidationError):
        PathSet((("1-2", "2-3"),), np.ones((2, 11)))


def test_path_ltm_conserves_vehicles(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=300)
    ps = single_route_pathset(net, scn.horizon_steps)
    for real in scn.realizations:
        res = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
        assert res.released == pytest.approx(
            res.exited + res.vehicles_in_network[-1], abs=1e-6
        )
        assert res.released + res.origin_backlog[-1] == pytest.approx(
            res.demand_total, abs=1e-6
        )


def test_light_demand_travels_at_free_flow():
    net = load_network("twolinks")
    doc = {
        "dt_s": 1.0,
        "steps": 300,
        "realizations": [
            {"prob": 1.0, "demand": {"constant": 360.0}, "capacity": {}},
        ],
    }
    from sdta import parse_scenario

    scn = parse_scenario(doc, net)
    ps = single_route_pathset(net, scn.horizon_steps)
    real = scn.realizations[0]
    res = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
    by_id = {l.id: l for l in net.links}
    for i, lid in enumerate(("1-2", "2-3")):
        mid = res.travel_times[i, 150]
        assert abs(mid - by_id[lid].free_flow_time) <= scn.dt + 1e-9


def test_queue_grows_when_capacity_binds():
    net = load_network("twolinks")
    from sdta import parse_scenario

    doc = {
        "dt_s": 1.0,
        "steps": 300,
        "realizations": [
            {
                "prob": 1.0,
                "demand": {"constant": 3600.0},
                "capacity": {"2-3": {"constant": 0.5}},
            },
        ],
    }
    scn = parse_scenario(doc, net)
    ps = single_route_pathset(net, scn.horizon_steps)
    real = scn.realizations[0]
    res = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
    t_12 = res.travel_times[0]
    assert t_12[250] > t_12[50] + 30.0
    assert res.exited < res.released


def test_chronological_matches_path_loading_without_diverges(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=250)
    policies, splits = policies_and_splits(net, scn)
    chrono = po_ltm(net, policies, splits, scn)
    ps = single_route_pathset(net, scn.horizon_steps)
    for r, real in enumerate(scn.realizations):
        res = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
        assert np.max(np.abs(chrono.values[r] - res.travel_times)) < 1e-9


def test_loader_iteration_counters(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=120)
    policies, splits = policies_and_splits(net, scn)
    R, T, N = scn.n_realizations, scn.horizon_steps, len(net.nodes)

    # one node update per node and step of every time loop
    stats = LoaderStats()
    po_ltm(net, policies, splits, scn, stats=stats)
    assert stats.time_loops == R
    assert stats.node_updates == R * T * N

    k_inner = 4
    stats = LoaderStats()
    iterative_loading(net, policies, splits, scn, k_inner=k_inner, stats=stats)
    assert stats.time_loops == R * k_inner
    assert stats.translations == R * k_inner
    assert stats.node_updates == R * k_inner * T * N


def test_loading_is_deterministic(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=150)
    policies, splits = policies_and_splits(net, scn)
    a = po_ltm(net, policies, splits, scn)
    b = po_ltm(net, policies, splits, scn)
    assert np.array_equal(a.values, b.values)
    c = iterative_loading(net, policies, splits, scn, k_inner=3)
    d = iterative_loading(net, policies, splits, scn, k_inner=3)
    assert np.array_equal(c.values, d.values)


def test_realization_order_does_not_matter(diamond):
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=150)
    policies, splits = policies_and_splits(net, scn)
    base = po_ltm(net, policies, splits, scn)

    perm = [2, 0, 1]
    shuffled = dataclasses.replace(
        scn, realizations=tuple(scn.realizations[i] for i in perm)
    )
    p2, s2 = policies_and_splits(net, shuffled)
    other = po_ltm(net, p2, s2, shuffled)
    for new_pos, old_pos in enumerate(perm):
        assert np.max(np.abs(other.values[new_pos] - base.values[old_pos])) < 1e-9


def test_strict_origin_drops_unreleased_demand(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=400)
    ps = single_route_pathset(net, scn.horizon_steps)
    real = scn.realizations[2]     # lowest capacity draw
    lazy = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
    strict = path_ltm(
        net, ps, real.demand, real.capacity, scn.dt, strict_origin=True
    )
    assert strict.released <= lazy.released + 1e-9
    assert lazy.origin_backlog[-1] >= 0.0


def test_translate_produces_valid_paths(twolinks):
    net, scn = twolinks
    ff = free_flow_distribution(net, scn)
    policies, tree = generate_policies(ff, (1.5,))
    splits = splits_for(policies, tree, KAPPA)
    ps = _translate_info(policies, splits, ff.values[0], ff.dt)
    _Turns(net).path_routes(ps.paths, net)
    sums = ps.mu[:, 1:].sum(axis=0)
    assert sums == pytest.approx(np.ones(scn.horizon_steps))


def test_policy_incidence_maps_nodes_to_links(diamond):
    # every decision the loaders look up leaves the node it is taken at
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=150)
    policies, splits = policies_and_splits(net, scn)
    decisions = _stacked(policies, splits)[4]
    assert decisions.shape == (sum(p.choices.shape[1] for p in policies), len(net.nodes))
    for policy in policies:
        assert policy.defining_ttd.links == links_of(net)
        assert policy.nodes == policies[0].nodes
    for row in decisions:
        for node, li in zip(policies[0].nodes, row):
            if li >= 0:
                assert net.links[li].from_node == node


def test_diverge_with_a_subnormal_branch_warns_nothing(diamond):
    # the other branch's total is subnormal, so the diverge ratio overflows
    # to inf before `own` clips it
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=120)
    real = scn.realizations[0]
    mu = np.empty((2, scn.horizon_steps + 1))
    mu[0], mu[1] = 1.0 - 1e-310, 1e-310
    ps = PathSet(
        (("1-2", "2-3", "3-5", "5-6", "6-7"), ("1-2", "2-4", "4-5", "5-6", "6-7")), mu
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
    assert np.all(np.isfinite(res.travel_times))
    assert res.released == pytest.approx(res.exited + res.vehicles_in_network[-1], abs=1e-6)


def test_chronological_diagnostics_conserve(diamond):
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=200)
    policies, splits = policies_and_splits(net, scn)
    diag = []
    po_ltm(net, policies, splits, scn, diagnostics=diag)
    assert len(diag) == scn.n_realizations
    for res in diag:
        assert res.released == pytest.approx(
            res.exited + res.vehicles_in_network[-1], abs=1e-6
        )
        assert res.released + res.origin_backlog[-1] == pytest.approx(
            res.demand_total, abs=1e-6
        )


@pytest.mark.parametrize("defined_on", ["twolinks", "diamond reversed"])
def test_policies_must_share_the_network_links_and_order(diamond, defined_on):
    # route tables hold link indices, so a policy defined on other links, or
    # on the same links in another order, would route to the wrong links
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=40)
    if defined_on == "twolinks":
        other = load_network("twolinks")
        policies, splits = policies_and_splits(other, load_scenario("twolinks", other, steps=40))
        loaded_on = net
    else:
        policies, splits = policies_and_splits(net, scn)
        doc = yaml.safe_load(read_fixture("diamond.net.yaml"))
        doc["links"].reverse()
        loaded_on = parse_network(doc)
    with pytest.raises(ValidationError, match="network's links"):
        po_ltm(loaded_on, policies, splits, scn)
    with pytest.raises(ValidationError, match="network's links"):
        iterative_loading(loaded_on, policies, splits, scn, k_inner=2)


# --- loader inputs that disagree are a ValidationError --------------------

def test_splits_without_a_policy_row_are_rejected(diamond):
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=40)
    policies, _ = policies_and_splits(net, scn)
    splits = logit_splits(np.zeros((2, scn.horizon_steps + 1)))   # labels policy-0, policy-1
    with pytest.raises(ValidationError, match=r"no split row for policy optimal"):
        po_ltm(net, policies, splits, scn)
    with pytest.raises(ValidationError, match=r"no split row for policy optimal"):
        iterative_loading(net, policies, splits, scn, k_inner=1)


def test_policies_must_cover_the_scenario_horizon(diamond):
    net, _ = diamond
    policies, splits = policies_and_splits(net, load_scenario("diamond", net, steps=60))
    scn = load_scenario("diamond", net, steps=80)
    with pytest.raises(ValidationError, match="cover the scenario's 80 steps"):
        po_ltm(net, policies, splits, scn)
    with pytest.raises(ValidationError, match="cover the scenario's 80 steps"):
        iterative_loading(net, policies, splits, scn, k_inner=1)


@pytest.mark.parametrize("loader", ["po_ltm", "iterative_loading"])
def test_policies_must_share_a_realization_count(diamond, loader):
    # the loaders stack the policy set, one realization axis for all
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=40)
    policies, splits = policies_and_splits(net, scn, zs=(1.5,))
    single, _ = policies_and_splits(net, with_realizations(scn, 1, 0), zs=(1.5,))
    mixed = [policies[0], single[1]]
    assert mixed[1].label == policies[1].label
    with pytest.raises(ValidationError, match="as many realizations"):
        if loader == "po_ltm":
            po_ltm(net, mixed, splits, scn)
        else:
            iterative_loading(net, mixed, splits, scn, k_inner=1)


def test_path_usage_must_cover_the_demand_horizon(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=60)
    real = scn.realizations[0]
    with pytest.raises(ValidationError, match="path usage covers 40 steps, the demand 60"):
        path_ltm(net, single_route_pathset(net, 40), real.demand, real.capacity, scn.dt)


# --- path loading checks its inputs as the policy loaders do --------------

@pytest.mark.parametrize("case, match", [
    ("nan demand", "demand must be finite"),
    ("negative demand", "demand must be non-negative"),
    ("nan capacity", "capacity of link 2-3 must be finite"),
    ("zero capacity", "capacity of link 2-3 must stay positive"),
    ("short capacity", "need 41 samples"),
])
def test_path_ltm_rejects_what_a_scenario_rejects(twolinks, case, match):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=40)
    real = scn.realizations[0]
    demand, series = real.demand.copy(), real.capacity["2-3"].copy()
    value, target = case.split()
    if value == "short":
        series = series[:30]
    else:
        (demand if target == "demand" else series)[20] = {
            "nan": np.nan, "negative": -1.0, "zero": 0.0}[value]
    capacity = dict(real.capacity, **{"2-3": series})
    with pytest.raises(ValidationError, match=match):
        path_ltm(net, single_route_pathset(net, 40), demand, capacity, scn.dt)


@pytest.mark.parametrize("loader", ["path_ltm", "po_ltm", "iterative_loading"])
def test_loaders_reject_a_capacity_mapping_without_a_network_link(diamond, loader,
                                                                 monkeypatch):
    # every realization lacks the same link, so the scenario's own check
    # that they agree on the link set passes; the loaders reject it before
    # they stack or translate the policy set
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=40)
    policies, splits = policies_and_splits(net, scn)
    scn = dataclasses.replace(scn, realizations=tuple(
        Realization(r.probability, r.demand, {k: v for k, v in r.capacity.items() if k != "2-4"})
        for r in scn.realizations
    ))
    real = scn.realizations[0]
    pathset = PathSet((("1-2", "2-3", "3-5", "5-6", "6-7"),), np.ones((1, 41)))
    ran = []
    for name in ("_stacked", "_translate_info"):
        monkeypatch.setattr(loading, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ValidationError, match="no capacity series for link 2-4"):
        if loader == "path_ltm":
            path_ltm(net, pathset, real.demand, real.capacity, scn.dt)
        elif loader == "po_ltm":
            po_ltm(net, policies, splits, scn)
        else:
            iterative_loading(net, policies, splits, scn, k_inner=1)
    assert ran == []


def test_a_path_through_a_node_twice_is_rejected():
    # a route row holds one link per diverge: this path leaves node 2 by a,
    # later by c, and as one row it would load as o, m, c
    links = tuple(LinkSpec(link, a, b, 100.0, 10.0, 5.0, 0.45) for link, a, b in (
        ("o", 0, 1), ("m", 1, 2), ("a", 2, 3), ("b", 3, 1), ("c", 2, 4)))
    net = Network((0, 1, 2, 3, 4), links, 0, 4)
    pathset = PathSet((("o", "m", "a", "b", "m", "c"),), np.ones((1, 21)))
    capacity = {link.id: np.ones(21) for link in links}
    with pytest.raises(ValidationError, match="passes node 1 twice"):
        path_ltm(net, pathset, np.r_[0.0, np.ones(20)], capacity, 1.0)


def test_non_finite_path_usage_is_rejected():
    mu = np.full((2, 81), 0.5)
    mu[:, 40:] = np.nan
    routes = (("1-2", "2-3", "3-5", "5-6", "6-7"), ("1-2", "2-4", "4-5", "5-6", "6-7"))
    with pytest.raises(ValidationError, match="path usage must be finite"):
        PathSet(routes, mu)

import dataclasses

import numpy as np
import pytest

from conftest import load_network, load_scenario
from sdta import (
    ChoiceParams,
    LoaderStats,
    PathSet,
    ValidationError,
    free_flow_distribution,
    generate_policies,
    iterative_loading,
    link_policy_incidence,
    path_ltm,
    po_ltm,
    single_route_pathset,
    splits_for,
    translate,
)

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
    ps.validate_against(net)


def test_pathset_validation(twolinks):
    net, _ = twolinks
    with pytest.raises(ValidationError):
        PathSet((("1-2", "nope"),), np.ones((1, 11))).validate_against(net)
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
    assert stats.translations == R * (k_inner + 1)
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
    ps = translate(policies, splits, ff, realization=0)
    ps.validate_against(net)
    sums = ps.mu[:, 1:].sum(axis=0)
    assert sums == pytest.approx(np.ones(scn.horizon_steps))


def test_policy_incidence_maps_nodes_to_links(diamond):
    net, _ = diamond
    scn = load_scenario("diamond", net, steps=150)
    policies, _ = policies_and_splits(net, scn)
    info = free_flow_distribution(net, scn).values[0]
    incidence = link_policy_incidence(policies, info, 10)
    assert set(incidence) == {p.label for p in policies}
    for table in incidence.values():
        for node, link_id in table.items():
            assert link_id in {l.id for l in net.links}
            assert any(
                l.from_node == node for l in net.links if l.id == link_id
            )


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

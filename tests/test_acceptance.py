"""End-to-end acceptance gate.

Each test covers one shipping requirement; names describe the guarantee.  The
expensive equilibrium solves are shared through module fixtures so the gate
stays within a desk-scale time budget.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest

from conftest import load_network, load_scenario
from oracles import enumerate_min_expected, random_small_ttd
from sdta import (
    ChoiceParams,
    CumulativeCurve,
    LinkSpec,
    LinkState,
    SolverConfig,
    average_expected_time,
    dot_spi,
    free_flow_distribution,
    generate_events,
    generate_policies,
    interp,
    iterative_loading,
    link_travel_time,
    monte_carlo_std,
    msa_solve,
    parse_scenario,
    path_ltm,
    po_ltm,
    single_route_pathset,
    splits_for,
    transition_diverge,
    transition_merge,
    with_realizations,
)

PARAMS = ChoiceParams()


@pytest.fixture(scope="module")
def equilibria():
    """Full 600-step solves on both fixtures with both loaders."""
    out = {}
    for name in ("twolinks", "diamond"):
        net = load_network(name)
        scn = load_scenario(name, net)
        for loader in ("chrono", "iter"):
            cfg = SolverConfig(loader=loader)
            t0 = time.perf_counter()
            result = msa_solve(net, scn, cfg)
            out[(name, loader)] = (result, time.perf_counter() - t0)
        out[name] = (net, scn)
    return out


def test_c01_worked_example_decisions(parallel3, parallel3_tree):
    t0 = time.perf_counter()
    policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
    assert policy.next_link(2, 3, 1) == "c"
    assert policy.next_node(2, 3, 1) == 3
    assert policy.next_link(2, 2, 0) == "b"
    assert policy.next_node(2, 2, 0) == 3
    assert policy.expected_time(1, 1, 0) == pytest.approx(5.5)
    assert time.perf_counter() - t0 < 1.0


def test_c02_enumeration_oracle_100_instances():
    rng = np.random.default_rng(20_25)
    t0 = time.perf_counter()
    for _ in range(100):
        ttd = random_small_ttd(rng)
        tree = generate_events(ttd)
        policy = dot_spi(ttd, tree, ttd.destination)
        ours = policy.expected_time(ttd.origin, 1, 0)
        assert ours == pytest.approx(enumerate_min_expected(ttd), abs=1e-9)
    assert time.perf_counter() - t0 < 30.0


def test_c03_split_dominance_and_z_trend(equilibria):
    # dominance: the optimal policy never receives a smaller share
    rng = np.random.default_rng(3_141)
    zs_by_w = {2: (1.5,), 3: (1.5, 2.0), 4: (1.5, 2.0, 3.0)}
    count = 0
    while count < 100:
        ttd = random_small_ttd(rng)
        w = 2 + count % 3
        policies, tree = generate_policies(ttd, zs_by_w[w])
        splits = splits_for(policies, tree, PARAMS)
        opt = splits.row("optimal")
        for policy in policies[1:]:
            assert np.all(opt >= splits.row(policy.label) - 1e-12)
        count += 1

    # perturbation sweep on the converged diamond state: even share in the
    # z -> 1 limit, share of the optimal policy rising with z afterwards
    result, _ = equilibria[("diamond", "chrono")]
    t_probe = 550
    shares = []
    for z in (1.0 + 1e-9, 1.2, 1.5, 2.0, 3.0, 5.0):
        policies, tree = generate_policies(result.final_ttd, (z,))
        splits = splits_for(policies, tree, PARAMS)
        shares.append(splits.row("optimal")[t_probe])
    assert shares[0] == pytest.approx(0.5, abs=1e-6)
    assert all(b >= a - 1e-9 for a, b in zip(shares, shares[1:]))
    assert shares[-1] > shares[0] + 0.1


def test_c04_convergence_within_budget(equilibria):
    budgets = {"twolinks": 120.0, "diamond": 600.0}
    for name in ("twolinks", "diamond"):
        wall_total = 0.0
        for loader in ("chrono", "iter"):
            result, wall = equilibria[(name, loader)]
            wall_total += wall
            assert result.converged, f"{name}/{loader} did not converge"
            assert result.iterations <= 50
            assert result.final_delta < 1e-3
        assert wall_total < budgets[name], f"{name} exceeded its time budget"


def test_c05_loader_agreement(equilibria):
    two_c, _ = equilibria[("twolinks", "chrono")]
    two_i, _ = equilibria[("twolinks", "iter")]
    gap = np.max(np.abs(two_c.final_splits.eta - two_i.final_splits.eta))
    assert gap < 1e-9, f"no-diverge loaders disagree by {gap}"

    dia_c, _ = equilibria[("diamond", "chrono")]
    dia_i, _ = equilibria[("diamond", "iter")]
    for policy in dia_c.final_policies:
        gap = np.max(np.abs(
            dia_c.final_splits.row(policy.label)
            - dia_i.final_splits.row(policy.label)
        ))
        assert gap <= 0.02, f"{policy.label} split gap {gap}"


def test_c06_chronological_loader_is_faster(equilibria):
    loads = {}
    for name in ("twolinks", "diamond"):
        net, scn = equilibria[name]
        result, _ = equilibria[(name, "chrono")]
        policies, tree = generate_policies(result.final_ttd, (1.5, 2.0))
        splits = splits_for(policies, tree, PARAMS)
        loads[name, "chrono"] = functools.partial(po_ltm, net, policies, splits, scn)
        loads[name, "iter"] = functools.partial(
            iterative_loading, net, policies, splits, scn, k_inner=5
        )
    best = _interleaved_minima(loads, rounds=2)
    speedups = {}
    for name in ("twolinks", "diamond"):
        t_chrono, t_iter = best[name, "chrono"], best[name, "iter"]
        speedups[name] = t_iter / t_chrono
        assert t_chrono < t_iter, f"{name}: chronological not faster"
    assert speedups["diamond"] >= 2.0
    assert speedups["diamond"] > speedups["twolinks"]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _interleaved_minima(loads, rounds):
    """Each call's fastest time over ``rounds`` rounds, every round timing
    every call once, in order.  A swing in host speed then reaches all the
    calls alike instead of the samples of one of them."""
    best = dict.fromkeys(loads, float("inf"))
    for _ in range(rounds):
        for key, load in loads.items():
            best[key] = min(best[key], _timed(load))
    return best


def test_c07_kernel_values_and_conservation():
    assert transition_merge(10, 2, 8, 0.5) == pytest.approx((6.0, 2.0))
    assert transition_diverge(4.0, 8.0, 6.0, 1e9)[0] == pytest.approx(3.0)

    curve = CumulativeCurve(1.0, [0.0, 2.0, 6.0])
    assert interp(curve, 0.5) == pytest.approx(1.0)

    # an uncongested 300 m / 15 m/s link reports exactly its 20 s free-flow
    # time, both while empty and once flow has passed through it
    spec = LinkSpec("x", 1, 2, 300.0, 15.0, 7.5, 0.2, None)
    state = LinkState(spec, np.full(41, 100.0), 1.0)
    assert link_travel_time(state, 0) == 20.0
    state.up = CumulativeCurve(1.0, [0.0] + [float(i) for i in range(30)])
    state.down = CumulativeCurve(1.0, [0.0] * 21 + [float(i) for i in range(9)])
    assert link_travel_time(state, 25) == 20.0

    net = load_network("twolinks")
    light = {
        "dt_s": 1.0,
        "steps": 200,
        "realizations": [{"prob": 1.0, "demand": {"constant": 360.0}, "capacity": {}}],
    }
    scn = parse_scenario(light, net)
    ps = single_route_pathset(net, scn.horizon_steps)
    real = scn.realizations[0]
    res = path_ltm(net, ps, real.demand, real.capacity, scn.dt)
    assert res.travel_times[0, 0] == pytest.approx(net.links[0].free_flow_time)

    # conservation on every shipped fixture at its full horizon
    for name in ("twolinks", "diamond", "sf", "twosf"):
        net = load_network(name)
        scn = load_scenario(name, net)
        ff = free_flow_distribution(net, scn)
        policies, tree = generate_policies(ff, (1.5, 2.0))
        splits = splits_for(policies, tree, PARAMS)
        diag = []
        po_ltm(net, policies, splits, scn, diagnostics=diag)
        assert len(diag) == scn.n_realizations
        for res in diag:
            assert res.released == pytest.approx(
                res.exited + res.vehicles_in_network[-1], abs=1e-6
            ), f"{name}: network count drifts"
            assert res.released + res.origin_backlog[-1] == pytest.approx(
                res.demand_total, abs=1e-6
            ), f"{name}: origin count drifts"


def test_c08a_capacity_degradation_trend():
    net = load_network("diamond")
    scn = load_scenario("diamond", net)
    vectors = [
        (1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (1.0, 0.9, 0.45), (1.0, 0.8, 0.4),
        (1.0, 0.7, 0.35), (1.0, 0.6, 0.3), (1.0, 0.5, 0.25),
    ]
    cfg = SolverConfig(k_outer=12)
    averages = []
    for vec in vectors:
        reals = []
        for r, real in enumerate(scn.realizations):
            capacity = dict(real.capacity)
            capacity["2-3"] = np.full(scn.horizon_steps + 1, vec[r] * scn.dt)
            reals.append(dataclasses.replace(real, capacity=capacity))
        variant = dataclasses.replace(scn, realizations=tuple(reals))
        averages.append(average_expected_time(msa_solve(net, variant, cfg)))
    for a, b in zip(averages, averages[1:]):
        assert b >= a - 1e-6, f"trend broke: {averages}"
    assert averages[-1] > averages[0]


def test_c08b_monte_carlo_std_grows_with_cov():
    net = load_network("diamond")
    scn = load_scenario("diamond", net)
    cfg = SolverConfig(k_outer=6)
    stds = [
        np.asarray(monte_carlo_std(
            net, scn, cfg, cov=cov, draws=3, seed=99, at_steps=(250, 350)
        ))
        for cov in (0.0, 0.1, 0.3)
    ]
    assert stds[0] == pytest.approx(np.zeros(2), abs=1e-12)
    for lo, hi in zip(stds, stds[1:]):
        assert np.all(hi >= lo - 1e-12)
    assert np.all(stds[-1] > 0.0)


def _scaling_setup(net, scn, zs):
    ff = free_flow_distribution(net, scn)
    p0, t0 = generate_policies(ff, zs)
    s0 = splits_for(p0, t0, PARAMS)
    loaded = po_ltm(net, p0, s0, scn)
    policies, tree = generate_policies(loaded, zs)
    return policies, splits_for(policies, tree, PARAMS)


def test_c08c_runtime_linear_in_policy_count():
    net = load_network("sf")
    scn = load_scenario("sf", net, steps=250)
    ws = np.array([2, 3, 4, 5, 6])
    loads = {}
    for w in ws:
        zs = tuple(1.5 + 0.5 * i for i in range(w - 1))
        policies, splits = _scaling_setup(net, scn, zs)
        loads[w] = functools.partial(po_ltm, net, policies, splits, scn)
    best = _interleaved_minima(loads, rounds=3)
    times = np.array([best[w] for w in ws])
    slope, intercept = np.polyfit(ws, times, 1)
    fitted = intercept + slope * ws
    ratios = times / fitted
    assert np.all((ratios >= 0.5) & (ratios <= 2.0)), f"ratios {ratios}"
    assert slope > 0.0


def test_c08d_runtime_superlinear_in_realizations():
    net = load_network("sf")
    base = load_scenario("sf", net, steps=250)
    grid = (2, 4, 8, 16)
    loads = {}
    for count in grid:
        scn = with_realizations(base, count, seed=7)
        policies, splits = _scaling_setup(net, scn, (1.5,))
        loads[count] = functools.partial(po_ltm, net, policies, splits, scn)
    best = _interleaved_minima(loads, rounds=3)
    times = [best[count] for count in grid]
    increments = np.diff(times)
    assert np.all(increments > 0.0), f"times {times}"
    for a, b in zip(increments, increments[1:]):
        assert b / a > 1.0, f"increments {increments}"


def test_c09_out_of_scope_results_are_documented():
    """Absolute wall-clock magnitudes are hardware-bound and exact split
    trajectories depend on solver constants that are not published with the
    method; neither is reproduced here.  The ordering and trend tests in
    this gate stand in for them.  This entry records the exclusion."""
    assert True

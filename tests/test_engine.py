"""The array engine against the scalar reference kernels, and loader
invariants over generated demand.

The engine in ``sdta.loading`` computes every link's boundary flows and
travel time with array operations; ``sdta.kernels`` keeps the one-link
scalar versions.  Both must agree exactly on any monotone curves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_network, load_scenario
from sdta import (
    ChoiceParams,
    LinkSpec,
    Network,
    PathSet,
    Realization,
    free_flow_distribution,
    generate_policies,
    path_ltm,
    po_ltm,
    splits_for,
)
from sdta.kernels import (
    CumulativeCurve,
    LinkState,
    interp,
    link_travel_time,
    receiving_flow,
    sending_flow,
)
from sdta.loading import _Engine, _prefix_demand, _Turns

DT = 1.0


@st.composite
def loaded_chains(draw):
    """A serial chain of 1-4 links with random geometry, capacities and
    monotone curves (up and down per link, aggregate and per commodity).
    Links are often only 1-3 steps long, where lookbacks clamp at the last
    recorded sample.

    Increments mix a small grid, zeros included, with arbitrary floats, so
    curves have plateaus, downstream counts often hit upstream samples
    exactly, and sums round.
    """
    n_links = draw(st.integers(1, 4))
    T = draw(st.integers(2, 40))
    K = draw(st.integers(1, 3))
    links = []
    for i in range(n_links):
        vf = draw(st.sampled_from([5.0, 7.5, 10.0, 15.0, 20.0]))
        links.append(LinkSpec(
            id=f"l{i}", from_node=i, to_node=i + 1,
            length=vf * DT * draw(st.one_of(
                st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 40.0)
            )),
            free_flow_speed=vf,
            backward_wave_speed=vf * draw(st.sampled_from([0.25, 0.5, 1.0])),
            jam_density=draw(st.sampled_from([0.1, 0.45])),
        ))
    network = Network(tuple(range(n_links + 1)), tuple(links), 0, n_links)
    steps = st.one_of(
        st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5]),
        st.floats(0.0, 2.0, allow_subnormal=False),
    )
    # commodity increments per (link, commodity, step); aggregates are sums
    inc = np.array(draw(st.lists(steps, min_size=n_links * K * T * 2,
                                 max_size=n_links * K * T * 2))).reshape(2, n_links, K, T)
    by = np.zeros((2, n_links, K, T + 1))
    by[..., 1:] = np.cumsum(inc, axis=-1)
    capacity = {
        link.id: np.array(draw(st.lists(st.sampled_from([0.3, 1.0, 2.5, 4.0]),
                                        min_size=T + 1, max_size=T + 1)))
        for link in links
    }
    return network, capacity, by, T


def reference_state(link, capacity, up, down, up_by, down_by, upto):
    state = LinkState(link, capacity, DT)
    state.up = CumulativeCurve(DT, up[: upto + 1])
    state.down = CumulativeCurve(DT, down[: upto + 1])
    for k in range(up_by.shape[0]):
        state.up_by[k] = CumulativeCurve(DT, up_by[k, : upto + 1])
        state.down_by[k] = CumulativeCurve(DT, down_by[k, : upto + 1])
    return state


@settings(max_examples=150, deadline=None)
@given(loaded_chains(), st.data())
def test_engine_matches_scalar_kernels(chain, data):
    network, capacity, by, T = chain
    K = by.shape[2]
    t = data.draw(st.integers(1, T))
    engine = _Engine(_Turns(network), capacity, DT, T, K, strict_origin=False)
    engine.curves[:, :, 1:, :] = by
    engine.curves[:, :, 0, :] = by.sum(axis=2)
    # step t sees the samples recorded before it
    engine.curves[..., t:] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        flows, gaps = engine.boundary_flows(t)
    agg = by.sum(axis=2)
    for i, link in enumerate(network.links):
        state = reference_state(link, capacity[link.id], agg[0, i], agg[1, i],
                                by[0, i], by[1, i], t - 1)
        assert flows[0, i] == sending_flow(state, t)
        assert flows[1, i] == receiving_flow(state, t)
        query = (t + 1) * DT - link.free_flow_time
        for k in range(K):
            assert gaps[i, k] == (
                interp(state.up_by[k], query) - state.down_by[k].value_at(t - 1)
            )

    # travel times: one column after step t, and all columns at the end
    engine.curves[:, :, 1:, :] = by
    engine.curves[:, :, 0, :] = agg
    with np.errstate(divide="ignore", invalid="ignore"):
        column = engine.travel_time_column(t)
        every = engine.travel_times()
    for i, link in enumerate(network.links):
        now = reference_state(link, capacity[link.id], agg[0, i], agg[1, i],
                              by[0, i], by[1, i], t)
        assert column[i] == link_travel_time(now, t)
        final = reference_state(link, capacity[link.id], agg[0, i], agg[1, i],
                                by[0, i], by[1, i], T)
        for s in range(1, T + 1):
            assert every[i, s] == link_travel_time(final, s)


def test_exit_counts_just_above_the_entries():
    """Exits a hair above the last entry count match to the last sample
    (within 1e-12), further above they fall back to free flow, as
    ``link_travel_time`` does."""
    links = tuple(
        LinkSpec(f"l{i}", i, i + 1, 100.0, 10.0, 5.0, 0.45) for i in range(3)
    )
    network = Network((0, 1, 2, 3), links, 0, 3)
    T = 4
    capacity = {l.id: np.ones(T + 1) for l in links}
    engine = _Engine(_Turns(network), capacity, DT, T, 1, strict_origin=False)
    up = np.array([0.0, 1.0, 2.0, 2.0, 3.0])
    for i, excess in enumerate((0.0, 5e-13, 1e-9)):
        engine.curves[0, i, :] = up
        engine.curves[1, i, :] = np.minimum(up, 2.5)
        engine.curves[1, i, :, T] = up[T] + excess
    with np.errstate(divide="ignore", invalid="ignore"):
        column = engine.travel_time_column(T)
        every = engine.travel_times()
    for i, link in enumerate(links):
        state = reference_state(link, capacity[link.id], engine.up[i], engine.down[i],
                                engine.up_by[i], engine.down_by[i], T)
        assert column[i] == every[i, T] == link_travel_time(state, T)
    assert column.tolist() == [DT * 1.0, DT, links[2].free_flow_time]


# --- invariants of both loaders on diamond under generated demand ---------

DIAMOND = load_network("diamond")
STEPS = 90
BASE = load_scenario("diamond", DIAMOND, steps=STEPS)
POLICIES, TREE = generate_policies(free_flow_distribution(DIAMOND, BASE), (1.5,))
SPLITS = splits_for(POLICIES, TREE, ChoiceParams())
ROUTES = (("1-2", "2-3", "3-5", "5-6", "6-7"), ("1-2", "2-4", "4-5", "5-6", "6-7"))

demands = st.lists(
    st.floats(0.0, 3.0, allow_nan=False), min_size=STEPS, max_size=STEPS
).map(lambda d: np.r_[0.0, d])
scales = st.floats(0.2, 1.5)


def realization(demand, scale):
    base = BASE.realizations[0]
    return Realization(1.0, demand, {k: v * scale for k, v in base.capacity.items()})


def assert_conserves(res):
    assert res.released == pytest.approx(res.exited + res.vehicles_in_network[-1], abs=1e-6)
    assert res.released + res.origin_backlog[-1] == pytest.approx(res.demand_total, abs=1e-6)
    assert np.all(res.vehicles_in_network >= -1e-9)
    assert np.all(res.origin_backlog >= 0.0)


@settings(max_examples=30, deadline=None)
@given(demands, scales, st.floats(0.0, 1.0), st.booleans())
def test_path_loading_conserves_with_monotone_curves(demand, scale, share, strict):
    real = realization(demand, scale)
    mu = np.vstack([np.full(STEPS + 1, share), np.full(STEPS + 1, 1.0 - share)])
    pathset = PathSet(ROUTES, mu)
    res = path_ltm(DIAMOND, pathset, real.demand, real.capacity, DT, strict_origin=strict)
    assert_conserves(res)
    assert np.all(res.travel_times >= DT)

    # the same run, step by step, keeps every curve non-decreasing and no
    # link ever discharges more than it took in
    turns = _Turns(DIAMOND)
    engine = _Engine(turns, real.capacity, DT, STEPS, 2, strict)
    cum = _prefix_demand(real.demand, mu)
    engine.set_route(turns.path_routes(ROUTES, DIAMOND))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(1, STEPS + 1):
            engine.step(t, cum)
    assert np.all(np.diff(engine.curves, axis=-1) >= 0.0)
    assert np.all(engine.down <= engine.up + 1e-9)
    assert np.allclose(engine.curves[:, :, 0], engine.curves[:, :, 1:].sum(axis=2))


@settings(max_examples=15, deadline=None)
@given(demands, scales, st.booleans())
def test_policy_loading_conserves(demand, scale, strict):
    scn = BASE.__class__(
        dt=DT, horizon_steps=STEPS, realizations=(realization(demand, scale),),
        origin=BASE.origin, destination=BASE.destination,
    )
    diagnostics = []
    ttd = po_ltm(DIAMOND, POLICIES, SPLITS, scn, strict_origin=strict,
                 diagnostics=diagnostics)
    (res,) = diagnostics
    assert_conserves(res)
    assert np.all(ttd.values >= DT)

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
    ValidationError,
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
from sdta.loading import _Engine, _load_paths, _prefix_demand, _Turns

DT = 1.0


@st.composite
def loaded_chains(draw):
    """A serial chain of 1-4 links with random geometry, and 1-3
    realizations with their own capacities and monotone curves (up and down
    per link, aggregate and per commodity).  Links are often only 1-3 steps
    long, where lookbacks clamp at the last recorded sample.

    Increments mix a small grid, zeros included, with arbitrary floats, so
    curves have plateaus, downstream counts often hit upstream samples
    exactly, and sums round.  The first realization's increments are drawn
    here; the others come from a drawn seed, from the same mixture.
    """
    n_links = draw(st.integers(1, 4))
    T = draw(st.integers(2, 40))
    K = draw(st.integers(1, 3))
    R = draw(st.integers(1, 3))
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
    # commodity increments per (realization, side, link, commodity, step);
    # aggregates are sums
    shape = (2, n_links, K, T)
    size = 2 * n_links * K * T
    first = np.array(draw(st.lists(steps, min_size=size, max_size=size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, 1.5], size=(R - 1,) + shape)
    inc = np.concatenate([
        first.reshape((1,) + shape),
        np.where(rng.random(grid.shape) < 0.5, grid, rng.uniform(0.0, 2.0, grid.shape)),
    ])
    by = np.zeros((R, 2, n_links, K, T + 1))
    by[..., 1:] = np.cumsum(inc, axis=-1)
    capacities = [
        {
            link.id: np.array(draw(st.lists(st.sampled_from([0.3, 1.0, 2.5, 4.0]),
                                            min_size=T + 1, max_size=T + 1)))
            for link in links
        }
        for _ in range(R)
    ]
    return network, capacities, by, T


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
    """Every realization's slice of a batch against the scalar kernels."""
    network, capacities, by, T = chain
    K = by.shape[3]
    t = data.draw(st.integers(1, T))
    engine = _Engine(_Turns(network), capacities, DT, T, K, strict_origin=False)
    engine.curves[:, :, :, 1:, :] = by
    engine.curves[:, :, :, 0, :] = by.sum(axis=3)
    # step t sees the samples recorded before it
    engine.curves[..., t:] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        flows, gaps = engine.boundary_flows(t)
    agg = by.sum(axis=3)
    for r, capacity in enumerate(capacities):
        for i, link in enumerate(network.links):
            state = reference_state(link, capacity[link.id], agg[r, 0, i], agg[r, 1, i],
                                    by[r, 0, i], by[r, 1, i], t - 1)
            assert flows[r, 0, i] == sending_flow(state, t)
            assert flows[r, 1, i] == receiving_flow(state, t)
            query = (t + 1) * DT - link.free_flow_time
            for k in range(K):
                assert gaps[r, i, k] == (
                    interp(state.up_by[k], query) - state.down_by[k].value_at(t - 1)
                )

    # travel times: one column after step t, and all columns at the end
    engine.curves[:, :, :, 1:, :] = by
    engine.curves[:, :, :, 0, :] = agg
    with np.errstate(divide="ignore", invalid="ignore"):
        column = engine.travel_time_column(t)
        every = engine.travel_times()
    for r, capacity in enumerate(capacities):
        for i, link in enumerate(network.links):
            now = reference_state(link, capacity[link.id], agg[r, 0, i], agg[r, 1, i],
                                  by[r, 0, i], by[r, 1, i], t)
            assert column[r, i] == link_travel_time(now, t)
            final = reference_state(link, capacity[link.id], agg[r, 0, i], agg[r, 1, i],
                                    by[r, 0, i], by[r, 1, i], T)
            for s in range(1, T + 1):
                assert every[r, i, s] == link_travel_time(final, s)


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
    engine = _Engine(_Turns(network), [capacity], DT, T, 1, strict_origin=False)
    up = np.array([0.0, 1.0, 2.0, 2.0, 3.0])
    for i, excess in enumerate((0.0, 5e-13, 1e-9)):
        engine.curves[0, 0, i, :] = up
        engine.curves[0, 1, i, :] = np.minimum(up, 2.5)
        engine.curves[0, 1, i, :, T] = up[T] + excess
    with np.errstate(divide="ignore", invalid="ignore"):
        (column,) = engine.travel_time_column(T)
        (every,) = engine.travel_times()
    for i, link in enumerate(links):
        state = reference_state(link, capacity[link.id], engine.up[0, i], engine.down[0, i],
                                engine.up_by[0, i], engine.down_by[0, i], T)
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
    engine = _Engine(turns, [real.capacity], DT, STEPS, 2, strict)
    cum = _prefix_demand(real.demand, mu)[np.newaxis]
    engine.set_route(turns.path_routes(ROUTES, DIAMOND)[np.newaxis])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # as the loaders
        for t in range(1, STEPS + 1):
            engine.step(t, cum)
    assert np.all(np.diff(engine.curves, axis=-1) >= 0.0)
    assert np.all(engine.down <= engine.up + 1e-9)
    assert np.allclose(engine.curves[:, :, :, 0], engine.curves[:, :, :, 1:].sum(axis=3))


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


def assert_same_result(a, b):
    for name in ("travel_times", "origin_backlog", "vehicles_in_network"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.released, a.exited, a.demand_total) == (b.released, b.exited, b.demand_total)


# --- a batch of realizations loads each as if it were alone ---------------

# Policies whose diverge decision depends on the event matched to observed
# history: in the defining realizations 1 and 2, link 2-4 slows by 30 and
# 60 s from step 150, which tips the choice at node 2 to the 2-3 branch
# (made a little slower than 2-4 at free flow).  Queues on 2-4 then send
# each loaded realization to its own events at its own steps.
LONG = 240
LONG_BASE = load_scenario("diamond", DIAMOND, steps=LONG)


def branching_policies():
    free = free_flow_distribution(DIAMOND, LONG_BASE)
    values = free.values.copy()
    index = DIAMOND.link_index
    values[:, index["2-3"]] *= 0.5
    values[:, index["3-5"]] *= 0.68
    values[1, index["2-4"], 150:] += 30.0
    values[2, index["2-4"], 150:] += 60.0
    policies, tree = generate_policies(free.replace_values(values), (1.5,))
    return policies, splits_for(policies, tree, ChoiceParams())


BRANCHING, BRANCHING_SPLITS = branching_policies()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.floats(0.5, 1.5), st.floats(0.2, 1.5)),
                min_size=2, max_size=3),
       st.booleans())
def test_policy_loading_is_independent_per_realization(draws, strict):
    """Each realization's own history picks its events and so its routes;
    in a batch, realizations must not see one another's."""
    reals = []
    for i, demand, capacity in draws:
        base = LONG_BASE.realizations[i]
        reals.append((base.demand * demand,
                      {link: v * capacity for link, v in base.capacity.items()}))

    def scenario(members, prob):
        return LONG_BASE.__class__(
            dt=DT, horizon_steps=LONG,
            realizations=tuple(Realization(prob, d, c) for d, c in members),
            origin=LONG_BASE.origin, destination=LONG_BASE.destination,
        )

    together = []
    ttd = po_ltm(DIAMOND, BRANCHING, BRANCHING_SPLITS, scenario(reals, 1.0 / len(reals)),
                 strict_origin=strict, diagnostics=together)
    assert len(together) == len(reals)
    for r, real in enumerate(reals):
        alone = []
        single = po_ltm(DIAMOND, BRANCHING, BRANCHING_SPLITS, scenario([real], 1.0),
                        strict_origin=strict, diagnostics=alone)
        assert ttd.values[r].tobytes() == single.values[0].tobytes()
        assert_same_result(together[r], alone[0])


SF = load_network("sf")
SF_STEPS = 90
SF_BASE = load_scenario("sf", SF, steps=SF_STEPS).realizations[0]


def sf_paths():
    def walk(node, path):
        if node == SF.destination:
            yield path
        for link in SF.out_links[node]:
            yield from walk(link.to_node, path + (link.id,))
    return list(walk(SF.origin, ()))


SF_PATHS = sf_paths()


@st.composite
def sf_loads(draw):
    """2-3 realizations on sf, each with its own scaled demand and capacity
    and a path set of its own size, up to 12 paths: a set of 8 or more sums
    its commodities pairwise, so padding a smaller set up to it would show."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True))
    loads = []
    for k in sizes:
        picks = draw(st.lists(st.integers(0, len(SF_PATHS) - 1), min_size=k,
                              max_size=k, unique=True))
        share = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
        mu = np.repeat((share / share.sum())[:, None], SF_STEPS + 1, axis=1)
        d, c = draw(scales), draw(scales)
        capacity = {link: v * c for link, v in SF_BASE.capacity.items()}
        loads.append((PathSet(tuple(SF_PATHS[i] for i in picks), mu),
                      SF_BASE.demand * 3.0 * d, capacity))
    return loads


@settings(max_examples=15, deadline=None)
@given(sf_loads(), st.booleans())
def test_batched_path_loading_matches_path_ltm(loads, strict):
    pathsets, demand, capacity = zip(*loads)
    engine, cum, travel = _load_paths(SF, pathsets, demand, capacity, DT, strict, None)
    for r, (pathset, d, c) in enumerate(loads):
        alone = path_ltm(SF, pathset, d, c, DT, strict_origin=strict)
        batched = engine.result(r, travel[r], cum[r, : len(pathset.paths)])
        assert_same_result(batched, alone)


def test_monotone_check_catches_a_corrupt_curve():
    real = BASE.realizations[0]
    mu = np.full((2, STEPS + 1), 0.5)
    pathset = PathSet(ROUTES, mu)
    engine, _, _ = _load_paths(DIAMOND, [pathset] * 3, [real.demand] * 3,
                               [real.capacity] * 3, DT, False, None)
    engine.check_monotone()
    link = DIAMOND.link_index["2-4"]
    assert engine.up[1, link, -1] > 0.0
    engine.up[1, link, STEPS // 2] += engine.up[1, link, -1] + 1.0
    with pytest.raises(ValidationError, match="cannot decrease"):
        engine.check_monotone()

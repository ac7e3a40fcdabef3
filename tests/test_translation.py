"""Policy-to-path translation: the batched walk against the scalar one.

``sdta.loading._translate_info`` walks every (policy, departure) pair at
once on tables of the stacked policy set (matched event, decisions, clock
advance, one row per policy) and pools the whole set in one numbering;
``oracles.translate_walk`` is the former one-walk-per-policy-and-departure
version.  They must produce the same paths and the same usage fractions,
bit for bit, also for policies with event trees of their own.  A walk
without a decision names its own policy, as in the scalar walk, and where
several walks fail the batch names the one that fails at the earliest hop;
the hop guard holds beside policies that arrive and names the one that
cycles.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_network, load_scenario
from oracles import translate_walk
from sdta import (
    ChoiceParams,
    LinkRef,
    NonTerminatingTranslation,
    Policy,
    Realization,
    SplitSchedule,
    TravelTimeDistribution,
    free_flow_distribution,
    generate_events,
    generate_policies,
    iterative_loading,
    perturbed,
    splits_for,
    with_realizations,
)
from sdta.loading import _expected_advance, _translate_info

DIAMOND = load_network("diamond")
STEPS = 150
BASE = load_scenario("diamond", DIAMOND, steps=STEPS)
THIRDS = tuple(r.probability for r in BASE.realizations)


def assert_same_pathset(got, want):
    assert got.paths == want.paths
    assert got.mu.tobytes() == want.mu.tobytes()


@st.composite
def congested_iterates(draw):
    """Policies generated on a congested diamond iterate, and a loaded
    history to translate them against.

    Demand and capacity are scaled so queues form, realizations get their
    own noise (so events split), and the probabilities are either the
    fixture's thirds or uneven ones.  Ten realizations make events of eight
    or more members beside smaller ones, whose scores numpy sums pairwise.
    """
    demand = draw(st.floats(1.0, 3.0))
    capacity = draw(st.floats(0.3, 1.0))
    scn = dataclasses.replace(BASE, realizations=tuple(
        Realization(r.probability, r.demand * demand,
                    {k: v * capacity for k, v in r.capacity.items()})
        for r in BASE.realizations
    ))
    probs = draw(st.sampled_from([THIRDS, (0.2, 0.3, 0.5), (0.125, 0.375, 0.5)]))
    scn = dataclasses.replace(scn, realizations=tuple(
        dataclasses.replace(r, probability=p) for r, p in zip(scn.realizations, probs)
    ))
    if draw(st.booleans()):
        scn = with_realizations(scn, 10, draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scn = perturbed(scn, draw(st.sampled_from([0.0, 0.05, 0.2])), rng)

    params = ChoiceParams()
    policies, tree = generate_policies(free_flow_distribution(DIAMOND, scn), (1.5, 2.0))
    splits = splits_for(policies, tree, params)
    loaded = iterative_loading(DIAMOND, policies, splits, scn, k_inner=1)
    policies, tree = generate_policies(loaded, (1.5, 2.0))
    splits = splits_for(policies, tree, params)
    info = loaded.values[draw(st.integers(0, scn.n_realizations - 1))]
    return policies, splits, info, scn.dt


@settings(max_examples=25, deadline=None)
@given(congested_iterates())
def test_batched_translation_matches_scalar_walk(iterate):
    policies, splits, info, dt = iterate
    assert_same_pathset(_translate_info(policies, splits, info, dt),
                        translate_walk(policies, splits, info, dt))


SF = load_network("sf")
SF_BASE = load_scenario("sf", SF, steps=STEPS)


def sf_iterate(demand, capacity):
    """A history loaded on sf with scaled demand and capacity, noise 0.2."""
    scn = perturbed(dataclasses.replace(SF_BASE, realizations=tuple(
        Realization(r.probability, r.demand * demand,
                    {k: v * capacity for k, v in r.capacity.items()})
        for r in SF_BASE.realizations
    )), 0.2, np.random.default_rng(3))
    policies, tree = generate_policies(free_flow_distribution(SF, scn), (1.5, 2.0))
    return iterative_loading(SF, policies, splits_for(policies, tree, ChoiceParams()), scn,
                             k_inner=1)


@pytest.mark.parametrize("scales", [[(1.0, 1.0), (2.0, 0.5)], [(2.0, 0.5), (1.0, 1.0)]],
                         ids=["lighter-first", "congested-first"])
def test_policies_with_their_own_event_trees_translate_as_the_scalar_walk(scales):
    """The optimal policy of one sf iterate beside the suboptimal ones of
    another, whose realizations separate at other steps, with hand-made
    splits: each policy matches events on its own tree.  A batch reading the
    first policy's tree for all reads the others' decisions at other states,
    or past their last one."""
    iterates = [sf_iterate(*scale) for scale in scales]
    (first, _), (second, _) = (generate_policies(it, (1.5, 2.0)) for it in iterates)
    policies = [first[0], *second[1:]]
    assert not np.array_equal(policies[0].tree.member, policies[1].tree.member)
    eta = np.random.default_rng(5).dirichlet(np.ones(3), STEPS + 1).T
    eta[:, 0] = eta[:, 1]
    splits = SplitSchedule(eta, tuple(p.label for p in policies))
    for info in np.concatenate([it.values for it in iterates]):
        assert_same_pathset(_translate_info(policies, splits, info, SF_BASE.dt),
                            translate_walk(policies, splits, info, SF_BASE.dt))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_expected_advance_rounds_as_the_scalar_mean(data):
    """Means within rounding of a half step round as ``weights @ values /
    weights.sum()`` does, whatever order the table sums in."""
    probs = np.array(data.draw(st.sampled_from(
        [(1.0,), (0.3, 0.7), THIRDS, (0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4)]
    )))
    R = probs.size
    L = data.draw(st.integers(1, 3))
    T = data.draw(st.integers(1, 30))
    dt = data.draw(st.sampled_from([1.0, 0.5, 2.0]))
    steps = np.array(data.draw(st.lists(st.integers(1, 40), min_size=R * L * (T + 1),
                                        max_size=R * L * (T + 1))), dtype=float)
    refs = [LinkRef(f"l{i}", 0, 1) for i in range(L)]
    ttd = TravelTimeDistribution(steps.reshape(R, L, T + 1) * dt, dt, probs,
                                 refs, 0, 1, grid_rounded=True)
    inside = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=R, max_size=R).filter(any),
        min_size=T + 1, max_size=T + 1,
    )))
    (advance,) = _expected_advance(ttd.probabilities[None], ttd.values[None], inside[None], dt)
    for s in range(T + 1):
        support = list(np.flatnonzero(inside[s]))
        weights = ttd.probabilities[support]
        for li in range(L):
            mean = float(weights @ ttd.values[support, li, s] / weights.sum())
            assert advance[s, li] == max(dt, int(mean / dt + 0.5) * dt)


# --- walks that never reach the destination -------------------------------

def hand_built(links, *decisions, T=4):
    """Deterministic policies on nodes 1..3 (origin 1, destination 3), one per
    mapping in ``decisions``, each taking link ``decisions[node]`` at every
    step, -1 where none is given.  The first is labelled optimal, the next
    suboptimal with z = 2, 3, ..."""
    refs = [LinkRef(lid, a, b) for lid, a, b in links]
    ttd = TravelTimeDistribution(np.ones((1, len(refs), T + 1)), 1.0, np.array([1.0]),
                                 refs, 1, 3, grid_rounded=True)
    nodes = (1, 2, 3)
    policies = []
    for k, decided in enumerate(decisions):
        choices = np.array([[decided.get(n, -1)] * T for n in nodes], dtype=np.int64)
        policies.append(Policy(k + 1.0 if k else None, ttd, generate_events(ttd),
                               np.zeros((3, T)), choices, nodes, 1e9))
    splits = SplitSchedule(np.full((len(policies), T + 1), 1.0 / len(policies)),
                           tuple(p.label for p in policies))
    return policies, splits, ttd


def test_reached_node_without_decision_does_not_terminate():
    policies, splits, ttd = hand_built([("a", 1, 2), ("b", 2, 3)], {1: 0})
    with pytest.raises(NonTerminatingTranslation, match="no route from node 2"):
        _translate_info(policies, splits, ttd.values[0], ttd.dt)
    with pytest.raises(NonTerminatingTranslation, match="no route from node 2"):
        translate_walk(policies, splits, ttd.values[0], ttd.dt)


def test_cycling_decisions_hit_the_hop_guard():
    policies, splits, ttd = hand_built([("a", 1, 2), ("b", 2, 1), ("c", 2, 3)], {1: 0, 2: 1})
    with pytest.raises(NonTerminatingTranslation, match="exceeded 8 hops"):
        _translate_info(policies, splits, ttd.values[0], ttd.dt)
    with pytest.raises(NonTerminatingTranslation, match="exceeded 8 hops"):
        translate_walk(policies, splits, ttd.values[0], ttd.dt)


def test_a_stuck_walk_names_its_own_policy():
    # the optimal policy arrives; only the second has no decision at node 2
    policies, splits, ttd = hand_built([("a", 1, 2), ("b", 2, 3)], {1: 0, 2: 1}, {1: 0})
    stuck = r"policy suboptimal\[z=2\] has no route from node 2"
    with pytest.raises(NonTerminatingTranslation, match=stuck):
        _translate_info(policies, splits, ttd.values[0], ttd.dt)
    with pytest.raises(NonTerminatingTranslation, match=stuck):
        translate_walk(policies, splits, ttd.values[0], ttd.dt)


def test_the_walker_stuck_at_the_earliest_hop_is_named():
    # the optimal policy is stuck at node 2 on the second hop, the other at
    # the origin on the first; the scalar walk, a policy at a time, names
    # the optimal one
    policies, splits, ttd = hand_built([("a", 1, 2), ("b", 2, 3)], {1: 0}, {})
    with pytest.raises(NonTerminatingTranslation,
                       match=r"policy suboptimal\[z=2\] has no route from node 1"):
        _translate_info(policies, splits, ttd.values[0], ttd.dt)


@pytest.mark.parametrize("cycling", [0, 1])
def test_the_hop_guard_holds_beside_an_arriving_policy(cycling):
    arrives, cycles = {1: 0, 2: 2}, {1: 0, 2: 1}
    decisions = [arrives, arrives]
    decisions[cycling] = cycles
    policies, splits, ttd = hand_built([("a", 1, 2), ("b", 2, 1), ("c", 2, 3)], *decisions)
    label = re.escape(policies[cycling].label)
    with pytest.raises(NonTerminatingTranslation, match=rf"^policy {label}: .* exceeded 8 hops"):
        _translate_info(policies, splits, ttd.values[0], ttd.dt)
    with pytest.raises(NonTerminatingTranslation, match="exceeded 8 hops"):
        translate_walk(policies, splits, ttd.values[0], ttd.dt)

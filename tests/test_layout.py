"""The event tree's column layout, and the array code that reads it.

Every event of steps 1..T owns one column of a policy's ``values`` and
``choices``.  ``expected_origin_times`` and ``lp_policy`` read whole
tables at once; ``oracles`` keeps their former per-event loops, which must
give the same digits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expected_origin_time_loop, generate_events_loop, inflated_values
from sdta import (
    ChoiceParams,
    LinkRef,
    TravelTimeDistribution,
    check_monotone,
    dot_spi,
    expected_origin_time,
    generate_events,
    lp_policy,
    round_to_grid,
    utilities,
)
from sdta.policy import expected_origin_times

# (links as (id, tail, head), origin, destination).  The third has a cycle,
# the fourth a dead end (node 4) and a node nothing reaches (node 5).
TOPOLOGIES = (
    ((("a", 1, 2), ("b", 1, 2), ("c", 1, 2)), 1, 2),
    ((("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4), ("e", 2, 3)), 1, 4),
    ((("a", 1, 2), ("b", 2, 1), ("c", 2, 3), ("d", 1, 3)), 1, 3),
    ((("a", 1, 2), ("b", 2, 3), ("c", 1, 3), ("d", 2, 4), ("e", 5, 3)), 1, 3),
)


@st.composite
def generated_ttds(draw, monotone=False):
    """A grid-rounded distribution with uneven probabilities.

    With ``wide``, link a's times differ in every realization, so level 2
    holds one event per realization, 8 or more of them.  ``monotone``
    makes every travel time strictly increase over departure steps.
    """
    links, origin, dest = draw(st.sampled_from(TOPOLOGIES))
    wide = draw(st.booleans())
    R = draw(st.integers(8, 14) if wide else st.integers(1, 7))
    T = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = len(links)
    if monotone:
        rise = rng.integers(1, 3, size=(R, L, T))
        rise[:, :, 0] = rng.integers(1, 5, size=(R, L))
        steps = np.cumsum(rise, axis=2)
    else:
        steps = rng.integers(1, 5, size=(R, L, T))
    if wide:
        steps[:, 0] += np.arange(R)[:, None]
    values = np.concatenate([steps[:, :, :1], steps], axis=2).astype(float)
    weights = rng.integers(1, 10, size=R).astype(float)
    refs = [LinkRef(*link) for link in links]
    return TravelTimeDistribution(values, 1.0, weights / weights.sum(), refs,
                                  origin, dest, grid_rounded=True)


@settings(max_examples=100, deadline=None)
@given(generated_ttds())
def test_columns_land_on_the_realizations_events(ttd):
    tree = generate_events(ttd)
    T = tree.horizon_steps
    assert tree.start[0] == tree.start[1] == 0
    np.testing.assert_array_equal(tree.member[0], tree.member[1])
    assert tree.level_of.size == tree.masses.size == sum(
        len(tree.events_at(t)) for t in range(1, T + 1)
    )
    for t in range(T + 1):
        level = tree.events_at(t)
        step = max(t, 1)
        for r in range(tree.n_realizations):
            column = tree.start[t] + tree.member[t, r]
            assert tree.level_of[column] == step
            support = level[column - tree.start[step]]
            assert r in support
            assert tree.masses[column] == tree.probabilities[list(support)].sum()
    per_level = np.bincount(tree.level_of, tree.masses)[1:]
    np.testing.assert_allclose(per_level, 1.0, rtol=0, atol=1e-12)


@st.composite
def shared_prefix_ttds(draw):
    """A generated distribution in which each realization copies an earlier
    one's step counts up to a drawn step (past the horizon: all of them),
    so events of several members split at different steps."""
    ttd = draw(generated_ttds())
    values = ttd.values.copy()
    T = ttd.horizon_steps
    for r in range(1, ttd.n_realizations):
        shared = draw(st.integers(0, T + 1))
        values[r, :, :shared] = values[draw(st.integers(0, r - 1)), :, :shared]
    return ttd.replace_values(values, grid_rounded=True)


def loop_layout(ttd):
    """``member``, ``start``, ``level_of`` and ``masses`` from the loop
    builder's supports, laid out as the former per-event ``EventTree`` did:
    each mass is numpy's sum over its support."""
    levels = generate_events_loop(ttd)
    member = np.full((len(levels), ttd.n_realizations), -1, dtype=np.int64)
    for t, level in enumerate(levels):
        for e, support in enumerate(level):
            member[t, list(support)] = e
    sizes = np.array([len(level) for level in levels[1:]], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    masses = [float(ttd.probabilities[list(s)].sum()) for level in levels[1:] for s in level]
    return (member, np.concatenate([start[:1], start]),
            np.repeat(np.arange(1, len(levels)), sizes), np.array(masses))


@settings(max_examples=300, deadline=None)
@given(st.one_of(generated_ttds(), shared_prefix_ttds()))
def test_event_tree_matches_the_loop_bit_for_bit(ttd):
    tree = generate_events(ttd)
    got = (tree.member, tree.start, tree.level_of, tree.masses)
    for name, a, b in zip(("member", "start", "level_of", "masses"), got, loop_layout(ttd)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    levels = generate_events_loop(ttd)
    assert [tree.events_at(t) for t in range(len(levels))] == [tuple(l) for l in levels]


@settings(max_examples=100, deadline=None)
@given(generated_ttds(), st.sampled_from([1.5, 2.0, 3.7]))
def test_expected_origin_times_match_the_event_loop(ttd, z):
    tree = generate_events(ttd)
    optimal = dot_spi(ttd, tree, ttd.destination)
    policies = [optimal, *lp_policy(ttd, optimal, z)]
    kappa = ChoiceParams().kappa
    y = utilities(policies, tree, ChoiceParams())
    for w, policy in enumerate(policies):
        times = expected_origin_times(policy, tree)
        assert times.shape == (tree.horizon_steps + 1,)
        for t in range(1, tree.horizon_steps + 1):
            want = expected_origin_time_loop(policy, tree, t)
            assert times[t] == want
            assert expected_origin_time(policy, tree, t) == want
            assert y[w, t] == kappa * want


def assert_inflation_matches_the_loop(ttd, z, steps):
    tree = generate_events(ttd)
    optimal = dot_spi(ttd, tree, ttd.destination)
    (got,) = lp_policy(ttd, optimal, z, steps=steps)
    want = inflated_values(ttd, optimal, z, [ttd.horizon_steps] if steps is None else steps)
    assert got.defining_ttd.values.tobytes() == round_to_grid(ttd.replace_values(want)).values.tobytes()


@settings(max_examples=100, deadline=None)
@given(generated_ttds(), st.sampled_from([1.5, 2.0, 3.7]))
def test_final_step_inflation_matches_the_loop(ttd, z):
    assert_inflation_matches_the_loop(ttd, z, None)


@settings(max_examples=100, deadline=None)
@given(generated_ttds(monotone=True), st.sampled_from([1.5, 2.0, 3.7]), st.data())
def test_interior_step_inflation_matches_the_loop(ttd, z, data):
    assert check_monotone(ttd)
    T = ttd.horizon_steps
    steps = data.draw(st.lists(st.integers(1, T), min_size=1, max_size=T, unique=True))
    assert_inflation_matches_the_loop(ttd, z, steps)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdta.policy
from oracles import (
    dot_spi_loop,
    enumerate_min_expected,
    inflated_values,
    random_small_ttd,
    tdsp_value,
)
from sdta import (
    LinkRef,
    MonotonicityRequired,
    TravelTimeDistribution,
    ValidationError,
    check_monotone,
    dot_spi,
    expected_origin_time,
    generate_events,
    generate_policies,
    lp_policy,
    round_to_grid,
)


class TestThreeLinkExample:
    """Hand-checkable decisions on the two-realization, three-link fixture."""

    def test_minimum_expected_origin_time(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        assert policy.expected_time(1, 1, 0) == pytest.approx(5.5)
        assert expected_origin_time(policy, parallel3_tree, 1) == pytest.approx(5.5)

    def test_conditional_decisions_differ_by_event(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        assert policy.next_link(2, 3, 1) == "c"
        assert policy.next_link(2, 2, 0) == "b"

    def test_horizon_tail_uses_final_step_costs(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        assert policy.expected_time(2, 4, 0) == pytest.approx(2.0)
        assert policy.next_link(2, 4, 0) == "c"

    def test_inflating_the_chosen_link_flips_the_tail_decision(
        self, parallel3, parallel3_tree
    ):
        optimal = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        (worse,) = lp_policy(parallel3, optimal, 10.0)
        assert worse.next_link(2, 4, 0) == "b"
        assert worse.expected_time(2, 4, 0) == pytest.approx(9.0)

    def test_destination_time_is_zero(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        for t in (1, 2, 4):
            for r in (0, 1):
                assert policy.expected_time(3, t, r) == 0.0


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        ttd = random_small_ttd(rng)
        tree = generate_events(ttd)
        policy = dot_spi(ttd, tree, ttd.destination)
        ours = policy.expected_time(ttd.origin, 1, 0)
        assert ours == pytest.approx(enumerate_min_expected(ttd), abs=1e-9)


def test_matches_deterministic_shortest_path():
    rng = np.random.default_rng(555)
    checked = 0
    while checked < 40:
        ttd = random_small_ttd(rng)
        if ttd.n_realizations != 1:
            values = ttd.values[:1]
            ttd = TravelTimeDistribution(
                values, ttd.dt, np.array([1.0]), ttd.links,
                ttd.origin, ttd.destination, grid_rounded=True,
            )
        tree = generate_events(ttd)
        policy = dot_spi(ttd, tree, ttd.destination)
        ours = policy.expected_time(ttd.origin, 1, 0)
        assert ours == pytest.approx(tdsp_value(ttd, 0), abs=1e-9)
        checked += 1


def test_one_step_lookahead_consistency():
    """Every stored state value equals the best expected one-step roll-out."""
    rng = np.random.default_rng(99)
    for _ in range(25):
        ttd = random_small_ttd(rng)
        tree = generate_events(ttd)
        policy = dot_spi(ttd, tree, ttd.destination)
        T = ttd.horizon_steps
        out = {}
        for i, ref in enumerate(ttd.links):
            out.setdefault(ref.from_node, []).append((i, ref.to_node))
        for t in range(1, T):
            for support in tree.events_at(t):
                mass = ttd.probabilities[list(support)].sum()
                for node in out:
                    if node == ttd.destination:
                        continue
                    best = math.inf
                    for i, nxt in out[node]:
                        acc = 0.0
                        for r in support:
                            c = ttd.values[r, i, t]
                            s = min(t + int(round(c / ttd.dt)), T)
                            acc += ttd.probabilities[r] * (
                                c + policy.expected_time(nxt, s, r)
                            )
                        best = min(best, acc / mass)
                    stored = policy.expected_time(node, t, support[0])
                    if math.isinf(stored) and math.isinf(best):
                        continue
                    assert stored == pytest.approx(best, abs=1e-9)


def test_time_grid_coarsening_scales_values():
    rng = np.random.default_rng(7)
    ttd = random_small_ttd(rng)
    scaled = TravelTimeDistribution(
        ttd.values * 3.0, 3.0, ttd.probabilities, ttd.links,
        ttd.origin, ttd.destination, grid_rounded=True,
    )
    v1 = dot_spi(ttd, generate_events(ttd), ttd.destination)
    tree3 = generate_events(scaled)
    v3 = dot_spi(scaled, tree3, scaled.destination)
    a = v1.expected_time(ttd.origin, 1, 0)
    b = v3.expected_time(scaled.origin, 1, 0)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_unreachable_node_is_flagged():
    values = np.full((1, 1, 4), 2.0)
    ttd = TravelTimeDistribution(
        values, 1.0, np.array([1.0]), [LinkRef("a", 1, 2)], 1, 3, grid_rounded=True
    )
    tree = generate_events(ttd)
    policy = dot_spi(ttd, tree, 3)
    assert policy.is_unreachable(1, 1, 0)
    assert policy.next_link(1, 1, 0) is None
    # the sentinel exceeds any feasible travel time in the instance
    assert policy.expected_time(1, 1, 0) >= policy.sentinel
    assert policy.sentinel > ttd.values.max() * ttd.horizon_steps


def test_lookup_rejects_a_realization_out_of_range(parallel3, parallel3_tree):
    # numpy would wrap -1 round to the last realization
    policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
    for realization in (-1, 2, 7):
        with pytest.raises(ValidationError, match=f"realization {realization} is not one of 0..1"):
            policy.expected_time(1, 4, realization)
        for lookup in (policy.next_link, policy.next_node, policy.is_unreachable):
            with pytest.raises(ValidationError, match="not one of 0..1"):
                lookup(2, 2, realization)
    # a step past the horizon is clamped to it
    assert policy.expected_time(2, 9, 0) == policy.expected_time(2, 4, 0)


def test_generated_policy_labels(parallel3):
    policies, _ = generate_policies(parallel3, (1.5, 2.0))
    assert [p.label for p in policies] == [
        "optimal", "suboptimal[z=1.5]", "suboptimal[z=2]",
    ]
    assert policies[0].z is None and policies[0].label == "optimal"
    assert policies[1].z == pytest.approx(1.5)
    assert policies[2].z == pytest.approx(2.0)


def test_policy_set_solves_the_final_step_once_per_policy(parallel3, monkeypatch):
    # the optimal final step gives the choices the copies inflate, and the
    # backward pass takes it as it is
    calls = []
    solve = sdta.policy.horizon_shortest
    monkeypatch.setattr(sdta.policy, "horizon_shortest",
                        lambda *args: calls.append(args[0]) or solve(*args))
    policies, tree = generate_policies(parallel3, (1.5, 2.0))
    assert calls == [p.defining_ttd for p in policies]
    direct = dot_spi(parallel3, tree, parallel3.destination)
    assert np.array_equal(policies[0].values, direct.values)
    assert np.array_equal(policies[0].choices, direct.choices)


def test_inflated_policies_never_beat_optimal():
    rng = np.random.default_rng(31)
    for _ in range(20):
        ttd = random_small_ttd(rng)
        tree = generate_events(ttd)
        optimal = dot_spi(ttd, tree, ttd.destination)
        base = expected_origin_time(optimal, tree, 1)
        for z in (1.5, 2.0, 4.0):
            (worse,) = lp_policy(ttd, optimal, z)
            assert expected_origin_time(worse, tree, 1) >= base - 1e-9


def test_arbitrary_step_inflation_needs_increasing_times(parallel3, parallel3_tree):
    optimal = dot_spi(parallel3, parallel3_tree, parallel3.destination)
    with pytest.raises(MonotonicityRequired):
        lp_policy(parallel3, optimal, 2.0, steps=[2, 3])


@pytest.mark.parametrize("steps", [[0], [5]])
def test_inflation_steps_must_lie_on_the_grid(parallel3, parallel3_tree, steps):
    optimal = dot_spi(parallel3, parallel3_tree, parallel3.destination)
    with pytest.raises(ValidationError, match="on the grid"):
        lp_policy(parallel3, optimal, 2.0, steps=steps)


def test_final_step_inflation_is_the_default(parallel3, parallel3_tree):
    # parallel3 is not monotone, so this also shows that inflating the
    # final step alone never asks for increasing times
    optimal = dot_spi(parallel3, parallel3_tree, parallel3.destination)
    explicit = lp_policy(parallel3, optimal, (1.5, 2.0), steps=[4])
    default = lp_policy(parallel3, optimal, (1.5, 2.0))
    for a, b in zip(explicit, default, strict=True):
        assert a.label == b.label
        np.testing.assert_array_equal(a.defining_ttd.values, b.defining_ttd.values)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.choices, b.choices)


def test_arbitrary_step_inflation_on_increasing_times():
    t = np.arange(5, dtype=float) * 1.0
    values = np.stack([
        np.stack([2 + t, 3 + t]),        # realization 0: links a, b
        np.stack([4 + t, 2 + t]),        # realization 1
    ])
    ttd = TravelTimeDistribution(
        values, 1.0, np.array([0.5, 0.5]),
        [LinkRef("a", 1, 2), LinkRef("b", 1, 2)], 1, 2, grid_rounded=True,
    )
    tree = generate_events(ttd)
    optimal = dot_spi(ttd, tree, 2)
    base = expected_origin_time(optimal, tree, 1)
    for z, steps in ((1.0 + 1e-12, [2]), (3.0, [1, 2, 3, 4])):
        (variant,) = lp_policy(ttd, optimal, z, steps=steps)
        assert expected_origin_time(variant, tree, 1) >= base - 1e-9


def test_export_rows_cover_reachable_states(parallel3, parallel3_tree):
    policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
    rows = policy.export_rows()
    assert rows, "expected at least one exported decision"
    sample = rows[0]
    assert len(sample) == 6
    origin_rows = [r for r in rows if r[0] == 1 and r[1] == 1]
    assert origin_rows and origin_rows[0][5] == pytest.approx(5.5)


def test_strictly_increasing_time_check():
    rising = TravelTimeDistribution(
        np.array([[[2.0, 2.0, 3.0, 4.0]]]), 1.0, np.array([1.0]),
        [LinkRef("a", 1, 2)], 1, 2, grid_rounded=True,
    )
    assert check_monotone(rising)
    flat = TravelTimeDistribution(
        np.full((1, 1, 4), 3.0), 1.0, np.array([1.0]),
        [LinkRef("a", 1, 2)], 1, 2, grid_rounded=True,
    )
    assert not check_monotone(flat)


# origin 1, destination 4; d is c's twin, so every choice between them is a
# tie; node 5 is a dead end, and node 6 leads only to it, so neither can
# reach the destination
BLOCK_LINKS = (("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 2, 4), ("e", 3, 4),
               ("f", 2, 3), ("g", 3, 2), ("h", 1, 5), ("i", 3, 6), ("j", 6, 5))


@st.composite
def blocked_ttds(draw, monotone=False):
    """Distributions whose backward solve runs in blocks of several steps.

    10-30 steps of a dt other than 1; every travel time takes at least
    ``least`` (2-6) steps; up to 8 realizations with uneven probabilities,
    each sharing the times of an earlier one up to a drawn step, so events
    of several members live for several levels.  The values are off the
    grid by up to 0.3 dt.  ``monotone`` makes every travel time strictly
    increase over departure steps.
    """
    T = draw(st.integers(10, 30))
    least = draw(st.integers(2, 6))
    R = draw(st.integers(1, 8))
    dt = draw(st.sampled_from([0.5, 0.7, 2.0, 3.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = len(BLOCK_LINKS)
    if monotone:
        steps = rng.integers(1, 3, size=(R, L, T))
        steps[:, :, 0] = rng.integers(least, least + 4, size=(R, L))
    else:
        steps = rng.integers(least, least + 5, size=(R, L, T))
    for r in range(1, R):
        shared = rng.integers(0, T + 1)
        steps[r, :, :shared] = steps[rng.integers(0, r), :, :shared]
    steps[:, 3] = steps[:, 2]
    if monotone:
        steps = np.cumsum(steps, axis=2)
    values = (steps + rng.uniform(-0.3, 0.3, size=steps.shape)) * dt
    weights = rng.uniform(0.1, 1.0, size=R)
    return TravelTimeDistribution(
        np.concatenate([values[:, :, :1], values], axis=2), dt, weights / weights.sum(),
        [LinkRef(*link) for link in BLOCK_LINKS], 1, 4,
    )


Z_SETS = st.lists(st.sampled_from([1.1, 1.25, 1.5, 2.0, 3.0, 7.3]),
                  min_size=1, max_size=3, unique=True)


def loop_policies(rounded, tree, zs, steps):
    """The optimal policy and one inflated policy per factor, each solved by
    the loop oracle."""
    optimal = dot_spi_loop(rounded, tree, rounded.destination)
    return [optimal, *(
        dot_spi_loop(round_to_grid(rounded.replace_values(
            inflated_values(rounded, optimal, z, steps))), tree, rounded.destination, z)
        for z in zs
    )]


def assert_same_policies(got, want):
    assert [p.label for p in got] == [p.label for p in want]
    for a, b in zip(got, want, strict=True):
        assert a.values.shape == b.values.shape
        assert a.values.tobytes() == b.values.tobytes()
        assert a.choices.tobytes() == b.choices.tobytes()
        assert a.sentinel == b.sentinel


@settings(max_examples=60, deadline=None)
@given(blocked_ttds(), Z_SETS)
def test_policy_set_matches_the_loop_bit_for_bit(ttd, zs):
    policies, tree = generate_policies(ttd, zs)
    rounded = policies[0].defining_ttd
    T = rounded.horizon_steps
    assert rounded.steps[:, :, 1:T].min() >= 2  # blocks span several steps
    assert_same_policies(policies, loop_policies(rounded, tree, zs, [T]))


@settings(max_examples=40, deadline=None)
@given(blocked_ttds(monotone=True), Z_SETS, st.data())
def test_interior_step_policies_match_the_loop_bit_for_bit(ttd, zs, data):
    rounded = round_to_grid(ttd)
    assert check_monotone(rounded)
    tree = generate_events(rounded)
    T = rounded.horizon_steps
    steps = data.draw(st.lists(st.integers(1, T), min_size=1, max_size=4, unique=True))
    optimal = dot_spi(rounded, tree, rounded.destination)
    got = [optimal, *lp_policy(rounded, optimal, zs, steps=steps)]
    assert_same_policies(got, loop_policies(rounded, tree, zs, sorted(steps)))

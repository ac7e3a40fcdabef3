import math

import numpy as np
import pytest

from oracles import enumerate_min_expected, random_small_ttd, tdsp_value
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
)


class TestThreeLinkExample:
    """Hand-checkable decisions on the two-realization, three-link fixture."""

    def test_minimum_expected_origin_time(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        full = parallel3_tree.events_at(1)[0]
        assert policy.expected_time(1, 1, full) == pytest.approx(5.5)
        assert expected_origin_time(policy, parallel3_tree, 1) == pytest.approx(5.5)

    def test_conditional_decisions_differ_by_event(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        tree = parallel3_tree
        assert policy.next_link(2, 3, tree.event_of(3, 1)) == "c"
        assert policy.next_link(2, 2, tree.event_of(2, 0)) == "b"

    def test_horizon_tail_uses_final_step_costs(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        ev = parallel3_tree.event_of(4, 0)
        assert policy.expected_time(2, 4, ev) == pytest.approx(2.0)
        assert policy.next_link(2, 4, ev) == "c"

    def test_inflating_the_chosen_link_flips_the_tail_decision(
        self, parallel3, parallel3_tree
    ):
        optimal = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        (worse,) = lp_policy(parallel3, optimal, 10.0)
        ev = parallel3_tree.event_of(4, 0)
        assert worse.next_link(2, 4, ev) == "b"
        assert worse.expected_time(2, 4, ev) == pytest.approx(9.0)

    def test_destination_time_is_zero(self, parallel3, parallel3_tree):
        policy = dot_spi(parallel3, parallel3_tree, parallel3.destination)
        for t in (1, 2, 4):
            for r in (0, 1):
                ev = parallel3_tree.event_of(t, r)
                assert policy.expected_time(3, t, ev) == 0.0


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        ttd = random_small_ttd(rng)
        tree = generate_events(ttd)
        policy = dot_spi(ttd, tree, ttd.destination)
        ours = policy.expected_time(ttd.origin, 1, tree.events_at(1)[0])
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
        ours = policy.expected_time(ttd.origin, 1, tree.events_at(1)[0])
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
            for event in tree.events_at(t):
                mass = tree.mass(event)
                for node in out:
                    if node == ttd.destination:
                        continue
                    best = math.inf
                    for i, nxt in out[node]:
                        acc = 0.0
                        for r in event.support:
                            c = ttd.values[r, i, t]
                            s = min(t + int(round(c / ttd.dt)), T)
                            child = tree.event_of(s, r)
                            acc += ttd.probabilities[r] * (
                                c + policy.expected_time(nxt, s, child)
                            )
                        best = min(best, acc / mass)
                    stored = policy.expected_time(node, t, event)
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
    a = v1.expected_time(ttd.origin, 1, generate_events(ttd).events_at(1)[0])
    b = v3.expected_time(scaled.origin, 1, tree3.events_at(1)[0])
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_unreachable_node_is_flagged():
    values = np.full((1, 1, 4), 2.0)
    ttd = TravelTimeDistribution(
        values, 1.0, np.array([1.0]), [LinkRef("a", 1, 2)], 1, 3, grid_rounded=True
    )
    tree = generate_events(ttd)
    policy = dot_spi(ttd, tree, 3)
    ev = tree.events_at(1)[0]
    assert policy.is_unreachable(1, 1, ev)
    assert policy.next_link(1, 1, ev) is None
    # the sentinel exceeds any feasible travel time in the instance
    assert policy.expected_time(1, 1, ev) >= policy.sentinel
    assert policy.sentinel > ttd.values.max() * ttd.horizon_steps


def test_generated_policy_labels(parallel3):
    policies, _ = generate_policies(parallel3, (1.5, 2.0))
    assert [p.label for p in policies] == [
        "optimal", "suboptimal[z=1.5]", "suboptimal[z=2]",
    ]
    assert policies[0].kind.name == "optimal"
    assert policies[1].kind.z == pytest.approx(1.5)
    assert policies[2].kind.z == pytest.approx(2.0)


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
        for levels_a, levels_b in ((a.e_levels, b.e_levels), (a.choice_levels, b.choice_levels)):
            assert len(levels_a) == len(levels_b)
            for x, y in zip(levels_a, levels_b):
                np.testing.assert_array_equal(x, y)


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

import numpy as np
import pytest

from conftest import load_network, load_scenario
from oracles import random_small_ttd
from sdta import (
    ChoiceParams,
    DegenerateChoiceSet,
    EventTree,
    LinkRef,
    Policy,
    SplitSchedule,
    TravelTimeDistribution,
    ValidationError,
    expected_origin_time,
    free_flow_distribution,
    generate_policies,
    logit_splits,
    splits_for,
    utilities,
)
from sdta.policy import expected_origin_times


def test_kappa_must_be_negative():
    with pytest.raises(ValidationError):
        ChoiceParams(kappa=0.0)
    with pytest.raises(ValidationError):
        ChoiceParams(kappa=0.2)


def test_non_finite_splits_are_rejected():
    # NaN rows sum to NaN, which no tolerance comparison flags
    eta = np.full((2, 81), 0.5)
    eta[:, 40:] = np.nan
    with pytest.raises(ValidationError, match="splits must be finite"):
        SplitSchedule(eta, ("a", "b"))
    eta[:, 40:] = [[np.inf], [-np.inf]]
    with pytest.raises(ValidationError, match="splits must be finite"):
        SplitSchedule(eta, ("a", "b"))


def test_utilities_shape_and_order(parallel3):
    policies, tree = generate_policies(parallel3, (2.0,))
    y = utilities(policies, tree, ChoiceParams(kappa=-0.1))
    assert y.shape == (2, parallel3.horizon_steps + 1)
    # longer expected time means lower utility under negative kappa
    assert np.all(y[0, 1:] >= y[1, 1:] - 1e-12)


def test_logit_rows_are_probabilities():
    y = np.array([[0.0, -1.0, -2.0], [0.0, -3.0, -1.0]])
    splits = logit_splits(y, ("one", "two"))
    assert splits.eta.sum(axis=0) == pytest.approx(np.ones(3))
    assert splits.row("one")[1] > splits.row("two")[1]
    assert splits.row("one")[2] < splits.row("two")[2]
    assert splits.eta[:, 0] == pytest.approx(splits.eta[:, 1])


def test_equal_utilities_split_evenly():
    y = np.zeros((3, 4))
    splits = logit_splits(y)
    assert splits.eta == pytest.approx(np.full((3, 4), 1 / 3))


def test_degenerate_choice_set_rejected():
    y = np.array([[-np.inf, 0.0], [-np.inf, 0.0]])
    with pytest.raises(DegenerateChoiceSet):
        logit_splits(y)


def test_optimal_never_below_suboptimal_split():
    """Inflation can only lower a policy's share of the demand."""
    rng = np.random.default_rng(404)
    for _ in range(30):
        ttd = random_small_ttd(rng)
        for zs in ((1.5,), (1.5, 2.0), (1.5, 2.0, 3.0)):
            policies, tree = generate_policies(ttd, zs)
            splits = splits_for(policies, tree, ChoiceParams())
            opt = splits.row("optimal")
            for policy in policies[1:]:
                sub = splits.row(policy.label)
                assert np.all(opt >= sub - 1e-12)


def test_optimal_split_non_decreasing_in_z():
    rng = np.random.default_rng(808)
    zs = (1.0 + 1e-9, 1.3, 1.8, 2.5, 4.0)
    for _ in range(15):
        ttd = random_small_ttd(rng)
        previous = None
        for z in zs:
            policies, tree = generate_policies(ttd, (z,))
            splits = splits_for(policies, tree, ChoiceParams(kappa=-0.05))
            opt = splits.row("optimal")
            if previous is not None:
                assert np.all(opt >= previous - 1e-9)
            previous = opt


def test_barely_inflated_policy_splits_evenly(parallel3):
    policies, tree = generate_policies(parallel3, (1.0 + 1e-9,))
    splits = splits_for(policies, tree, ChoiceParams())
    assert splits.eta[:, 1:] == pytest.approx(np.full_like(splits.eta[:, 1:], 0.5))


def test_sharper_kappa_concentrates_on_optimal(parallel3):
    # final-step departures feel the inflated state, early ones do not
    policies, tree = generate_policies(parallel3, (10.0,))
    soft = splits_for(policies, tree, ChoiceParams(kappa=-0.01))
    sharp = splits_for(policies, tree, ChoiceParams(kappa=-1.0))
    t = parallel3.horizon_steps
    assert soft.row("optimal")[1] == pytest.approx(0.5)
    assert sharp.row("optimal")[t] > soft.row("optimal")[t]
    assert sharp.row("optimal")[t] > 0.9


def test_split_rows_follow_expected_time_gap(parallel3):
    policies, tree = generate_policies(parallel3, (10.0,))
    splits = splits_for(policies, tree, ChoiceParams(kappa=-1.0))
    t = parallel3.horizon_steps
    e_opt = expected_origin_time(policies[0], tree, t)
    e_sub = expected_origin_time(policies[1], tree, t)
    assert e_sub > e_opt
    want = 1.0 / (1.0 + np.exp(-1.0 * (e_sub - e_opt)))
    assert splits.row("optimal")[t] == pytest.approx(want)


def assert_rejects_tree(policies, tree):
    with pytest.raises(ValidationError, match="another event tree"):
        expected_origin_times(policies[0], tree)
    with pytest.raises(ValidationError, match="another event tree"):
        expected_origin_time(policies[0], tree, 1)
    with pytest.raises(ValidationError, match="another event tree"):
        utilities(policies, tree, ChoiceParams())
    with pytest.raises(ValidationError, match="another event tree"):
        splits_for(policies, tree, ChoiceParams())


def test_utilities_are_read_on_the_policies_own_tree():
    """A policy's values have one column per event of its own tree: read on
    a tree with other columns they would not broadcast."""
    network = load_network("diamond")
    free = free_flow_distribution(network, load_scenario("diamond", network, steps=60))
    values = free.values.copy()
    values[1:, network.link_index["2-3"], 30:] *= [[2.0], [3.0]]
    policies, tree = generate_policies(free, (1.5,))
    _, other = generate_policies(free.replace_values(values), (1.5,))
    assert other.masses.size != tree.masses.size
    assert_rejects_tree(policies, other)


def test_utilities_reject_a_tree_with_as_many_columns_but_other_events():
    """Read on another partition with as many columns, a policy's values
    would be weighed as other events' values, without an error."""
    T = 3
    ttd = TravelTimeDistribution(np.ones((2, 1, T + 1)), 1.0, np.array([0.5, 0.5]),
                                 [LinkRef("a", 1, 2)], 1, 2, grid_rounded=True)
    own = EventTree([[0, 0], [0, 0], [0, 1], [0, 1]], [0.5, 0.5])
    other = EventTree([[0, 1], [0, 1], [0, 0], [0, 1]], [0.5, 0.5])
    assert other.masses.size == own.masses.size
    values = np.array([[2.0, 2.0, 4.0, 3.0, 2.0], [0.0] * 5])   # origin 1, then node 2
    policy = Policy(None, ttd, own, values, np.array([[0] * 5, [-1] * 5]), (1, 2), 1e9)
    assert expected_origin_times(policy, own).tolist() == [0.0, 2.0, 3.0, 2.5]
    # a tree of the same partition is as good as the policy's own
    alike = EventTree(own.member.copy(), own.probabilities)
    assert expected_origin_times(policy, alike).tolist() == [0.0, 2.0, 3.0, 2.5]
    assert_rejects_tree([policy], other)

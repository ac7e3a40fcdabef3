import numpy as np
import pytest

from oracles import random_small_ttd
from sdta import (
    ChoiceParams,
    DegenerateChoiceSet,
    SplitSchedule,
    ValidationError,
    expected_origin_time,
    generate_policies,
    logit_splits,
    splits_for,
    utilities,
)


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

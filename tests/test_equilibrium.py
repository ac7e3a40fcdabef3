import numpy as np
import pytest

from conftest import load_scenario
from sdta import (
    SolverConfig,
    SplitSchedule,
    ValidationError,
    average_expected_time,
    convergence_metric,
    expected_origin_time,
    expected_times_at,
    free_flow_distribution,
    generate_policies,
    monte_carlo_std,
    msa_solve,
    po_ltm,
    splits_for,
)


def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(k_outer=0)
    with pytest.raises(ValidationError):
        SolverConfig(kappa=0.1)
    with pytest.raises(ValidationError):
        SolverConfig(z=(0.8,))
    with pytest.raises(ValidationError):
        SolverConfig(loader="bogus")
    with pytest.raises(ValidationError):
        SolverConfig(convergence_eps=0.0)
    cfg = SolverConfig(z=(1.5, 2.0, 3.0))
    assert cfg.n_policies == 4
    assert cfg.choice_params().kappa == cfg.kappa


def test_convergence_metric_matches_by_label():
    a = SplitSchedule(np.array([[0.6, 0.6], [0.4, 0.4]]), ("optimal", "sub"))
    b = SplitSchedule(np.array([[0.38, 0.38], [0.62, 0.62]]), ("sub", "optimal"))
    # rows are permuted; matched by label the change is 0.02, not 0.22
    assert convergence_metric(a, b) == pytest.approx(0.02)
    c = SplitSchedule(np.array([[0.6, 0.6], [0.4, 0.4]]), ("optimal", "nope"))
    with pytest.raises(ValidationError):
        convergence_metric(a, c)


def test_convergence_metric_ignores_mirror_column():
    a = SplitSchedule(np.array([[9.0, 0.5], [9.0, 0.5]]), ("x", "y"))
    b = SplitSchedule(np.array([[0.0, 0.5], [0.0, 0.5]]), ("x", "y"))
    assert convergence_metric(a, b) == pytest.approx(0.0)


def test_single_policy_gets_all_demand(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=120)
    cfg = SolverConfig(k_outer=3, z=())
    result = msa_solve(net, scn, cfg)
    assert result.final_splits.eta == pytest.approx(
        np.ones_like(result.final_splits.eta)
    )
    assert result.final_splits.labels == ("optimal",)
    assert result.converged


def test_first_iteration_replaces_free_flow(twolinks):
    """With one outer iteration the result is exactly the loaded distribution."""
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=150)
    cfg = SolverConfig(k_outer=1, z=(1.5, 2.0), loader="chrono")
    result = msa_solve(net, scn, cfg)

    ff = free_flow_distribution(net, scn)
    policies, tree = generate_policies(ff, cfg.z)
    splits = splits_for(policies, tree, cfg.choice_params())
    direct = po_ltm(net, policies, splits, scn, strict_origin=cfg.strict_origin)
    assert np.max(np.abs(result.final_ttd.values - direct.values)) < 1e-12


def test_travel_times_never_beat_free_flow(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=150)
    result = msa_solve(net, scn, SolverConfig(k_outer=4))
    ff = free_flow_distribution(net, scn)
    assert np.all(result.final_ttd.values >= ff.values - scn.dt - 1e-9)


def test_trace_records_progress(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=120)
    cfg = SolverConfig(k_outer=4, convergence_eps=1e-12)
    result = msa_solve(net, scn, cfg)
    assert result.iterations == len(result.trace)
    assert [rec.iteration for rec in result.trace] == list(
        range(1, result.iterations + 1)
    )
    assert np.isnan(result.trace[0].delta)
    for rec in result.trace[1:]:
        assert rec.delta >= 0.0
    assert all(rec.seconds >= 0.0 for rec in result.trace)


def test_average_expected_time_is_mean_over_departures(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=120)
    result = msa_solve(net, scn, SolverConfig(k_outer=2))
    manual = np.mean([
        expected_origin_time(result.optimal_policy, result.tree, t)
        for t in range(1, scn.horizon_steps + 1)
    ])
    assert average_expected_time(result) == pytest.approx(manual)
    at = expected_times_at(result, [10, 60])
    assert at[0] == pytest.approx(
        expected_origin_time(result.optimal_policy, result.tree, 10)
    )
    assert at.shape == (2,)


def test_optimal_policy_label(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=120)
    result = msa_solve(net, scn, SolverConfig(k_outer=2))
    assert result.optimal_policy.label == "optimal"
    assert result.final_policies[0] is result.optimal_policy


def test_monte_carlo_std_zero_without_noise(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=120)
    cfg = SolverConfig(k_outer=2)
    stds = monte_carlo_std(net, scn, cfg, cov=0.0, draws=2, seed=11, at_steps=[30, 60])
    assert np.asarray(stds) == pytest.approx(np.zeros(2), abs=1e-12)


def test_monte_carlo_std_argument_checks(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=60)
    cfg = SolverConfig(k_outer=1)
    with pytest.raises(ValidationError):
        monte_carlo_std(net, scn, cfg, cov=0.1, draws=1, seed=1)
    with pytest.raises(ValidationError):
        monte_carlo_std(net, scn, cfg, cov=-0.5, draws=2, seed=1)


def test_loaders_agree_after_convergence(twolinks):
    net, _ = twolinks
    scn = load_scenario("twolinks", net, steps=200)
    chrono = msa_solve(net, scn, SolverConfig(k_outer=8, loader="chrono"))
    iterative = msa_solve(net, scn, SolverConfig(k_outer=8, loader="iter"))
    gap = np.max(np.abs(chrono.final_splits.eta - iterative.final_splits.eta))
    assert gap < 0.02

import dataclasses

import numpy as np
import pytest

from sdta import (
    ParseError,
    ProbabilityMassError,
    Realization,
    ValidationError,
    parse_network,
    parse_scenario,
    perturbed,
    with_realizations,
)

NET = parse_network("""
nodes: [1, 2, 3]
origin: 1
destination: 3
links:
  - {id: a, from: 1, to: 2, length_m: 400, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: b, from: 2, to: 3, length_m: 400, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
""")


def doc(**overrides):
    base = {
        "dt_s": 2.0,
        "steps": 10,
        "realizations": [
            {
                "prob": 0.5,
                "demand": {"constant": 1800},
                "capacity": {"a": {"constant": 0.4}},
            },
            {
                "prob": 0.5,
                "demand": {"constant": 3600},
                "capacity": {"a": {"constant": 0.2}},
            },
        ],
    }
    base.update(overrides)
    return base


def test_unit_conversion_to_per_step():
    scn = parse_scenario(doc(), NET)
    # 1800 veh/h at dt=2s is one vehicle per step
    assert scn.realizations[0].demand[1:] == pytest.approx(np.ones(10))
    assert scn.realizations[1].demand[1:] == pytest.approx(2 * np.ones(10))
    # 0.4 veh/s at dt=2s is 0.8 vehicles per step
    assert scn.realizations[0].capacity["a"][1:] == pytest.approx(0.8 * np.ones(10))
    assert scn.realizations[0].demand[0] == 0.0


def test_missing_capacity_defaults_to_fundamental_diagram():
    scn = parse_scenario(doc(), NET)
    link_b = NET.links[1]
    want = link_b.jam_density * link_b.free_flow_speed * link_b.backward_wave_speed / (
        link_b.free_flow_speed + link_b.backward_wave_speed
    )
    assert scn.realizations[0].capacity["b"][1:] == pytest.approx(want * 2.0 * np.ones(10))


def test_probability_mass_checked():
    bad = doc()
    bad["realizations"][0]["prob"] = 0.7
    with pytest.raises(ProbabilityMassError):
        parse_scenario(bad, NET)


def test_seeded_uniform_series_reproducible():
    d = doc()
    d["realizations"][0]["demand"] = {"uniform": [1000, 2000], "seed": 42}
    a = parse_scenario(d, NET).realizations[0].demand
    b = parse_scenario(d, NET).realizations[0].demand
    assert np.array_equal(a, b)
    d["realizations"][0]["demand"]["seed"] = 43
    c = parse_scenario(d, NET).realizations[0].demand
    assert not np.array_equal(a, c)


def test_uniform_series_requires_seed():
    d = doc()
    d["realizations"][0]["demand"] = {"uniform": [1000, 2000]}
    with pytest.raises(ParseError):
        parse_scenario(d, NET)


def test_segmented_series():
    d = doc()
    d["realizations"][0]["demand"] = {
        "segments": [{"steps": 4, "constant": 3600}, {"steps": 6, "constant": 7200}],
        "seed": 1,
    }
    scn = parse_scenario(d, NET)
    assert scn.realizations[0].demand[1:5] == pytest.approx(2 * np.ones(4))
    assert scn.realizations[0].demand[5:] == pytest.approx(4 * np.ones(6))


def test_segmented_series_length_mismatch():
    d = doc()
    d["realizations"][0]["demand"] = {
        "segments": [{"steps": 3, "constant": 3600}],
        "seed": 1,
    }
    with pytest.raises(ParseError):
        parse_scenario(d, NET)


def test_array_series_wrong_length():
    d = doc()
    d["realizations"][0]["demand"] = [1800] * 9
    with pytest.raises(ParseError):
        parse_scenario(d, NET)


def test_unknown_capacity_link_rejected():
    d = doc()
    d["realizations"][0]["capacity"]["zz"] = {"constant": 1.0}
    with pytest.raises(ValidationError):
        parse_scenario(d, NET)


def test_step_longer_than_link_rejected():
    d = doc()
    d["dt_s"] = 60.0
    with pytest.raises(ValidationError):
        parse_scenario(d, NET)


def test_capacity_above_fd_flow_warns():
    d = doc()
    d["realizations"][0]["capacity"]["a"] = {"constant": 5.0}
    scn = parse_scenario(d, NET)
    assert any("fundamental-diagram" in w for w in scn.warnings)


def test_perturbed_identity_at_zero_cov(twolinks):
    _, scn = twolinks
    rng = np.random.default_rng(3)
    same = perturbed(scn, 0.0, rng)
    for a, b in zip(same.realizations, scn.realizations):
        assert np.array_equal(a.demand, b.demand)
        for lid in b.capacity:
            assert np.array_equal(a.capacity[lid], b.capacity[lid])


def test_perturbed_scales_with_cov(twolinks):
    _, scn = twolinks
    small = perturbed(scn, 0.01, np.random.default_rng(3))
    large = perturbed(scn, 0.30, np.random.default_rng(3))
    base = scn.realizations[0].demand[1:]
    dev_small = np.abs(small.realizations[0].demand[1:] / base - 1.0).mean()
    dev_large = np.abs(large.realizations[0].demand[1:] / base - 1.0).mean()
    assert dev_small < dev_large
    assert np.all(large.realizations[0].demand >= 0)


def test_with_realizations_expands_support(twolinks):
    _, scn = twolinks
    big = with_realizations(scn, 7, seed=5)
    assert big.n_realizations == 7
    assert big.probabilities == pytest.approx(np.full(7, 1 / 7))
    caps = [r.capacity["2-3"][50] for r in big.realizations]
    assert len({round(c, 9) for c in caps}) == 7
    again = with_realizations(scn, 7, seed=5)
    for a, b in zip(big.realizations, again.realizations):
        assert np.array_equal(a.capacity["2-3"], b.capacity["2-3"])


def test_fixture_scenarios_parse(twolinks, diamond):
    for net, scn in (twolinks, diamond):
        assert scn.horizon_steps == 600
        assert scn.n_realizations == 3
        assert scn.probabilities.sum() == pytest.approx(1.0)
        for real in scn.realizations:
            assert set(real.capacity) == {l.id for l in net.links}


def test_series_must_cover_the_horizon():
    # demand and capacity hold one sample per step 0..T; a shorter series
    # would surface as a broadcasting error deep in a loader
    scn = parse_scenario(doc(steps=40), NET)
    with pytest.raises(ValidationError, match="realization 0: .* need 61 samples"):
        dataclasses.replace(scn, horizon_steps=60)
    real = scn.realizations[1]
    short = Realization(real.probability, real.demand,
                        {k: v[:-1] for k, v in real.capacity.items()})
    with pytest.raises(ValidationError, match="realization 1: .* need 41 samples"):
        dataclasses.replace(scn, realizations=(scn.realizations[0], short))

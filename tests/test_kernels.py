import numpy as np
import pytest

from sdta import (
    CumulativeCurve,
    LinkSpec,
    LinkState,
    ValidationError,
    interp,
    inverse,
    link_travel_time,
    receiving_flow,
    sending_flow,
    transition_diverge,
    transition_merge,
)
from oracles import disaggregate


def make_state(cap=100.0, length=300.0, vf=15.0, w=7.5, kjam=0.2, steps=40):
    spec = LinkSpec("x", 1, 2, length, vf, w, kjam, None)
    return LinkState(spec, np.full(steps + 1, cap), 1.0)


class TestMerge:
    def test_priority_with_leftover(self):
        # one branch undersupplies, the other absorbs its leftover share
        assert transition_merge(10, 2, 8, 0.5) == pytest.approx((6.0, 2.0))

    def test_unconstrained_passes_everything(self):
        assert transition_merge(10, 2, 20, 0.5) == pytest.approx((10.0, 2.0))

    def test_binding_receiving_splits_by_priority(self):
        got = transition_merge(10, 10, 8, 0.7)
        assert got == pytest.approx((5.6, 2.4))
        assert sum(got) == pytest.approx(8.0)

    def test_never_exceeds_sending(self):
        a, b = transition_merge(1.0, 9.0, 8.0, 0.5)
        assert a <= 1.0 + 1e-12
        assert a + b == pytest.approx(8.0)


class TestDiverge:
    def test_restricted_branch_throttles_the_other(self):
        got = transition_diverge(4.0, 8.0, 6.0, 1e9)
        assert got[0] == pytest.approx(3.0)
        assert got[1] == pytest.approx(8.0)

    def test_unrestricted_both_pass(self):
        assert transition_diverge(4.0, 8.0, 1e9, 1e9) == pytest.approx((4.0, 8.0))

    def test_zero_component_decouples(self):
        got = transition_diverge(0.0, 5.0, 3.0, 4.0)
        assert got == pytest.approx((0.0, 4.0))


def test_disaggregation_is_proportional_and_conservative():
    flows = disaggregate(6.0, [1.0, 2.0, 3.0])
    assert flows == pytest.approx([1.0, 2.0, 3.0], rel=1e-6)
    assert sum(flows) <= 6.0 + 1e-12
    assert disaggregate(5.0, [0.0, 0.0]) == pytest.approx([0.0, 0.0])


def test_interpolation_and_inverse():
    c = CumulativeCurve(1.0, [0.0, 2.0, 6.0])
    assert interp(c, 0.5) == pytest.approx(1.0)
    assert interp(c, 1.5) == pytest.approx(4.0)
    assert interp(c, -1.0) == pytest.approx(0.0)
    assert interp(c, 99.0) == pytest.approx(6.0)
    assert inverse(c, 1.0) == pytest.approx(0.5)
    assert inverse(c, 4.0) == pytest.approx(1.5)
    assert inverse(c, 6.0) == pytest.approx(2.0)


def test_cumulative_counts_must_not_decrease():
    c = CumulativeCurve(1.0, [0.0, 2.0])
    with pytest.raises(ValidationError):
        c.append(1.5)


def test_sending_looks_back_one_free_flow_time():
    st = make_state()
    st.up = CumulativeCurve(1.0, [float(i) for i in range(31)])
    st.down = CumulativeCurve(1.0, [0.0] * 25)
    # at t=25 the (t+1)dt - L/vf lookback lands at 6 entered vehicles
    assert sending_flow(st, 25) == pytest.approx(6.0)
    st.capacity[:] = 0.9
    assert sending_flow(st, 25) == pytest.approx(0.9)


def test_receiving_limited_by_storage_and_capacity():
    st = make_state()
    st.up = CumulativeCurve(1.0, [float(i) for i in range(10)])
    st.down = CumulativeCurve(1.0, [0.0] * 10)
    # empty downstream: storage kjam*L = 60 minus 9 already inside
    assert receiving_flow(st, 10) == pytest.approx(51.0)
    st.capacity[:] = 0.9
    assert receiving_flow(st, 10) == pytest.approx(0.9)


def test_travel_time_extraction():
    st = make_state()
    st.up = CumulativeCurve(1.0, [0.0] + [float(i) for i in range(30)])
    st.down = CumulativeCurve(1.0, [0.0] * 21 + [float(i) for i in range(9)])
    # vehicle count 4 entered at time 5 and left at time 25
    assert link_travel_time(st, 25) == pytest.approx(20.0)


def test_travel_time_free_flow_fallback():
    st = make_state()
    assert link_travel_time(st, 0) == pytest.approx(20.0)
    assert link_travel_time(st, 5) == pytest.approx(20.0)


def test_travel_time_never_below_one_step():
    spec = LinkSpec("y", 1, 2, 10.0, 10.0, 5.0, 0.2, None)
    st = LinkState(spec, np.full(6, 100.0), 1.0)
    st.up = CumulativeCurve(1.0, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0])
    st.down = CumulativeCurve(1.0, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0])
    assert link_travel_time(st, 3) >= 1.0

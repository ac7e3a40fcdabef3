"""Link transmission primitives: cumulative curves, boundary flows, node rules.

Counts live on the step grid.  Sending and receiving flows for step t read
only samples up to t-1 (two-phase node updates keep results independent of
node processing order), while queries between grid points interpolate
linearly.

These are the scalar, one-link statement of the model.  The loaders run
the array engine in ``loading``, which computes the same values for every
link at once; ``tests/test_engine.py`` checks that the two agree exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import NotYetReached, ValidationError
from .network import LinkSpec

XI = 1e-9  # disaggregation guard against empty commodity sums


class CumulativeCurve:
    """Piecewise-linear cumulative vehicle count sampled once per step."""

    __slots__ = ("dt", "samples")

    def __init__(self, dt: float, samples=None):
        self.dt = dt
        self.samples = [0.0] if samples is None else list(samples)

    @property
    def last(self) -> float:
        return self.samples[-1]

    @property
    def last_step(self) -> int:
        return len(self.samples) - 1

    def append(self, value: float) -> None:
        if value < self.samples[-1] - 1e-9:
            raise ValidationError("cumulative counts cannot decrease")
        self.samples.append(max(value, self.samples[-1]))

    def value_at(self, step: int) -> float:
        if step < 0:
            return 0.0
        if step >= len(self.samples):
            return self.samples[-1]
        return self.samples[step]


def interp(curve: CumulativeCurve, t: float) -> float:
    """Linearly interpolated count at time t (s), clamped at both ends."""
    if t <= 0.0:
        return 0.0
    x = t / curve.dt
    lo = int(x)
    if lo >= curve.last_step:
        return curve.last
    frac = x - lo
    samples = curve.samples
    return samples[lo] + frac * (samples[lo + 1] - samples[lo])


def inverse(curve: CumulativeCurve, n: float) -> float:
    """Earliest time (s) at which the curve reaches count n.

    On flat segments this is the start of the plateau.  Counts above the
    last sample raise NotYetReached.
    """
    samples = curve.samples
    if n < 0:
        raise ValidationError("counts are non-negative")
    if n > samples[-1] + 1e-12:
        raise NotYetReached(f"count {n} above the recorded curve")
    i = bisect_right(samples, n)  # first index with samples[i] > n
    if i == 0:
        return 0.0
    lo = i - 1
    if samples[lo] >= n:  # n sits exactly on a sample; walk to the earliest
        while lo > 0 and samples[lo - 1] >= n:
            lo -= 1
        return lo * curve.dt
    if lo >= len(samples) - 1:
        return (len(samples) - 1) * curve.dt
    rise = samples[lo + 1] - samples[lo]
    frac = (n - samples[lo]) / rise
    return (lo + frac) * curve.dt


@dataclass
class LinkState:
    """Runtime state of one link: capacity series plus boundary curves.

    ``up_by``/``down_by`` hold one curve per commodity (path or policy).
    """

    spec: LinkSpec
    capacity: np.ndarray                      # (T+1,) veh/step
    dt: float
    up: CumulativeCurve = field(init=False)
    down: CumulativeCurve = field(init=False)
    up_by: dict = field(init=False)
    down_by: dict = field(init=False)

    def __post_init__(self):
        self.up = CumulativeCurve(self.dt)
        self.down = CumulativeCurve(self.dt)
        self.up_by = {}
        self.down_by = {}


def sending_flow(link: LinkState, t: int) -> float:
    """Vehicles able to leave during step t, before capacity of this step.

    Reads the upstream curve at t+dt-L/vf and the downstream count at t-dt,
    capping with the step capacity; never negative.
    """
    spec = link.spec
    gap = interp(link.up, (t + 1) * link.dt - spec.free_flow_time) - link.down.value_at(t - 1)
    cap = float(link.capacity[min(t, link.capacity.size - 1)])
    return max(0.0, min(gap, cap))


def receiving_flow(link: LinkState, t: int) -> float:
    """Space opening up on the link during step t.

    Reads the downstream curve at t+dt-L/w plus jam storage minus the
    upstream count at t-dt, capped by the step capacity; never negative.
    """
    spec = link.spec
    gap = (
        interp(link.down, (t + 1) * link.dt - spec.backward_wave_time)
        + spec.storage
        - link.up.value_at(t - 1)
    )
    cap = float(link.capacity[min(t, link.capacity.size - 1)])
    return max(0.0, min(gap, cap))


def transition_merge(
    s_a: float, s_b: float, receiving: float, priority_a: float
) -> tuple[float, float]:
    """Daganzo merge: unrestricted when everything fits, otherwise each
    competing flow gets the median of claim, leftover and priority share."""
    if s_a + s_b <= receiving:
        return s_a, s_b
    g_a = float(np.median([s_a, receiving - s_b, priority_a * receiving]))
    g_b = float(np.median([s_b, receiving - s_a, (1.0 - priority_a) * receiving]))
    return g_a, g_b


def transition_diverge(
    s_ab: float, s_ab2: float, r_b: float, r_b2: float
) -> tuple[float, float]:
    """Directional diverge flows; the ratio term uses the opposite component
    in the denominator and degrades to min(S, R) when that component is 0."""
    ratio_b = r_b * s_ab / s_ab2 if s_ab2 > 0 else float("inf")
    ratio_b2 = r_b2 * s_ab2 / s_ab if s_ab > 0 else float("inf")
    return (
        max(0.0, min(ratio_b, s_ab, r_b)),
        max(0.0, min(ratio_b2, s_ab2, r_b2)),
    )


def link_travel_time(link: LinkState, t: int) -> float:
    """Time spent by the vehicle leaving at step t (count matching).

    Falls back to free-flow when nothing has exited yet or when the exit
    count exceeds the recorded entries; floored at one step so a traversal
    always advances the policy grid.
    """
    exit_count = link.down.value_at(t)
    if exit_count <= 0.0:
        return max(link.spec.free_flow_time, link.dt)
    try:
        entry_time = inverse(link.up, exit_count)
    except NotYetReached:
        return max(link.spec.free_flow_time, link.dt)
    return max(t * link.dt - entry_time, link.dt)

"""Travel time distributions over support points, and their event trees.

A distribution assigns every (realization, link, departure step) a travel
time in seconds.  An event at step t groups the realizations that share
identical link travel times at every step before t, so the partition can
only refine as t grows; it is the information a traveler with full online
observation can hold at t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParseError, ProbabilityMassError, ValidationError
from .network import Document, Network, NodeId, reachable, read_mapping, shaped
from .scenario import PROB_TOL, Scenario, parse_array, parse_number


@dataclass(frozen=True)
class LinkRef:
    """Minimal link view needed by routing: identity and endpoints."""

    id: str
    from_node: NodeId
    to_node: NodeId


class TravelTimeDistribution:
    """Stochastic time-dependent link travel times on a fixed topology.

    ``values`` has shape (R, L, T+1) in seconds, indexed by realization,
    link position and departure step; index 0 mirrors step 1 and is never
    queried.  ``grid_rounded`` marks values that are exact positive
    multiples of dt.
    """

    def __init__(
        self,
        values: np.ndarray,
        dt: float,
        probabilities: np.ndarray,
        links: Sequence[LinkRef],
        origin: NodeId,
        destination: NodeId,
        grid_rounded: bool = False,
    ):
        values = np.asarray(values, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if values.ndim != 3:
            raise ValidationError("values must have shape (R, L, T+1)")
        if values.shape[0] != probabilities.size:
            raise ValidationError("one probability per realization required")
        if values.shape[1] != len(links):
            raise ValidationError("one value row per link required")
        if values.shape[2] < 2:
            raise ValidationError("need at least one departure step")
        if not (np.all(np.isfinite(probabilities)) and np.all(probabilities > 0)
                and abs(probabilities.sum() - 1.0) <= PROB_TOL):
            raise ProbabilityMassError("probabilities must be positive and sum to 1")
        if not (np.isfinite(dt) and dt > 0):
            raise ValidationError("dt must be positive")
        if not np.all(np.isfinite(values[:, :, 1:])):
            raise ValidationError("travel times must be finite")
        if np.any(values[:, :, 1:] < dt - 1e-12):
            raise ValidationError("every travel time must cover at least one step")
        self.values = values
        self.dt = float(dt)
        self.probabilities = probabilities
        self.links = tuple(links)
        self.origin = origin
        self.destination = destination
        self.grid_rounded = grid_rounded

    @property
    def n_realizations(self) -> int:
        return self.values.shape[0]

    @property
    def n_links(self) -> int:
        return self.values.shape[1]

    @property
    def horizon_steps(self) -> int:
        return self.values.shape[2] - 1

    @cached_property
    def steps(self) -> np.ndarray:
        """Travel times as integer step counts (grid-rounded input only)."""
        if not self.grid_rounded:
            raise ValidationError("step counts only exist on the rounded grid")
        return np.rint(self.values / self.dt).astype(np.int64)

    @cached_property
    def link_index(self) -> dict[str, int]:
        return {l.id: i for i, l in enumerate(self.links)}

    def replace_values(self, values: np.ndarray, grid_rounded: bool = False
                       ) -> "TravelTimeDistribution":
        return TravelTimeDistribution(
            values, self.dt, self.probabilities, self.links,
            self.origin, self.destination, grid_rounded,
        )


def links_of(network: Network) -> tuple[LinkRef, ...]:
    return tuple(LinkRef(l.id, l.from_node, l.to_node) for l in network.links)


def free_flow_distribution(network: Network, scenario: Scenario) -> TravelTimeDistribution:
    """Constant free-flow times for every realization and departure step."""
    T = scenario.horizon_steps
    R = scenario.n_realizations
    values = np.empty((R, len(network.links), T + 1))
    for i, link in enumerate(network.links):
        values[:, i, :] = link.free_flow_time
    return TravelTimeDistribution(
        values, scenario.dt, scenario.probabilities, links_of(network),
        network.origin, network.destination,
    )


def round_to_grid(ttd: TravelTimeDistribution) -> TravelTimeDistribution:
    """Round every value to the nearest positive multiple of dt.

    Halves round up, and nothing rounds below one step, so rounding is
    idempotent and order preserving.
    """
    steps = np.floor(ttd.values / ttd.dt + 0.5)
    np.maximum(steps, 1.0, out=steps)
    return ttd.replace_values(steps * ttd.dt, grid_rounded=True)


class EventTree:
    """Per-step partitions of the realizations, refining over time.

    ``member[t, r]`` is realization r's event at step t, numbered from 0
    within the step; row 0 repeats row 1.  Each event of steps 1..T owns
    one column of a per-event table: realization r's event at step t is
    column ``start[t] + member[t, r]``, of step ``level_of`` and mass
    ``masses``.  A mass is the sum of its members' probabilities in
    ascending order, bit-equal to numpy's sum over them.
    """

    def __init__(self, member: np.ndarray, probabilities: np.ndarray):
        member = np.asarray(member, dtype=np.int64)
        self.probabilities = np.asarray(probabilities, dtype=float)
        R = self.probabilities.size
        if member.ndim != 2 or member.shape[1] != R or R == 0:
            raise ValidationError(f"member needs one column per realization, {R} of them")
        if member.shape[0] < 2 or not np.array_equal(member[0], member[1]):
            raise ValidationError("level 0 must repeat level 1")
        sizes = member[1:].max(axis=1) + 1
        start = np.cumsum(sizes) - sizes
        self.member = member
        self.start = np.concatenate([start[:1], start])
        self.level_of = np.repeat(np.arange(1, member.shape[0]), sizes)
        columns = (self.start[1:, None] + member[1:]).ravel()
        if member.min() < 0 or np.any(np.bincount(columns) == 0):
            raise ValidationError("every step's events must be numbered 0, 1, ... without gaps")
        weights = np.tile(self.probabilities, member.shape[0] - 1)
        self.masses = np.bincount(columns, weights)  # one by one, in ascending order
        if R >= PAIRWISE_MIN:
            _pairwise_sums(columns, weights, self.masses)

    @property
    def horizon_steps(self) -> int:
        return self.member.shape[0] - 1

    @property
    def n_realizations(self) -> int:
        return self.probabilities.size

    def events_at(self, t: int) -> tuple[tuple[int, ...], ...]:
        """The supports of step t's events, in event order: each the sorted
        positions of its realizations."""
        return self._supports[t]

    @cached_property
    def _supports(self) -> list[tuple[tuple[int, ...], ...]]:
        """``events_at`` of every step, read off ``member`` at the first
        call: one bucket pass per run of equal rows, as a row repeats the
        one before between two splits."""
        runs = np.flatnonzero(np.any(self.member[1:] != self.member[:-1], axis=1)) + 1
        bounds = [0, *runs.tolist(), self.member.shape[0]]
        out: list[tuple[tuple[int, ...], ...]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            row = self.member[lo].tolist()
            supports: list[list[int]] = [[] for _ in range(max(row) + 1)]
            for r, e in enumerate(row):
                supports[e].append(r)
            out += [tuple(map(tuple, supports))] * (hi - lo)
        return out


def generate_events(ttd: TravelTimeDistribution) -> EventTree:
    """Build the partitions Theta(1..T) from a grid-rounded distribution.

    Theta(1) is the single full-support event; each later level refines the
    previous one by the travel times revealed one step earlier.  Values are
    compared as integer step counts, so equality is exact.

    Two realizations share every event up to their separation level, 1 +
    the first step at which they differ on any link (T + 1 if never), so
    the partition splits only at those levels, at most R - 1 of them, and
    every other level repeats the one before.  A level numbers its events
    by their parent event, then by their lowest realization.
    """
    steps = ttd.steps  # requires grid rounding
    R, _, width = steps.shape
    T = width - 1
    # separation levels of every pair, one realization against the later
    # ones; a last column that always differs stands for "never"
    separation = np.full((R, R), T + 1, dtype=np.int64)
    for r in range(R - 1):
        differ = np.ones((R - r - 1, T), dtype=bool)
        differ[:, :-1] = (steps[r + 1:, :, 1:T] != steps[r, :, 1:T]).any(axis=1)
        separation[r, r + 1:] = separation[r + 1:, r] = differ.argmax(axis=1) + 2
    splits = sorted(set(separation[separation <= T].tolist()))
    rows = [np.zeros(R, dtype=np.int64)]
    for t in splits:
        # an event is named by its parent and its lowest realization, and
        # numbered in the order of those names
        name = rows[-1] * R + (separation > t).argmax(axis=0)
        taken = np.zeros(R * R, dtype=bool)
        taken[name] = True
        rows.append(np.cumsum(taken)[name] - 1)
    row_at = np.searchsorted(splits, np.arange(T + 1), side="right")
    return EventTree(np.stack(rows)[row_at], ttd.probabilities)


def step_distances(defining: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Distance between a distribution and observed times at one step each.

    Sums ``|defining - observed|`` over the last axis, the links; the other
    axes broadcast.  The difference is copied to a contiguous array first,
    because numpy's summation order depends on memory layout (one by one
    below eight links, pairwise from eight), and every caller must get the
    same digits.
    """
    return np.ascontiguousarray(np.abs(defining - observed)).sum(axis=-1)


def prefix_distances(defining_values: np.ndarray, info: np.ndarray) -> np.ndarray:
    """Cumulative per-realization distance between a distribution and observed times.

    ``defining_values`` is (..., R, L, T+1) and ``info`` (L, T+1).  Returns D
    with shape (..., R, T+1) where D[..., r, t] sums ``step_distances`` over
    the steps strictly before t, in step order.
    """
    diff = step_distances(defining_values[..., 1:-1].swapaxes(-1, -2), info[:, 1:-1].T)
    out = np.zeros(defining_values.shape[:-2] + defining_values.shape[-1:])
    np.cumsum(diff, axis=-1, out=out[..., 2:])
    return out


# numpy sums fewer values than this one by one, and more in eight pairwise
# partial sums
PAIRWISE_MIN = 8


def nearest_events(member: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Nearest event of every row.

    ``member`` (..., R) holds each realization's event index within its
    level (a row of ``EventTree.member``) and ``distances``, of the same
    shape, each realization's distance.  An event scores the sum of its
    members' distances, each sum bit-equal to numpy's sum over the members
    in ascending order.  The lowest score wins and ties go to the event
    holding the lowest realization, whatever the order of events in the
    level.  Returns the event index of every row, shape (...).
    """
    R = member.shape[-1]
    m = member.reshape(-1, R)
    row_start = np.arange(0, m.size, R)
    groups = (m + row_start[:, None]).reshape(-1)  # event ids, distinct across rows
    values = distances.reshape(-1)
    scores = np.bincount(groups, values, m.size)    # one by one, in ascending order
    if R >= PAIRWISE_MIN:
        _pairwise_sums(groups, values, scores)
    per_member = scores[groups].reshape(m.shape)
    # the lowest realization among the best-scoring events names the winner
    first = (per_member == per_member.min(axis=1, keepdims=True)).argmax(axis=1)
    return m.reshape(-1)[row_start + first].reshape(member.shape[:-1])


def _pairwise_sums(groups: np.ndarray, values: np.ndarray, sums: np.ndarray) -> None:
    """Redo the sums of groups with ``PAIRWISE_MIN`` or more members in place,
    as numpy sums them: a contiguous row per group, reduced along the row."""
    sizes = np.bincount(groups, minlength=sums.size)
    for size in np.flatnonzero(np.bincount(sizes)[PAIRWISE_MIN:]) + PAIRWISE_MIN:
        big = np.flatnonzero(sizes == size)
        at = np.flatnonzero(np.isin(groups, big))
        at = at[np.argsort(groups[at], kind="stable")]
        sums[big] = values[at].reshape(-1, size).sum(axis=1)


def parse_ttd(document: Document) -> TravelTimeDistribution:
    """Read a travel time distribution document (topology plus values), whose
    destination must be reachable from its origin."""
    document = read_mapping(document)
    dt = parse_number(document.get("dt_s"), "dt_s")
    steps = parse_number(document.get("steps"), "steps", int)
    links = []
    for e in shaped(document.get("links"), "a list", "links"):
        e = shaped(e, "a mapping", "link entry")
        links.append(LinkRef(str(shaped(e.get("id"), "an id", "link id")),
                             shaped(e.get("from"), "an id", "link from"),
                             shaped(e.get("to"), "an id", "link to")))
    origin = shaped(document.get("origin"), "an id", "origin")
    destination = shaped(document.get("destination"), "an id", "destination")
    raw = shaped(document.get("realizations"), "a list", "realizations")
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    ids = {link.id for link in links}
    if len(ids) != len(links):
        raise ValidationError("duplicate link ids")
    if destination not in reachable(links, origin):
        raise ValidationError(
            f"destination {destination} cannot be reached from origin {origin}"
        )

    probs = []
    values = np.empty((len(raw), len(links), steps + 1))
    for r, item in enumerate(raw):
        item = shaped(item, "a mapping", f"realization {r}")
        probs.append(parse_number(item.get("prob"), f"realization {r} prob"))
        times = shaped(item.get("times"), "a mapping", f"realization {r} times")
        times = {str(link_id): series for link_id, series in times.items()}
        unknown = sorted(times.keys() - ids)
        if unknown:
            raise ValidationError(f"realization {r}: times for unknown link {unknown[0]}")
        for i, link in enumerate(links):
            if link.id not in times:
                raise ParseError(f"realization {r}: missing times for link {link.id}")
            series = parse_array(times[link.id], f"realization {r} times of {link.id}")
            if series.shape != (steps,):
                raise ParseError(
                    f"realization {r}: link {link.id} needs {steps} values"
                )
            values[r, i, 1:] = series
            values[r, i, 0] = series[0]
    return TravelTimeDistribution(values, dt, np.array(probs), links, origin, destination)

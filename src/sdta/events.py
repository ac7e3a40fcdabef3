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
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import yaml

from .errors import ParseError, ProbabilityMassError, ValidationError
from .network import Network, NodeId
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

    def copy_values(self) -> np.ndarray:
        return self.values.copy()

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


@dataclass(frozen=True)
class Event:
    """A set of realizations indistinguishable before ``time``."""

    support: tuple[int, ...]   # sorted realization positions, 0-based
    time: int                  # step the partition belongs to

    def __post_init__(self):
        if not self.support:
            raise ValidationError("event support cannot be empty")
        if list(self.support) != sorted(set(self.support)):
            raise ValidationError("event support must be sorted and unique")


class EventTree:
    """Per-step partitions of the realizations, refining over time."""

    def __init__(self, levels: Sequence[Sequence[Event]], probabilities: np.ndarray):
        self.levels = tuple(tuple(level) for level in levels)  # index 1..T, [0] mirrors [1]
        self.probabilities = np.asarray(probabilities, dtype=float)
        R = self.probabilities.size
        member = np.full((len(self.levels), R), -1, dtype=np.int64)
        for t, level in enumerate(self.levels):
            for e_idx, event in enumerate(level):
                for r in event.support:
                    member[t, r] = e_idx
        if np.any(member[1:] < 0):
            raise ValidationError("levels must partition all realizations")
        self.member = member

    @property
    def horizon_steps(self) -> int:
        return len(self.levels) - 1

    @property
    def n_realizations(self) -> int:
        return self.probabilities.size

    def events_at(self, t: int) -> tuple[Event, ...]:
        return self.levels[t]

    def event_of(self, t: int, realization: int) -> Event:
        return self.levels[t][self.member[t, realization]]

    def mass(self, event: Event) -> float:
        return float(self.probabilities[list(event.support)].sum())


def generate_events(ttd: TravelTimeDistribution) -> EventTree:
    """Build the partitions Theta(1..T) from a grid-rounded distribution.

    Theta(1) is the single full-support event; each later level refines the
    previous one by the travel times revealed one step earlier.  Values are
    compared as integer step counts, so equality is exact.
    """
    steps = ttd.steps  # requires grid rounding
    R, _, width = steps.shape
    T = width - 1
    groups: list[tuple[int, ...]] = [tuple(range(R))]
    levels: list[list[Event]] = [[], [Event(tuple(range(R)), 1)]]
    for t in range(2, T + 1):
        refined: list[tuple[int, ...]] = []
        for group in groups:
            if len(group) == 1:
                refined.append(group)
                continue
            buckets: dict[bytes, list[int]] = {}
            for r in group:
                buckets.setdefault(steps[r, :, t - 1].tobytes(), []).append(r)
            # deterministic order: by lowest realization in each bucket
            refined.extend(tuple(b) for b in sorted(buckets.values()))
        groups = refined
        levels.append([Event(g, t) for g in groups])
    levels[0] = levels[1]
    tree = EventTree(levels, ttd.probabilities)
    return tree


def event_probability(tree: EventTree, event: Event, parent: Event | None = None) -> float:
    """Mass of an event, optionally conditional on a parent event."""
    mass = tree.mass(event)
    if parent is None:
        return mass
    if not set(event.support) <= set(parent.support):
        raise ValidationError("event is not contained in the given parent")
    return mass / tree.mass(parent)


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

    Returns D with shape (R, T+1) where D[r, t] sums ``step_distances`` over
    the steps strictly before t, in step order.
    """
    diff = step_distances(defining_values[:, :, 1:-1].swapaxes(1, 2), info[:, 1:-1].T)
    out = np.zeros((defining_values.shape[0], defining_values.shape[2]))
    np.cumsum(diff, axis=1, out=out[:, 2:])
    return out


def pick_nearest(level: Sequence[Event], distances: np.ndarray) -> Event:
    """Event minimizing the support-summed distance; ties break on the
    lowest contained realization index.

    The scalar reference for ``nearest_events``, which the program uses.
    """
    best = None
    best_key = None
    for event in level:
        score = float(distances[list(event.support)].sum())
        key = (score, event.support[0])
        if best_key is None or key < best_key:
            best, best_key = event, key
    return best


# numpy sums fewer values than this one by one, and more in eight pairwise
# partial sums
PAIRWISE_MIN = 8


def nearest_events(member: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Nearest event of every row: ``pick_nearest`` on whole arrays.

    ``member`` (..., R) holds each realization's event index within its
    level (a row of ``EventTree.member``) and ``distances``, of the same
    shape, each realization's distance.  An event scores the sum of its
    members' distances, each sum bit-equal to numpy's sum over the members
    in ascending order as in ``pick_nearest``.  The lowest score wins and
    ties go to the event holding the lowest realization, whatever the order
    of events in the level.  Returns the event index of every row, shape
    (...).
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
    for size in np.unique(sizes[sizes >= PAIRWISE_MIN]):
        big = np.flatnonzero(sizes == size)
        at = np.flatnonzero(np.isin(groups, big))
        at = at[np.argsort(groups[at], kind="stable")]
        sums[big] = values[at].reshape(-1, size).sum(axis=1)


def nearest_event(
    defining_ttd: TravelTimeDistribution,
    tree: EventTree,
    info: np.ndarray,
    t: int,
) -> Event:
    """Match observed history (steps < t) to an event of the defining tree.

    ``info`` has shape (L, T+1) with realized travel times filled for all
    steps below t; columns at or beyond t are ignored.
    """
    T = tree.horizon_steps
    t = max(1, min(int(t), T))
    level = tree.events_at(t)
    if len(level) == 1:
        return level[0]
    upto = prefix_distances(defining_ttd.values, info)[:, t]
    return level[int(nearest_events(tree.member[t], upto))]


def parse_ttd(document: str | Mapping[str, Any]) -> TravelTimeDistribution:
    """Read a travel time distribution document (topology plus values)."""
    if isinstance(document, str):
        try:
            document = yaml.safe_load(document)
        except yaml.YAMLError as err:
            raise ParseError(f"invalid document: {err}") from err
    if not isinstance(document, Mapping):
        raise ParseError("document root must be a mapping")
    try:
        dt = parse_number(document["dt_s"], "dt_s")
        steps = parse_number(document["steps"], "steps", int)
        links = [
            LinkRef(str(e["id"]), e["from"], e["to"]) for e in document["links"]
        ]
        origin = document["origin"]
        destination = document["destination"]
        raw = document["realizations"]
    except KeyError as err:
        raise ParseError(f"missing required field {err}") from None
    if steps < 1:
        raise ValidationError("steps must be at least 1")

    probs = []
    values = np.empty((len(raw), len(links), steps + 1))
    for r, item in enumerate(raw):
        probs.append(parse_number(item["prob"], f"realization {r} prob"))
        times = item["times"]
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

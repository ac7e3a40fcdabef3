"""Routing policies over stochastic time-dependent networks.

A policy maps state (node, departure step, event) to the next link to
take.  The optimal policy minimizes expected arrival time under full
online information and is computed backward in time over the event tree;
suboptimal variants re-optimize against a copy of the distribution whose
optimal choices were inflated by a factor z > 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MonotonicityRequired, ValidationError
from .events import Event, EventTree, TravelTimeDistribution, generate_events, round_to_grid
from .network import NodeId, node_sort_key


@dataclass(frozen=True)
class ZFactors:
    """Inflation factors, one per suboptimal policy to generate."""

    z: tuple[float, ...]

    def __post_init__(self):
        if any(v <= 1.0 for v in self.z):
            raise ValidationError("every z factor must exceed 1")


@dataclass(frozen=True)
class PolicyKind:
    name: str                 # "optimal" | "suboptimal"
    z: float | None = None

    @classmethod
    def optimal(cls) -> "PolicyKind":
        return cls("optimal")

    @classmethod
    def suboptimal(cls, z: float) -> "PolicyKind":
        return cls("suboptimal", z)

    @property
    def label(self) -> str:
        if self.name == "optimal":
            return "optimal"
        return f"suboptimal[z={self.z:g}]"


class Policy:
    """Next-link decision tables plus expected times for every state."""

    def __init__(
        self,
        kind: PolicyKind,
        defining_ttd: TravelTimeDistribution,
        tree: EventTree,
        e_levels: Sequence[np.ndarray],
        choice_levels: Sequence[np.ndarray],
        nodes: Sequence[NodeId],
        sentinel: float,
    ):
        self.kind = kind
        self.defining_ttd = defining_ttd
        self.tree = tree
        self.e_levels = tuple(e_levels)
        self.choice_levels = tuple(choice_levels)
        self.nodes = tuple(nodes)
        self.node_index = {n: i for i, n in enumerate(nodes)}
        self.sentinel = sentinel

    @property
    def label(self) -> str:
        return self.kind.label

    @property
    def horizon_steps(self) -> int:
        return len(self.e_levels) - 1

    def _state(self, node: NodeId, t: int, event: Event) -> tuple[int, int, int]:
        T = self.horizon_steps
        t = max(1, min(int(t), T))
        e_idx = int(self.tree.member[t, event.support[0]])
        return self.node_index[node], t, e_idx

    def expected_time(self, node: NodeId, t: int, event: Event) -> float:
        j, t, e_idx = self._state(node, t, event)
        return float(self.e_levels[t][j, e_idx])

    def next_link(self, node: NodeId, t: int, event: Event) -> str | None:
        j, t, e_idx = self._state(node, t, event)
        li = int(self.choice_levels[t][j, e_idx])
        return None if li < 0 else self.defining_ttd.links[li].id

    def next_node(self, node: NodeId, t: int, event: Event) -> NodeId:
        j, t, e_idx = self._state(node, t, event)
        li = int(self.choice_levels[t][j, e_idx])
        if li < 0:
            return node if node == self.defining_ttd.destination else None
        return self.defining_ttd.links[li].to_node

    def is_unreachable(self, node: NodeId, t: int, event: Event) -> bool:
        return self.expected_time(node, t, event) >= self.sentinel

    def export_rows(self) -> list[tuple]:
        """(node, t, support, next_node, via_link, expected_s) for all states."""
        rows = []
        links = self.defining_ttd.links
        for t in range(1, self.horizon_steps + 1):
            for e_idx, event in enumerate(self.tree.events_at(t)):
                for j, node in enumerate(self.nodes):
                    li = int(self.choice_levels[t][j, e_idx])
                    rows.append(
                        (
                            node,
                            t,
                            event.support,
                            links[li].to_node if li >= 0 else node,
                            links[li].id if li >= 0 else "",
                            float(self.e_levels[t][j, e_idx]),
                        )
                    )
        return rows


def _topology(ttd: TravelTimeDistribution):
    """Sorted node list and per-node outgoing (link_idx, head position) lists.

    Outgoing lists are pre-sorted by (head id, link id) so that taking the
    first strict minimum realizes the documented tie-break.
    """
    nodes = {ttd.origin, ttd.destination}
    for link in ttd.links:
        nodes.add(link.from_node)
        nodes.add(link.to_node)
    ordered = sorted(nodes, key=node_sort_key)
    index = {n: i for i, n in enumerate(ordered)}
    out: list[list[tuple[int, int]]] = [[] for _ in ordered]
    for li, link in enumerate(ttd.links):
        out[index[link.from_node]].append((li, index[link.to_node]))
    for j, items in enumerate(out):
        items.sort(key=lambda it: (node_sort_key(ttd.links[it[0]].to_node), ttd.links[it[0]].id))
    return ordered, index, out


def _sentinel(ttd: TravelTimeDistribution, n_nodes: int) -> float:
    max_cost = float(ttd.values[:, :, 1:].max()) if ttd.n_links else ttd.dt
    return (ttd.horizon_steps * ttd.n_realizations + n_nodes) * max_cost + 1.0


def horizon_shortest(
    ttd: TravelTimeDistribution, tree: EventTree, dest: NodeId
) -> tuple[np.ndarray, np.ndarray]:
    """Static one-to-all times to ``dest`` at the final step, per event.

    The network is static past the horizon, so each final-step event sees
    fixed link costs (their in-event expectation, which is the common value
    whenever members agree).  Returns (times, choices) with one column per
    final-step event and one row per node; choice -1 marks the destination
    and unreachable nodes.
    """
    nodes, node_index, out = _topology(ttd)
    T = ttd.horizon_steps
    level = tree.events_at(T)
    sentinel = _sentinel(ttd, len(nodes))
    e_T = np.full((len(nodes), len(level)), sentinel)
    choice_T = np.full((len(nodes), len(level)), -1, dtype=np.int64)
    d_idx = node_index[dest]

    # reversed adjacency: for each head node, incoming (tail, link, cost idx)
    incoming: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for li, link in enumerate(ttd.links):
        incoming[node_index[link.to_node]].append((node_index[link.from_node], li))

    for e_idx, event in enumerate(level):
        support = list(event.support)
        weights = ttd.probabilities[support]
        weights = weights / weights.sum()
        cost = weights @ ttd.values[support, :, T]  # per-link expected cost

        dist = [sentinel] * len(nodes)
        dist[d_idx] = 0.0
        heap = [(0.0, d_idx)]
        while heap:
            d, j = heapq.heappop(heap)
            if d > dist[j]:
                continue
            for tail, li in incoming[j]:
                nd = d + cost[li]
                if nd < dist[tail]:
                    dist[tail] = nd
                    heapq.heappush(heap, (nd, tail))
        for j in range(len(nodes)):
            if j == d_idx:
                e_T[j, e_idx] = 0.0
                continue
            best = sentinel
            best_li = -1
            for li, head in out[j]:
                cand = cost[li] + dist[head]
                if cand < best and dist[head] < sentinel:
                    best, best_li = cand, li
            if best_li >= 0:
                e_T[j, e_idx] = best
                choice_T[j, e_idx] = best_li
    return e_T, choice_T


def _run_dot_spi(
    ttd: TravelTimeDistribution,
    tree: EventTree,
    dest: NodeId,
    kind: PolicyKind,
) -> Policy:
    if not ttd.grid_rounded:
        raise ValidationError("distribution must be grid-rounded first")
    if tree.horizon_steps != ttd.horizon_steps:
        raise ValidationError("event tree horizon does not match the distribution")
    nodes, node_index, out = _topology(ttd)
    T = ttd.horizon_steps
    sentinel = _sentinel(ttd, len(nodes))
    d_idx = node_index[dest]

    e_T, choice_T = horizon_shortest(ttd, tree, dest)
    e_levels: list[np.ndarray | None] = [None] * (T + 1)
    choice_levels: list[np.ndarray | None] = [None] * (T + 1)
    e_levels[T] = e_T
    choice_levels[T] = choice_T

    vals = ttd.values.tolist()
    steps = ttd.steps.tolist()
    member = tree.member.tolist()
    probs = ttd.probabilities.tolist()
    e_list: list[list[list[float]] | None] = [None] * (T + 1)
    e_list[T] = e_T.tolist()

    for t in range(T - 1, 0, -1):
        level = tree.events_at(t)
        e_now = [[sentinel] * len(level) for _ in nodes]
        c_now = [[-1] * len(level) for _ in nodes]
        for e_idx, event in enumerate(level):
            support = event.support
            mass = sum(probs[r] for r in support)
            for j in range(len(nodes)):
                if j == d_idx:
                    e_now[j][e_idx] = 0.0
                    continue
                best = sentinel
                best_li = -1
                for li, head in out[j]:
                    acc = 0.0
                    for r in support:
                        c = vals[r][li][t]
                        ta = t + steps[r][li][t]
                        if ta >= T:
                            cont = e_list[T][head][member[T][r]]
                        else:
                            cont = e_list[ta][head][member[ta][r]]
                        acc += probs[r] * (c + cont)
                    temp = acc / mass
                    if temp >= sentinel:
                        temp = sentinel
                    if temp < best:
                        best, best_li = temp, li
                e_now[j][e_idx] = best
                c_now[j][e_idx] = best_li
        e_list[t] = e_now
        e_levels[t] = np.array(e_now)
        choice_levels[t] = np.array(c_now, dtype=np.int64)

    e_levels[0] = e_levels[1] if T > 1 else e_levels[T]
    choice_levels[0] = choice_levels[1] if T > 1 else choice_levels[T]
    return Policy(kind, ttd, tree, e_levels, choice_levels, nodes, sentinel)


def dot_spi(ttd: TravelTimeDistribution, tree: EventTree, dest: NodeId) -> Policy:
    """Optimal online-information policy via backward induction.

    The final step is solved as a static shortest path per event; every
    earlier state takes the link minimizing the in-event expectation of
    cost plus the continuation at the realized arrival step, with arrivals
    past the horizon clamped to the final level.
    """
    return _run_dot_spi(ttd, tree, dest, PolicyKind.optimal())


def check_monotone(ttd: TravelTimeDistribution) -> bool:
    """True when travel times strictly increase over departure steps."""
    return bool(np.all(np.diff(ttd.values[:, :, 1:], axis=2) > 0))


def _as_zfactors(z: ZFactors | Sequence[float] | float) -> ZFactors:
    if isinstance(z, ZFactors):
        return z
    if isinstance(z, (int, float)):
        return ZFactors((float(z),))
    return ZFactors(tuple(float(v) for v in z))


def lp_policy(
    ttd: TravelTimeDistribution,
    optimal: Policy,
    z: ZFactors | Sequence[float] | float,
    steps: Iterable[int] | None = None,
) -> list[Policy]:
    """Suboptimal policies from inflating the optimal choices.

    For each factor, the optimal next link of every non-destination state
    at the given steps (default: the final step) is made z times slower
    (for all realizations in the state's event) and the backward solve is
    re-run on the modified copy.  The original event tree remains valid
    because whole events are scaled together.  Inflating any step before
    the final one requires strictly time-increasing travel times; without
    that the re-optimized policy may beat the one it perturbs.
    """
    T = ttd.horizon_steps
    steps = [T] if steps is None else sorted(set(int(s) for s in steps))
    if any(s < 1 or s > T for s in steps):
        raise ValidationError("modification steps must lie on the grid")
    if any(s < T for s in steps) and not check_monotone(ttd):
        raise MonotonicityRequired(
            "inflating interior steps needs strictly increasing travel times"
        )
    tree = optimal.tree
    d_idx = optimal.node_index[ttd.destination]
    out = []
    for zv in _as_zfactors(z).z:
        values = ttd.copy_values()
        for t in steps:
            for e_idx, event in enumerate(tree.events_at(t)):
                for j in range(len(optimal.nodes)):
                    li = int(optimal.choice_levels[t][j, e_idx])
                    if j != d_idx and li >= 0:
                        values[list(event.support), li, t] *= zv
        modified = round_to_grid(ttd.replace_values(values))
        out.append(_run_dot_spi(modified, tree, ttd.destination, PolicyKind.suboptimal(zv)))
    return out


def expected_origin_time(policy: Policy, tree: EventTree, t: int) -> float:
    """Expected time to destination for an origin departure at step t,
    marginalized over the step-t events."""
    T = policy.horizon_steps
    if not 1 <= t <= T:
        raise ValidationError(f"departure step {t} is off the grid 1..{T}")
    o_idx = policy.node_index[policy.defining_ttd.origin]
    level = tree.events_at(t)
    total = 0.0
    for e_idx, event in enumerate(level):
        total += tree.mass(event) * float(policy.e_levels[t][o_idx, e_idx])
    return total


def generate_policies(
    ttd: TravelTimeDistribution,
    z: ZFactors | Sequence[float],
    tree: EventTree | None = None,
) -> tuple[list[Policy], EventTree]:
    """Round, build the event tree, and produce optimal + suboptimal policies."""
    rounded = ttd if ttd.grid_rounded else round_to_grid(ttd)
    if tree is None:
        tree = generate_events(rounded)
    optimal = dot_spi(rounded, tree, rounded.destination)
    policies = [optimal]
    factors = _as_zfactors(z)
    if factors.z:
        policies.extend(lp_policy(rounded, optimal, factors))
    return policies, tree

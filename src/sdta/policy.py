"""Routing policies over stochastic time-dependent networks.

A policy maps state (node, departure step, event) to the next link to
take.  The optimal policy minimizes expected arrival time under full
online information and is computed backward in time over the event tree;
suboptimal variants re-optimize against a copy of the distribution whose
optimal choices were inflated by a factor z > 1.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import MonotonicityRequired, ValidationError
from .events import EventTree, TravelTimeDistribution, generate_events, round_to_grid
from .network import NodeId, node_sort_key


class Policy:
    """Expected times (``values``) and next-link positions (``choices``, -1
    for none) for every state: one row per node, one column per event.
    ``z`` is the inflation factor of a suboptimal policy, None for the
    optimal one."""

    def __init__(self, z: float | None, defining_ttd: TravelTimeDistribution, tree: EventTree,
                 values: np.ndarray, choices: np.ndarray, nodes: Sequence[NodeId],
                 sentinel: float):
        self.z = z
        self.defining_ttd = defining_ttd
        self.tree = tree
        self.values = values
        self.choices = choices
        self.nodes = tuple(nodes)
        self.node_index = {n: i for i, n in enumerate(nodes)}
        self.sentinel = sentinel

    @property
    def label(self) -> str:
        return _label(self.z)

    @property
    def horizon_steps(self) -> int:
        return self.tree.horizon_steps

    def _state(self, node: NodeId, t: int, realization: int) -> tuple[int, int]:
        """Row and column of the state of ``node`` at step t (clamped to
        1..T) in the event that holds ``realization``."""
        tree = self.tree
        if not 0 <= realization < tree.n_realizations:
            raise ValidationError(
                f"realization {realization} is not one of 0..{tree.n_realizations - 1}")
        t = max(1, min(int(t), tree.horizon_steps))
        return self.node_index[node], int(tree.start[t] + tree.member[t, realization])

    def expected_time(self, node: NodeId, t: int, realization: int) -> float:
        return float(self.values[self._state(node, t, realization)])

    def next_link(self, node: NodeId, t: int, realization: int) -> str | None:
        li = int(self.choices[self._state(node, t, realization)])
        return None if li < 0 else self.defining_ttd.links[li].id

    def next_node(self, node: NodeId, t: int, realization: int) -> NodeId:
        li = int(self.choices[self._state(node, t, realization)])
        if li < 0:
            return node if node == self.defining_ttd.destination else None
        return self.defining_ttd.links[li].to_node

    def is_unreachable(self, node: NodeId, t: int, realization: int) -> bool:
        return self.expected_time(node, t, realization) >= self.sentinel

    def export_rows(self) -> list[tuple]:
        """(node, t, support, next_node, via_link, expected_s) for all states."""
        rows = []
        links = self.defining_ttd.links
        for t in range(1, self.horizon_steps + 1):
            for e_idx, support in enumerate(self.tree.events_at(t)):
                column = int(self.tree.start[t]) + e_idx
                for j, node in enumerate(self.nodes):
                    li = int(self.choices[j, column])
                    rows.append(
                        (
                            node,
                            t,
                            support,
                            links[li].to_node if li >= 0 else node,
                            links[li].id if li >= 0 else "",
                            float(self.values[j, column]),
                        )
                    )
        return rows


def _label(z: float | None) -> str:
    return "optimal" if z is None else f"suboptimal[z={z:g}]"


def _topology(ttd: TravelTimeDistribution):
    """Sorted node list, node positions, each link's head position, and a
    table of every node's out-links, padded with link L.

    A node's out-links are sorted by (head id, link id), so that the first
    strict minimum along its row realizes the documented tie-break.
    """
    nodes = {ttd.origin, ttd.destination}
    for link in ttd.links:
        nodes.add(link.from_node)
        nodes.add(link.to_node)
    ordered = sorted(nodes, key=node_sort_key)
    index = {n: i for i, n in enumerate(ordered)}
    out: list[list[int]] = [[] for _ in ordered]
    for li, link in enumerate(ttd.links):
        out[index[link.from_node]].append(li)
    table = np.full((len(ordered), max(map(len, out)) + 1), ttd.n_links)
    for j, links in enumerate(out):
        links.sort(key=lambda li: (node_sort_key(ttd.links[li].to_node), ttd.links[li].id))
        table[j, :len(links)] = links
    heads = np.array([index[link.to_node] for link in ttd.links], dtype=np.int64)
    return ordered, index, heads, table


def _sentinel(ttd: TravelTimeDistribution, n_nodes: int) -> float:
    max_cost = float(ttd.values[:, :, 1:].max()) if ttd.n_links else ttd.dt
    return (ttd.horizon_steps * ttd.n_realizations + n_nodes) * max_cost + 1.0


def _choose(cost: np.ndarray, table: np.ndarray, sentinel, d_idx: int):
    """Every node's value and choice from link costs (..., L+1) whose entry
    L, the padding link, is +inf: the first strict minimum along the node's
    row of ``table``, or the sentinel and -1 where none is below it.  The
    destination gets 0 and -1.  Returns two arrays of shape (..., nodes)."""
    cand = cost[..., table]
    k = cand.argmin(axis=-1)
    best = cand.min(axis=-1)
    reach = best < sentinel
    values = np.where(reach, best, sentinel)
    choices = np.where(reach, table[np.arange(table.shape[0]), k], -1)
    values[..., d_idx] = 0.0
    choices[..., d_idx] = -1
    return values, choices


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
    nodes, node_index, heads, table = _topology(ttd)
    T = ttd.horizon_steps
    sentinel = _sentinel(ttd, len(nodes))
    d_idx = node_index[dest]

    # reversed adjacency: for each head node, incoming (tail, link, cost idx)
    incoming: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for li, link in enumerate(ttd.links):
        incoming[node_index[link.to_node]].append((node_index[link.from_node], li))

    masses = tree.masses[tree.start[T]:]
    cand = np.full((masses.size, ttd.n_links + 1), np.inf)
    for e_idx, mass in enumerate(masses):
        support = np.flatnonzero(tree.member[T] == e_idx)
        weights = ttd.probabilities[support] / mass
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
        # a head that cannot reach the destination keeps its links at or
        # above the sentinel, so none of them is chosen
        cand[e_idx, :-1] = cost + np.array(dist)[heads]
    e_T, choice_T = _choose(cand, table, sentinel, d_idx)
    return e_T.T, choice_T.T


def _run_dot_spi(ttds: Sequence[TravelTimeDistribution], tree: EventTree, dest: NodeId,
                 zs: Sequence[float | None],
                 first_horizon: tuple[np.ndarray, np.ndarray] | None = None) -> list[Policy]:
    """One backward solve for grid-rounded distributions on one tree, one
    policy per distribution, each with its z factor.  ``first_horizon``,
    when given, is ``horizon_shortest`` of the first distribution, which is
    then not solved again.

    Every traversal takes at least ``block`` steps, so a block of that many
    steps reads only solved levels and is one array pass for all the
    distributions.  Each state's sum runs in a ``bincount`` bin (policy,
    column, link) fed in (policy, step, realization, link) order: it adds
    its realizations in ascending order from 0.0, as a running sum does.
    """
    if not all(ttd.grid_rounded for ttd in ttds):
        raise ValidationError("distribution must be grid-rounded first")
    ttd = ttds[0]
    if tree.horizon_steps != ttd.horizon_steps:
        raise ValidationError("event tree horizon does not match the distribution")
    nodes, node_index, heads, table = _topology(ttd)
    T, P, N, L, C = ttd.horizon_steps, len(ttds), len(nodes), ttd.n_links, tree.masses.size
    sentinels = [_sentinel(d, N) for d in ttds]
    sentinel = np.array(sentinels)[:, None, None]
    values = np.empty((P, N, C))
    choices = np.empty((P, N, C), dtype=np.int64)
    for p, d in enumerate(ttds):
        values[p, :, tree.start[T]:], choices[p, :, tree.start[T]:] = (
            first_horizon if p == 0 and first_horizon is not None
            else horizon_shortest(d, tree, dest))
    # costs and step counts as (policy, step, realization, link)
    cost = np.stack([d.values for d in ttds]).transpose(0, 3, 1, 2)
    steps = np.stack([d.steps for d in ttds]).transpose(0, 3, 1, 2)
    head_row = ((np.arange(P)[:, None] * N + heads) * C)[:, None, None]
    r = np.arange(ttd.n_realizations)
    block = int(steps[:, 1:T].min()) if T > 1 else 1
    hi = T - 1
    while hi >= 1:
        lo = max(1, hi - block + 1)
        c0, c1 = tree.start[lo], tree.start[hi + 1]
        s = np.arange(lo, hi + 1)[:, None]
        ta = np.minimum(s[:, :, None] + steps[:, lo:hi + 1], T)
        cont = values.ravel()[head_row + tree.start[ta] + tree.member[ta, r[:, None]]]
        terms = ttd.probabilities[:, None] * (cost[:, lo:hi + 1] + cont)
        column = tree.start[s] + tree.member[s, r] - c0
        # bins (policy, column, link), bin L of each left empty for the padding link
        bins = ((np.arange(P)[:, None, None, None] * (c1 - c0) + column[:, :, None]) * (L + 1)
                + np.arange(L))
        acc = np.bincount(bins.ravel(), terms.ravel(), P * (c1 - c0) * (L + 1))
        temp = np.minimum(acc.reshape(P, c1 - c0, L + 1) / tree.masses[c0:c1, None], sentinel)
        temp[:, :, L] = np.inf
        block_values, block_choices = _choose(temp, table, sentinel, node_index[dest])
        values[:, :, c0:c1] = block_values.transpose(0, 2, 1)
        choices[:, :, c0:c1] = block_choices.transpose(0, 2, 1)
        hi = lo - 1
    return [Policy(z, d, tree, values[p], choices[p], nodes, sentinels[p])
            for p, (d, z) in enumerate(zip(ttds, zs, strict=True))]


def dot_spi(ttd: TravelTimeDistribution, tree: EventTree, dest: NodeId) -> Policy:
    """Optimal online-information policy via backward induction.

    The final step is solved as a static shortest path per event; every
    earlier state takes the link minimizing the in-event expectation of
    cost plus the continuation at the realized arrival step, with arrivals
    past the horizon clamped to the final level.
    """
    return _run_dot_spi([ttd], tree, dest, [None])[0]


def check_monotone(ttd: TravelTimeDistribution) -> bool:
    """True when travel times strictly increase over departure steps."""
    return bool(np.all(np.diff(ttd.values[:, :, 1:], axis=2) > 0))


def z_factors(z: float | Iterable[float]) -> tuple[float, ...]:
    """The inflation factors as floats, from one factor or a sequence; each
    must be finite and exceed 1, and no two may print as the same label."""
    factors = (float(z),) if isinstance(z, (int, float)) else tuple(float(v) for v in z)
    if not all(1.0 < v < math.inf for v in factors):
        raise ValidationError("every z factor must be finite and exceed 1")
    labels = [_label(v) for v in factors]
    if len(set(labels)) < len(labels):
        raise ValidationError(f"z factors must have distinct labels, not {', '.join(labels)}")
    return factors


def lp_policy(ttd: TravelTimeDistribution, optimal: Policy, z: float | Iterable[float],
              steps: Iterable[int] | None = None) -> list[Policy]:
    """Suboptimal policies from inflating the optimal choices.

    For each factor, the optimal next link of every non-destination state
    at the given steps (default: the final step) is made z times slower
    (for all realizations in the state's event) and the backward solve is
    re-run on the modified copy.  The original event tree remains valid
    because whole events are scaled together.  Inflating any step before
    the final one requires strictly time-increasing travel times; without
    that the re-optimized policy may beat the one it perturbs.
    """
    factors = z_factors(z)
    T = ttd.horizon_steps
    steps = [T] if steps is None else sorted(set(int(s) for s in steps))
    if any(s < 1 or s > T for s in steps):
        raise ValidationError("modification steps must lie on the grid")
    if any(s < T for s in steps) and not check_monotone(ttd):
        raise MonotonicityRequired(
            "inflating interior steps needs strictly increasing travel times"
        )
    tree = optimal.tree
    steps = np.array(steps, dtype=np.int64)
    choice = optimal.choices[:, tree.start[steps, None] + tree.member[steps]]
    copies = _inflated(ttd, choice, steps, factors)
    return _run_dot_spi(copies, tree, ttd.destination, factors) if factors else []


def _inflated(ttd: TravelTimeDistribution, choice: np.ndarray, steps: np.ndarray,
              factors: Sequence[float]) -> list[TravelTimeDistribution]:
    """Grid-rounded copies of ``ttd``, one per factor, with the link
    ``choice`` names for each (node, step, realization) made that many times
    slower at that step.  The destination's choice is -1, and a link leaves
    one node only, so no entry is inflated twice."""
    j, at, r = np.nonzero(choice >= 0)
    values = np.repeat(ttd.values[None], len(factors), axis=0)
    values[:, r, choice[j, at, r], steps[at]] *= np.array(factors)[:, None]
    return [round_to_grid(ttd.replace_values(v)) for v in values]


def expected_origin_times(policy: Policy, tree: EventTree) -> np.ndarray:
    """Expected time to destination for an origin departure at every step,
    marginalized over that step's events; shape (T+1,), entry 0 unused.
    ``bincount`` adds a step's events one by one, as a running sum does.
    ``tree`` must be the policy's own, or partition the realizations alike:
    its values have one column per event of that tree."""
    if tree is not policy.tree and not np.array_equal(tree.member, policy.tree.member):
        raise ValidationError(f"policy {policy.label} is defined on another event tree")
    origin = policy.values[policy.node_index[policy.defining_ttd.origin]]
    return np.bincount(tree.level_of, tree.masses * origin, tree.horizon_steps + 1)


def expected_origin_time(policy: Policy, tree: EventTree, t: int) -> float:
    """``expected_origin_times`` at one departure step t."""
    T = policy.horizon_steps
    if not 1 <= t <= T:
        raise ValidationError(f"departure step {t} is off the grid 1..{T}")
    return float(expected_origin_times(policy, tree)[t])


def generate_policies(
    ttd: TravelTimeDistribution, z: float | Iterable[float]
) -> tuple[list[Policy], EventTree]:
    """Round, build the event tree, and produce optimal + suboptimal policies.

    The suboptimal copies inflate the optimal level-T choices, which the
    static tail alone gives, so one backward pass solves the whole set."""
    factors = z_factors(z)
    rounded = ttd if ttd.grid_rounded else round_to_grid(ttd)
    tree = generate_events(rounded)
    T = np.array([rounded.horizon_steps])
    e_T, choice_T = horizon_shortest(rounded, tree, rounded.destination)
    copies = _inflated(rounded, choice_T[:, None, tree.member[T[0]]], T, factors)
    return _run_dot_spi([rounded, *copies], tree, rounded.destination, [None, *factors],
                        (e_T, choice_T)), tree

"""Reference implementations used to cross-check the engine.

Everything here is written independently of the package internals: brute
force enumeration, plain label setting, frozensets instead of event trees.
Keep it slow and obvious.  The exceptions are former scalar versions of
the program's array code, kept as its references: ``generate_events_loop``,
the bucket-per-level builder whose partitions ``events.generate_events``
numbers from separation levels; ``pick_nearest``, the
one-level event matcher that ``events.nearest_events`` batches;
``disaggregate``, the commodity split of one turn flow that the engine
makes for all turns at once; ``translate_walk``, the policy-to-path walk
built only on ``pick_nearest``; the per-event loops
``expected_origin_time_loop`` and ``inflated_values``, which read policies
one state at a time through ``Policy``'s lookups; and ``dot_spi_loop``
with ``horizon_shortest_loop``, the backward induction one state, link
and realization at a time that ``policy._run_dot_spi`` solves in blocks
of steps for a stack of policies.  ``po_ltm_every_step`` is the former
chronological loop on the program's own engine: it matches every policy's
event and records every travel-time column at every step, where
``loading.po_ltm`` matches only where a route can change.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from sdta import (
    LinkRef,
    NonTerminatingTranslation,
    PathSet,
    TravelTimeDistribution,
    prefix_distances,
)
from sdta.events import nearest_events, step_distances
from sdta.kernels import XI
from sdta.loading import _Engine, _policy_links, _stacked, _Turns
from sdta.network import node_sort_key
from sdta.policy import Policy, _sentinel

HOP_CAP = 60


def random_small_ttd(rng: np.random.Generator) -> TravelTimeDistribution:
    """A tiny routing instance: <= 4 nodes, <= 5 steps, <= 3 realizations.

    Probabilities are dyadic and costs integer multiples of dt so every
    expectation is exact in floating point.
    """
    n_nodes = int(rng.integers(3, 5))
    steps = int(rng.integers(2, 6))
    n_r = int(rng.integers(1, 4))
    if n_nodes == 3:
        links = [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]
        if rng.random() < 0.5:
            links.append(("d", 2, 3))
    else:
        links = [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("e", 3, 4)]
        if rng.random() < 0.5:
            links.append(("f", 2, 3))
        if rng.random() < 0.3:
            links.append(("g", 3, 2))
    values = rng.integers(1, 7, size=(n_r, len(links), steps + 1)).astype(float)
    values[:, :, 0] = values[:, :, 1]
    probs = {1: [1.0], 2: [0.5, 0.5], 3: [0.25, 0.25, 0.5]}[n_r]
    probs = list(rng.permutation(probs))
    refs = [LinkRef(lid, a, b) for lid, a, b in links]
    return TravelTimeDistribution(
        values, 1.0, np.array(probs), refs, 1, n_nodes, grid_rounded=True
    )


def generate_events_loop(ttd: TravelTimeDistribution) -> list[list[tuple[int, ...]]]:
    """Each step's event supports, index 0 repeating step 1: the program's
    former builder.  Step 1 is the full support; each later step splits
    every event of the step before into buckets of realizations with equal
    step counts one step earlier, ordered by their lowest realization."""
    steps = ttd.steps
    R, _, width = steps.shape
    groups = [tuple(range(R))]
    levels = [groups, groups]
    for t in range(2, width):
        refined = []
        for group in groups:
            buckets = {}
            for r in group:
                buckets.setdefault(steps[r, :, t - 1].tobytes(), []).append(r)
            refined.extend(tuple(b) for b in sorted(buckets.values()))
        groups = refined
        levels.append(groups)
    return levels


def _event_key(values: np.ndarray, s: int, r: int) -> frozenset:
    """Realizations indistinguishable from r before step s."""
    col = values[r, :, 1:s]
    return frozenset(
        rr for rr in range(values.shape[0])
        if np.array_equal(values[rr, :, 1:s], col)
    )


def enumerate_min_expected(ttd: TravelTimeDistribution) -> float:
    """Minimum expected origin time over every routing table, by brute force.

    Tables map (node, step, indistinguishability class) to an outgoing link
    and are grown lazily: simulate all realizations, branch on the first
    state without an assigned choice.
    """
    values = ttd.values
    T = ttd.horizon_steps
    probs = ttd.probabilities
    out = {}
    for i, ref in enumerate(ttd.links):
        out.setdefault(ref.from_node, []).append((i, ref.to_node))

    best = [math.inf]

    def walk(assign, r):
        node, t, acc, hops = ttd.origin, 1, 0.0, 0
        while node != ttd.destination:
            if hops > HOP_CAP:
                return math.inf, None
            s = min(t, T)
            key = (node, s, _event_key(values, s, r))
            if key not in assign:
                return None, key
            li, nxt = assign[key]
            cost = values[r, li, s]
            acc += cost
            node = nxt
            t += int(round(cost / ttd.dt))
            hops += 1
        return acc, None

    def explore(assign):
        total = 0.0
        for r in range(len(probs)):
            acc, missing = walk(assign, r)
            if missing is not None:
                for choice in out.get(missing[0], []):
                    assign[missing] = choice
                    explore(assign)
                del assign[missing]
                return
            total += probs[r] * acc
        if total < best[0]:
            best[0] = total

    explore({})
    return best[0]


def tdsp_value(ttd: TravelTimeDistribution, r: int) -> float:
    """Deterministic time-dependent shortest path for one realization.

    Backward induction over (node, step) with a static Dijkstra tail at the
    final step.  Independent of the policy machinery.
    """
    values = ttd.values[r]
    T = ttd.horizon_steps
    out = {}
    for i, ref in enumerate(ttd.links):
        out.setdefault(ref.from_node, []).append((i, ref.to_node))
    nodes = {ttd.origin, ttd.destination}
    for ref in ttd.links:
        nodes.add(ref.from_node)
        nodes.add(ref.to_node)

    tail = {n: math.inf for n in nodes}
    tail[ttd.destination] = 0.0
    heap = [(0.0, ttd.destination)]
    rev = {}
    for i, ref in enumerate(ttd.links):
        rev.setdefault(ref.to_node, []).append((i, ref.from_node))
    while heap:
        d, n = heapq.heappop(heap)
        if d > tail[n]:
            continue
        for i, prev in rev.get(n, []):
            nd = d + values[i, T]
            if nd < tail[prev] - 1e-12:
                tail[prev] = nd
                heapq.heappush(heap, (nd, prev))

    v = {(n, T): tail[n] for n in nodes}
    for t in range(T - 1, 0, -1):
        for n in nodes:
            if n == ttd.destination:
                v[(n, t)] = 0.0
                continue
            cands = [math.inf]
            for i, nxt in out.get(n, []):
                c = values[i, t]
                arrive = min(t + int(round(c / ttd.dt)), T)
                cands.append(c + v[(nxt, arrive)])
            v[(n, t)] = min(cands)
    return v[(ttd.origin, 1)]


def _out_lists(ttd: TravelTimeDistribution):
    """Sorted nodes, node positions, and each node's (link, head position)
    list sorted by (head id, link id), the documented tie-break."""
    nodes = {ttd.origin, ttd.destination}
    for link in ttd.links:
        nodes.update((link.from_node, link.to_node))
    ordered = sorted(nodes, key=node_sort_key)
    index = {n: i for i, n in enumerate(ordered)}
    out = [[] for _ in ordered]
    for li, link in enumerate(ttd.links):
        out[index[link.from_node]].append((li, index[link.to_node]))
    for items in out:
        items.sort(key=lambda it: (node_sort_key(ttd.links[it[0]].to_node), ttd.links[it[0]].id))
    return ordered, index, out


def horizon_shortest_loop(ttd: TravelTimeDistribution, tree, dest):
    """Final-step times and choices per (node, event): a heap Dijkstra on
    in-event expected costs, then the first strict minimum over each node's
    out-links whose head reaches the destination."""
    nodes, node_index, out = _out_lists(ttd)
    T = ttd.horizon_steps
    level = tree.events_at(T)
    sentinel = _sentinel(ttd, len(nodes))
    e_T = np.full((len(nodes), len(level)), sentinel)
    choice_T = np.full((len(nodes), len(level)), -1, dtype=np.int64)
    d_idx = node_index[dest]
    incoming = [[] for _ in nodes]
    for li, link in enumerate(ttd.links):
        incoming[node_index[link.to_node]].append((node_index[link.from_node], li))
    masses = tree.masses[tree.start[T]:]
    for e_idx, support in enumerate(level):
        support = list(support)
        weights = ttd.probabilities[support] / masses[e_idx]
        cost = weights @ ttd.values[support, :, T]
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


def dot_spi_loop(ttd: TravelTimeDistribution, tree, dest, z=None) -> Policy:
    """The policy of one grid-rounded distribution by backward induction,
    one (step, event, node, link) at a time: each state's expectation is a
    running sum over the event's realizations in ascending order."""
    nodes, node_index, out = _out_lists(ttd)
    T = ttd.horizon_steps
    sentinel = _sentinel(ttd, len(nodes))
    d_idx = node_index[dest]

    e_T, choice_T = horizon_shortest_loop(ttd, tree, dest)
    step_values = [None] * (T + 1)
    step_choices = [None] * (T + 1)
    step_values[T] = e_T
    step_choices[T] = choice_T

    vals = ttd.values.tolist()
    steps = ttd.steps.tolist()
    member = tree.member.tolist()
    probs = ttd.probabilities.tolist()
    masses = tree.masses.tolist()
    start = tree.start.tolist()
    e_list = [None] * (T + 1)
    e_list[T] = e_T.tolist()

    for t in range(T - 1, 0, -1):
        level = tree.events_at(t)
        e_now = [[sentinel] * len(level) for _ in nodes]
        c_now = [[-1] * len(level) for _ in nodes]
        for e_idx, support in enumerate(level):
            mass = masses[start[t] + e_idx]
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
                        ta = min(t + steps[r][li][t], T)
                        acc += probs[r] * (c + e_list[ta][head][member[ta][r]])
                    temp = min(acc / mass, sentinel)
                    if temp < best:
                        best, best_li = temp, li
                e_now[j][e_idx] = best
                c_now[j][e_idx] = best_li
        e_list[t] = e_now
        step_values[t] = np.array(e_now)
        step_choices[t] = np.array(c_now, dtype=np.int64)

    return Policy(z, ttd, tree, np.hstack(step_values[1:]), np.hstack(step_choices[1:]),
                  nodes, sentinel)


def pick_nearest(level, distances: np.ndarray):
    """Support of ``level`` minimizing the support-summed distance; ties
    break on the lowest contained realization index."""
    best = None
    best_key = None
    for support in level:
        score = float(distances[list(support)].sum())
        key = (score, support[0])
        if best_key is None or key < best_key:
            best, best_key = support, key
    return best


def disaggregate(total: float, weights: list[float], xi: float = XI) -> list[float]:
    """Split a flow over commodities proportionally to their curve gaps."""
    denom = sum(weights) + xi
    return [total * w / denom for w in weights]


def expected_origin_time_loop(policy, tree, t: int) -> float:
    """Expected origin time at step t as a running sum over the step's
    events, one ``mass * expected time`` at a time (the program's former
    per-event loop), each mass summed over the event's probabilities."""
    origin = policy.defining_ttd.origin
    total = 0.0
    for support in tree.events_at(t):
        mass = float(tree.probabilities[list(support)].sum())
        total += mass * policy.expected_time(origin, t, support[0])
    return total


def inflated_values(ttd: TravelTimeDistribution, optimal, z: float, steps) -> np.ndarray:
    """Travel times with the optimal link of every non-destination state at
    the given steps made z times slower, for all realizations of the
    state's event: the program's former (step, event, node) loop."""
    values = ttd.values.copy()
    for t in steps:
        for support in optimal.tree.events_at(t):
            for node in optimal.nodes:
                via = optimal.next_link(node, t, support[0])
                if node != ttd.destination and via is not None:
                    values[list(support), ttd.link_index[via], t] *= z
    return values


def translate_walk(policies, splits, info: np.ndarray, dt: float) -> PathSet:
    """Policy-to-path translation, one walk per policy and departure step.

    Each walk starts at the origin at its departure time; at every node the
    event nearest to the observed history ``info`` selects the decision, and
    the clock advances by the in-event expected traversal time rounded to
    the grid.  Walks with the same links pool their split fractions.
    """
    first = policies[0]
    ttd0 = first.defining_ttd
    T = ttd0.horizon_steps
    origin, dest = ttd0.origin, ttd0.destination
    links = ttd0.links
    dist_by_policy = [
        prefix_distances(p.defining_ttd.values, info) for p in policies
    ]
    accumulators = {}
    for w, policy in enumerate(policies):
        tree = policy.tree
        probs = policy.defining_ttd.probabilities
        vals = policy.defining_ttd.values
        eta = splits.row(policy.label)
        for t in range(1, T + 1):
            clock = t * dt
            node = origin
            path = []
            hops = 0
            while node != dest:
                s = min(int(clock / dt + 0.5), T)
                s = max(s, 1)
                level = tree.events_at(s)
                support = level[0] if len(level) == 1 else pick_nearest(
                    level, dist_by_policy[w][:, s]
                )
                via = policy.next_link(node, s, support[0])
                if via is None:
                    raise NonTerminatingTranslation(
                        f"policy {policy.label} has no route from node {node}"
                    )
                li = ttd0.link_index[via]
                support = list(support)
                weights = probs[support]
                expected = float(weights @ vals[support, li, s] / weights.sum())
                expected = max(dt, int(expected / dt + 0.5) * dt)
                path.append(links[li].id)
                node = links[li].to_node
                clock += expected
                hops += 1
                if hops > 2 * T:
                    raise NonTerminatingTranslation(
                        f"walk from step {t} exceeded {2 * T} hops"
                    )
            key = tuple(path)
            if key not in accumulators:
                accumulators[key] = np.zeros(T + 1)
            accumulators[key][t] += eta[t]
    paths = tuple(sorted(accumulators))
    mu = np.vstack([accumulators[p] for p in paths])
    mu[:, 0] = mu[:, 1]
    return PathSet(paths, mu)


def po_ltm_every_step(network, policies, splits, scenario, strict_origin=False):
    """Chronological policy loading that matches every (realization,
    policy) row to an event at every step and appends every step's
    travel-time column right after the step.  Returns the travel times (R,
    L, T+1) and one ``LoadResult`` per realization, as ``po_ltm``'s values
    and diagnostics."""
    _policy_links(network, policies, splits, scenario)
    T = scenario.horizon_steps
    turns = _Turns(network)
    shares, defining, _, member, decisions, start = _stacked(policies, splits)
    routes = decisions[:, [policies[0].node_index[n] for n in turns.diverge_nodes]]
    R = scenario.n_realizations
    engine = _Engine(turns, scenario, [shares] * R, strict_origin)
    info = engine.travel
    running = np.zeros((R,) + defining.shape[:2])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if t >= 2:
                running += step_distances(defining[..., t - 1], info[:, None, None, :, t - 1])
            event = nearest_events(np.broadcast_to(member[:, t], running.shape), running)
            engine.set_route(routes[start[:, t] + event])
            engine.step(t)
            info[..., t] = engine.columns(t, t + 1)[..., 0]
    info[..., 0] = info[..., 1]
    return info, [engine.result(r) for r in range(R)]

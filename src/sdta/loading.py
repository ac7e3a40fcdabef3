"""Network loading: path-based and chronological policy-based variants.

Both loaders share one node-model engine that advances all cumulative
curves a step at a time; they differ in what a commodity is (a path versus
a policy) and in how vehicles are routed at diverges (static successor
versus the policy decision under the event matched to realized history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonTerminatingTranslation, ValidationError
from .events import (
    TravelTimeDistribution,
    free_flow_distribution,
    links_of,
    nearest_events,
    prefix_distances,
    step_distances,
)
from .choice import SplitSchedule
# The scalar kernels stay the reference the engine is tested against; they
# are re-exported here so code that looks them up on this module still can.
from .kernels import (  # noqa: F401
    XI,
    interp,
    link_travel_time,
    receiving_flow,
    sending_flow,
)
from .network import Network, NodeKind, classify_node
from .policy import Policy
from .scenario import Scenario


@dataclass
class LoaderStats:
    """Instrumentation counters for runtime assertions and benchmarks."""

    time_loops: int = 0
    translations: int = 0
    node_updates: int = 0


@dataclass(frozen=True)
class PathSet:
    """Origin-destination paths with per-step usage fractions.

    ``mu`` has shape (P, T+1); rows follow ``paths`` order and columns sum
    to one at every step (column 0 mirrors column 1).
    """

    paths: tuple[tuple[str, ...], ...]
    mu: np.ndarray

    def __post_init__(self):
        if self.mu.ndim != 2 or self.mu.shape[0] != len(self.paths):
            raise ValidationError("one usage row per path required")
        if len(set(self.paths)) != len(self.paths):
            raise ValidationError("paths must be unique")
        sums = self.mu[:, 1:].sum(axis=0)
        if np.any(self.mu < -1e-12) or np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValidationError("path usage must be a distribution at every step")

    def validate_against(self, network: Network) -> None:
        for path in self.paths:
            node = network.origin
            for link_id in path:
                link = network.link(link_id)
                if link.from_node != node:
                    raise ValidationError(f"path {path} breaks at link {link_id}")
                node = link.to_node
            if node != network.destination:
                raise ValidationError(f"path {path} does not end at the destination")


@dataclass(frozen=True)
class LoadResult:
    """Loader output: link travel times plus conservation diagnostics."""

    travel_times: np.ndarray          # (L, T+1) seconds
    origin_backlog: np.ndarray        # (T+1,) vehicles waiting to enter
    vehicles_in_network: np.ndarray   # (T+1,)
    released: float
    exited: float
    demand_total: float


def _prefix_demand(demand: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Cumulative per-commodity demand: rows (K,), columns (T+1,)."""
    out = np.zeros((shares.shape[0], demand.size))
    np.cumsum(demand[np.newaxis, 1:] * shares[:, 1:], axis=1, out=out[:, 1:])
    return out


class _Turns:
    """A network's node models as turns, grouped by node archetype.

    Flows move along turns: origin -> link, link -> link and link ->
    destination.  A link is fed by one turn (two below a merge) and drains
    through one (two above a diverge).  Turns are ordered by the rule that
    moves them: origin, destination and inhomogeneous nodes first (all
    ``min(supply, receiving)``; the origin is turn 0), then merges (a-sides,
    then b-sides), then diverges (a-sides, then b-sides).  Index L stands
    for the origin's demand as a turn source and for the sink as a target.
    """

    def __init__(self, network: Network):
        L = len(network.links)
        index = network.link_index
        ins = {n: [index[l.id] for l in network.in_links[n]] for n in network.nodes}
        outs = {n: [index[l.id] for l in network.out_links[n]] for n in network.nodes}
        simple = [(L, outs[network.origin][0])]          # (source, target)
        merge_a, merge_b, priority = [], [], []
        diverge_a, diverge_b, self.diverge_nodes = [], [], []
        for node in network.nodes:
            kind = classify_node(network, node)
            if kind is NodeKind.DESTINATION:
                simple.append((ins[node][0], L))
            elif kind is NodeKind.INHOMOGENEOUS:
                simple.append((ins[node][0], outs[node][0]))
            elif kind is NodeKind.MERGE:
                (a, b), (o,) = ins[node], outs[node]
                merge_a.append((a, o))
                merge_b.append((b, o))
                priority.append(network.links[a].merge_priority)
            elif kind is NodeKind.DIVERGE:
                (i,), (a, b) = ins[node], outs[node]
                diverge_a.append((i, a))
                diverge_b.append((i, b))
                self.diverge_nodes.append(node)
        turns = simple + merge_a + merge_b + diverge_a + diverge_b
        src, dst = (np.array(column, dtype=np.int64) for column in zip(*turns))
        ns, m, d, M = len(simple), len(merge_a), len(diverge_a), len(turns)

        def swap(n):   # a-side <-> b-side positions within a group of 2n turns
            return np.r_[np.arange(n, 2 * n), np.arange(n)]

        self.L, self.M = L, M
        self.n_nodes = len(network.nodes)
        self.links = network.links
        self.dest_in = ins[network.destination][0]
        self.src = src
        self.simple = slice(0, ns)
        self.merge = slice(ns, ns + 2 * m)
        self.diverge = slice(ns + 2 * m, M)
        # indices into the flattened (supply | receiving) rows of width L+1
        self.simple_ends = np.array([src[self.simple], L + 1 + dst[self.simple]])
        merge_src = src[self.merge]
        self.merge_ends = np.array([merge_src, merge_src[swap(m)], L + 1 + dst[self.merge]])
        self.merge_share = np.array(priority + [1.0 - p for p in priority])
        self.diverge_other = ns + 2 * m + swap(d)
        self.diverge_target = dst[self.diverge]
        self.diverge_receiving = L + 1 + self.diverge_target
        self.diverge_in = [i for i, _ in diverge_a]
        self.diverge_of_turn = np.r_[np.arange(d), np.arange(d)]
        # feed[first | second, side, link]: turns into a link's upstream end
        # (side 0) and out of its downstream end (side 1).  M names the
        # all-zero row of the turn-flow table.
        feed = np.full((2, 2, L), M, dtype=np.int64)
        for turn, (s, o) in enumerate(turns):
            for side, link in ((0, o), (1, s)):
                if link < L:
                    feed[int(feed[0, side, link] != M), side, link] = turn
        self.feed = feed

    def path_routes(self, paths: Sequence[Sequence[str]], network: Network) -> np.ndarray:
        """Route table (path, diverge) -> index of the link each path takes
        after the diverge's in-link, or -1 where the path does not pass."""
        index = network.link_index
        route = np.full((len(paths), len(self.diverge_in)), -1, dtype=np.int64)
        for k, path in enumerate(paths):
            successor = {index[a]: index[b] for a, b in zip(path, path[1:])}
            route[k] = [successor.get(in_link, -1) for in_link in self.diverge_in]
        return route


class _Engine:
    """Array-backed LTM step engine for a batch of realizations.

    Every cumulative count lives in ``curves[realization, side, link, row,
    step]``: side 0 is a link's upstream end and side 1 its downstream end,
    row 0 the aggregate and rows 1..K the commodities.  ``up``/``down`` are
    the aggregate (R, L, T+1) views and ``up_by``/``down_by`` the
    (R, L, K, T+1) commodity views.  A step computes one flow per turn (see
    ``_Turns``) for every realization at once, each archetype group with a
    fixed number of array operations, and adds at most two turns into every
    curve.  Step t reads samples up to t-1 only, so the order of nodes never
    matters.  Realizations share nothing but the network: reductions run
    along the commodity axis only, so each realization's numbers are those
    of a batch of one.
    """

    def __init__(
        self,
        turns: _Turns,
        capacities: Sequence[dict[str, np.ndarray]],
        dt: float,
        horizon_steps: int,
        n_commodities: int,
        strict_origin: bool,
    ):
        L, M, K, T, R = turns.L, turns.M, n_commodities, horizon_steps, len(capacities)
        self.turns = turns
        self.L, self.K, self.T, self.R, self.dt = L, K, T, R, dt
        self.strict_origin = strict_origin
        self.curves = np.zeros((R, 2, L, K + 1, T + 1))
        self.up, self.down = self.curves[:, 0, :, 0], self.curves[:, 1, :, 0]
        self.up_by, self.down_by = self.curves[:, 0, :, 1:], self.curves[:, 1, :, 1:]
        self.released_by = np.zeros((R, K))
        self.origin_flow = np.zeros((R, T + 1))   # aggregate release per step
        links = turns.links
        self.free_time = np.maximum([l.free_flow_time for l in links], dt)
        self.slack = np.zeros((2, L))         # added to the (sending | receiving) lookbacks
        self.slack[1] = [l.storage for l in links]
        steps = np.arange(T + 1)
        self.capacity = np.stack([
            np.stack([c[l.id][np.minimum(steps, c[l.id].size - 1)] for l in links], axis=1)
            for c in capacities
        ], axis=1)  # (T+1, R, L)
        self._lookback_tables()
        self._flow = np.zeros((R, 2, L + 1))  # sending | receiving, column L: origin | sink
        self._flow[:, 1, L] = np.inf
        self._weights = np.zeros((R, L + 1, K))   # row L: origin demand
        self._turn_flows = np.zeros((R, M + 1, K + 1))
        self._mask = np.zeros((R, M - turns.diverge.start, K))   # see set_route

    def _lookback_tables(self) -> None:
        """Flat curve indices and weights of the step-t lookbacks.

        Sending reads the upstream curves at (t+1)dt - L/vf, receiving the
        aggregate downstream curve at (t+1)dt - L/w, interpolated as
        ``interp`` does: clamped at the last recorded sample t-1, and 0 at
        or before time 0.  ``look[t]`` holds each link's aggregate upstream
        then downstream sample index within one realization; the reads of a
        step are, in order, aggregate up, aggregate down and commodity up by
        (link, commodity), and ``read_link``/``read_offset`` map them onto
        ``look``, with each realization's offset in ``read_offset``'s rows.
        """
        L, K, T1, dt = self.L, self.K, self.T + 1, self.dt
        steps = np.arange(T1)
        last = np.maximum(steps - 1, 0)[:, None]

        def table(lag):
            q = ((steps + 1) * dt)[:, None] - lag[None, :]
            x = q / dt
            lo = x.astype(np.int64)
            inside = (q > 0.0) & (lo < last)
            frac = np.where(inside, x - lo, 0.0)
            lo = np.where(inside, lo, np.where(q > 0.0, last, 0))
            return lo, frac

        links = self.turns.links
        lo_f, frac_f = table(np.array([l.free_flow_time for l in links]))
        lo_w, frac_w = table(np.array([l.backward_wave_time for l in links]))
        row = np.arange(L) * (K + 1) * T1          # curve (side 0, link, row 0)
        batch = np.arange(self.R)[:, None] * (2 * L * (K + 1) * T1)
        self.look = np.hstack([lo_f + row, lo_w + row + L * (K + 1) * T1])
        self.look_frac = np.hstack([frac_f, frac_w])
        self.read_link = np.r_[np.arange(2 * L), np.repeat(np.arange(L), K)]
        self.read_offset = batch + np.r_[
            np.zeros(2 * L, np.int64), np.tile(np.arange(1, K + 1) * T1, L)
        ]
        self.up_start = batch + row               # (R, L): sample 0 of each `up` curve
        self.flat = self.curves.reshape(-1)

    def boundary_flows(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Sending (side 0) and receiving (side 1) flow per realization and
        link at step t, (R, 2, L), and the per-commodity gap (R, L, K)
        between the upstream lookback and the downstream count."""
        L = self.L
        prev = self.curves[..., t - 1]
        at = self.look[t].take(self.read_link) + self.read_offset
        a, b = self.flat.take(at), self.flat.take(at + 1)
        ahead = a + self.look_frac[t].take(self.read_link) * (b - a)
        gap = ahead[:, : 2 * L].reshape(-1, 2, L) + self.slack - prev[:, ::-1, :, 0]
        flows = np.maximum(
            0.0, np.minimum(gap, self.capacity[t][:, None]), out=self._flow[:, :, :L]
        )
        return flows, ahead[:, 2 * L:].reshape(-1, L, self.K) - prev[:, 1, :, 1:]

    def set_route(self, route: np.ndarray) -> None:
        """Route table (R, K, diverges): each commodity's next link index at
        each diverge, or -1 for no decision; holds until the next call."""
        tu = self.turns
        self._mask = (route.swapaxes(1, 2)[:, tu.diverge_of_turn]
                      == tu.diverge_target[:, None]) * 1.0

    def step(self, t: int, cum_demand: np.ndarray) -> None:
        """Move step t's flows; ``cum_demand`` is (R, K, T+1)."""
        tu, L = self.turns, self.L
        flows, gaps = self.boundary_flows(t)
        weights = self._weights
        np.maximum(gaps, 0.0, out=weights[:, :L])
        if self.strict_origin:
            avail = cum_demand[..., t] - cum_demand[..., t - 1]
        else:
            avail = cum_demand[..., t] - self.released_by
        np.maximum(avail, 0.0, out=weights[:, L])

        # commodity weights per turn: the source's gaps (the origin's
        # demand), kept at a diverge only for commodities routed that way
        w = weights.take(tu.src, axis=1)
        w[:, tu.diverge] *= self._mask
        total = np.cumsum(w, axis=2)[..., -1]   # in commodity order, as `sum`
        self._flow[:, 0, L] = total[:, 0]

        g = np.empty((self.R, tu.M))          # aggregate flow per turn
        ends = self._flow.reshape(self.R, -1)
        sup, rec = ends.take(tu.simple_ends, axis=1).swapaxes(0, 1)
        np.minimum(sup, rec, out=g[:, tu.simple])
        if tu.merge.stop > tu.merge.start:
            # Daganzo: everything when it fits, else median(claim, leftover,
            # priority share), as `transition_merge`
            own, other, rec = ends.take(tu.merge_ends, axis=1).swapaxes(0, 1)
            leftover = rec - other
            median = np.maximum(
                np.minimum(own, leftover),
                np.minimum(np.maximum(own, leftover), tu.merge_share * rec),
            )
            g[:, tu.merge] = np.where(own + other <= rec, own, median)
        if tu.diverge.stop > tu.diverge.start:
            # routed gaps throttled by the other branch, as `transition_diverge`;
            # callers ignore overflow, as a subnormal `other` sends the ratio
            # to inf, which `own` clips
            own = total[:, tu.diverge]
            other = total.take(tu.diverge_other, axis=1)
            rec = ends.take(tu.diverge_receiving, axis=1)
            ratio = np.where(other > 0.0, rec * own / other, np.inf)
            g[:, tu.diverge] = np.maximum(0.0, np.minimum(np.minimum(ratio, own), rec))

        # turn flows: aggregate, then split over commodities in proportion
        # to their weights; each curve adds its (at most two) turns
        table = self._turn_flows
        table[:, :-1, 0] = g
        np.divide(g[..., None] * w, (total + XI)[..., None], out=table[:, :-1, 1:])
        self.origin_flow[:, t] = g[:, 0]
        self.released_by += table[:, 0, 1:]
        np.add(self.curves[..., t - 1],
               table.take(tu.feed[0], axis=1) + table.take(tu.feed[1], axis=1),
               out=self.curves[..., t])

    def travel_time_column(self, t: int) -> np.ndarray:
        """Travel time of the vehicle leaving each link at step t, matched
        on the curves as recorded up to step t; (R, L)."""
        exits = self.down[..., t]
        j = np.add.reduce(self.up[..., : t + 1] < exits[..., None], axis=2, dtype=np.int64)
        return _matched_times(self.flat, self.up_start, exits, j, t, t, self.dt, self.free_time)

    def travel_times(self) -> np.ndarray:
        """Every travel time column at once, matched on the finished curves;
        (R, L, T+1) with column 0 mirroring column 1."""
        exits = self.down[..., 1:]
        j = np.array([
            [np.searchsorted(u, e) for u, e in zip(ups, ends)]
            for ups, ends in zip(self.up, exits)
        ])
        out = np.empty((self.R, self.L, self.T + 1))
        out[..., 1:] = _matched_times(
            self.flat, self.up_start[..., None], exits, j, np.arange(1, self.T + 1),
            self.T, self.dt, self.free_time[:, None],
        )
        out[..., 0] = out[..., 1]
        return out

    def check_monotone(self) -> None:
        """Node rules never move a negative flow; a decreasing curve means
        the state is corrupt.  Checked a realization at a time to keep the
        differences small."""
        for curves in self.curves:
            if np.any(np.diff(curves, axis=-1) < -1e-9):
                raise ValidationError("cumulative counts cannot decrease")

    def result(self, r: int, travel_times: np.ndarray, cum_demand: np.ndarray) -> LoadResult:
        """Realization r's diagnostics; ``cum_demand`` holds its own
        commodities only, so the demand totals sum exactly those rows."""
        released = np.cumsum(self.origin_flow[r])
        # per-step totals summed exactly as `cum_demand[:, t].sum()`
        demand = np.ascontiguousarray(cum_demand.T).sum(axis=1)
        backlog = np.maximum(0.0, demand - released)
        backlog[0] = 0.0
        return LoadResult(
            travel_times=travel_times,
            origin_backlog=backlog,
            vehicles_in_network=np.cumsum(self.up[r] - self.down[r], axis=0)[-1],
            released=float(released[-1]),
            exited=float(self.down[r, self.turns.dest_in, -1]),
            demand_total=float(demand[-1]),
        )


def _matched_times(flat, start, exits, j, t, last, dt, fallback):
    """Vectorised ``link_travel_time`` by count matching.

    ``exits`` are downstream counts at steps ``t`` (broadcast over links),
    ``start`` the flat index in ``flat`` of sample 0 of each exit's upstream
    curve, ``last`` the last upstream sample recorded, and ``j`` the first
    upstream sample at or above each count (``last + 1`` when none is).
    Entry time interpolates between samples j-1 and j, which lands exactly
    on sample j's time when it hits the count.  A count a rounding error
    above the last entry (j = last + 1) enters at or after ``last``, so its
    time floors at one step as in ``inverse``.  No exits, or exits further
    above the recorded entries, fall back to free flow.
    """
    j = np.minimum(j, last)
    at = start + j
    lo, hi = flat.take(at - 1), flat.take(at)
    entry = (j - 1 + (exits - lo) / (hi - lo)) * dt
    travel = np.maximum(t * dt - entry, dt)
    reached = (exits > 0.0) & (exits <= flat.take(start + last) + 1e-12)
    return np.where(reached, travel, fallback)


def path_ltm(
    network: Network,
    pathset: PathSet,
    demand: np.ndarray,
    capacity: dict[str, np.ndarray],
    dt: float,
    *,
    strict_origin: bool = False,
    stats: LoaderStats | None = None,
) -> LoadResult:
    """Load fixed paths through one realization's demand and capacity."""
    engine, cum, travel = _load_paths(
        network, [pathset], [demand], [capacity], dt, strict_origin, stats
    )
    return engine.result(0, travel[0], cum[0])


def _load_paths(
    network: Network,
    pathsets: Sequence[PathSet],
    demands: Sequence[np.ndarray],
    capacities: Sequence[dict[str, np.ndarray]],
    dt: float,
    strict_origin: bool,
    stats: LoaderStats | None,
) -> tuple[_Engine, np.ndarray, np.ndarray]:
    """Load each realization's paths in one batched sweep; returns the
    engine, the cumulative demand (R, K, T+1) and the travel times
    (R, L, T+1).

    Path sets differ in size, so every realization gets as many commodities
    as the largest: the extra ones, at the end, carry no demand and take no
    route.  Zeros appended to a commodity-order sum leave it unchanged.
    """
    T = demands[0].size - 1
    for pathset in pathsets:
        pathset.validate_against(network)
        if pathset.mu.shape[1] != T + 1:
            raise ValidationError(
                f"path usage covers {pathset.mu.shape[1] - 1} steps, the demand {T}"
            )
    K = max(len(pathset.paths) for pathset in pathsets)
    turns = _Turns(network)
    engine = _Engine(turns, capacities, dt, T, K, strict_origin)
    cum = np.zeros((len(pathsets), K, T + 1))
    route = np.full((len(pathsets), K, len(turns.diverge_in)), -1, dtype=np.int64)
    for r, (pathset, demand) in enumerate(zip(pathsets, demands)):
        k = len(pathset.paths)
        cum[r, :k] = _prefix_demand(demand, pathset.mu)
        route[r, :k] = turns.path_routes(pathset.paths, network)

    engine.set_route(route)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            engine.step(t, cum)
        travel = engine.travel_times()
    engine.check_monotone()
    if stats is not None:
        stats.time_loops += len(pathsets)
        stats.node_updates += len(pathsets) * T * turns.n_nodes
    return engine, cum, travel


def _translate_info(
    policies: Sequence[Policy],
    splits: SplitSchedule,
    info: np.ndarray,
    dt: float,
) -> PathSet:
    """Realize each policy as one path per departure step against the
    observed history ``info``, (L, T+1).

    Every (policy, departure) walker starts at the origin at its departure
    time, and all move together, one hop a pass: at every node the event
    nearest to the realized history (absolute-difference metric against the
    policy's defining distribution) selects the decision, and the clock
    advances by the in-event expected traversal time rounded to the grid.
    Walkers with the same link sequence pool their fractions.
    """
    first, P = policies[0], len(policies)
    ttd, node_index = first.defining_ttd, first.node_index
    T, ids = ttd.horizon_steps, [link.id for link in ttd.links]
    head = np.array([node_index[l.to_node] for l in ttd.links], dtype=np.int64)
    # per policy and step s: the event nearest to the history before s on its
    # own tree, the decision at every node under it and the advance per link
    shares, defining, probs, member, decisions, start = _stacked(policies, splits)
    event = nearest_events(member, prefix_distances(defining, info).swapaxes(1, 2))
    decision = decisions[start + event]
    advance = _expected_advance(probs, defining, member == event[..., None], dt)

    # walker w is policy w // T departing at step w % T + 1
    walker_policy = np.repeat(np.arange(P), T)
    departure = np.tile(np.arange(1, T + 1), P)
    clock = departure * dt
    node = np.full(P * T, node_index[ttd.origin], dtype=np.int64)
    hops: list[np.ndarray] = []                        # link per walker, -1 once arrived
    while (walking := node != node_index[ttd.destination]).any():
        s = np.clip((clock / dt + 0.5).astype(np.int64), 1, T)
        li = np.where(walking, decision[walker_policy, s, node], -1)
        stuck = walking & (li < 0)
        if stuck.any():
            w = stuck.argmax()
            raise NonTerminatingTranslation(
                f"policy {policies[w // T].label} has no route from node {first.nodes[node[w]]}"
            )
        hops.append(li)
        if len(hops) > 2 * T:
            w = walking.argmax()
            raise NonTerminatingTranslation(f"policy {policies[w // T].label}: walk from step "
                                            f"{departure[w]} exceeded {2 * T} hops")
        clock = clock + advance[walker_policy, s, li]
        node = np.where(walking, head[li], node)

    # number the walks hop by hop, each link by its rank in link-id order
    # and -1 first, so the numbers follow the sorted link sequences
    rank = np.zeros(len(ids) + 1, dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(1, len(ids) + 1)
    path = np.zeros(P * T, dtype=np.int64)
    for li in hops:
        _, walker, path = np.unique(path * (len(ids) + 1) + rank[li],
                                    return_index=True, return_inverse=True)
    paths = tuple(tuple(ids[li] for li in walk if li >= 0) for walk in np.array(hops).T[walker])
    # each (path, step) sums its walkers' fractions in policy order, from 0.0
    mu = np.bincount(path * T + departure - 1, shares[:, 1:].ravel(), len(paths) * T)
    mu = mu.reshape(-1, T)
    return PathSet(paths, np.hstack([mu[:, :1], mu]))


def _stacked(policies: Sequence[Policy], splits: SplitSchedule) -> tuple:
    """A policy set as both loaders read it: split rows (P, T+1), defining
    values (P, R, L, T+1) and probabilities (P, R), event numbers (P, T+1, R),
    and every policy's decision at every node, a row per event column; policy
    p's step-t event e, on its own tree, is row ``start[p, t] + e``."""
    shares = np.stack([splits.row(p.label) for p in policies])
    defining = np.stack([p.defining_ttd.values for p in policies])
    probabilities = np.stack([p.defining_ttd.probabilities for p in policies])
    member = np.stack([p.tree.member for p in policies])
    decisions = np.hstack([p.choices for p in policies]).T
    width = np.cumsum([0] + [p.choices.shape[1] for p in policies[:-1]])
    start = np.stack([p.tree.start for p in policies]) + width[:, None]
    return shares, defining, probabilities, member, decisions, start


def _expected_advance(probs, values, inside, dt: float) -> np.ndarray:
    """Clock advance over every (policy, step, link): the link's expected
    traversal time under the policy's defining ``probs`` (P, R) and
    ``values`` (P, R, L, T+1) over the realizations in that step's event
    (``inside``, (P, T+1, R)), rounded to the grid and at least one step."""
    weights = np.where(inside, probs[:, None], 0.0)
    mean = np.einsum("psr,prls->psl", weights, values) / weights.sum(axis=2)[..., None]
    # The rounding is defined on ``w @ values / w.sum()`` over the event's
    # members; summed in another order, a mean within rounding error of a
    # half step may round the other way, so those few are redone that way.
    x = mean / dt + 0.5
    for p, s, li in zip(*np.nonzero(np.abs(x - np.rint(x)) <= 1e-9 * x)):
        support = np.flatnonzero(inside[p, s])
        w = probs[p, support]
        mean[p, s, li] = w @ values[p, support, li, s] / w.sum()
    return np.maximum(dt, (mean / dt + 0.5).astype(np.int64) * dt)


def iterative_loading(
    network: Network,
    policies: Sequence[Policy],
    splits: SplitSchedule,
    scenario: Scenario,
    k_inner: int,
    *,
    strict_origin: bool = False,
    stats: LoaderStats | None = None,
) -> TravelTimeDistribution:
    """Policy loading by alternating translation and path loading.

    Every realization starts from free flow.  Each of the ``k_inner``
    rounds translates every realization against its current iterate, loads
    all path sets in one batched sweep and averages travel times with step
    size 1/l.  Policies must be defined on the network's links, as in
    ``po_ltm``.
    """
    if k_inner < 1:
        raise ValidationError("need at least one inner iteration")
    links = _policy_links(network, policies, splits, scenario)
    free = free_flow_distribution(network, scenario)
    dt, reals = scenario.dt, scenario.realizations
    demands = [real.demand for real in reals]
    capacities = [real.capacity for real in reals]

    current = np.repeat(free.values[:1], len(reals), axis=0)
    for l in range(1, k_inner + 1):
        pathsets = [_translate_info(policies, splits, info, dt) for info in current]
        if stats is not None:
            stats.translations += len(reals)
        _, _, travel = _load_paths(
            network, pathsets, demands, capacities, dt, strict_origin, stats
        )
        alpha = 1.0 / l
        current = (1.0 - alpha) * current + alpha * travel
    return TravelTimeDistribution(
        current, dt, scenario.probabilities, links, network.origin, network.destination,
    )


def _policy_links(
    network: Network, policies: Sequence[Policy], splits: SplitSchedule, scenario: Scenario
) -> tuple:
    """The network's links, on which every policy must be defined, in the
    network's order, since its decisions are link indices, over as many
    realizations.  Policies and splits must cover the scenario's horizon."""
    links = links_of(network)
    if any(p.defining_ttd.links != links for p in policies):
        raise ValidationError("policies must be defined on the network's links, in its order")
    if len({p.defining_ttd.n_realizations for p in policies}) > 1:
        raise ValidationError("policies must be defined on distributions of as many realizations")
    T = scenario.horizon_steps
    if splits.horizon_steps != T or any(p.horizon_steps != T for p in policies):
        raise ValidationError(f"policies and splits must cover the scenario's {T} steps")
    return links


def po_ltm(
    network: Network,
    policies: Sequence[Policy],
    splits: SplitSchedule,
    scenario: Scenario,
    *,
    strict_origin: bool = False,
    stats: LoaderStats | None = None,
    diagnostics: list | None = None,
) -> TravelTimeDistribution:
    """Chronological policy loading: one pass over time for all realizations.

    Policies are the commodities.  At every step each realization's travel
    times written so far pick each policy's event (incrementally accumulated
    absolute-difference metric), whose decisions at the diverges form that
    step's route table; after moving flows the step's travel times are
    appended to the realized history.  Every policy must be defined on the
    network's links in the network's order, since its decisions are link
    indices.  ``diagnostics`` (a list, if given) receives one LoadResult per
    realization, in order, for conservation checks.
    """
    links = _policy_links(network, policies, splits, scenario)
    T = scenario.horizon_steps
    K = len(policies)
    turns = _Turns(network)
    shares, defining, _, member, decisions, start = _stacked(policies, splits)
    # every policy's next link (or -1) at each diverge, a row per event column
    routes = decisions[:, [policies[0].node_index[n] for n in turns.diverge_nodes]]
    reals = scenario.realizations
    engine = _Engine(turns, [real.capacity for real in reals], scenario.dt, T, K, strict_origin)
    cum = np.stack([_prefix_demand(real.demand, shares) for real in reals])
    info = np.zeros((len(reals), len(network.links), T + 1))
    running = np.zeros((len(reals),) + defining.shape[:2])        # (R, K, R')

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if t >= 2:
                running += step_distances(defining[..., t - 1], info[:, None, None, :, t - 1])
            event = nearest_events(np.broadcast_to(member[:, t], running.shape), running)
            engine.set_route(routes[start[:, t] + event])
            engine.step(t, cum)
            info[..., t] = engine.travel_time_column(t)
    engine.check_monotone()
    if stats is not None:
        stats.time_loops += len(reals)
        stats.node_updates += len(reals) * T * turns.n_nodes
    info[..., 0] = info[..., 1]
    if diagnostics is not None:
        for r in range(len(reals)):
            diagnostics.append(engine.result(r, info[r], cum[r]))
    return TravelTimeDistribution(
        info, scenario.dt, scenario.probabilities, links, network.origin, network.destination,
    )


def single_route_pathset(network: Network, horizon_steps: int) -> PathSet:
    """The unique origin-destination path on a diverge-free network."""
    node = network.origin
    path: list[str] = []
    seen = set()
    while node != network.destination:
        outs = network.out_links[node]
        if len(outs) != 1 or node in seen:
            raise ValidationError("network does not have a unique route")
        seen.add(node)
        path.append(outs[0].id)
        node = outs[0].to_node
    mu = np.ones((1, horizon_steps + 1))
    return PathSet((tuple(path),), mu)

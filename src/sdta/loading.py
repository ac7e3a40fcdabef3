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
    moves them: origin, destination and inhomogeneous nodes first (the
    origin is turn 0), then merges (a-sides, then b-sides), then diverges
    (a-sides, then b-sides).  The first two groups move by the merge rule: a
    simple turn is a merge whose partner claims nothing and whose priority
    share is 1, which is exactly ``min(supply, receiving)``.  Index L stands
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
        self.origin_link = outs[network.origin][0]
        self.dest_in = ins[network.destination][0]
        self.src = src
        self.ruled = slice(0, ns + 2 * m)
        self.diverge = slice(ns + 2 * m, M)
        # rows of the engine's flow ends: sending 0..L-1, receiving L..2L-1,
        # the sink 2L, a zero row 2L+1 and the turns' weight totals from 2L+2
        # (turn 0's is the origin's supply).  Per ruled turn: its own claim,
        # its partner's (the zero row for a simple turn) and its target's
        # receiving flow; per diverge turn: its target's receiving flow and
        # the other branch's total.
        total = 2 * L + 2
        ruled = np.arange(ns + 2 * m)
        own = np.where(src[ruled] < L, src[ruled], total)
        other = np.r_[np.full(ns, 2 * L + 1), src[ns:ns + 2 * m][swap(m)]]
        self.ends = np.r_[own, other, L + dst[ruled], L + dst[self.diverge],
                          total + ns + 2 * m + swap(d)]
        self.merge_share = np.array(priority + [1.0 - p for p in priority])
        self.share = np.r_[np.ones(ns), self.merge_share][:, None]
        self.diverge_target = dst[self.diverge]
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


# Constants of the step as 0-d arrays, which ufuncs take without converting.
_ZERO, _XI = np.array(0.0), np.array(XI)


def _checked(index: np.ndarray, size: int) -> np.ndarray:
    """A gather table, once its entries are known to lie in [0, size):
    the step gathers with ``mode="clip"``, which never raises."""
    if index.size and (index.min() < 0 or index.max() >= size):
        raise ValueError(f"gather index outside [0, {size})")
    return index


class _Engine:
    """Array-backed LTM step engine for a batch of realizations.

    Every cumulative count lives in ``C[step, row, side, link,
    realization]``: side 0 is a link's upstream end and side 1 its
    downstream end, row 0 the aggregate and rows 1..K the commodities.  A
    step reads and writes whole blocks with realizations innermost: one
    gather per lookback sample reads every sending, receiving and commodity
    entry, and every temporary is written with ``out=`` into buffers made
    once.  ``curves`` views the same counts as [realization, side, link,
    row, step]; ``up``/``down`` are its aggregate (R, L, T+1) views and
    ``up_by``/``down_by`` the (R, L, K, T+1) commodity views.

    A step computes one flow per turn (see ``_Turns``) for every
    realization at once, each archetype group with a fixed number of array
    operations, and adds at most two turns into every curve.  Step t reads
    samples up to t-1 only, so the order of nodes never matters.  The
    origin keeps no counts of its own: what it has released by step t-1 is
    the origin link's upstream count then, the same sequential sum of the
    same flows.  Realizations share nothing but the network: reductions run
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
        L, K, T, R = turns.L, n_commodities, horizon_steps, len(capacities)
        self.turns = turns
        self.L, self.K, self.T, self.R, self.dt = L, K, T, R, dt
        self.strict_origin = strict_origin
        self.C = np.zeros((T + 1, K + 1, 2, L, R))
        self.curves = self.C.transpose(4, 2, 3, 1, 0)
        self.up, self.down = self.curves[:, 0, :, 0], self.curves[:, 1, :, 0]
        self.up_by, self.down_by = self.curves[:, 0, :, 1:], self.curves[:, 1, :, 1:]
        links = turns.links
        self.free_time = np.maximum([l.free_flow_time for l in links], dt)[:, None]
        self.storage = np.array([l.storage for l in links])[:, None]
        self.capacity = np.empty((T + 1, L, R))
        steps = np.arange(T + 1)
        for r, capacity in enumerate(capacities):
            for i, link in enumerate(links):
                series = capacity[link.id]
                self.capacity[:, i, r] = series[np.minimum(steps, series.size - 1)]
        self._lookback_tables()
        self._buffers()

    def _lookback_tables(self) -> None:
        """Rows and weights of the step-t lookbacks.

        Sending reads the upstream curves at (t+1)dt - L/vf, receiving the
        aggregate downstream curve at (t+1)dt - L/w, interpolated as
        ``interp`` does: clamped at the last recorded sample t-1, and 0 at
        or before time 0.  A row of ``_rows`` holds the R counts of one
        (step, row, side, link); ``_read[t]`` holds the row of the earlier
        sample of every entry, the aggregate upstream (sending) and
        downstream (receiving) read and each commodity's upstream read, by
        link.  ``_frac[t]`` holds the sending and receiving weight, which
        the commodity reads share with sending.  The later sample is the
        same row a step on, a row of ``_next``.
        """
        L, K, T, dt = self.L, self.K, self.T, self.dt
        S = (K + 1) * 2 * L                        # rows per step
        steps = np.arange(T + 1)
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
        read = np.empty((T + 1, K + 2, L), dtype=np.int64)
        read[:, 0] = lo_f * S + np.arange(L)
        read[:, 1] = lo_w * S + np.arange(L, 2 * L)
        read[:, 2:] = read[:, :1] + (np.arange(1, K + 1) * 2 * L)[:, None]
        self._read = _checked(read, T * S)
        self._frac = np.stack([frac_f, frac_w], axis=1)[..., None]
        self._rows = self.C.reshape(-1, self.R)
        self._next = self._rows[S:]
        # the aggregate upstream curves with steps last, as far as copied
        # (see ``_upstream``), and the flat index of each curve's sample 0
        self._up_last = np.zeros((self.R, L, T + 1))
        self._up_copied = 0
        self._up_start = (np.arange(self.R)[:, None] * L + np.arange(L))[..., None] * (T + 1)

    def _buffers(self) -> None:
        """Every temporary of a step, and its views."""
        tu, L, K, R = self.turns, self.L, self.K, self.R
        M, n = tu.M, tu.ruled.stop
        # earlier | later lookback samples, the earlier one interpolated in
        # place: sending and receiving entries, then the commodities'
        self._early, self._late = np.empty((2, K + 2, L, R))
        self._ahead, self._ahead_by = self._early[:2], self._early[2:]
        self._receiving = self._early[1]
        self._diff = np.empty((K + 2, L, R))
        self._diff_ends, self._diff_by = self._diff[:2], self._diff[2:]
        # flow ends (rows as ``_Turns.ends`` names them): the sink's receiving
        # flow is infinite
        self._ends = np.zeros((2 * L + 2 + M, R))
        self._ends[2 * L] = np.inf
        self._bounds = self._ends[: 2 * L].reshape(2, L, R)
        self._total = self._ends[2 * L + 2:]
        # commodity weights (K, L+1, R), column L the origin's demand, then a
        # zero cell that masked diverge turns read
        self._wflat = np.zeros(K * (L + 1) * R + 1)
        self._weights = self._wflat[:-1].reshape(K, L + 1, R)
        self._gap_by, self._avail = self._weights[:, :L], self._weights[:, L]
        self._wsrc = _checked((np.arange(K)[:, None] * (L + 1) + tu.src)[..., None] * R
                              + np.arange(R), self._wflat.size)
        self._widx = self._wsrc.copy()
        self._widx[:, tu.diverge] = self._wflat.size - 1   # no route until set_route
        self._w = np.empty((K, M, R))             # weights per turn
        self._w_by = list(self._w)
        self._e = np.empty((tu.ends.size, R))
        self._own, self._other, self._rec = self._e[: 3 * n].reshape(3, n, R)
        self._div_rec, self._div_other = self._e[3 * n:].reshape(2, M - n, R)
        self._lo, self._hi = np.empty((2, n, R))
        self._fits = np.empty((n, R), dtype=bool)
        self._ratio = np.empty((M - n, R))
        self._own_div = self._total[n:]
        # turn flows: row 0 aggregate, rows 1..K commodities; turn M is zero
        self._turn = np.zeros((K + 1, M + 1, R))
        self._g = self._turn[0, :M]
        self._g_ruled, self._g_div = self._g[:n], self._g[n:]
        self._turn_by = self._turn[1:, :-1]
        self._split = np.empty((K, M, R))
        self._denominator = np.empty((M, R))
        self._turn_rows = self._turn.reshape(-1, R)
        self._feed = _checked(np.arange(K + 1)[:, None, None] * (M + 1) + tu.feed[:, None],
                              self._turn_rows.shape[0])
        self._fed = np.empty((2, K + 1, 2, L, R))
        self._fed_first, self._fed_second = self._fed
        _checked(tu.ends, self._ends.shape[0])

    def _boundary(self, t: int) -> None:
        """Sending and receiving flows into ``_bounds`` and the commodity
        gaps into ``_gap_by``, at step t."""
        early, diff, read, frac = self._early, self._diff, self._read[t], self._frac[t]
        self._rows.take(read, 0, early, "clip")
        self._next.take(read, 0, self._late, "clip")
        np.subtract(self._late, early, out=diff)
        np.multiply(frac, self._diff_ends, out=self._diff_ends)
        np.multiply(frac[0], self._diff_by, out=self._diff_by)
        np.add(early, diff, out=early)
        np.add(self._receiving, self.storage, out=self._receiving)
        prev = self.C[t - 1]
        np.subtract(self._ahead, prev[0, ::-1], out=self._bounds)
        np.minimum(self._bounds, self.capacity[t], out=self._bounds)
        np.maximum(_ZERO, self._bounds, out=self._bounds)
        np.subtract(self._ahead_by, prev[1:, 1], out=self._gap_by)

    def boundary_flows(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Sending (side 0) and receiving (side 1) flow per realization and
        link at step t, (R, 2, L), and the per-commodity gap (R, L, K)
        between the upstream lookback and the downstream count."""
        self._boundary(t)
        return self._bounds.transpose(2, 0, 1), self._gap_by.transpose(2, 1, 0)

    def set_route(self, route: np.ndarray) -> None:
        """Route table (R, K, diverges): each commodity's next link index at
        each diverge, or -1 for no decision; holds until the next call.  A
        diverge turn a commodity is not routed along reads a zero weight."""
        tu = self.turns
        keep = route.transpose(1, 2, 0)[:, tu.diverge_of_turn] == tu.diverge_target[:, None]
        self._widx[:, tu.diverge] = np.where(keep, self._wsrc[:, tu.diverge],
                                             self._wflat.size - 1)

    def step(self, t: int, cum_demand: np.ndarray) -> None:
        """Move step t's flows; ``cum_demand`` is (R, K, T+1)."""
        tu = self.turns
        self._boundary(t)
        if self.strict_origin:
            np.subtract(cum_demand[..., t].T, cum_demand[..., t - 1].T, out=self._avail)
        else:
            np.subtract(cum_demand[..., t].T, self.C[t - 1, 1:, 0, tu.origin_link],
                        out=self._avail)
        np.maximum(self._weights, _ZERO, out=self._weights)

        # commodity weights per turn: the source's gaps (the origin's
        # demand), zero at a diverge for commodities routed the other way;
        # their total summed in commodity order
        w, total = self._w, self._total
        self._wflat.take(self._widx, None, w, "clip")
        first, *others = self._w_by
        if others:
            np.add(first, others[0], out=total)
            for w_k in others[1:]:
                np.add(total, w_k, out=total)
        else:
            np.copyto(total, first)

        # Daganzo: everything when it fits, else median(claim, leftover,
        # priority share), as `transition_merge`
        g = self._g_ruled
        own, other, rec, lo, hi = self._own, self._other, self._rec, self._lo, self._hi
        self._ends.take(tu.ends, 0, self._e, "clip")
        np.subtract(rec, other, out=hi)                  # leftover
        np.minimum(own, hi, out=lo)
        np.maximum(own, hi, out=hi)
        np.minimum(hi, np.multiply(tu.share, rec, out=g), out=hi)
        np.maximum(lo, hi, out=g)
        np.less_equal(np.add(own, other, out=hi), rec, out=self._fits)
        np.copyto(g, own, where=self._fits)
        if self._ratio.size:
            # routed gaps throttled by the other branch, as `transition_diverge`:
            # with no other total the ratio is unbounded, and `fmin` drops the
            # NaN or inf of a division by zero as that bound would; callers
            # ignore overflow, as a subnormal `other` sends the ratio to inf,
            # which `own` clips
            own, ratio = self._own_div, self._ratio
            np.divide(np.multiply(self._div_rec, own, out=ratio), self._div_other, out=ratio)
            np.minimum(np.fmin(ratio, own, out=ratio), self._div_rec, out=ratio)
            np.maximum(_ZERO, ratio, out=self._g_div)

        # turn flows: aggregate, then split over commodities in proportion
        # to their weights; each curve adds its (at most two) turns
        np.divide(np.multiply(self._g, w, out=self._split),
                  np.add(total, _XI, out=self._denominator), out=self._turn_by)
        first, second = self._fed_first, self._fed_second
        self._turn_rows.take(self._feed, 0, self._fed, "clip")
        np.add(self.C[t - 1], np.add(first, second, out=first), out=self.C[t])

    def _upstream(self, b: int) -> np.ndarray:
        """The aggregate upstream curves up to step b-1 with steps last, (R,
        L, b), as matching reads whole curves.  Each step is copied out of
        ``C`` the first time it is read, by then moved and final."""
        done = self._up_copied
        if b > done:
            self._up_last[..., done:b] = self.C[done:b, 0, 0].transpose(2, 1, 0)
            self._up_copied = b
        return self._up_last[..., :b]

    def columns(self, a: int, b: int) -> np.ndarray:
        """Travel time of the vehicle leaving each link at steps a..b-1,
        each matched on the curves as recorded up to its own step; (R, L,
        b - a).  A single step compares its exit counts with every recorded
        upstream sample.  More steps search the samples up to b-1 instead:
        an upstream count never decreases, so the samples below an exit
        count are a prefix of the curve, and capping their number at the
        column's own step counts the same."""
        up, exits = self._upstream(b), self.C[a:b, 0, 1].transpose(2, 1, 0)
        if b - a == 1:
            j = np.add.reduce(up < exits, axis=2, dtype=np.int64)[..., None]
        else:
            j = self._below(up, exits)
        steps = np.arange(a, b)
        return _matched_times(self._up_last, self._up_start, exits, j, steps, steps, self.dt,
                              self.free_time)

    def _below(self, up: np.ndarray, exits: np.ndarray) -> np.ndarray:
        """How many samples of each upstream curve (R, L, b) lie below each
        of ``exits`` (R, L, n), by binary search."""
        j = np.empty(exits.shape, dtype=np.int64)
        for r in range(self.R):
            for i in range(self.L):
                j[r, i] = np.searchsorted(up[r, i], exits[r, i])
        return j

    def travel_time_column(self, t: int) -> np.ndarray:
        """Travel time of the vehicle leaving each link at step t, matched
        on the curves as recorded up to step t; (R, L)."""
        return self.columns(t, t + 1)[..., 0]

    def travel_times(self) -> np.ndarray:
        """Every travel time column at once, matched on the finished curves;
        (R, L, T+1) with column 0 mirroring column 1."""
        T = self.T
        up, exits = self._upstream(T + 1), self.C[1:, 0, 1].transpose(2, 1, 0)
        out = np.empty((self.R, self.L, T + 1))
        out[..., 1:] = _matched_times(self._up_last, self._up_start, exits,
                                      self._below(up, exits), np.arange(1, T + 1), T, self.dt,
                                      self.free_time)
        out[..., 0] = out[..., 1]
        return out

    def check_monotone(self) -> None:
        """Node rules never move a negative flow; a decreasing curve means
        the state is corrupt.  Checked a realization at a time to keep the
        differences small."""
        for r in range(self.R):
            if np.any(np.diff(self.C[..., r], axis=0) < -1e-9):
                raise ValidationError("cumulative counts cannot decrease")

    def result(self, r: int, travel_times: np.ndarray, cum_demand: np.ndarray) -> LoadResult:
        """Realization r's diagnostics; ``cum_demand`` holds its own
        commodities only, so the demand totals sum exactly those rows."""
        released = self.up[r, self.turns.origin_link]
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


def _matched_times(curves, start, exits, j, t, last, dt, fallback):
    """Vectorised ``link_travel_time`` by count matching.

    ``exits`` are downstream counts at steps ``t`` (broadcast over links),
    ``start`` the flat index in ``curves`` of sample 0 of each exit's
    upstream curve, ``last`` the last upstream sample recorded, and ``j``
    the first upstream sample at or above each count (``last + 1`` when
    none is).  Entry time interpolates between samples j-1 and j, which
    lands exactly on sample j's time when it hits the count.  A count a
    rounding error above the last entry (j = last + 1) enters at or after
    ``last``, so its time floors at one step as in ``inverse``.  No exits,
    or exits further above the recorded entries, fall back to free flow.
    """
    flat = curves.reshape(-1)
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
    stacked: tuple | None = None,
) -> PathSet:
    """Realize each policy as one path per departure step against the
    observed history ``info``, (L, T+1); ``stacked`` is the set as
    ``_stacked`` reads it, if the caller has it already.

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
    if stacked is None:
        stacked = _stacked(policies, splits)
    shares, defining, probs, member, decisions, start = stacked
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


def _stacked(policies: Sequence[Policy], splits: SplitSchedule, nodes=slice(None)) -> tuple:
    """A policy set as both loaders read it: split rows (P, T+1), defining
    values (P, R, L, T+1) and probabilities (P, R), event numbers (P, T+1, R),
    and every policy's decision at each of ``nodes`` (positions in the node
    order; all by default), a row per event column; policy p's step-t event
    e, on its own tree, is row ``start[p, t] + e``."""
    shares = np.stack([splits.row(p.label) for p in policies])
    defining = np.stack([p.defining_ttd.values for p in policies])
    probabilities = np.stack([p.defining_ttd.probabilities for p in policies])
    member = np.stack([p.tree.member for p in policies])
    decisions = np.hstack([p.choices[nodes] for p in policies]).T
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
    stacked = _stacked(policies, splits)
    for l in range(1, k_inner + 1):
        pathsets = [_translate_info(policies, splits, info, dt, stacked) for info in current]
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
    times of the steps before pick each policy's event (incrementally
    accumulated absolute-difference metric), whose decisions at the
    diverges form that step's route table; the step's travel times then
    join the realized history.  Every policy must be defined on the
    network's links in the network's order, since its decisions are link
    indices.  ``diagnostics`` (a list, if given) receives one LoadResult per
    realization, in order, for conservation checks.

    Events are matched only at steps where some policy's diverge decisions
    differ between the step's events; at every other step any event gives
    the same route table.  So a step's travel times and their distances are
    computed when a later match reads them, a bounded chunk of steps at a
    time and still summed in step order, and the remaining travel times
    after the last step.
    """
    links = _policy_links(network, policies, splits, scenario)
    T, K, R = scenario.horizon_steps, len(policies), len(scenario.realizations)
    turns = _Turns(network)
    diverges = [policies[0].node_index[n] for n in turns.diverge_nodes]
    # every policy's next link (or -1) at each diverge, a row per event column
    shares, defining, _, member, routes, start = _stacked(policies, splits, diverges)
    matched, changed = _route_steps(policies, routes, start)
    reals = scenario.realizations
    engine = _Engine(turns, [real.capacity for real in reals], scenario.dt, T, K, strict_origin)
    cum = np.stack([_prefix_demand(real.demand, shares) for real in reals])
    info = np.empty((R, len(links), T + 1))
    running = np.zeros((R,) + defining.shape[:2])  # (R, K, R')
    known = 1                                      # info and running hold steps < known

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if matched[t]:
                _fill_columns(engine, info, known, t)
                running = _add_distances(running, defining, info, known, t)
                known = t
                event = nearest_events(np.broadcast_to(member[:, t], running.shape), running)
                engine.set_route(routes[start[:, t] + event])
            elif changed[t]:
                fixed = routes[start[:, t]]              # under each policy's first event
                engine.set_route(np.broadcast_to(fixed, (R,) + fixed.shape))
            engine.step(t, cum)
        _fill_columns(engine, info, known, T + 1)
    engine.check_monotone()
    if stats is not None:
        stats.time_loops += R
        stats.node_updates += R * T * turns.n_nodes
    info[..., 0] = info[..., 1]
    if diagnostics is not None:
        for r in range(R):
            diagnostics.append(engine.result(r, info[r], cum[r]))
    return TravelTimeDistribution(
        info, scenario.dt, scenario.probabilities, links, network.origin, network.destination,
    )


def _route_steps(policies: Sequence[Policy], routes: np.ndarray, start: np.ndarray) -> tuple:
    """Where ``po_ltm`` must match: the steps at which some policy's route
    differs between the step's events, and the steps whose route table may
    differ from the step before's; (T+1,) bool each."""
    level = np.concatenate([p.tree.level_of for p in policies])
    owner = np.repeat(np.arange(len(policies)), [p.tree.level_of.size for p in policies])
    differs = np.any(routes != routes[start[owner, level]], axis=1)
    T = start.shape[1] - 1
    matched = np.bincount(level, differs, T + 1) > 0
    fixed = routes[start]
    changed = np.ones(T + 1, dtype=bool)
    changed[2:] = np.any(fixed[:, 2:] != fixed[:, 1:-1], axis=(0, 2)) | matched[1:-1]
    return matched, changed


# Bytes of temporaries one chunk of deferred columns or distances may take.
_CHUNK_BYTES = 1 << 18


def _fill_columns(engine: _Engine, info: np.ndarray, a: int, b: int) -> None:
    """Travel-time columns of steps a..b-1 into ``info`` (R, L, T+1), each
    matched on the curves as recorded up to its own step."""
    n = max(1, _CHUNK_BYTES // (64 * engine.L * engine.R))   # about eight temporaries
    for lo in range(a, b, n):
        hi = min(lo + n, b)
        info[..., lo:hi] = engine.columns(lo, hi)


def _add_distances(running: np.ndarray, defining: np.ndarray, info: np.ndarray,
                   a: int, b: int) -> np.ndarray:
    """``running`` (R, K, R') plus the ``step_distances`` between the
    defining values (K, R', L, T+1) and the travel times ``info`` (R, L, T+1)
    of steps a..b-1, added a step at a time in step order."""
    n = max(1, _CHUNK_BYTES // (16 * running.size * info.shape[1]))
    for lo in range(a, b, n):
        hi = min(lo + n, b)
        steps = step_distances(defining[..., lo:hi].transpose(3, 0, 1, 2)[:, None],
                               info[..., lo:hi].transpose(2, 0, 1)[:, :, None, None])
        running = np.cumsum(np.concatenate([running[None], steps]), axis=0)[-1]
    return running


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

"""Spans and call counts around the calls into each ``sdta`` layer.

The tracer replaces module attributes that callers look up at call time
(``sdta.equilibrium.po_ltm``, ``sdta.policy._run_dot_spi``, ...) with
wrappers, and puts the originals back on exit.  Nothing inside the program
changes.  Spans stay in memory until the run writes them once at the end.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import sdta.choice
import sdta.equilibrium
import sdta.kernels
import sdta.loading
import sdta.network
import sdta.policy
import sdta.scenario

# (module, attribute, span name).  One name may wrap the same function where
# several modules import it, so every caller's lookup is seen.
SPANS = (
    (sdta.network, "parse_network", "network.parse_network"),
    (sdta.scenario, "parse_scenario", "scenario.parse_scenario"),
    (sdta.equilibrium, "msa_solve", "equilibrium.msa_solve"),
    (sdta.equilibrium, "generate_policies", "policy.generate_policies"),
    (sdta.policy, "generate_policies", "policy.generate_policies"),
    (sdta.policy, "round_to_grid", "events.round_to_grid"),
    (sdta.policy, "generate_events", "events.generate_events"),
    (sdta.policy, "_run_dot_spi", "policy.dot_spi"),
    (sdta.policy, "horizon_shortest", "policy.horizon_shortest"),
    (sdta.policy, "lp_policy", "policy.lp_policy"),
    (sdta.equilibrium, "splits_for", "choice.splits_for"),
    (sdta.choice, "splits_for", "choice.splits_for"),
    (sdta.equilibrium, "po_ltm", "loading.po_ltm"),
    (sdta.equilibrium, "iterative_loading", "loading.iterative_loading"),
    (sdta.loading, "_translate_info", "loading.translate"),
    (sdta.loading, "path_ltm", "loading.path_ltm"),
)

# Kernels run millions of times a solve, so they get a count and no span.
COUNTS = (
    (sdta.loading, "sending_flow", "kernels.sending_flow.calls"),
    (sdta.loading, "receiving_flow", "kernels.receiving_flow.calls"),
    (sdta.loading, "link_travel_time", "kernels.link_travel_time.calls"),
    (sdta.loading, "interp", "kernels.interp.calls"),
    (sdta.kernels, "interp", "kernels.interp.calls"),
)

ROOT_SPAN = "solve"  # the span around one repetition's top-level call


class Tracer:
    """Collects spans as [name, start, end, parent index, repetition id] and
    call counts per repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self._rep_id = ""
        self._stack: list[int] = []

    def rep_id(self, rep: str) -> str:
        return f"{self.run_id}/{rep}"

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._rep_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap_span(self, name: str, fn, counts: Counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "events.generate_events":
                counts["events.tree_events"] += sum(
                    len(result.events_at(t)) for t in range(1, result.horizon_steps + 1)
                )
            return result
        return traced

    @staticmethod
    def _wrap_count(name: str, fn, counts: Counter):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self, rep: str):
        """Wrap every listed attribute while repetition ``rep`` runs."""
        self._rep_id = self.rep_id(rep)
        counts = self.counts.setdefault(self._rep_id, Counter())
        saved = []
        try:
            for table, wrap in ((SPANS, self._wrap_span), (COUNTS, self._wrap_count)):
                for module, attr, name in table:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(name, original, counts))
            yield counts
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_times(spans: list[list], rep_id: str) -> dict[str, dict]:
    """Self and inclusive seconds and call count per span name, for one
    repetition.  Self time is a span's duration minus its children's."""
    child_time = Counter()
    for name, start, end, parent, rep in spans:
        if rep == rep_id and parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, rep) in enumerate(spans):
        if rep != rep_id:
            continue
        entry = out.setdefault(name, {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
        entry["inclusive_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
    return out

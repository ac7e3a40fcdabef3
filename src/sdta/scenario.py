"""Scenario model: time grid, demand and capacity per network realization.

File units are vehicles/hour for demand and vehicles/second for capacity;
internally both become vehicles per time step.  Stochastic series are
generated from explicit seeds so parsing is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Mapping

import numpy as np

from .errors import ParseError, ProbabilityMassError, ValidationError
from .network import Document, Network, read_mapping, shaped

PROB_TOL = 1e-9


@dataclass(frozen=True)
class Realization:
    """One support point: its probability mass and its supply/demand data.

    ``demand`` has shape (T+1,) in vehicles/step with index 0 fixed to 0;
    ``capacity`` maps link id to a (T+1,) vehicles/step series.
    """

    probability: float
    demand: np.ndarray
    capacity: dict[str, np.ndarray]

    def __post_init__(self):
        if not (np.isfinite(self.probability) and self.probability > 0):
            raise ProbabilityMassError("realization probability must be positive")
        if not np.all(np.isfinite(self.demand)):
            raise ValidationError("demand must be finite")
        if np.any(self.demand < 0):
            raise ValidationError("demand must be non-negative")
        for link_id, series in self.capacity.items():
            if not np.all(np.isfinite(series)):
                raise ValidationError(f"capacity of link {link_id} must be finite")
            if np.any(series <= 0):
                raise ValidationError(f"capacity of link {link_id} must stay positive")


@dataclass(frozen=True)
class Scenario:
    dt: float                  # s
    horizon_steps: int
    realizations: tuple[Realization, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("dt must be positive")
        if self.horizon_steps < 1:
            raise ValidationError("horizon must cover at least one step")
        mass = sum(r.probability for r in self.realizations)
        if not self.realizations or abs(mass - 1.0) > PROB_TOL:
            raise ProbabilityMassError(f"probabilities sum to {mass}, expected 1")
        link_sets = {frozenset(r.capacity) for r in self.realizations}
        if len(link_sets) != 1:
            raise ValidationError("realizations disagree on the capacity link set")
        samples = (self.horizon_steps + 1,)
        for i, r in enumerate(self.realizations):
            if r.demand.shape != samples or any(c.shape != samples for c in r.capacity.values()):
                raise ValidationError(
                    f"realization {i}: demand and capacity need {samples[0]} samples, "
                    f"one per step 0..{self.horizon_steps}"
                )

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([r.probability for r in self.realizations])

    @property
    def n_realizations(self) -> int:
        return len(self.realizations)


def parse_number(value: Any, what: str, kind: Callable[[Any], Any] = float) -> Any:
    """``kind(value)``, or a ParseError naming ``what`` when the document
    holds something else there (text, a list for a number, ...)."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what}: expected a number, got {value!r}") from None


def parse_array(value: Any, what: str) -> np.ndarray:
    """A list of numbers as a float array, or a ParseError naming ``what``."""
    return parse_number(value, what, partial(np.asarray, dtype=float))


def _bounds(spec: Any, what: str) -> tuple[float, float]:
    bounds = parse_array(spec, f"{what} uniform bounds")
    if bounds.shape != (2,):
        raise ParseError(f"{what}: uniform needs [low, high]")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not -np.inf < lo <= hi < np.inf:
        raise ValidationError(f"{what}: uniform bounds must be finite, low <= high")
    return lo, hi


def _rng(spec: Mapping, what: str) -> np.random.Generator:
    """The generator of a random series, from its explicit seed."""
    if "seed" not in spec:
        raise ParseError(f"{what}: random series needs an explicit seed")
    seed = parse_number(spec["seed"], f"{what} seed", int)
    if seed < 0:
        raise ValidationError(f"{what}: seed must be non-negative")
    return np.random.default_rng(seed)


def _generate_series(spec: Any, steps: int, what: str) -> np.ndarray:
    """Evaluate one series spec into a (steps,) float array (file units)."""
    if isinstance(spec, (list, tuple, np.ndarray)):
        values = parse_array(spec, what)
        if values.shape != (steps,):
            raise ParseError(f"{what}: expected {steps} values, got {values.shape}")
        return values
    if not isinstance(spec, Mapping):
        raise ParseError(f"{what}: series spec must be an array or a mapping")

    if "constant" in spec:
        return np.full(steps, parse_number(spec["constant"], what))
    if "uniform" in spec:
        lo, hi = _bounds(spec["uniform"], what)
        return _rng(spec, what).uniform(lo, hi, size=steps)
    if "segments" in spec:
        rng = _rng(spec, what)
        parts: list[np.ndarray] = []
        for j, seg in enumerate(shaped(spec["segments"], "a list", f"{what} segments")):
            seg = shaped(seg, "a mapping", f"{what} segment {j}")
            n = parse_number(seg.get("steps"), f"{what} segment {j} steps", int)
            if n < 0:
                raise ValidationError(f"{what}: segment {j} steps must be non-negative")
            if "uniform" in seg:
                lo, hi = _bounds(seg["uniform"], what)
                parts.append(rng.uniform(lo, hi, size=n))
            elif "constant" in seg:
                parts.append(np.full(n, parse_number(seg["constant"], what)))
            else:
                raise ParseError(f"{what}: segment needs 'uniform' or 'constant'")
        values = np.concatenate(parts) if parts else np.empty(0)
        # segments may overshoot the horizon (e.g. when it was shortened on
        # the command line); the tail is dropped, undershooting is an error
        if values.size < steps:
            raise ParseError(f"{what}: segments cover {values.size} steps, expected {steps}")
        return values[:steps]
    raise ParseError(f"{what}: unknown series spec {list(spec)}")


def _with_zero_head(series: np.ndarray, head: float | None = None) -> np.ndarray:
    """Prefix the step-1..T series with an index-0 slot."""
    out = np.empty(series.size + 1)
    out[0] = series[0] if head is None else head
    out[1:] = series
    return out


def parse_scenario(document: Document, network: Network) -> Scenario:
    """Parse a scenario document and bind it to a network."""
    document = read_mapping(document)
    dt = parse_number(document.get("dt_s"), "dt_s")
    steps = parse_number(document.get("steps"), "steps", int)
    raw = shaped(document.get("realizations"), "a list", "realizations")
    if not (np.isfinite(dt) and dt > 0) or steps < 1:
        raise ValidationError("dt must be positive and steps at least 1")

    warnings: list[str] = []
    for link in network.links:
        if link.free_flow_time < dt:
            raise ValidationError(
                f"link {link.id}: free-flow traversal {link.free_flow_time:.3f}s "
                f"is shorter than one step ({dt}s)"
            )

    realizations: list[Realization] = []
    for i, item in enumerate(raw):
        item = shaped(item, "a mapping", f"realization {i}")
        prob = parse_number(item.get("prob"), f"realization {i} prob")
        capacity_spec = shaped(item.get("capacity", {}), "a mapping", f"realization {i} capacity")

        demand_hourly = _generate_series(item.get("demand"), steps, f"realization {i} demand")
        demand = _with_zero_head(demand_hourly * dt / 3600.0, head=0.0)

        capacity: dict[str, np.ndarray] = {}
        for link_id, series_spec in capacity_spec.items():
            link_id = str(link_id)
            if link_id not in network.link_index:
                raise ValidationError(
                    f"realization {i}: capacity references unknown link {link_id}"
                )
            per_second = _generate_series(
                series_spec, steps, f"realization {i} capacity of {link_id}"
            )
            capacity[link_id] = _with_zero_head(per_second * dt)
        # Links without an explicit series run at the flow implied by their
        # fundamental diagram.
        for link in network.links:
            if link.id not in capacity:
                capacity[link.id] = np.full(steps + 1, link.fd_capacity * dt)
            else:
                cap = capacity[link.id]
                if np.any(cap > link.fd_capacity * dt + 1e-12):
                    warnings.append(
                        f"realization {i}: capacity of link {link.id} exceeds the "
                        f"fundamental-diagram flow {link.fd_capacity:.3f} veh/s"
                    )
        realizations.append(Realization(prob, demand, capacity))

    return Scenario(
        dt=dt,
        horizon_steps=steps,
        realizations=tuple(realizations),
        warnings=tuple(warnings),
    )


def perturbed(scenario: Scenario, cov: float, rng: np.random.Generator) -> Scenario:
    """Scenario with multiplicative noise of the given coefficient of variation.

    Every demand and capacity element is scaled by max(0.05, 1 + cov*eps)
    with eps standard normal; cov = 0 returns an identical copy.  Draw order
    is fixed, so a shared generator state yields common random numbers.
    """
    if cov < 0:
        raise ValidationError("coefficient of variation must be non-negative")
    out = []
    for real in scenario.realizations:
        eps_d = rng.standard_normal(real.demand.size)
        factors = np.maximum(0.05, 1.0 + cov * eps_d)
        demand = real.demand * factors
        demand[0] = 0.0
        capacity = {}
        for link_id in sorted(real.capacity):
            eps_c = rng.standard_normal(real.capacity[link_id].size)
            capacity[link_id] = real.capacity[link_id] * np.maximum(0.05, 1.0 + cov * eps_c)
        out.append(Realization(real.probability, demand, capacity))
    return replace(scenario, realizations=tuple(out))


def with_realizations(scenario: Scenario, count: int, seed: int) -> Scenario:
    """Equiprobable scenario with ``count`` realizations derived from the base.

    Base realizations are cycled and re-scaled by a seeded factor so that
    support points stay distinct; used for scaling experiments.
    """
    if count < 1:
        raise ValidationError("need at least one realization")
    rng = np.random.default_rng(seed)
    base = scenario.realizations
    out = []
    for i in range(count):
        src = base[i % len(base)]
        factor = 1.0 if i < len(base) else rng.uniform(0.55, 0.95)
        capacity = {k: v * factor for k, v in src.capacity.items()}
        out.append(Realization(1.0 / count, src.demand.copy(), capacity))
    return replace(scenario, realizations=tuple(out))

"""Outer fixed-point solver and equilibrium diagnostics.

The solver alternates policy generation, logit splitting, and network
loading, averaging successive travel-time distributions with step size 1/l.
Convergence is declared when the largest split change between consecutive
iterations drops below a tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .choice import ChoiceParams, SplitSchedule, splits_for
from .errors import ValidationError
from .events import (
    EventTree,
    TravelTimeDistribution,
    free_flow_distribution,
)
from .loading import LoaderStats, iterative_loading, po_ltm
from .network import Network
from .policy import Policy, ZFactors, expected_origin_time, generate_policies
from .scenario import Scenario, perturbed

LOADERS = ("chrono", "iter")


@dataclass(frozen=True)
class SolverConfig:
    k_outer: int = 50
    z: tuple[float, ...] = (1.5, 2.0)
    kappa: float = -0.01
    loader: str = "chrono"
    k_inner: int = 5
    convergence_eps: float = 1e-3
    strict_origin: bool = False

    def __post_init__(self):
        if self.k_outer < 1:
            raise ValidationError("k_outer must be at least 1")
        if self.convergence_eps <= 0.0:
            raise ValidationError("convergence_eps must be positive")
        if self.loader not in LOADERS:
            raise ValidationError(f"loader must be one of {LOADERS}")
        if self.k_inner < 1:
            raise ValidationError("k_inner must be at least 1")
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        ZFactors(self.z)
        ChoiceParams(kappa=self.kappa)

    @property
    def n_policies(self) -> int:
        return 1 + len(self.z)

    def choice_params(self) -> ChoiceParams:
        return ChoiceParams(kappa=self.kappa)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    splits: SplitSchedule
    delta: float
    seconds: float


@dataclass(frozen=True)
class EquilibriumResult:
    final_ttd: TravelTimeDistribution
    final_splits: SplitSchedule
    final_policies: tuple[Policy, ...]
    tree: EventTree
    trace: tuple[IterationRecord, ...]
    converged: bool
    stats: LoaderStats = field(default_factory=LoaderStats)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def optimal_policy(self) -> Policy:
        return self.final_policies[0]

    @property
    def final_delta(self) -> float:
        return self.trace[-1].delta if self.trace else math.nan


def convergence_metric(eta_l: SplitSchedule, eta_prev: SplitSchedule) -> float:
    """Largest split change between two schedules, matched by policy label."""
    if eta_l.eta.shape != eta_prev.eta.shape:
        raise ValidationError("split schedules have different shapes")
    if set(eta_l.labels) != set(eta_prev.labels):
        raise ValidationError("split schedules name different policies")
    worst = 0.0
    for label in eta_l.labels:
        new = eta_l.row(label)[1:]
        old = eta_prev.row(label)[1:]
        worst = max(worst, float(np.abs(new - old).max()))
    return worst


def _load(network, policies, splits, scenario, config, stats):
    if config.loader == "chrono":
        return po_ltm(
            network, policies, splits, scenario,
            strict_origin=config.strict_origin, stats=stats,
        )
    return iterative_loading(
        network, policies, splits, scenario, config.k_inner,
        strict_origin=config.strict_origin, stats=stats,
    )


def msa_solve(
    network: Network,
    scenario: Scenario,
    config: SolverConfig | None = None,
) -> EquilibriumResult:
    """Solve the policy-based equilibrium by successive averaging.

    Each iteration generates policies on the grid-rounded current iterate,
    splits demand by the logit model, loads the network, and blends the
    loaded travel times into the iterate with weight 1/l.  Stops early when
    the split change falls below ``config.convergence_eps``.
    """
    config = config or SolverConfig()
    stats = LoaderStats()
    params = config.choice_params()
    current = free_flow_distribution(network, scenario)
    prev_splits: SplitSchedule | None = None
    trace: list[IterationRecord] = []
    policies: Sequence[Policy] = ()
    tree: EventTree | None = None
    splits: SplitSchedule | None = None
    converged = False

    for l in range(1, config.k_outer + 1):
        started = time.perf_counter()
        policies, tree = generate_policies(current, config.z)
        splits = splits_for(policies, tree, params)
        loaded = _load(network, policies, splits, scenario, config, stats)
        alpha = 1.0 / l
        blended = (1.0 - alpha) * current.values + alpha * loaded.values
        current = current.replace_values(blended)
        delta = (
            convergence_metric(splits, prev_splits)
            if prev_splits is not None
            else math.nan
        )
        trace.append(
            IterationRecord(l, splits, delta, time.perf_counter() - started)
        )
        prev_splits = splits
        if prev_splits is not None and not math.isnan(delta):
            if delta < config.convergence_eps:
                converged = True
                break

    return EquilibriumResult(
        final_ttd=current,
        final_splits=splits,
        final_policies=tuple(policies),
        tree=tree,
        trace=tuple(trace),
        converged=converged,
        stats=stats,
    )


def average_expected_time(
    result: EquilibriumResult, tree: EventTree | None = None
) -> float:
    """Mean over departure steps of the optimal policy's expected origin time."""
    tree = tree if tree is not None else result.tree
    optimal = result.optimal_policy
    T = optimal.defining_ttd.horizon_steps
    total = sum(expected_origin_time(optimal, tree, t) for t in range(1, T + 1))
    return total / T


def expected_times_at(result: EquilibriumResult, steps: Sequence[int]) -> np.ndarray:
    """Optimal-policy expected origin time at selected departure steps."""
    optimal = result.optimal_policy
    return np.array(
        [expected_origin_time(optimal, result.tree, int(s)) for s in steps]
    )


def monte_carlo_std(
    network: Network,
    scenario: Scenario,
    config: SolverConfig,
    cov: float,
    draws: int,
    seed: int,
    at_steps: Sequence[int] | None = None,
):
    """Sample standard deviation of equilibrium expected times under noise.

    Each draw multiplies demand and capacity by independent factors with
    the given coefficient of variation, re-solves the equilibrium, and
    evaluates either the duration-averaged expected time (default) or the
    expected time at the given departure steps.  Draws share one seed
    sequence so different cov levels see the same underlying noise.
    """
    if draws < 2:
        raise ValidationError("need at least two draws for a standard deviation")
    if cov < 0.0:
        raise ValidationError("coefficient of variation must be non-negative")
    children = np.random.SeedSequence(seed).spawn(draws)
    samples = []
    for child in children:
        rng = np.random.default_rng(child)
        sampled = perturbed(scenario, cov, rng)
        result = msa_solve(network, sampled, config)
        if at_steps is None:
            samples.append(average_expected_time(result))
        else:
            samples.append(expected_times_at(result, at_steps))
    return np.std(np.asarray(samples), axis=0, ddof=1)

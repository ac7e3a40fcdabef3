"""Logit assignment of demand to routing policies by departure step."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateChoiceSet, ValidationError
from .events import EventTree
from .policy import Policy, expected_origin_times


@dataclass(frozen=True)
class ChoiceParams:
    """Logit scale; finite and negative so longer times lose probability."""

    kappa: float = -0.01

    def __post_init__(self):
        if not -math.inf < self.kappa < 0:
            raise ValidationError("kappa must be finite and negative")


def check_fractions(table: np.ndarray, keys: Sequence, what: str, key: str) -> None:
    """The rule of a per-step fraction table (W, T+1): one row per ``key``,
    keys unique, entries finite, and a distribution over the rows at every
    step 1..T.  ``what`` names the table in the errors."""
    if table.ndim != 2 or table.shape[0] != len(keys):
        raise ValidationError(f"one row per {key} required")
    if len(set(keys)) != len(keys):
        raise ValidationError(f"{key}s must be unique")
    # NaN passes both comparisons below, and its sums would warn
    if not np.all(np.isfinite(table)):
        raise ValidationError(f"{what} must be finite")
    sums = table[:, 1:].sum(axis=0)
    if np.any(table < -1e-12) or np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValidationError(f"{what} must be a distribution at every step")


@dataclass(frozen=True)
class SplitSchedule:
    """Per-policy fractions by departure step; rows sum to one.

    ``eta`` has shape (W, T+1) with column 0 mirroring column 1.
    """

    eta: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        check_fractions(self.eta, self.labels, "splits", "split label")

    @property
    def n_policies(self) -> int:
        return self.eta.shape[0]

    @property
    def horizon_steps(self) -> int:
        return self.eta.shape[1] - 1

    def row(self, label: str) -> np.ndarray:
        if label not in self.labels:
            raise ValidationError(f"no split row for policy {label}")
        return self.eta[self.labels.index(label)]


def utilities(
    policies: Sequence[Policy], tree: EventTree, params: ChoiceParams
) -> np.ndarray:
    """Utility kappa * expected origin time per policy and departure step."""
    if not policies:
        raise ValidationError("need at least one policy")
    T = policies[0].horizon_steps
    if any(p.horizon_steps != T for p in policies):
        raise ValidationError("policies disagree on the horizon")
    out = params.kappa * np.stack([expected_origin_times(p, tree) for p in policies])
    out[:, 0] = out[:, 1]
    return out


def logit_splits(y: np.ndarray, labels: Sequence[str] | None = None) -> SplitSchedule:
    """Row-stabilized multinomial logit over the utility matrix."""
    y = np.asarray(y, dtype=float)
    if labels is None:
        labels = tuple(f"policy-{i}" for i in range(y.shape[0]))
    finite_max = np.max(y, axis=0)
    if np.any(~np.isfinite(finite_max)):
        raise DegenerateChoiceSet("no alternative has finite utility at some step")
    weights = np.exp(y - finite_max[np.newaxis, :])
    eta = weights / weights.sum(axis=0, keepdims=True)
    eta[:, 0] = eta[:, 1]
    return SplitSchedule(eta, tuple(labels))


def splits_for(
    policies: Sequence[Policy], tree: EventTree, params: ChoiceParams
) -> SplitSchedule:
    """Utilities and logit in one call, labeled by policy."""
    y = utilities(policies, tree, params)
    return logit_splits(y, tuple(p.label for p in policies))

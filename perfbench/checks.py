"""Output checks of one workload repetition, and the stored references.

A repetition fails when it raises or when any check below returns a
message; failed repetitions are what ``failed_frac`` counts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import sdta.policy

REFERENCES = Path(__file__).resolve().parent / "references.json"
SPLIT_TOL = 1e-9    # column sums of a split schedule, as SplitSchedule uses
ORDER_TOL = 1e-12   # optimal split against a suboptimal one
REF_RTOL = 1e-6     # digest agreement with the stored reference
REF_ATOL = 1e-9
TT_RTOL = 1e-6      # of a step, for travel times read off interpolated curves


def digest(values: np.ndarray) -> list[float]:
    """Row sums and step-weighted row sums over the last axis.

    Summing keeps the stored reference small; the step weights make a
    change that moves mass between steps show even when the sum is kept.
    """
    rows = np.asarray(values, dtype=float).reshape(-1, values.shape[-1])
    weights = np.linspace(1.0, 2.0, rows.shape[1])
    return np.concatenate([rows.sum(axis=1), rows @ weights]).tolist()


def origin_times(outputs: dict) -> np.ndarray:
    """Expected origin time per policy (rows) and departure step 1..T."""
    tree = outputs["tree"]
    T = tree.horizon_steps
    return np.array([
        [sdta.policy.expected_origin_time(p, tree, t) for t in range(1, T + 1)]
        for p in outputs["policies"]
    ])


def digests(outputs: dict) -> dict:
    """What is compared with the reference: splits and loaded travel times."""
    return {
        "splits": digest(outputs["splits"][:, 1:]),
        "travel_times": digest(outputs["travel_times"][:, :, 1:].sum(axis=0)),
    }


def load_reference(workload: str, seed: int, params: dict) -> dict | None:
    """The stored digests for this workload and seed, if made with these params."""
    if not REFERENCES.is_file():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload)
    if entry is None or entry["params"] != params:
        return None
    return entry["seeds"].get(str(seed))


def check(outputs: dict, reference: dict | None) -> list[str]:
    """Messages for every check the outputs fail; empty when all pass."""
    failures = []
    if not outputs["converged"]:
        failures.append("msa_solve did not converge")
    if not outputs["final_delta"] < outputs["eps"]:
        failures.append(
            f"final_delta {outputs['final_delta']} is not below eps {outputs['eps']}"
        )

    eta = outputs["splits"][:, 1:]
    if np.any(eta < -SPLIT_TOL) or np.any(np.abs(eta.sum(axis=0) - 1.0) > SPLIT_TOL):
        failures.append("split rows do not form a distribution at every step")
    if np.any(eta[0] < eta[1:] - ORDER_TOL):
        failures.append("a suboptimal policy has a larger split than the optimal one")

    loaded = outputs["travel_times"][:, :, 1:]
    # The loader counts a step's outflow at the start of that step, so an
    # uncongested traversal reads one step (dt) under free-flow time;
    # interpolating the cumulative curves adds up to ~1e-7 s of rounding.
    floor = outputs["free_flow"][:, :, 1:] - outputs["dt"] * (1.0 + TT_RTOL)
    if not np.all(np.isfinite(loaded)):
        failures.append("loaded travel times are not all finite")
    elif np.any(loaded < floor):
        failures.append("a loaded travel time is more than one step under free-flow")

    times = origin_times(outputs)
    sentinels = np.array([[p.sentinel] for p in outputs["policies"]])
    if not np.all(np.isfinite(times)) or np.any(times >= sentinels):
        failures.append("a policy has no finite expected origin time")

    if reference is not None:
        for key, actual in digests(outputs).items():
            expected = reference[key]
            if len(actual) != len(expected) or not np.allclose(
                actual, expected, rtol=REF_RTOL, atol=REF_ATOL
            ):
                worst = max(
                    (abs(a - e) for a, e in zip(actual, expected)), default=math.inf
                )
                failures.append(f"{key} differ from the stored reference (max {worst:.3g})")
    return failures


def free_flow_margin(outputs: dict) -> float:
    """Smallest loaded travel time minus free-flow time, in seconds."""
    return float(
        (outputs["travel_times"][:, :, 1:] - outputs["free_flow"][:, :, 1:]).min()
    )

"""Self-test of the benchmark at toy size: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

import checks  # noqa: E402  (needs the path set by bootstrap)
import runner  # noqa: E402

BENCHMARK = json.loads((run.SRC.parent / "BENCHMARK.json").read_text())
TOY = {
    "sf-chrono": {"fixture": "sf", "steps": 20, "loader": "chrono", "cov": 0.05},
    "diamond-iter": {"fixture": "diamond", "steps": 30, "loader": "iter",
                     "k_inner": 2, "cov": 0.05},
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """The workloads at toy size, with spans written to a scratch directory."""
    for name, params in TOY.items():
        workload = dataclasses.replace(runner.WORKLOADS[name], params=params)
        monkeypatch.setitem(runner.WORKLOADS, name, workload)
    monkeypatch.setattr(runner, "OUT", tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(runner.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == runner.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TOY))
def test_every_named_metric_prints_with_its_unit(toy, name, trace):
    report, result = runner.run(name, seed=3, seconds=0.0, trace=bool(trace))
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        metric: value["unit"] for metric, value in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0
    assert result["attempted"] == 1 + trace
    if trace:
        assert report["layers"]["solve"]["share"] < 0.05
        assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_corrupted_split_row_counts_as_failed(toy, monkeypatch):
    workload = runner.WORKLOADS["sf-chrono"]

    def corrupted(inputs):
        outputs = workload.solve(inputs)
        outputs["splits"][1] *= 1.1
        return outputs

    monkeypatch.setitem(runner.WORKLOADS, "sf-chrono",
                        dataclasses.replace(workload, solve=corrupted))
    report, result = runner.run("sf-chrono", seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert report["failed_frac"] == 1.0
    assert "split rows do not form a distribution" in report["failures"][0]["problems"][0]


def test_reference_mismatch_is_reported():
    workload = runner.WORKLOADS["diamond-iter"]
    outputs = workload.solve(workload.setup(3, TOY["diamond-iter"]))
    reference = checks.digests(outputs)
    assert checks.check(outputs, reference) == []
    reference["travel_times"][0] *= 1.001
    (problem,) = checks.check(outputs, reference)
    assert problem.startswith("travel_times differ from the stored reference")


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SRC.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sf-chrono", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

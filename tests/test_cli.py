import csv
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import yaml

import sdta.policy
from sdta import fixture_path
from sdta.cli import main


def run(*argv) -> int:
    return main(list(argv))


def rows_of(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_validate_fixture_network(capsys, tmp_path):
    assert run("validate", "twolinks") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["network"] == "ok"
    assert report["links"] == 2


def test_validate_with_scenario(capsys):
    assert run("validate", "diamond", "diamond") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["network"] == "ok"
    assert report["scenario"] == "ok"


def test_missing_file_is_exit_2(tmp_path):
    assert run("validate", str(tmp_path / "nope.yaml")) == 2


def test_malformed_yaml_is_exit_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nodes: [1, 2\n")
    assert run("validate", str(bad)) == 2


def test_invalid_network_is_exit_3(tmp_path, capsys):
    doc = tmp_path / "net.yaml"
    doc.write_text(
        "nodes: [1, 2, 3]\norigin: 1\ndestination: 3\nlinks:\n"
        "  - {id: a, from: 1, to: 2, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}\n"
        "  - {id: b, from: 3, to: 2, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}\n"
    )
    assert run("validate", str(doc)) == 3
    # a message that sums up several problems lists them one per line
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: invalid network"
    assert len(lines) > 1 and all(line.startswith("  - ") for line in lines[1:])


def test_solve_writes_result_tables(tmp_path):
    out = tmp_path / "run"
    code = run(
        "solve", "twolinks", "twolinks",
        "--steps", "100", "--iters", "3", "--out", str(out),
    )
    assert code == 0
    for name in (
        "splits.csv", "travel_times.csv", "trace.csv",
        "summary.json", "manifest.json",
    ):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] <= 3
    assert "average_expected_time_s" in summary
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert "sha256" in manifest["inputs"]["network"]
    assert "timing_s" in manifest
    environment = manifest["environment"]
    assert set(environment) == {"python", "numpy", "pyyaml", "libyaml", "cpu_count"}
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["pyyaml"] == yaml.__version__
    assert environment["libyaml"] is yaml.__with_libyaml__
    assert environment["cpu_count"] == os.cpu_count()


def test_solve_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            "solve", "twolinks", "twolinks",
            "--steps", "80", "--iters", "2", "--out", str(out),
        ) == 0
    for name in ("splits.csv", "travel_times.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the trace carries wall-clock timings in its last column; the rest
    # must still match exactly
    rows_a = [list(r.values())[:-1] for r in rows_of(a / "trace.csv")]
    rows_b = [list(r.values())[:-1] for r in rows_of(b / "trace.csv")]
    assert rows_a and rows_a == rows_b


def test_solve_single_policy_splits_are_one(tmp_path):
    out = tmp_path / "single"
    assert run(
        "solve", "twolinks", "twolinks",
        "--steps", "60", "--iters", "2", "--policies", "1", "--out", str(out),
    ) == 0
    rows = rows_of(out / "splits.csv")
    assert rows and all(float(r["eta"]) == 1.0 for r in rows)
    assert {r["policy"] for r in rows} == {"optimal"}


def test_policies_count_must_match_z(tmp_path):
    code = run(
        "solve", "twolinks", "twolinks",
        "--steps", "60", "--policies", "3", "--z", "1.5",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_load_reports_counters(tmp_path, capsys):
    out = tmp_path / "load"
    assert run(
        "load", "twolinks", "twolinks",
        "--steps", "100", "--out", str(out),
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["time_loops"] >= 3
    assert (out / "travel_times.csv").exists()


def test_bench_reports_both_loaders(tmp_path, capsys):
    steps, k_inner = 40, 2
    out = tmp_path / "bench"
    assert run(
        "bench", "twolinks", "twolinks", "--steps", str(steps),
        "--inner-iters", str(k_inner), "--out", str(out),
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads((out / "bench.json").read_text())
    assert set(report) == {"chrono_s", "iter_s", "speedup", "counters", "k_inner"}
    assert report["k_inner"] == k_inner
    R, nodes = 3, 3
    assert report["counters"] == {
        "chrono": {"time_loops": R, "translations": 0, "node_updates": R * steps * nodes},
        "iter": {"time_loops": R * k_inner, "translations": R * k_inner,
                 "node_updates": R * k_inner * steps * nodes},
    }
    assert report["chrono_s"] > 0.0 and report["iter_s"] > 0.0


def test_bench_reports_one_loads_counters(tmp_path, capsys):
    counters = []
    for repeat in ("1", "3"):
        assert run(
            "bench", "twolinks", "twolinks", "--steps", "40", "--inner-iters", "2",
            "--repeat", repeat, "--out", str(tmp_path / repeat),
        ) == 0
        counters.append(json.loads(capsys.readouterr().out)["counters"])
    assert counters[0] == counters[1]


def test_policies_command_dumps_decision_table(tmp_path):
    out = tmp_path / "pol"
    assert run("policies", "parallel3", "--out", str(out)) == 0
    rows = rows_of(out / "policies.csv")
    assert rows
    origin_rows = [
        r for r in rows
        if r["policy"] == "optimal" and r["node"] == "1" and r["t"] == "1"
    ]
    assert origin_rows and float(origin_rows[0]["expected_s"]) == 5.5


def test_sweep_over_perturbation_factors(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "twolinks", "twolinks",
        "--steps", "60", "--iters", "2",
        "--z-values", "1.5", "2.0", "--out", str(out),
    ) == 0
    rows = rows_of(out / "sweep.csv")
    zs = {r["z"] for r in rows}
    assert zs == {"1.5", "2"}


def test_sweep_manifest_records_the_config(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "twolinks", "twolinks", "--loader", "iter",
        "--steps", "40", "--iters", "1", "--inner-iters", "1",
        "--z-values", "1.5", "3.0", "1.5", "--out", str(out),
    ) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["loader"] == "iter"
    # each value is a solve of its own, so a repeated one is kept as given
    assert config["z"] == [1.5, 3.0, 1.5]


def test_unknown_fixture_name_is_exit_2():
    assert run("validate", "not-a-fixture") == 2


# Non-finite input must stop at parsing with a validation error (exit 3),
# not turn into a "converged" solve or an internal error.

SCENARIO_TEMPLATE = """\
dt_s: 1.0
steps: 30
realizations:
  - prob: 1.0
    demand: {demand}
    capacity: {capacity}
"""


def test_nan_demand_is_exit_3(tmp_path, capsys):
    scn = tmp_path / "nan-demand.yaml"
    scn.write_text(SCENARIO_TEMPLATE.format(demand="{constant: .nan}", capacity="{}"))
    code = run("solve", "twolinks", str(scn), "--iters", "2", "--out", str(tmp_path / "out"))
    assert code == 3
    assert "demand must be finite" in capsys.readouterr().err


def test_infinite_capacity_is_exit_3(tmp_path, capsys):
    scn = tmp_path / "inf-capacity.yaml"
    scn.write_text(SCENARIO_TEMPLATE.format(
        demand="{constant: 3600}", capacity='{"2-3": {constant: .inf}}'
    ))
    code = run("solve", "twolinks", str(scn), "--iters", "2", "--out", str(tmp_path / "out"))
    assert code == 3
    assert "capacity of link 2-3 must be finite" in capsys.readouterr().err


def test_nan_travel_time_is_exit_3(tmp_path, capsys):
    doc = yaml.safe_load(Path(fixture_path("parallel3.ttd.yaml")).read_text())
    doc["realizations"][1]["times"]["c"][2] = float("nan")
    ttd = tmp_path / "nan.ttd.yaml"
    ttd.write_text(yaml.safe_dump(doc))
    assert run("policies", str(ttd), "--out", str(tmp_path / "out")) == 3
    assert "travel times must be finite" in capsys.readouterr().err


# Text or a list where a number belongs is a parse error (exit 2), not an
# internal error.

@pytest.mark.parametrize("dt, demand", [
    ("abc", "{constant: 3600}"),
    ("1.0", "{constant: [1, 2]}"),
])
def test_non_numeric_scenario_field_is_exit_2(tmp_path, capsys, dt, demand):
    scn = tmp_path / "bad.yaml"
    scn.write_text(SCENARIO_TEMPLATE.format(demand=demand, capacity="{}").replace(
        "dt_s: 1.0", f"dt_s: {dt}"))
    assert run("validate", "twolinks", str(scn)) == 2
    assert "expected a number" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "dt_s: 1.0\nsteps: 30\nrealizations: [5]\n",
    "dt_s: 1.0\nsteps: 30\nrealizations: {a: {prob: 1.0, demand: {constant: 3600}}}\n",
    SCENARIO_TEMPLATE.format(demand="{constant: 3600}", capacity="[1, 2]"),
], ids=["realization-not-a-mapping", "realizations-a-mapping", "capacity-a-list"])
def test_misshapen_scenario_is_exit_2(tmp_path, capsys, text):
    scn = tmp_path / "bad.yaml"
    scn.write_text(text)
    assert run("validate", "twolinks", str(scn)) == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["dt_s", "steps", "prob"])
def test_non_numeric_ttd_field_is_exit_2(tmp_path, capsys, field):
    doc = yaml.safe_load(Path(fixture_path("parallel3.ttd.yaml")).read_text())
    if field == "prob":
        doc["realizations"][0]["prob"] = "abc"
    else:
        doc[field] = "abc"
    ttd = tmp_path / "bad.ttd.yaml"
    ttd.write_text(yaml.safe_dump(doc))
    assert run("policies", str(ttd), "--out", str(tmp_path / "out")) == 2
    assert "expected a number" in capsys.readouterr().err


# Any document that cannot be read, or whose fields have the wrong shape, is
# a parse error (exit 2) with an "error:" line.

def _edited(tmp_path, fixture: str, edit) -> str:
    doc = yaml.safe_load(Path(fixture_path(fixture)).read_text())
    edit(doc)
    path = tmp_path / fixture
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _ttd(edit):
    return lambda tmp: ["policies", _edited(tmp, "parallel3.ttd.yaml", edit),
                        "--out", str(tmp / "out")]


def _network(edit):
    return lambda tmp: ["validate", _edited(tmp, "twolinks.net.yaml", edit)]


def _demand(demand):
    edit = lambda doc: doc["realizations"][0].update(demand=demand)
    return lambda tmp: ["validate", "twolinks", _edited(tmp, "twolinks.scn.yaml", edit)]


def _not_utf8(tmp):
    path = tmp / "latin1.yaml"
    path.write_bytes("nodes: [caf\xe9]\n".encode("latin-1"))
    return ["validate", str(path)]


@pytest.mark.parametrize("argv", [
    _ttd(lambda doc: doc.update(realizations=5)),
    _ttd(lambda doc: doc.update(realizations=[5])),
    _ttd(lambda doc: doc.update(links=5)),
    _ttd(lambda doc: doc["realizations"][0].pop("times")),
    _network(lambda doc: doc.update(nodes=5)),
    _network(lambda doc: doc.update(links=5)),
    _demand({"segments": 5, "seed": 1}),
    _demand({"segments": [5], "seed": 1}),
    lambda tmp: ["validate", str(tmp)],
    lambda tmp: ["policies", str(tmp), "--out", str(tmp / "out")],
    _not_utf8,
], ids=[
    "ttd-realizations-a-number", "ttd-realization-a-number", "ttd-links-a-number",
    "ttd-realization-without-times", "network-nodes-a-number",
    "network-links-a-number", "scenario-segments-a-number",
    "scenario-segment-a-number", "validate-a-directory", "policies-a-directory",
    "not-utf8",
])
def test_unreadable_or_misshapen_document_is_exit_2(tmp_path, capsys, argv):
    assert run(*argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _cut_ttd(tmp):
    """The parallel3 distribution without link a: its destination is unreachable."""
    return _edited(tmp, "parallel3.ttd.yaml",
                   lambda doc: doc.update(links=[l for l in doc["links"] if l["id"] != "a"]))


def test_unreachable_ttd_destination_is_exit_3(tmp_path, capsys):
    assert run("policies", _cut_ttd(tmp_path), "--out", str(tmp_path / "out")) == 3
    # one message, printed once
    assert capsys.readouterr().err.count("cannot be reached") == 1


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["links"].append(dict(doc["links"][0])), "duplicate link ids"),
    (lambda doc: doc["realizations"][1]["times"].update(zz=[1, 1, 1, 1]),
     "realization 1: times for unknown link zz"),
], ids=["a-link-listed-twice", "times-of-an-unlisted-link"])
def test_ttd_links_and_times_that_disagree_are_exit_3(tmp_path, capsys, edit, message):
    out = tmp_path / "out"
    assert run("policies", _edited(tmp_path, "parallel3.ttd.yaml", edit), "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault, code", [("missing", 2), ("invalid", 3)])
@pytest.mark.parametrize("command", ["solve", "load", "bench", "sweep", "policies"])
def test_failed_command_leaves_no_out_directory(tmp_path, command, fault, code):
    missing = str(tmp_path / "missing.yaml")
    if command == "policies":
        argv = ["policies", missing if fault == "missing" else _cut_ttd(tmp_path)]
    else:
        argv = [command, "twolinks", missing if fault == "missing" else "twolinks",
                "--steps", "20"]
        if command in ("solve", "sweep"):
            argv += ["--iters", "1"]
        if fault == "invalid":
            argv += ["--kappa", "1"]
        if command == "sweep":
            argv += ["--z-values", "1.5"]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == code
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["solve", "twolinks", "twolinks", "--eps", "nan"], "convergence_eps"),
    (["solve", "twolinks", "twolinks", "--eps", "inf"], "convergence_eps"),
    (["solve", "twolinks", "twolinks", "--z", "nan"], "z factor"),
    (["solve", "twolinks", "twolinks", "--z", "inf"], "z factor"),
    (["solve", "twolinks", "twolinks", "--kappa=-inf"], "kappa"),
    (["policies", "parallel3", "--z", "1.5", "nan"], "z factor"),
])
def test_non_finite_solver_setting_is_exit_3_before_work(tmp_path, capsys, argv, named):
    # a NaN or infinite setting must not run a solve, report a "converged"
    # result or fail later under another name
    out = tmp_path / "out"
    steps = ["--steps", "30"] if argv[0] == "solve" else []
    assert run(*argv, *steps, "--out", str(out)) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "twolinks", "twolinks", "--steps", "30", "--iters", "1", "--z", "1.5", "1.5"],
    ["solve", "twolinks", "twolinks", "--steps", "30", "--policies", "3", "--z", "2", "2.0"],
    ["load", "twolinks", "twolinks", "--steps", "30", "--z", "1.5", "1.5000001"],
    ["policies", "parallel3", "--z", "2", "2"],
])
def test_z_factors_with_one_label_are_exit_3_before_work(tmp_path, capsys, argv, monkeypatch):
    # two policies with one label would collide in the split table; the
    # factors are refused before any policy is generated
    def solve(*args):
        raise AssertionError("a policy was solved")
    monkeypatch.setattr(sdta.policy, "_run_dot_spi", solve)
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 3
    assert "z factors must have distinct labels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("repeat", ["0", "-3"])
def test_bench_repeat_below_one_is_exit_3_before_work(tmp_path, capsys, repeat):
    out = tmp_path / "out"
    assert run("bench", "twolinks", "twolinks", "--steps", "20",
               "--repeat", repeat, "--out", str(out)) == 3
    assert "--repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["load", "--iters", "0"],
    ["bench", "--loader", "iter"],
    ["sweep", "--z", "9", "--z-values", "1.5"],
])
def test_option_the_command_does_not_read_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        run(argv[0], "twolinks", "twolinks", "--steps", "20", *argv[1:], "--out", str(out))
    assert exit_.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_a_directory_is_exit_2_before_work(tmp_path, capsys, below):
    existing = tmp_path / "afile"
    existing.write_text("keep me\n")
    out = existing / "run" if below else existing
    code = run("solve", "twolinks", "twolinks", "--steps", "40", "--iters", "2",
               "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --out")
    assert existing.read_text() == "keep me\n"


def _paths(doc, prefix=()):
    """Every key path into a document, taking the first entry of each list."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:1])
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _variants(doc):
    """Copies of ``doc`` with one field removed or replaced by a wrong value."""
    for path in list(_paths(doc))[1:]:
        for value in (None, 5, -1, 1.5, float("inf"), "abc", [5], {"a": 1}):
            copy = yaml.safe_load(yaml.safe_dump(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            if value is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, copy


@pytest.mark.parametrize("fixture, command", [
    ("twolinks.net.yaml", ["validate", "{doc}"]),
    ("twolinks.scn.yaml", ["validate", "twolinks", "{doc}"]),
    ("parallel3.ttd.yaml", ["policies", "{doc}", "--out", "{out}"]),
])
def test_damaged_field_is_never_an_internal_error(tmp_path, capsys, fixture, command):
    doc = yaml.safe_load(Path(fixture_path(fixture)).read_text())
    path = tmp_path / fixture
    argv = [a.format(doc=path, out=tmp_path / "out") for a in command]
    internal = []
    for field, variant in _variants(doc):
        path.write_text(yaml.safe_dump(variant))
        code = run(*argv)
        err = capsys.readouterr().err
        if code not in (0, 2, 3):
            internal.append((field, code, err))
    assert not internal

"""Golden result tables: `sdta solve` output pinned byte for byte.

Each case re-runs one short solve and compares `splits.csv` and
`travel_times.csv` with the copies under `tests/golden/<case>/`.  The
copies were written by the loader before its array rewrite, so any change
of digits in a refactor shows here.  Regenerate them (only when outputs
are meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from sdta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLES = ("splits.csv", "travel_times.csv")

# case -> (fixture, steps, options).  Each horizon is just long enough for
# queues to form on at least one link (at 120 steps diamond and sf still run
# at free flow everywhere), so the congested branches of the node model are
# pinned too.
CASES = {
    "twolinks-chrono": ("twolinks", 200, "--loader", "chrono"),
    "diamond-chrono": ("diamond", 450, "--loader", "chrono"),
    "sf-chrono": ("sf", 150, "--loader", "chrono"),
    "twosf-chrono": ("twosf", 150, "--loader", "chrono"),
    "twolinks-iter": ("twolinks", 200, "--loader", "iter"),
    "diamond-iter": ("diamond", 300, "--loader", "iter"),
    "diamond-chrono-strict": ("diamond", 300, "--loader", "chrono", "--strict-origin"),
}


def solve(case: str, out: Path) -> None:
    fixture, steps, *opts = CASES[case]
    code = main(["solve", fixture, fixture, "--steps", str(steps), *opts, "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_tables_match_golden(case, tmp_path):
    solve(case, tmp_path)
    for name in TABLES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


if __name__ == "__main__":
    import shutil
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            solve(case, Path(tmp))
            (GOLDEN / case).mkdir(parents=True, exist_ok=True)
            for name in TABLES:
                shutil.copyfile(Path(tmp) / name, GOLDEN / case / name)
        print(f"wrote {GOLDEN / case}")

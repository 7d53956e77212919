"""The experiment scripts' outputs, pinned byte for byte."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


@pytest.mark.parametrize("policy", ["type1", "type2", "type3"])
def test_benchmark_table_matches_golden(policy):
    """The headline table moves only with a change meant to move it; such a
    change regenerates the golden file, and its diff is the old -> new record:

        python scripts/benchmark_table.py --policy type1 > tests/data/golden_table_type1.txt
    """
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark_table.py"), "--policy", policy],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == (DATA / f"golden_table_{policy}.txt").read_text()


@pytest.mark.parametrize("args", [["--sizes", "8,x"], ["--sizes", "1"], ["--sizes", "8,200"],
                                  ["--chains", "nope"]])
def test_chain_shape_sweep_rejects_bad_input_before_any_row(args):
    """Bad sizes or chains end in a usage error, with no partial CSV."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chain_shape_sweep.py"), *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"Invalid value for '{args[0]}'" in proc.stderr

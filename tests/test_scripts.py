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


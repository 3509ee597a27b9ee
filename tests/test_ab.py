import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_ab_times_a_small_solve_against_head():
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode:
        pytest.skip("not a git checkout")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base", "HEAD",
                           "--pairs", "3", "solve:30x10x0", "oracle-small"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    solve, oracle = done.stdout.splitlines()
    assert solve.startswith("solve:30x10x0: base ") and solve.endswith(" of 3")
    # one solve per pair, and a round of 16 ops
    assert re.search(r", \d of 3 op fingerprints differ, ", solve)
    assert oracle.startswith("oracle-small: base ") and oracle.endswith(" of 3")
    assert re.search(r", \d+ of 48 op fingerprints differ, ", oracle)

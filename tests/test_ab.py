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
                           "--pairs", "3", "solve:30x10x0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    assert line.startswith("solve:30x10x0: base ") and line.endswith(" of 3")

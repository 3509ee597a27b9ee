import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""A module docstring
over two lines."""

import os   # counts


def f(a,
      b):
    """A function docstring."""
    # a comment line
    text = """a string that is
no docstring"""
    return a + b


class C:
    "A class docstring."
    x = 1
'''


def test_loc_counts_code_lines_only(tmp_path):
    # code lines: import, def over two lines, the two-line string, return,
    # class, x; docstrings, the comment and blank lines do not count
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"),
                           str(tmp_path / "sample.py"), str(tmp_path / "empty.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [f"8 {tmp_path / 'sample.py'}",
                                        f"0 {tmp_path / 'empty.py'}", "8 total"]

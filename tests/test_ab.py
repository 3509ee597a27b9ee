import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the figures of one comparison, per workload and for its A/A
FIGURES = {"base_ms", "change_ms", "ratio", "ratio_quartiles", "wins", "pairs", "ops", "differ"}
# each side's median op time, on perfbench's workloads from BENCH_34.json on
OP_FIGURES = {"base_op_p50_ms", "change_op_p50_ms"}


def needs_git():
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode:
        pytest.skip("not a git checkout")


def check_bench_file(doc, workloads):
    assert set(doc) == {"host", "base", "change", "workloads"}
    assert all(isinstance(doc[key], str) and doc[key] for key in ("host", "base", "change"))
    assert list(doc["workloads"]) == workloads
    for name, figures in doc["workloads"].items():
        op_figures = OP_FIGURES if OP_FIGURES & set(figures) else set()
        assert not (op_figures and name.startswith("solve:"))
        assert set(figures) == FIGURES | op_figures | {"aa"}
        assert set(figures["aa"]) == FIGURES | op_figures
        for each in (figures, figures["aa"]):
            low, high = each["ratio_quartiles"]
            assert low <= high and each["ratio"] > 0.0
            assert 0 <= each["wins"] <= each["pairs"] and 0 <= each["differ"] <= each["ops"]
            assert all(each[key] > 0.0 for key in op_figures)


def test_ab_times_a_small_solve_against_head():
    needs_git()
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
    # each side's median op time, on the benchmark's workload only
    assert re.match(r"oracle-small: base [\d.]+ ms \(op p50 [\d.]+ ms\), "
                    r"change [\d.]+ ms \(op p50 [\d.]+ ms\), ", oracle)
    assert "op p50" not in solve


def test_ab_writes_every_figure_and_an_a_a_line(tmp_path):
    needs_git()
    path = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base", "HEAD",
                           "--pairs", "2", "--json", str(path), "solve:20x5x0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    line, aa = done.stdout.splitlines()
    assert line.startswith("solve:20x5x0: base ") and aa.startswith("solve:20x5x0 (A/A): base ")
    doc = json.loads(path.read_text())
    check_bench_file(doc, ["solve:20x5x0"])
    assert doc["workloads"]["solve:20x5x0"]["aa"]["differ"] == 0


def test_ab_writes_each_sides_op_p50_on_a_benchmark_workload(tmp_path):
    needs_git()
    path = tmp_path / "bench.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base", "HEAD",
                           "--pairs", "2", "--json", str(path), "oracle-small"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(path.read_text())
    check_bench_file(doc, ["oracle-small"])
    figures = doc["workloads"]["oracle-small"]
    for each in (figures, figures["aa"]):
        assert OP_FIGURES <= set(each)
        # a round is 16 ops, so the median op is shorter than the round
        assert each["base_op_p50_ms"] < each["base_ms"]
        assert each["change_op_p50_ms"] < each["change_ms"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_checked_in_bench_files_hold_every_figure(path):
    doc = json.loads(path.read_text())
    check_bench_file(doc, list(doc["workloads"]))
    assert {"sweep-paper", "greedy-large", "oracle-small"} <= set(doc["workloads"])
    if int(path.stem.partition("_")[2]) >= 34:
        assert all(OP_FIGURES <= set(doc["workloads"][name])
                   for name in ("sweep-paper", "greedy-large", "oracle-small"))

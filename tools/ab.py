"""In-process A/B timing of the package against another revision.

    python tools/ab.py --base REV [--pairs N] solve:RxMxS ... | greedy-large

The base side is ``src/`` at REV, extracted with ``git archive``; the change
side is the ``src/`` beside this script.  Both are imported into one
process, and each op runs with its own side's modules swapped into
``sys.modules``.  ``solve:RxMxS`` times ``simplex_solve`` on the placement
program of the R x M instance of seed S; ``greedy-large`` times perfbench's
greedy-large op.  Each pair runs both sides, alternating which goes first,
and stops if their LP objectives differ by more than 1e-9 relative.  It
prints both sides' median time, the median base/change ratio with its
quartiles, and the pairs the change won.
"""

import argparse
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class Side:
    """One tree's ``vnfplace`` modules, imported afresh from src."""

    def __init__(self, src):
        self._drop()
        sys.path.insert(0, str(src))
        try:
            importlib.import_module("vnfplace")
        finally:
            sys.path.remove(str(src))
        self.modules = {name: module for name, module in sys.modules.items()
                        if name.partition(".")[0] == "vnfplace"}

    @staticmethod
    def _drop():
        for name in [name for name in sys.modules if name.partition(".")[0] == "vnfplace"]:
            del sys.modules[name]

    def activate(self):
        self._drop()
        sys.modules.update(self.modules)
        return self.modules["vnfplace"]


def solve_op(vp, spec):
    R, M, S = (int(part) for part in spec.split("x"))
    inst = vp.generate(vp.GeneratorConfig(request_count=R, mec_count=M, seed=S))
    lp = vp.build_relaxed_program(inst)
    return lambda: vp.simplex_solve(lp).objective


def greedy_large_op(vp):
    inst = vp.generate(vp.GeneratorConfig(request_count=200, mec_count=20, seed=0))

    def op():
        frac = vp.solve_lp(vp.build_relaxed_program(inst))
        sol = vp.greedy_repair(inst, vp.randomized_round(frac, inst, seed=1))
        vp.evaluate_solution(inst, sol)
        vp.simulate_availability(inst, sol, trials=4 * 32768, seed=2)
        return frac.objective
    return op


def compare(sides, make, pairs):
    """Per pair: (base seconds, change seconds)."""
    ops = [make(side.activate()) for side in sides]

    def timed(i):
        sides[i].activate()
        start = time.perf_counter()
        objective = ops[i]()
        return time.perf_counter() - start, objective

    timed(0), timed(1)     # warm-up
    times = []
    for pair in range(pairs):
        got = {i: timed(i) for i in ((0, 1) if pair % 2 == 0 else (1, 0))}
        (base, a), (change, b) = got[0], got[1]
        if abs(a - b) > 1e-9 * max(1.0, abs(a)):
            sys.exit(f"objectives differ: base {a!r}, change {b!r}")
        times.append((base, change))
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to time against")
    parser.add_argument("--pairs", type=int, default=11)
    parser.add_argument("workloads", nargs="+", help="solve:RxMxS or greedy-large")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                             capture_output=True)
    if archive.returncode:
        sys.exit(archive.stderr.decode().strip())
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        sides = Side(Path(tmp) / "src"), Side(ROOT / "src")
        for name in args.workloads:
            kind, _, spec = name.partition(":")
            if kind not in ("solve", "greedy-large"):
                sys.exit(f"unknown workload {name!r}")
            make = (lambda vp: solve_op(vp, spec)) if kind == "solve" else greedy_large_op
            times = compare(sides, make, args.pairs)
            ratios = [base / change for base, change in times]
            low, _, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            wins = sum(ratio > 1.0 for ratio in ratios)
            print(f"{name}: base {statistics.median(t[0] for t in times) * 1e3:.1f} ms, "
                  f"change {statistics.median(t[1] for t in times) * 1e3:.1f} ms, "
                  f"ratio {statistics.median(ratios):.3f}x (quartiles {low:.3f}-{high:.3f}), "
                  f"change faster in {wins} of {len(ratios)}")


if __name__ == "__main__":
    main()

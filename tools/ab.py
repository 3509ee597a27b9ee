"""In-process A/B timing of the package against another revision.

    python tools/ab.py --base REV [--pairs N] [--json PATH] WORKLOAD ...

The base side is ``src/`` at REV, extracted with ``git archive``; the change
side is the ``src/`` beside this script.  Both are imported into one
process, and each op runs with its own side's modules swapped into
``sys.modules``.  A workload is ``solve:RxMxS``, which times
``simplex_solve`` on the placement program of the R x M instance of seed
S, or one of perfbench's workloads (``sweep-paper``, ``greedy-large``,
``oracle-small``), built per side from ``perfbench/workload.py`` with
workload seed 0 and timed a whole round at a time.  Each pair runs both
sides, alternating which goes first; a solve stops if the two LP
objectives differ by more than 1e-9 relative.  It prints both sides'
median time, the median base/change ratio with its quartiles, how many
ops' fingerprints differ between the sides, and the pairs the change won.

With ``--json PATH`` each workload also runs an A/A comparison, the base
against a second import of itself, printed as a line of its own; PATH then
receives the host, both revisions and, per workload, the figures of both
lines.
"""

import argparse
import functools
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))   # perfbench/ is no package
import workload  # noqa: E402

WORKLOADS = {"sweep-paper": workload.SweepPaper, "greedy-large": workload.GreedyLarge,
             "oracle-small": workload.OracleSmall}


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
    """The op returns a one-item list: the LP objective."""
    R, M, S = (int(part) for part in spec.split("x"))
    inst = vp.generate(vp.GeneratorConfig(request_count=R, mec_count=M, seed=S))
    lp = vp.build_relaxed_program(inst)
    return lambda: [vp.simplex_solve(lp).objective]


def workload_op(cls, vp, tmp):
    """The op runs one round of the workload, its output in a directory of
    its own under tmp, and returns each op's fingerprint."""
    wl = cls(vp, np, 0, Path(tempfile.mkdtemp(dir=tmp)))
    return lambda: [wl.fingerprint(wl.run(op)) for op in wl.round]


def compare(sides, make, pairs, solve):
    """Per pair: (base seconds, change seconds); then, over all pairs, the
    ops compared and those whose fingerprints differ between the sides."""
    ops = [make(side.activate()) for side in sides]

    def timed(i):
        sides[i].activate()
        start = time.perf_counter()
        prints = ops[i]()
        return time.perf_counter() - start, prints

    timed(0), timed(1)     # warm-up
    times, compared, differ = [], 0, 0
    for pair in range(pairs):
        got = {i: timed(i) for i in ((0, 1) if pair % 2 == 0 else (1, 0))}
        (base, a), (change, b) = got[0], got[1]
        if solve and abs(a[0] - b[0]) > 1e-9 * max(1.0, abs(a[0])):
            sys.exit(f"objectives differ: base {a[0]!r}, change {b[0]!r}")
        compared += len(a)
        differ += sum(x != y for x, y in zip(a, b))
        times.append((base, change))
    return times, compared, differ


def summarize(times, compared, differ):
    """The figures of one comparison, from ``compare``'s results."""
    ratios = [base / change for base, change in times]
    low, _, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {"base_ms": statistics.median(t[0] for t in times) * 1e3,
            "change_ms": statistics.median(t[1] for t in times) * 1e3,
            "ratio": statistics.median(ratios), "ratio_quartiles": [low, high],
            "wins": sum(ratio > 1.0 for ratio in ratios), "pairs": len(ratios),
            "ops": compared, "differ": differ}


def report(name, s):
    low, high = s["ratio_quartiles"]
    return (f"{name}: base {s['base_ms']:.1f} ms, change {s['change_ms']:.1f} ms, "
            f"ratio {s['ratio']:.3f}x (quartiles {low:.3f}-{high:.3f}), "
            f"{s['differ']} of {s['ops']} op fingerprints differ, "
            f"change faster in {s['wins']} of {s['pairs']}")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def host():
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}, "
            f"numpy {np.__version__}, OPENBLAS_NUM_THREADS={threads}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to time against")
    parser.add_argument("--pairs", type=int, default=11)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also run an A/A per workload and write every figure to PATH")
    parser.add_argument("workloads", nargs="+", help="solve:RxMxS or " + ", ".join(WORKLOADS))
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
        twins = (sides[0], Side(Path(tmp) / "src")) if args.json else None
        results = {}
        for name in args.workloads:
            kind, _, spec = name.partition(":")
            if kind == "solve":
                make = functools.partial(solve_op, spec=spec)
            elif name in WORKLOADS:
                make = functools.partial(workload_op, WORKLOADS[name], tmp=tmp)
            else:
                sys.exit(f"unknown workload {name!r}")
            result = summarize(*compare(sides, make, args.pairs, solve=kind == "solve"))
            print(report(name, result))
            if twins:
                result["aa"] = summarize(*compare(twins, make, args.pairs, solve=kind == "solve"))
                print(report(f"{name} (A/A)", result["aa"]))
            results[name] = result
    if args.json:
        modified = bool(git("status", "--porcelain", "--", "src"))
        args.json.write_text(json.dumps(
            {"host": host(), "base": git("rev-parse", f"{args.base}^{{commit}}"),
             "change": git("rev-parse", "HEAD") + (" with src modified" if modified else ""),
             "workloads": results}, indent=2) + "\n")


if __name__ == "__main__":
    main()

"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh process (workload.py) with the BLAS pool held
at one thread; with ``--trace 0`` set-up is repeated in two more
fresh processes and its median reported.  The outputs are then checked in
another process (check.py).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``, named and
united as BENCHMARK.json declares them.  This file imports only the
standard library.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# fresh set-ups per --trace 0 run, setup_s being their median: one before
# the measured process, the measured one, and one after it, so that the
# samples span the run.  A greedy-large set-up takes 5 s (its warm-up op is a
# 4 s solve), so more samples would cost more run time than they steady.
SETUP_REPEATS = 3
WORKLOADS = ("sweep-paper", "greedy-large", "oracle-small")
DEADLINE_S = 170.0
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# one BLAS thread: the simplex pivots on BLAS products, and their summation
# order, hence the optimal vertex it returns, depends on the thread count.
# One hash seed, so that every process takes the same code paths in the
# same order.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}



class BenchError(Exception):
    pass


def _run_child(cmd, deadline, capture=False):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {Path(cmd[1]).name}")
    try:
        # subprocess.run kills and waits for the child when the timeout expires
        proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV},
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(cmd[1]).name} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with {proc.returncode}")
    return proc.stdout


def _workload(args, phase, out_path, deadline):
    """Run workload.py once; returns its result and its set-up time in seconds,
    as measured and at the reference host's speed."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase, "--out", str(out_path)]
    spawned = time.monotonic()
    _run_child(cmd, deadline)
    result = json.loads(out_path.read_text())
    setup_s = result["ready"] - spawned
    return result, (setup_s, setup_s * result["setup_speed"])


def tail(latencies_ms):
    """(percentile, value): the highest listed percentile with at least
    TAIL_BEYOND ops beyond it, or None below TAIL_MIN_OPS ops."""
    n = len(latencies_ms)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies_ms)
    for q in TAIL_PERCENTILES:
        rank = -(-n * q // 100)         # nearest rank, ceil(n * q / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[int(rank) - 1]
    return None


def run(args):
    if not (ROOT / "src" / "vnfplace" / "__init__.py").is_file():
        raise BenchError(f"no vnfplace sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    scratch = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # set-up-only processes, half before and half after the measured one,
        # so that the samples span the whole run rather than its start
        extra = 0 if args.trace else SETUP_REPEATS - 1
        setups = [_workload(args, "setup", scratch / f"setup{i}.json", deadline)[1]
                  for i in range(extra // 2)]
        result_path = scratch / "result.json"
        result, setup_s = _workload(args, "run", result_path, deadline)
        setups.append(setup_s)
        setups += [_workload(args, "setup", scratch / f"setup{i}.json", deadline)[1]
                   for i in range(extra // 2, extra)]
        verdict = json.loads(_run_child(
            [sys.executable, str(HERE / "check.py"), str(result_path)],
            deadline, capture=True).splitlines()[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    timed = result["timed"]
    latencies_ms = [1e3 * s for s in timed["latencies_s"]]
    if not latencies_ms:
        raise BenchError(f"every op failed: {timed['errors']}")
    # as measured; the gated times are these at the reference host's speed
    raw = {"setup_s": statistics.median(measured for measured, _ in setups),
           "ops_per_s": len(latencies_ms) / timed["wall_s"],
           "op_p50_ms": statistics.median(latencies_ms),
           "host_speed": timed["host_speed"]}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = result["layers"]
        declared = declared["per_layer"]
    else:
        declared = declared["end_to_end"]
        values = {
            "setup_s": statistics.median(at_ref for _, at_ref in setups),
            "ops_per_ref_s": raw["ops_per_s"] / raw["host_speed"],
            "op_p50_ref_ms": raw["op_p50_ms"] * raw["host_speed"],
            "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
            "reward_vs_lp": result["reward_vs_lp"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "host": result["host"], "setup": result["setup"],
               "setup_samples_s": [measured for measured, _ in setups],
               "setup_samples_ref_s": [at_ref for _, at_ref in setups], "rounds": timed["rounds"],
               "errors": timed["errors"], "check": verdict, "metrics": metrics, "raw": raw,
               "round_s": timed["round_s"], "latencies_ms": latencies_ms,
               "op_index": timed["op_index"]}
    ops_tail = tail(latencies_ms)
    if ops_tail and not args.trace:
        summary["op_tail_ms"] = {"percentile": ops_tail[0], "value": ops_tail[1],
                                 "ops": len(latencies_ms)}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("host " + json.dumps(result["host"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'setup_s as measured':24s} {raw['setup_s']:14.6g} s  (not gated)")
        print(f"  {'ops_per_s as measured':24s} {raw['ops_per_s']:14.6g} ops/s  (not gated)")
        print(f"  {'op_p50_ms as measured':24s} {raw['op_p50_ms']:14.6g} ms  (not gated)")
        control = (f"control loop {timed['control_ms']:.4g} ms" if timed["control"]
                   else "no control loop")
        print(f"  host_speed               {raw['host_speed']:14.6g} x reference  ({control})")
    if "op_tail_ms" in summary:
        print(f"  op_tail_ms               {ops_tail[1]:14.6g} ms  "
              f"(p{ops_tail[0]:g} of {len(latencies_ms)} ops; not gated)")
    print(f"  ops attempted {timed['attempted']}  failed {timed['failed']}  "
          f"rounds {timed['rounds']}")
    if result.get("counter_errors"):
        print(f"  {result['counter_errors']} counter reads failed; those counters read 0")
    print(f"  check: {verdict['checks']} checks, "
          + ("passed" if verdict["correct"] else
             f"{verdict['error_count']} failed: {verdict['errors']}"))
    print(json.dumps({"correct": verdict["correct"], "attempted": timed["attempted"],
                      "failed": timed["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

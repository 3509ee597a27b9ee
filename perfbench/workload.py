"""One workload of the benchmark, run in its own process.

run.py starts this file in a fresh interpreter with the BLAS pool held at
one thread.  ``--phase setup`` stops once set-up is done (run.py repeats
set-up in fresh processes and reports the median); ``--phase run`` then runs
the timed loop and writes the timings plus everything the checker needs.
The loop is closed with one caller: each op starts when the previous one
returns, and every run attempts whole rounds of the same ops.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESOURCES = ("cpu", "ram", "uplink", "downlink")


# -- inputs ---------------------------------------------------------------------

def _rng(np, seed, tag):
    return np.random.default_rng([int(seed), tag])


def setup_greedy(vp, instances, rounding_seeds):
    """LP optimum and greedy solutions (with rewards) of each instance, one
    greedy solution per rounding seed."""
    lps, greedy = [], []
    for inst, seeds in zip(instances, rounding_seeds):
        frac = vp.solve_lp(vp.build_relaxed_program(inst))
        sols = [vp.greedy_repair(inst, vp.randomized_round(frac, inst, seed=int(r)))
                for r in seeds]
        lps.append(frac.objective)
        greedy.append([(sol, vp.evaluate_solution(inst, sol).total_reward) for sol in sols])
    return lps, greedy


def setup_ratio(lps, greedy):
    """Sum of greedy rewards over the sum of LP optima, each LP counted once
    per greedy solution of its instance."""
    return (sum(reward for sols in greedy for _, reward in sols)
            / sum(lp * len(sols) for lp, sols in zip(lps, greedy)))


def instance_data(inst, single_copy=False):
    """Plain numbers for the checker, which never imports the package."""
    return {
        "caps": [[float(m.capacity(res)) for res in RESOURCES] for m in inst.mecs],
        "demands": [[float(r.demand(res)) for res in RESOURCES] for r in inst.requests],
        "rewards": [float(r.reward) for r in inst.requests],
        "thresholds": [float(r.failure_threshold) for r in inst.requests],
        "vnf_failure": float(inst.failure_model.vnf_failure),
        "pm_failure": float(inst.failure_model.pm_failure),
        "single_copy": single_copy,
    }


class CheckData(dict):
    """What check.py reads: instances as plain numbers, the LP optima and the
    solutions the package reported, and which of them make up reward_vs_lp."""

    def __init__(self, instances=()):
        super().__init__(instances=[instance_data(inst) for inst in instances],
                         lps=[], solutions=[], oracle=[], availsim=[], mismatches=0,
                         ratio={"greedy": [], "lp": []})

    def add_lp(self, inst_index, objective, ratio_weight=1):
        self["ratio"]["lp"] += [len(self["lps"])] * ratio_weight
        self["lps"].append({"inst": inst_index, "objective": float(objective)})

    def add_solution(self, inst_index, sol, kind, reward):
        if kind == "greedy":
            self["ratio"]["greedy"].append(len(self["solutions"]))
        self["solutions"].append({"inst": inst_index, "kind": kind, "reward": float(reward),
                                  "x": sol.x.astype(int).tolist(),
                                  "y": sol.y.astype(int).tolist()})

    def add_setup_greedy(self, lps, greedy):
        for i, (objective, sols) in enumerate(zip(lps, greedy)):
            self.add_lp(i, objective, ratio_weight=len(sols))
            for sol, reward in sols:
                self.add_solution(i, sol, "greedy", reward)


class SweepPaper:
    """Points of the paper's two sweeps, one run_experiment call per point."""

    REQUEST_POINTS = (30, 35, 40, 50, 60)
    CPU_POINTS = (24, 32, 40, 48, 56)      # 50 requests on identical nodes
    RUNS_PER_POINT = 3
    SCHEMES = ("lr", "rr", "greedy", "wo-avl")
    CONTROL = ("interpreted", 1)     # (control loop, runs after each op)

    def __init__(self, vp, np, seed, scratch):
        self.vp = vp
        self.out_dir = scratch / "sweep"
        bases = _rng(np, seed, 1).integers(0, 2**31, size=2 * len(self.CPU_POINTS))
        points = []
        for req, cpu in zip(self.REQUEST_POINTS, self.CPU_POINTS):
            points += [("requests", req), ("cpu", cpu)]
        self.round = [self._config(axis, value, int(base))
                      for (axis, value), base in zip(points, bases)]

    def _config(self, axis, value, base_seed):
        kwargs = dict(sweep=axis, runs=self.RUNS_PER_POINT, base_seed=base_seed,
                      schemes=self.SCHEMES, jobs=1)
        if axis == "requests":
            kwargs["request_counts"] = (value,)
        else:
            kwargs["sweep_values"] = (value,)
        return self.vp.ExperimentConfig(**kwargs)

    def run(self, cfg):
        report = self.vp.run_experiment(cfg)
        report.write(self.out_dir)
        return report.run_rows

    @staticmethod
    def fingerprint(rows):
        return tuple((r["run"], r["scheme"], r["reward"], r["served_pct"]) for r in rows)

    def reward_vs_lp(self, outputs):
        rows = [r for out in outputs.values() for r in out]
        greedy = sum(r["reward"] for r in rows if r["scheme"] == "greedy")
        lp = sum(r["reward"] for r in rows if r["scheme"] == "lr")
        return greedy / lp

    def check_data(self, outputs):
        """Re-run each op once with recorders on, and pair what they saw with
        the rows the timed loop produced."""
        from tracer import bindings

        vp = self.vp
        data = CheckData()
        seen = {}
        generated = set()

        def index(inst):
            if id(inst) not in seen:
                seen[id(inst)] = (len(data["instances"]), inst)
                data["instances"].append(
                    instance_data(inst, single_copy=id(inst) not in generated))
            return seen[id(inst)][0]

        state = {}

        def on_generate(fn):
            def wrapper(*a, **k):
                inst = fn(*a, **k)
                generated.add(id(inst))
                state["cell"].append(index(inst))
                return inst
            return wrapper

        def on_build(fn):
            def wrapper(inst, *a, **k):
                program = fn(inst, *a, **k)
                state["programs"][id(program)] = (program, index(inst))
                return program
            return wrapper

        def on_solve(fn):
            def wrapper(program, *a, **k):
                frac = fn(program, *a, **k)
                inst_index = state["programs"][id(program)][1]
                state["lps"].append((inst_index, frac.objective))
                return frac
            return wrapper

        def on_repair(fn):
            def wrapper(inst, sol, *a, **k):
                repaired = fn(inst, sol, *a, **k)
                if id(inst) in generated:
                    state["greedy"][index(inst)] = repaired
                return repaired
            return wrapper

        patched = []
        for original, make in ((vp.generate, on_generate),
                               (vp.build_relaxed_program, on_build),
                               (vp.solve_lp, on_solve),
                               (vp.greedy_repair, on_repair)):
            wrapper = make(original)
            for module, attribute in bindings(original):
                patched.append((module, attribute, original))
                setattr(module, attribute, wrapper)
        try:
            for i, cfg in enumerate(self.round):
                if i not in outputs:
                    continue
                state.update(cell=[], programs={}, lps=[], greedy={})
                rows = self.run(cfg)
                data["mismatches"] += self.fingerprint(rows) != self.fingerprint(outputs[i])
                for inst_index, objective in state["lps"]:
                    if data["instances"][inst_index]["single_copy"]:     # wo-avl
                        data.add_lp(inst_index, objective, ratio_weight=0)
                # the timed loop's own rows: lr is the LP optimum, greedy the reward
                for row in outputs[i]:
                    inst_index = state["cell"][row["run"]]
                    if row["scheme"] == "lr":
                        data.add_lp(inst_index, row["reward"])
                    elif row["scheme"] == "greedy":
                        data.add_solution(inst_index, state["greedy"][inst_index],
                                          "greedy", row["reward"])
        finally:
            for module, attribute, original in reversed(patched):
                setattr(module, attribute, original)
        return data


class GreedyLarge:
    """The full greedy pipeline on the 200 x 20 rung of the size ladder,
    ending with a Monte Carlo check of the placement's availability.

    The program is the same in every run (generator seed 0): simplex
    iteration counts differ by up to 70% between instances of this size,
    which the few ops of a run cannot average out.  A round is two ops with
    two rounding seeds and two simulation seeds, all set by the workload seed.
    """

    GENERATOR_SEED = 0
    ROUNDINGS = 2
    TRIALS = 4 * 32768
    # no control: the memory-bound simplex drifts little (spread 0.03-0.08
    # as measured), and no control loop tracked it better than none
    CONTROL = None

    def __init__(self, vp, np, seed, scratch):
        self.vp = vp
        self.instances = [vp.generate(vp.GeneratorConfig(request_count=200, mec_count=20,
                                                         seed=self.GENERATOR_SEED))]
        seeds = _rng(np, seed, 2).integers(0, 2**31, size=(self.ROUNDINGS, 2))
        self.round = [(0, int(r), int(sim)) for r, sim in seeds]

    def run(self, op):
        i, rounding_seed, sim_seed = op
        vp = self.vp
        inst = self.instances[i]
        frac = vp.solve_lp(vp.build_relaxed_program(inst))
        sol = vp.greedy_repair(inst, vp.randomized_round(frac, inst, seed=rounding_seed))
        metrics = vp.evaluate_solution(inst, sol)
        report = vp.simulate_availability(inst, sol, trials=self.TRIALS, seed=sim_seed,
                                          jobs=1)
        return frac.objective, metrics.total_reward, sol, [r.delivered
                                                          for r in report.per_request]

    @staticmethod
    def fingerprint(out):
        objective, reward, sol, delivered = out
        return objective, reward, sol.x.tobytes(), sol.y.tobytes(), tuple(delivered)

    def reward_vs_lp(self, outputs):
        return (sum(out[1] for out in outputs.values())
                / sum(out[0] for out in outputs.values()))

    def check_data(self, outputs):
        data = CheckData(self.instances)
        for i, (objective, reward, sol, delivered) in outputs.items():
            inst_index = self.round[i][0]
            data.add_lp(inst_index, objective)
            data["availsim"].append({"solution": len(data["solutions"]),
                                     "trials": self.TRIALS, "delivered": delivered})
            data.add_solution(inst_index, sol, "greedy", reward)
        return data


class OracleSmall:
    """solve_exact on 3 nodes x 8 requests; half the node sets are identical.

    The sixteen instances are the same in every run, because their search
    times spread over a factor of ten and sixteen ops cannot average that
    out.  The workload seed sets the rounding seeds of the greedy solutions
    the checker compares against: sixteen per instance, since the greedy/LP
    ratio of one rounding of eight requests ranges over 0.4-0.9.
    """

    POOL = 8          # instances of each kind
    ROUNDINGS = 16
    CONTROL = ("interpreted", 1)

    def __init__(self, vp, np, seed, scratch):
        self.vp = vp
        caps = np.random.default_rng(424).uniform((25.0, 80.0), (60.0, 200.0),
                                                  size=(self.POOL, 2))
        hetero = [vp.GeneratorConfig(mec_count=3, request_count=8, cpu_range=(10, 20),
                                     ram_range=(14, 26), uplink_capacity=float(up),
                                     downlink_capacity=float(dw), seed=s)
                  for s, (up, dw) in enumerate(caps)]
        identical = [vp.GeneratorConfig(mec_count=3, request_count=8, cpu_range=(15, 15),
                                        ram_range=(20, 20), uplink_capacity=40.0,
                                        downlink_capacity=140.0, seed=s)
                     for s in range(self.POOL)]
        self.instances = [vp.generate(cfg) for pair in zip(hetero, identical)
                          for cfg in pair]
        rounding = _rng(np, seed, 3).integers(0, 2**31, size=(len(self.instances),
                                                              self.ROUNDINGS))
        self.lps, self.greedy = setup_greedy(vp, self.instances, rounding)
        self.round = list(range(len(self.instances)))

    def run(self, i):
        return self.vp.solve_exact(self.instances[i])

    @staticmethod
    def fingerprint(result):
        return result.objective, result.nodes, result.solution.x.tobytes()

    def reward_vs_lp(self, outputs):
        return setup_ratio(self.lps, self.greedy)

    def check_data(self, outputs):
        data = CheckData(self.instances)
        data.add_setup_greedy(self.lps, self.greedy)
        for i, exact in outputs.items():
            data.add_solution(i, exact.solution, "exact", exact.objective)
            data["oracle"].append({"inst": i, "exact": float(exact.objective),
                                   "greedy": max(float(r) for _, r in self.greedy[i])})
        return data


WORKLOADS = {
    "sweep-paper": SweepPaper,
    "greedy-large": GreedyLarge,
    "oracle-small": OracleSmall,
}


# -- timing ---------------------------------------------------------------------

# The host's speed drifts by a third over minutes, and interpreter-bound
# ops drift with it.  A fixed benchmark-owned control loop of the same kind
# of work, timed after every op, drifts the same way, so ops scaled by it
# hold steady across runs.

def interpreted_control(np):
    """Like the package's small-program code: a pure-Python loop, then numpy
    calls on 140 x 550 arrays (a paper-sized program) from a Python loop."""
    m = np.random.default_rng(1).random((140, 550))
    w = np.ones(550)

    def loop():
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        for k in range(40):
            j = int(np.argmin(m @ w))
            np.outer(m[:20, k], m[j]).sum()
        return acc
    return loop


# name: (builder, the loop's median time on the reference host in ms)
CONTROLS = {"interpreted": (interpreted_control, 3.3)}
SETUP_CONTROL_SAMPLES = 20


def speed_of(kind, samples_s):
    """The host's speed relative to the reference host (below 1 when slower),
    from timings of the control loop; 1 for a workload without one."""
    if kind is None:
        return 1.0
    return CONTROLS[kind][1] / (1e3 * statistics.median(samples_s))


def control_for(wl, np):
    """The workload's control loop, run once to warm it, or None."""
    if wl.CONTROL is None:
        return None
    loop = CONTROLS[wl.CONTROL[0]][0](np)
    loop()
    return loop


def timed_controls(loop, count):
    if loop is None:
        return []
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - t0)
    return samples


def closed_loop(wl, seconds, control_loop):
    """Whole rounds until ``seconds`` of ops have passed; the workload's
    control loop runs ``reps`` times after every op, outside the op's time."""
    kind, reps = wl.CONTROL or (None, 0)
    latencies, op_index, round_s, errors, control_s = [], [], [], [], []
    first, first_print, mismatches = {}, {}, 0
    busy = 0.0
    while True:
        round_busy = 0.0
        for i, op in enumerate(wl.round):
            t0 = time.perf_counter()
            failure = None
            try:
                out = wl.run(op)
            except Exception as exc:   # a failed op is counted, and the loop goes on
                failure = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            round_busy += t1 - t0
            control_s += timed_controls(control_loop, reps)
            if failure:
                errors.append(failure)
                continue
            latencies.append(t1 - t0)
            op_index.append(i)
            fp = wl.fingerprint(out)
            if i in first:
                mismatches += fp != first_print[i]
            else:
                first[i], first_print[i] = out, fp
        round_s.append(round_busy)
        busy += round_busy
        if busy >= seconds:
            break
    return {"rounds": len(round_s), "attempted": len(round_s) * len(wl.round),
            "failed": len(errors), "errors": errors[:3], "wall_s": busy,
            "round_s": round_s, "latencies_s": latencies, "op_index": op_index,
            "control": kind,
            "control_ms": 1e3 * statistics.median(control_s) if control_s else None,
            "host_speed": speed_of(kind, control_s),
            "mismatches": mismatches}, first


def host_loops(np):
    """Control loops owned by the benchmark: they time the host, not the program."""
    def py_loop():
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return acc

    a = np.random.default_rng(0).random((480, 5160))
    v = np.ones(5160)

    def np_loop():
        for _ in range(20):
            a @ v

    out = {}
    for name, fn in (("py_loop_ms", py_loop), ("np_loop_ms", np_loop)):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            samples.append(1e3 * (time.perf_counter() - t0))
        out[name] = samples
    return out


def host_info(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None where it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--out", required=True, help="result file to write (JSON)")
    args = parser.parse_args(argv)
    out = Path(args.out)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import vnfplace as vp
    if Path(vp.__file__).resolve().parent != ROOT / "src" / "vnfplace":
        raise SystemExit(f"imported vnfplace from {vp.__file__}, not from this checkout")
    t1 = time.perf_counter()
    wl = WORKLOADS[args.workload](vp, np, args.seed, out.parent)
    t2 = time.perf_counter()
    try:
        wl.run(wl.round[0])     # warm-up; a failing op is counted in the timed loop
    except Exception:
        pass
    ready = time.monotonic()
    setup = {"import_s": t1 - t0, "inputs_s": t2 - t1,
             "warmup_s": time.perf_counter() - t2}
    # the host's speed right after set-up, timed outside it, for setup_s; the
    # timed loop reuses the control, so that its memory is counted once
    control_loop = control_for(wl, np)
    result = {"ready": ready, "setup": setup,
              "setup_speed": speed_of(wl.CONTROL and wl.CONTROL[0],
                                      timed_controls(control_loop, SETUP_CONTROL_SAMPLES))}
    if args.phase == "setup":
        out.write_text(json.dumps(result))
        return 0

    host = host_info(np)
    if host["blas_threads"] not in (None, 1):
        raise SystemExit(f"BLAS runs {host['blas_threads']} threads; the benchmark needs 1")
    if args.trace:
        from tracer import Tracer, wrapper_cost_s
        loops = host_loops(np)
        tracer = Tracer(vp)
        tracer.install()
        try:
            timed, outputs = closed_loop(wl, args.seconds, control_loop)
        finally:
            tracer.uninstall()
        for name, samples in host_loops(np).items():
            loops[name] += samples
        loops = {name: statistics.median(samples) for name, samples in loops.items()}
        ops = max(1, len(timed["latencies_s"]))
        result["layers"] = tracer.layer_metrics(ops, setup, loops, wrapper_cost_s())
        result["layers"]["host.speed"] = timed["host_speed"]
        result["counter_errors"] = tracer.counter_errors
    else:
        timed, outputs = closed_loop(wl, args.seconds, control_loop)
    # read before any check data is built, so that it is the workload's own peak
    timed["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(host=host, timed=timed, reward_vs_lp=wl.reward_vs_lp(outputs))
    check = wl.check_data(outputs)
    check["mismatches"] += timed["mismatches"]
    result["check"] = check
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

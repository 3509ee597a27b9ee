"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces every binding of a public vnfplace function, in
every loaded ``vnfplace`` module, with a timing wrapper; ``uninstall`` puts
the originals back.  Untraced runs never call ``install``, so they carry no
wrappers.  Spans nest: a layer's self time is its own time minus the time
of the wrapped calls made inside it.

The ``simplex_solve`` name that ``vnfplace.oracle`` imports gets a second
wrapper around the simplex one, so bound solves made by the oracle count
both as ``oracle.lp_bound`` and as ``lp.simplex``.
"""

import statistics
import sys
import time
from collections import defaultdict

# one float64 uniform per copy and trial (availsim draws trials x copies)
_BYTES_PER_DRAW = 8


def bindings(original):
    """(module, attribute) of every vnfplace module binding of ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "vnfplace" or name.startswith("vnfplace.")):
            continue
        found.extend((module, attribute) for attribute, value in vars(module).items()
                     if value is original)
    return found


def wrapper_cost_s(calls=20_000, batches=5):
    """Seconds one span wrapper adds to a call: a wrapped no-op minus a bare
    one, per call, median of ``batches`` batches timed back to back."""
    def noop():
        return None

    wrapped = Tracer(None)._wrap("noop", noop)
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, vp):
        self.vp = vp
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self._child_time = []       # stack: wrapped time spent inside each open span
        self._patched = []          # (owner, attribute, original)
        self.counter_errors = 0

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - inner
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # a counter the package no longer exposes reads as 0
                    self.counter_errors += 1
            return result
        return wrapper

    # -- counters read from arguments and results ------------------------------

    def _after_simplex(self, args, kwargs, result):
        self.counts["lp.iters"] += result.iterations

    def _after_build(self, args, kwargs, program):
        self.counts["lp.rows"] += len(program.rows)
        self.counts["lp.vars"] += program.n_vars
        self.counts["lp.nnz"] += sum(len(coeffs) for coeffs, _, _ in program.rows)

    def _after_exact(self, args, kwargs, result):
        self.counts["oracle.nodes"] += result.nodes

    def _after_repair(self, args, kwargs, repaired):
        rounded = args[1] if len(args) > 1 else kwargs["sol"]
        self.counts["repair.rounded_served"] += int(rounded.y.sum())
        self.counts["repair.kept"] += int(repaired.y.sum())

    def _after_availsim(self, args, kwargs, report):
        sol = args[1] if len(args) > 1 else kwargs["sol"]
        self.counts["availsim.draws"] += report.trials * int(sol.x.sum())

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _rebind(self, original, wrapper, special=None):
        for module, attribute in bindings(original):
            self._patch(module, attribute, (special or {}).get(module.__name__, wrapper))

    def install(self):
        vp = self.vp
        simplex = self._wrap("lp.simplex", vp.simplex_solve, self._after_simplex)
        lp_bound = self._wrap("oracle.lp_bound", simplex)
        self._rebind(vp.simplex_solve, simplex, special={"vnfplace.oracle": lp_bound})
        plain = (
            ("lp.build", vp.build_relaxed_program, self._after_build),
            ("oracle", vp.solve_exact, self._after_exact),
            ("rounding", vp.randomized_round, None),
            ("repair", vp.greedy_repair, self._after_repair),
            ("bounds", vp.compute_bound_report, None),
            ("model.evaluate", vp.evaluate_solution, None),
            ("gen", vp.generate, None),
            ("experiments", vp.run_experiment, None),
            ("availsim", vp.simulate_availability, self._after_availsim),
        )
        for name, original, after in plain:
            self._rebind(original, self._wrap(name, original, after))
        report_cls = vp.ExperimentReport
        self._patch(report_cls, "write",
                    self._wrap("experiments.write", report_cls.write))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, ops, setup, host, wrapper_s):
        """Per-layer metric values; times and counts are per traced op.
        ``wrapper_s`` is the cost of one span wrapper (``wrapper_cost_s``)."""
        per_op = 1.0 / ops
        s, c, n = self.seconds, self.counts, self.calls

        def ratio(a, b):
            return a / b if b else 0.0

        builds = n["lp.build"]
        evicted = c["repair.rounded_served"] - c["repair.kept"]
        return {
            "lp.simplex.calls": n["lp.simplex"] * per_op,
            "lp.simplex.s": s["lp.simplex"] * per_op,
            "lp.simplex.iters": c["lp.iters"] * per_op,
            "lp.simplex.us_per_iter": 1e6 * ratio(s["lp.simplex"], c["lp.iters"]),
            "lp.build.s": s["lp.build"] * per_op,
            "lp.rows": ratio(c["lp.rows"], builds),
            "lp.vars": ratio(c["lp.vars"], builds),
            "lp.nnz": ratio(c["lp.nnz"], builds),
            "oracle.s": s["oracle"] * per_op,
            "oracle.nodes": c["oracle.nodes"] * per_op,
            "oracle.nodes_per_s": ratio(c["oracle.nodes"], s["oracle"]),
            "oracle.lp_bound.calls": n["oracle.lp_bound"] * per_op,
            "oracle.lp_bound.s": s["oracle.lp_bound"] * per_op,
            "oracle.self_s": self.self_seconds["oracle"] * per_op,
            "rounding.s": s["rounding"] * per_op,
            "repair.s": s["repair"] * per_op,
            "repair.evicted": evicted * per_op,
            "repair.kept_ratio": ratio(c["repair.kept"], c["repair.rounded_served"]),
            "bounds.s": s["bounds"] * per_op,
            "model.evaluate.calls": n["model.evaluate"] * per_op,
            "model.evaluate.s": s["model.evaluate"] * per_op,
            "gen.s": s["gen"] * per_op,
            "experiments.self_s": self.self_seconds["experiments"] * per_op,
            "experiments.write_s": s["experiments.write"] * per_op,
            "availsim.s": s["availsim"] * per_op,
            "availsim.draws_per_s": ratio(c["availsim.draws"], s["availsim"]),
            "availsim.bytes_drawn": _BYTES_PER_DRAW * c["availsim.draws"] * per_op,
            "setup.import_s": setup["import_s"],
            "setup.inputs_s": setup["inputs_s"],
            "host.py_loop_ms": host["py_loop_ms"],
            "host.np_loop_ms": host["np_loop_ms"],
            "trace.overhead_s": sum(n.values()) * per_op * wrapper_s,
        }

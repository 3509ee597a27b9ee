"""Checks a workload's outputs against computations made apart from vnfplace.

Run by run.py in its own process after the workload process has ended, so
that neither the imports here (scipy.optimize) nor their memory reach the
measured process.  Nothing here imports the package: the instance arrives as
plain numbers and every reference is recomputed from its definition.

    python3 perfbench/check.py RESULT.json     # prints a JSON verdict

Checks:
  lp        every LP optimum equals scipy's HiGHS within 1e-6 relative
  feasible  every solution is 0/1 and fits every node capacity
  copies    every served request holds ceil(ln eps_r / ln eps_m) copies
  reward    every reported reward is the sum of the served rewards
  oracle    greedy <= exact <= HiGHS LP, and exact equals an enumeration
  availsim  every delivered count lies in a 99.9% binomial band
            (Bonferroni over all counts of the run) around
            trials * (1 - eps_m ** copies)
  ratio     reward_vs_lp equals the sum of greedy rewards over LP optima
  repeat    every round of the timed loop produced the same outputs
"""

import itertools
import json
import math
import sys

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from scipy.stats import binom

LP_RTOL = 1e-6
FEAS_TOL = 1e-9
BAND_LEVEL = 0.999
ENUMERATION_LIMIT = 1 << 18     # assignments; above this the enumeration is skipped


def replica_counts(inst):
    """Copies each request needs: one when single_copy, else the ceil rule."""
    R = len(inst["rewards"])
    if inst["single_copy"]:
        return [1] * R
    eps_m = inst["vnf_failure"] + inst["pm_failure"]
    # snap ratios within 1e-9 of an integer, so eps_m ** k itself needs k copies
    return [max(1, math.ceil(math.log(t) / math.log(eps_m) - 1e-9))
            for t in inst["thresholds"]]


def highs_lp(inst):
    """Relaxed optimum: maximize sum reward*y, sum_m x >= k*y, loads <= caps."""
    caps = np.asarray(inst["caps"], dtype=float)          # M x 4
    demands = np.asarray(inst["demands"], dtype=float)    # R x 4
    rewards = np.asarray(inst["rewards"], dtype=float)
    R, M = demands.shape[0], caps.shape[0]
    k = replica_counts(inst)
    n = R * M + R
    rows, cols, vals = [], [], []
    for r in range(R):                       # k_r y_r - sum_m x_rm <= 0
        rows += [r] * (M + 1)
        cols += [r * M + m for m in range(M)] + [R * M + r]
        vals += [-1.0] * M + [float(k[r])]
    b = [0.0] * R
    for j in range(4):                        # sum_r d_r x_rm <= c_m
        for m in range(M):
            row = R + j * M + m
            rows += [row] * R
            cols += [r * M + m for r in range(R)]
            vals += list(demands[:, j])
            b.append(caps[m, j])
    a = coo_matrix((vals, (rows, cols)), shape=(R + 4 * M, n)).tocsr()
    c = np.zeros(n)
    c[R * M:] = -rewards
    res = linprog(c, A_ub=a, b_ub=b, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -float(res.fun)


def solution_errors(inst, sol, check_copies):
    """Problems with one 0/1 solution, as (check name, message) pairs."""
    caps = np.asarray(inst["caps"], dtype=float)
    demands = np.asarray(inst["demands"], dtype=float)
    x = np.asarray(sol["x"])
    y = np.asarray(sol["y"])
    R, M = demands.shape[0], caps.shape[0]
    if x.shape != (R, M) or y.shape != (R,):
        return [("feasible", f"shape {x.shape}/{y.shape} for {R} requests, {M} nodes")]
    if not (np.isin(x, (0, 1)).all() and np.isin(y, (0, 1)).all()):
        return [("feasible", "entries are not 0/1")]
    errors = []
    load = x.T @ demands                       # M x 4
    over = load > caps * (1 + FEAS_TOL) + FEAS_TOL
    for m, j in zip(*np.nonzero(over)):
        errors.append(("feasible", f"node {m} resource {j}: load {load[m, j]:.6g} "
                                   f"> capacity {caps[m, j]:.6g}"))
    if check_copies:
        k = replica_counts(inst)
        copies = x.sum(axis=1)
        for r in np.flatnonzero(y == 1):
            if copies[r] < k[r]:
                errors.append(("copies", f"request {r} served with {copies[r]} copies, "
                                         f"needs {k[r]}"))
    reward = float(np.asarray(inst["rewards"]) @ y)
    if abs(reward - sol["reward"]) > FEAS_TOL * max(1.0, abs(reward)):
        errors.append(("reward", f"reported reward {sol['reward']!r}, served rewards "
                                 f"sum to {reward!r}"))
    return errors


def enumerate_optimum(inst):
    """Best reward over every assignment of exactly-k node subsets, or None.

    More copies than k only add load, so exactly-k subsets reach the optimum.
    Returns None when the assignments outnumber ENUMERATION_LIMIT.
    """
    caps = np.asarray(inst["caps"], dtype=float)
    demands = np.asarray(inst["demands"], dtype=float)
    rewards = np.asarray(inst["rewards"], dtype=float)
    R, M = demands.shape[0], caps.shape[0]
    options = []
    for k in replica_counts(inst):
        rows = [np.zeros(M)]
        for subset in itertools.combinations(range(M), k):
            row = np.zeros(M)
            row[list(subset)] = 1.0
            rows.append(row)
        options.append(np.array(rows))
    sizes = [len(o) for o in options]
    total = math.prod(sizes)
    if total > ENUMERATION_LIMIT:
        return None
    choice = np.unravel_index(np.arange(total), sizes)     # R arrays of option ids
    load = np.zeros((total, M, 4))
    value = np.zeros(total)
    for r in range(R):
        placed = options[r][choice[r]]                     # total x M
        load += placed[:, :, None] * demands[r][None, None, :]
        value += rewards[r] * (choice[r] > 0)
    fits = (load <= caps[None] * (1 + FEAS_TOL) + FEAS_TOL).all(axis=(1, 2))
    return float(value[fits].max())


def check(data, reported_ratio):
    """All checks on one workload's check data; returns (checks run, errors)."""
    instances = data["instances"]
    errors = []
    checks = 0
    lp_cache = {}

    def lp_ref(i):
        if i not in lp_cache:
            lp_cache[i] = highs_lp(instances[i])
        return lp_cache[i]

    for rec in data["lps"]:
        checks += 1
        ref = lp_ref(rec["inst"])
        if abs(rec["objective"] - ref) > LP_RTOL * max(1.0, abs(ref)):
            errors.append(("lp", f"instance {rec['inst']}: objective {rec['objective']!r}, "
                                 f"HiGHS {ref!r}"))

    for sol in data["solutions"]:
        checks += 1
        inst = instances[sol["inst"]]
        errors += solution_errors(inst, sol, check_copies=not inst["single_copy"])

    for rec in data.get("oracle", ()):
        checks += 1
        i = rec["inst"]
        ref = lp_ref(i)
        if not rec["greedy"] <= rec["exact"] + FEAS_TOL:
            errors.append(("oracle", f"instance {i}: greedy {rec['greedy']!r} > "
                                     f"exact {rec['exact']!r}"))
        if not rec["exact"] <= ref + LP_RTOL * max(1.0, abs(ref)):
            errors.append(("oracle", f"instance {i}: exact {rec['exact']!r} > "
                                     f"HiGHS LP {ref!r}"))
        best = enumerate_optimum(instances[i])
        if best is not None and abs(best - rec["exact"]) > LP_RTOL * max(1.0, best):
            errors.append(("oracle", f"instance {i}: exact {rec['exact']!r}, "
                                     f"enumeration {best!r}"))

    errors += availsim_errors(data, instances)
    checks += len(data.get("availsim", ()))

    checks += 1
    greedy = sum(float(np.asarray(instances[data["solutions"][j]["inst"]]["rewards"])
                       @ np.asarray(data["solutions"][j]["y"]))
                 for j in data["ratio"]["greedy"])
    lp = sum(lp_ref(data["lps"][j]["inst"]) for j in data["ratio"]["lp"])
    if abs(greedy / lp - reported_ratio) > LP_RTOL * greedy / lp:
        errors.append(("ratio", f"reward_vs_lp {reported_ratio!r}, recomputed "
                                f"{greedy / lp!r}"))

    checks += 1
    if data["mismatches"]:
        errors.append(("repeat", f"{data['mismatches']} op(s) gave outputs that "
                                 f"differ between rounds"))
    return checks, errors


def availsim_errors(data, instances):
    entries = data.get("availsim", ())
    counts = []       # (entry, request, copies, delivered, trials, eps_m)
    for e, rec in enumerate(entries):
        sol = data["solutions"][rec["solution"]]
        inst = instances[sol["inst"]]
        eps_m = inst["vnf_failure"] + inst["pm_failure"]
        copies = np.asarray(sol["x"]).sum(axis=1)
        for r, delivered in enumerate(rec["delivered"]):
            counts.append((e, r, int(copies[r]), delivered, rec["trials"], eps_m))
    tested = [c for c in counts if c[2] > 0]
    tail = (1.0 - BAND_LEVEL) / max(1, len(tested)) / 2.0
    errors = []
    for e, r, k, delivered, trials, eps_m in counts:
        if k == 0:
            if delivered != 0:
                errors.append(("availsim", f"run {e} request {r}: no copies, "
                                           f"{delivered} delivered"))
            continue
        p = 1.0 - eps_m ** k
        lo, hi = binom.ppf(tail, trials, p), binom.isf(tail, trials, p)
        if not lo <= delivered <= hi:
            errors.append(("availsim", f"run {e} request {r}: {delivered} of {trials} "
                                       f"delivered with {k} copies, band "
                                       f"[{lo:.0f}, {hi:.0f}]"))
    return errors


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        result = json.load(fh)
    checks, errors = check(result["check"], result["reward_vs_lp"])
    print(json.dumps({"correct": not errors, "checks": checks,
                      "errors": [f"{name}: {msg}" for name, msg in errors[:10]],
                      "error_count": len(errors)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Independent reference implementations used only by tests.

Everything here recomputes results straight from definitions, sharing no
algorithmic code with the package: constraint checking walks the constraint
families one by one, linear programs are maximized by enumerating candidate
vertices, and the exact placement optimum enumerates every subset assignment
(including oversized ones, to exercise the package's exactly-k reduction),
and Monte Carlo delivery counts come from one full draw matrix per chunk.
"""

import itertools

import numpy as np

RESOURCE_FIELDS = ("cpu", "ram", "uplink", "downlink")


def brute_force_feasible(inst, x, y, tol=1e-9):
    """Check every constraint family directly from the instance data."""
    R, M = len(inst.requests), len(inst.mecs)
    for r in range(R):
        if y[r] not in (0, 1):
            return False
        for m in range(M):
            if x[r][m] not in (0, 1):
                return False
    for r in range(R):
        if y[r] == 1 and sum(x[r][m] for m in range(M)) < inst.replicas[r]:
            return False
    for res in RESOURCE_FIELDS:
        for m in range(M):
            load = sum(getattr(inst.requests[r], res + "_demand") * x[r][m]
                       for r in range(R))
            if load > getattr(inst.mecs[m], res + "_capacity") + tol:
                return False
    return True


def vertex_enumeration_max(lp, tol=1e-8):
    """Optimum of a small boxed program, or None when infeasible.

    Every vertex of the feasible region makes n constraints tight out of the
    rows and the individual bounds, so trying every n-subset of candidate
    hyperplanes and keeping the best feasible intersection finds the optimum.
    """
    n = lp.n_vars
    rows = []
    for coeffs, sense, rhs in lp.rows:
        a = np.zeros(n)
        for j, v in coeffs:
            a[j] += v
        rows.append((a, sense, rhs))
    planes = [(a, rhs) for a, _sense, rhs in rows]
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        planes.append((ej, lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            planes.append((ej, lp.upper[j]))

    def feasible(v):
        if (v < lp.lower - tol).any() or (v > lp.upper + tol).any():
            return False
        for a, sense, rhs in rows:
            lhs = float(a @ v)
            if sense == "<=" and lhs > rhs + tol:
                return False
            if sense == ">=" and lhs < rhs - tol:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            v = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not feasible(v):
            continue
        val = float(lp.objective @ v)
        if best is None or val > best:
            best = val
    return best


def exhaustive_any_subset_optimum(inst):
    """Best reward over ALL subset assignments, replica counts as minimums.

    Unlike the package oracle this allows serving a request on more nodes
    than its replica count, so agreement demonstrates that exactly-k subsets
    are enough.  Exponential; keep instances tiny.
    """
    R, M = len(inst.requests), len(inst.mecs)
    options = []
    for r in range(R):
        opts = [None]
        for k in range(inst.replicas[r], M + 1):
            opts.extend(itertools.combinations(range(M), k))
        options.append(opts)

    best = 0.0
    for assignment in itertools.product(*options):
        loads = {res: [0.0] * M for res in RESOURCE_FIELDS}
        value = 0.0
        ok = True
        for r, combo in enumerate(assignment):
            if combo is None:
                continue
            value += inst.requests[r].reward
            for m in combo:
                for res in RESOURCE_FIELDS:
                    loads[res][m] += getattr(inst.requests[r], res + "_demand")
        for res in RESOURCE_FIELDS:
            for m in range(M):
                if loads[res][m] > getattr(inst.mecs[m], res + "_capacity") + 1e-9:
                    ok = False
        if ok:
            best = max(best, value)
    return best


def reference_chunk_counts(seed, chunk_index, size, eps_m, widths):
    """Delivered counts per request for one availability-simulation chunk.

    Draws the whole (size, total copies) uniform matrix from the chunk's
    stream at once and counts, request by request, the trials in which all
    of its copies failed.
    """
    rng = np.random.default_rng([seed, chunk_index])
    draws = rng.random((size, int(sum(widths)))) < eps_m   # True = copy failed
    counts = np.zeros(len(widths), dtype=np.int64)
    col = 0
    for i, k in enumerate(widths):
        if k:
            counts[i] = size - int(draws[:, col:col + k].all(axis=1).sum())
        col += k
    return counts

"""Independent reference implementations used only by tests.

Everything here recomputes results straight from definitions, sharing no
algorithmic code with the package: constraint checking walks the constraint
families one by one, linear programs are maximized by enumerating candidate
vertices, and the exact placement optimum enumerates every subset assignment
(including oversized ones, to exercise the package's exactly-k reduction),
and Monte Carlo delivery counts come from one full failure matrix per
chunk.
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


def placement_entries(inst):
    """Entry lists (row, var, coef, sense, rhs) of the relaxed placement
    program, built row by row: one redundancy row per request, then one
    capacity row per resource and node, resource-major; x[r, m] is variable
    r * M + m and y[r] variable R * M + r."""
    R, M = len(inst.requests), len(inst.mecs)
    row, var, coef, sense, rhs = [], [], [], [], []
    for r in range(R):
        for m in range(M):
            row.append(r)
            var.append(r * M + m)
            coef.append(1.0)
        row.append(r)
        var.append(R * M + r)
        coef.append(-float(inst.replicas[r]))
        sense.append(">=")
        rhs.append(0.0)
    for k, res in enumerate(RESOURCE_FIELDS):
        for m in range(M):
            for r in range(R):
                row.append(R + k * M + m)
                var.append(r * M + m)
                coef.append(float(getattr(inst.requests[r], res + "_demand")))
            sense.append("<=")
            rhs.append(float(getattr(inst.mecs[m], res + "_capacity")))
    return row, var, coef, sense, rhs


def constraint_matrix(lp):
    """The program's dense row-by-variable matrix, summed from its entry arrays."""
    A = np.zeros((lp.rhs.size, lp.n_vars))
    np.add.at(A, (lp.row, lp.var), lp.coef)
    return A


def vertex_enumeration_max(lp, tol=1e-8):
    """Optimum of a small boxed program, or None when infeasible.

    Every vertex of the feasible region makes n constraints tight out of the
    rows and the individual bounds, so trying every n-subset of candidate
    hyperplanes and keeping the best feasible intersection finds the optimum.
    """
    n = lp.n_vars
    rows = list(zip(constraint_matrix(lp), lp.sense.tolist(), lp.rhs.tolist()))
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


def column_entries(padded_rows, padded_data, count):
    """Entry lists (row, value, column) of a matrix stored padded: column q
    holds its entries in its first count[q] slots.  Read one entry at a
    time, column by column and slot by slot."""
    rows, data, col_of = [], [], []
    for q, k in enumerate(count.tolist()):
        for slot in range(k):
            rows.append(padded_rows[slot, q])
            data.append(padded_data[slot, q])
            col_of.append(q)
    return np.array(rows, dtype=np.intp), np.array(data), np.array(col_of, dtype=np.intp)


def bincount_transposed_product(padded_rows, padded_data, count, y):
    """y @ A for a matrix stored padded: every entry's term added, column by
    column and slot by slot, into its column's bin."""
    rows, data, col_of = column_entries(padded_rows, padded_data, count)
    return np.bincount(col_of, weights=y[rows] * data, minlength=count.size)


def dense_basis(padded_rows, padded_data, count, basis):
    """The basis matrix whose column i is the stored column basis[i],
    repeated entries added up, built one entry at a time."""
    B = np.zeros((len(basis), len(basis)))
    for i, j in enumerate(basis):
        for slot in range(count[j]):
            B[padded_rows[slot, j], i] += padded_data[slot, j]
    return B


def reference_chunk_counts(seed, chunk_index, size, eps_m, widths):
    """Delivered counts per request for one availability-simulation chunk.

    The chunk's stream places the minority outcome (failure when eps_m is at
    most 0.5, survival otherwise) on the row-major (trial, copy) cells by
    geometric gaps.  Here every hit is drawn at once, expanded into one full
    failure matrix, and counted request by request: the trials in which all
    of its copies failed.
    """
    rng = np.random.default_rng([seed, chunk_index])
    total = int(sum(widths))
    cells = size * total
    p = min(eps_m, 1.0 - eps_m)
    hit = np.zeros(cells, dtype=bool)
    position = -1
    while p > 0.0 and position < cells:
        gaps = np.minimum(rng.geometric(p, 4096), cells + 1)
        positions = position + np.cumsum(gaps)
        hit[positions[positions < cells]] = True
        position = int(positions[-1])
    failed = (hit if eps_m <= 0.5 else ~hit).reshape(size, total)
    counts = np.zeros(len(widths), dtype=np.int64)
    col = 0
    for i, k in enumerate(widths):
        if k:
            counts[i] = size - int(failed[:, col:col + k].all(axis=1).sum())
        col += k
    return counts

"""Independent reference implementations used only by tests.

Everything here recomputes results straight from definitions, sharing no
algorithmic code with the package: constraint checking walks the constraint
families one by one, linear programs are maximized by enumerating candidate
vertices, the exact placement optimum enumerates every subset assignment
(including oversized ones, to exercise the package's exactly-k reduction) or
comes from HiGHS's MILP solver, and Monte Carlo delivery counts come from one
full failure matrix per chunk.  ``greedy_vertex`` runs the greedy packing
on numpy arrays, as the reference for the package's Python-float ``pack``.
"""

import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

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


def reference_metrics(inst, x, y, tol=1e-9):
    """(violations, wasted, served, reward) of a 0/1 solution, each found
    by walking the constraint families and the placements one at a time:
    redundancy shortfalls by request, then overloads by resource and node,
    then the copies of unserved requests in row-major order."""
    R, M = len(inst.requests), len(inst.mecs)
    violations = []
    for r in range(R):
        placed = sum(x[r][m] for m in range(M))
        if y[r] == 1 and placed < inst.replicas[r]:
            violations.append(("redundancy", r, float(inst.replicas[r] - placed)))
    for res in RESOURCE_FIELDS:
        for m in range(M):
            load = sum(getattr(inst.requests[r], res + "_demand") * x[r][m] for r in range(R))
            cap = getattr(inst.mecs[m], res + "_capacity")
            if load > cap + tol:
                violations.append((res, m, float(load - cap)))
    wasted = [(r, m) for r in range(R) for m in range(M) if x[r][m] == 1 and y[r] == 0]
    served = sum(y[r] for r in range(R))
    reward = sum(inst.requests[r].reward for r in range(R) if y[r] == 1)
    return violations, wasted, served, float(reward)


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


def greedy_vertex(inst):
    """A feasible 0/1 placement (x, y) that serves every request a greedy fits.

    Requests are taken in descending reward over psi_r times their demand
    summed over the four resources, each normalized by the resource's total
    capacity.  A request is served when at least psi_r nodes still fit it,
    on the psi_r fitting nodes with the most slack, summed over the
    resources as shares of the node's capacity.  Both orders are stable
    sorts, so ties go to the lower index.
    """
    R, M = inst.n_requests, inst.n_mecs
    demand = np.array([inst.demand_vector(res) for res in RESOURCE_FIELDS])     # 4 x R
    cap = np.array([inst.capacity_vector(res) for res in RESOURCE_FIELDS])      # 4 x M
    psi = inst.replica_vector()
    density = inst.reward_vector() / (psi * ((1.0 / cap.sum(axis=1)) @ demand))
    slack = cap.copy()
    x, y = np.zeros((R, M)), np.zeros(R)
    for r in np.argsort(-density, kind="stable").tolist():
        need = demand[:, r, None]
        fits = np.flatnonzero((need <= slack).all(axis=0))
        if fits.size < psi[r]:
            continue
        room = (slack[:, fits] / cap[:, fits]).sum(axis=0)
        nodes = fits[np.argsort(-room, kind="stable")[: psi[r]]]
        slack[:, nodes] -= need
        x[r, nodes] = 1.0
        y[r] = 1.0
    return x, y


def reference_chunk_counts(seed, chunk_index, size, eps_m, widths):
    """Delivered counts per request for one availability-simulation chunk,
    simulated copy by copy: one full (trial, copy) failure matrix, each cell
    failing with probability eps_m, counted request by request as the trials
    in which not all of its copies failed.  The package draws one binomial
    per request instead, so the two agree in distribution, not draw for draw.
    """
    rng = np.random.default_rng([seed, chunk_index])
    failed = rng.random((size, int(sum(widths)))) < eps_m
    counts = np.zeros(len(widths), dtype=np.int64)
    col = 0
    for i, k in enumerate(widths):
        if k:
            counts[i] = size - int(failed[:, col:col + k].all(axis=1).sum())
        col += k
    return counts


def reference_round(frac, inst, seed):
    """Randomized rounding with one scalar admission draw per request that
    clears its replica gate, in request order.  Returns (x, y)."""
    x_prob = np.clip(np.asarray(frac.x, dtype=float), 0.0, 1.0)
    y_prob = np.clip(np.asarray(frac.y, dtype=float), 0.0, 1.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = (rng.random(x_prob.shape) < x_prob).astype(np.int8)
    y = np.zeros(y_prob.size, dtype=np.int8)
    placed, need = x.sum(axis=1), inst.replica_vector()
    for r in range(y.size):
        if placed[r] >= need[r] and rng.random() < y_prob[r]:
            y[r] = 1
    return x, y


def expected_reward(frac, inst):
    """Expected reward of randomized rounding, with no sampling:
    sum_r reward_r * y_r * P(sum_m Bernoulli(x_rm) >= psi_r).  Each
    probability comes from the Poisson-binomial recursion over the
    request's nodes, one node at a time; x and y are clipped to [0, 1], as
    the rounding clips them."""
    x = np.clip(np.asarray(frac.x, dtype=float), 0.0, 1.0).tolist()
    y = np.clip(np.asarray(frac.y, dtype=float), 0.0, 1.0).tolist()
    total = 0.0
    for r, request in enumerate(inst.requests):
        placed = [1.0]                  # placed[j]: P(j copies on the nodes so far)
        for p in x[r]:
            placed = [a * (1.0 - p) + b * p for a, b in zip(placed + [0.0], [0.0] + placed)]
        total += request.reward * y[r] * sum(placed[inst.replicas[r]:])
    return total


def milp_optimum(inst):
    """Optimal reward of the 0/1 placement program, from HiGHS's MILP solver
    run to a zero relative gap on the dense matrix of ``placement_entries``.
    The reward is summed over the solution's y rounded to 0/1, so that the
    solver's integrality tolerance leaves no dust in it."""
    R, M = len(inst.requests), len(inst.mecs)
    row, var, coef, sense, rhs = placement_entries(inst)
    A = np.zeros((len(rhs), R * M + R))
    np.add.at(A, (row, var), coef)
    rhs, at_least = np.array(rhs), np.array(sense) == ">="
    rows = LinearConstraint(A, np.where(at_least, rhs, -np.inf), np.where(at_least, np.inf, rhs))
    reward = np.array([req.reward for req in inst.requests])
    result = milp(np.concatenate([np.zeros(R * M), -reward]), constraints=rows,
                  integrality=np.ones(R * M + R), bounds=Bounds(0.0, 1.0),
                  options={"mip_rel_gap": 0.0})
    assert result.success, result.message
    return float(reward @ np.round(result.x[R * M:]))


def copy_count(demand, k, node):
    """How many copies of requests k and later one node can hold, by the
    oracle's rule: per resource, the smallest demands of requests k and
    later are added up one at a time while the running sum stays within
    the node's residual plus 1e-9 times the larger of 1 and that residual;
    the least of the four counts."""
    counts = []
    for j in range(4):
        limit = node[j] + 1e-9 * max(1.0, node[j])
        total, n = 0.0, 0
        for d in sorted(demand[j][k:]):
            total += d
            if total > limit:
                break
            n += 1
        counts.append(n)
    return min(counts)


def max_admitted_copies(demand, k, node):
    """The largest set of distinct requests k and later that one node
    admits by a sequence of the oracle's fit tests (each demand at most the
    residual plus 1e-12 of float dust, the residual then reduced by it),
    over every order of every subset.  Exponential; keep it tiny."""
    demand = np.asarray(demand).tolist()
    floors = [[d - 1e-12 for d in row] for row in demand]

    def admits(sequence):
        residual = list(node)
        for i in sequence:
            if not all(residual[j] >= floors[j][i] for j in range(4)):
                return False
            residual = [residual[j] - demand[j][i] for j in range(4)]
        return True

    later = range(k, len(demand[0]))
    for size in range(len(later), 0, -1):
        for subset in itertools.combinations(later, size):
            if any(map(admits, itertools.permutations(subset))):
                return size
    return 0


def knapsack_bound(rewards, demand, psi, k, residual):
    """The exact oracle's bound on the reward of requests k and later.

    ``rewards`` (R), ``demand`` (4 x R) and ``psi`` (R) list the requests in
    search order; ``residual`` holds one (cpu, ram, uplink, downlink) tuple
    per node.  A request counts only when at least psi nodes can each hold a
    copy (demand up to 1e-12 of float dust).  The counted requests fill five
    fractional knapsacks, each in descending order of reward per weight:
    one per resource, of weight psi times demand in the summed positive
    residual, and one of weight psi in the summed ``copy_count`` of the
    nodes.  The smallest of the five values bounds what is left.
    """
    R = len(rewards)
    rewards, demand, psi = (np.asarray(a).tolist() for a in (rewards, demand, psi))

    def fits(node, i):
        return all(node[j] >= demand[j][i] - 1e-12 for j in range(4))

    eligible = [i >= k and sum(fits(node, i) for node in residual) >= psi[i] for i in range(R)]
    rooms = [sum(node[j] for node in residual if node[j] > 0.0) for j in range(4)]
    weights = [[psi[i] * demand[j][i] for i in range(R)] for j in range(4)]
    rooms.append(sum(copy_count(demand, k, node) for node in residual))
    weights.append(psi)
    values = []
    for room, weight in zip(rooms, weights):
        used = value = 0.0
        for i in sorted(range(R), key=lambda i: -rewards[i] / weight[i]):
            if not eligible[i]:
                continue
            used += weight[i]
            share = (room - used + weight[i]) / weight[i]     # of request i that still fits
            value += rewards[i] * min(max(share, 0.0), 1.0)
            if share < 1.0:
                break
        values.append(value)
    return min(values)

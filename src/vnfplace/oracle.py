"""Exact reference solver for small placement instances.

Served requests never benefit from copies beyond their replica count (extra
copies consume capacity and add no reward), so the search enumerates, per
request, either "unserved" or one exactly-replica-count subset of nodes.
Requests are visited in reward-descending order; serve branches precede the
drop branch, node subsets in lexicographic order.  Among nodes with exactly
equal residual capacities a subset may take only the lowest-indexed ones, the
lexicographically smallest of its symmetry class: the result is unchanged.

Two modes share that skeleton: ``exhaustive`` prunes only with the remaining
reward sum, ``branch_and_bound`` (the default) also with the least of five
fractional knapsacks over the undecided requests, each counting a request
only while psi nodes can each still hold a copy of it.  Four are per
resource: weight psi times demand, room the summed residual capacity.  The
fifth is over copies: weight psi, room the copies the nodes can hold, a
node holding at most as many as the smallest demands of requests k and
later fit in its residual, resource by resource, by their running sum.
That sum is compared with the residual plus 1e-9 times the larger of 1 and
the residual, so rounding never counts fewer copies than a sequence of the
search's fit tests, each with its 1e-12 floor, can place; counting more
only weakens the bound.  At depth k each knapsack walks only the items of
requests k and later, and the walk stops at the first knapsack whose value
prunes: float addition is monotone, so that is the decision the smallest
value would make.  Every depth's slice of the density order, and of the
running sums, is built once, before the search: the first dive takes a
bound at every depth unless no remaining request fits, since the incumbent
is 0 until the first leaf, so building them lazily saved nothing and cost
a test per bound.  The tables are the same either way, hence so are the
bound values and every pruning decision.  Which requests count and the summed
rooms depend on the residual alone, so the drop branch, which searches the
same residual one level deeper, takes them from its parent; the copy room
is computed at depth k, after the four others, only when none of them
prunes.  The incumbent changes only on a gain above 1e-9, and the bound
prunes only subtrees that hold no such gain, so the tighter bound leaves
the sequence of incumbents, hence the optimum and the placement, as the
exhaustive search finds them.  Residuals are per-node tuples of floats, the
search is set up on Python lists, and no numpy call runs per search node;
the answer is checked with ``model.violations``.  Both modes respect a node
budget and raise ``OracleLimitError`` carrying the best incumbent and an
upper bound when it runs out (in the default mode the least of the reward
sum, the LP optimum and the bound at the root); its message states both and
the nodes explored.
"""

import itertools
from bisect import bisect_right, insort
from dataclasses import dataclass

from .lp import build_relaxed_program, simplex_solve
from .model import (InfeasibleSolutionError, IntegralSolution, ProblemInstance, VnfplaceError,
                    violations)

_PRUNE_EPS = 1e-9
_positive = (0.0).__lt__       # c > 0.0, as a predicate filter() calls without a Python frame
DEFAULT_MAX_NODES = 1_000_000


class OracleLimitError(VnfplaceError, RuntimeError):
    """Search budget exhausted; carries the best incumbent found so far."""

    def __init__(self, message, incumbent, objective, upper_bound, nodes):
        super().__init__(message)
        self.incumbent = incumbent
        self.objective = objective
        self.upper_bound = upper_bound
        self.nodes = nodes

    def __reduce__(self):
        # keep the extra fields across pickling (worker processes)
        return (self.__class__, (self.args[0], self.incumbent, self.objective,
                                 self.upper_bound, self.nodes))


@dataclass
class ExactResult:
    solution: IntegralSolution
    objective: float
    nodes: int


class _KnapsackBound:
    """The branch-and-bound mode's bound on the reward from search depth k on
    (requests in search order): the least of five fractional knapsacks, one
    per resource and one over copies (``copy_room``), as scalar loops over
    the residual tuples and over (request, weight, reward) items sorted once
    by density.  The constructor builds every depth's tables: each
    knapsack's items of requests k and later, and per resource the running
    sums of their demands, smallest first.  It takes Python lists in search
    order (rewards, demands as one list per resource, psi), or the same as
    numpy arrays.  Each value is at least the reward any completion of the
    residual earns, so a subtree it prunes holds no incumbent the search
    would take, and the answer stays that of the exhaustive search."""

    def __init__(self, rewards, demand, psi):
        if not isinstance(psi, list):       # numpy arrays, as the tests pass them
            rewards, demand, psi = rewards.tolist(), demand.tolist(), psi.tolist()
        weights = [[p * d for p, d in zip(psi, row)] for row in demand] + [psi]
        items = [sorted(zip(range(len(psi)), w, rewards), key=lambda t: -t[2] / t[1])
                 for w in weights]
        # layers[k][j]: knapsack j's items of requests k and later, in density order
        self.layers = [items]
        for k in range(1, len(psi)):
            self.layers.append([[t for t in knapsack if t[0] >= k]
                                for knapsack in self.layers[-1]])
        # per request: the residual a copy needs, up to float dust, and psi
        self.floors_psi = list(zip(zip(*[[d - 1e-12 for d in row] for row in demand]), psi))
        # sums[k][j]: running sums of resource j's demands of requests k and
        # later, smallest first, from one sorted list per resource that each
        # request joins, deepest first
        ranked, self.sums = [[] for _ in demand], [None] * len(psi)
        for k in reversed(range(len(psi))):
            for column, row in zip(ranked, demand):
                insort(column, row[k])
            self.sums[k] = [list(itertools.accumulate(column)) for column in ranked]

    def fitting(self, k, residual):
        """The nodes request k fits on, in index order."""
        (f0, f1, f2, f3), _ = self.floors_psi[k]
        return [m for m, (c0, c1, c2, c3) in enumerate(residual)
                if c0 >= f0 and c1 >= f1 and c2 >= f2 and c3 >= f3]

    def scan(self, k, residual):
        """What the bound reads of a residual at depth k: per request, whether
        psi nodes can each still hold a copy of it (False before k), and per
        resource the summed positive residual.  Dropping a request leaves the
        residual, hence both, unchanged."""
        eligible = [False] * k
        for (f0, f1, f2, f3), n in self.floors_psi[k:]:
            for c0, c1, c2, c3 in residual:
                if c0 >= f0 and c1 >= f1 and c2 >= f2 and c3 >= f3:
                    n -= 1
            eligible.append(n <= 0)
        return eligible, [sum(filter(_positive, column)) for column in zip(*residual)]

    def copy_room(self, k, residual):
        """How many copies of requests k and later the nodes can hold: per
        node, the least over the resources of how many of the smallest
        demands (eligible or not) fit, by their running sum, in the residual
        plus 1e-9 times the larger of 1 and the residual.  A node holds at
        most one copy of a request, and the tolerance covers the fit test's
        1e-12 floor and the rounding of both sums at any scale, so the count
        is never below what the search can place; above it, it only weakens
        the bound."""
        s0, s1, s2, s3 = self.sums[k]
        room = 0
        for c0, c1, c2, c3 in residual:
            room += min(bisect_right(s0, c0 + (1e-9 * c0 if c0 > 1.0 else 1e-9)),
                        bisect_right(s1, c1 + (1e-9 * c1 if c1 > 1.0 else 1e-9)),
                        bisect_right(s2, c2 + (1e-9 * c2 if c2 > 1.0 else 1e-9)),
                        bisect_right(s3, c3 + (1e-9 * c3 if c3 > 1.0 else 1e-9)))
        return room

    def __call__(self, k, residual, scanned=None, prune=None):
        """The bound at depth k: the smallest of the five knapsack values.

        ``scanned`` is ``scan(j, residual)`` for some j <= k, computed when
        not given; the copy room is always computed at depth k.  With
        ``prune=(current, best)`` the walk stops at the first knapsack whose
        value v prunes, ``current + v <= best + _PRUNE_EPS``, and returns v:
        float addition is monotone, so the minimum prunes exactly when some
        value does.
        """
        eligible, rooms = scanned or self.scan(k, residual)
        values = []
        for j, items in enumerate(self.layers[k]):
            room = rooms[j] if j < 4 else self.copy_room(k, residual)
            used = value = 0.0
            for i, w, v in items:
                if eligible[i]:
                    used += w
                    part = (room - used + w) / w
                    value += v if part >= 1.0 else max(part, 0.0) * v
                    if part < 1.0:                  # the knapsack is full
                        break
            if prune is not None and prune[0] + value <= prune[1] + _PRUNE_EPS:
                return value
            values.append(value)
        return min(values)


def solve_exact(inst: ProblemInstance, max_nodes: int = DEFAULT_MAX_NODES,
                mode: str = "branch_and_bound") -> ExactResult:
    """Provably optimal binary placement; intended for small instances."""
    if mode not in ("branch_and_bound", "exhaustive"):
        raise ValueError(f"unknown oracle mode: {mode!r}")
    if max_nodes < 1:
        raise ValueError("max_nodes must be positive")
    R, M = inst.n_requests, inst.n_mecs
    rewards = inst.reward_vector().tolist()
    order = sorted(range(R), key=lambda r: (-rewards[r], r))
    gain = [rewards[r] for r in order]                      # reward at depth k
    # reward from depth k on, summed from the last request back
    suffix = list(itertools.accumulate(reversed(gain)))[::-1] + [0.0]

    # item k of each list describes request order[k]
    demand = [[row[r] for r in order] for row in inst.demands.tolist()]
    replicas = inst.replica_vector().tolist()
    copies = [replicas[r] for r in order]
    bound = _KnapsackBound(gain, demand, copies)
    cost = list(zip(*demand))

    best_val, best_assign, assign, nodes = 0.0, [None] * R, [None] * R, 0
    use_bound = mode == "branch_and_bound"

    def build_solution(assignment):
        sol, rows, cols = IntegralSolution.empty(inst), [], []
        for r, combo in enumerate(assignment):
            if combo is not None:
                rows += [r] * len(combo)
                cols += combo
        sol.x[rows, cols] = 1
        sol.y[rows] = 1
        return sol

    def dfs(k, residual, current, scanned=None):
        nonlocal best_val, best_assign, nodes
        nodes += 1
        if nodes > max_nodes:
            upper = suffix[0]
            if use_bound:
                upper = min(upper, simplex_solve(build_relaxed_program(inst)).objective,
                            bound(0, capacities))
            raise OracleLimitError(f"node budget {max_nodes} exhausted after {nodes} "
                                   f"nodes; best incumbent {best_val:.6g}, upper bound "
                                   f"{upper:.6g}",
                                   incumbent=build_solution(best_assign), objective=best_val,
                                   upper_bound=upper, nodes=nodes)
        if k == R:
            if current > best_val + _PRUNE_EPS:
                best_val = current
                best_assign = assign.copy()
            return
        if current + suffix[k] <= best_val + _PRUNE_EPS:
            return
        if use_bound:
            scanned = scanned or bound.scan(k, residual)
            if (current + bound(k, residual, scanned, (current, best_val))
                    <= best_val + _PRUNE_EPS):
                return
        # twin[m]: the nearest lower-indexed node whose residual equals m's
        seen, twin = {}, []
        for m, col in enumerate(residual):
            twin.append(seen.get(col, -1))
            seen[col] = m
        twins = len(seen) < M
        r, (d0, d1, d2, d3) = order[k], cost[k]
        # subsets of the fitting nodes, in the lexicographic order of all subsets
        for combo in itertools.combinations(bound.fitting(k, residual), copies[k]):
            # among twins, only the lowest-indexed ones may be picked
            if not twins or all(twin[m] < 0 or twin[m] in combo for m in combo):
                assign[r] = combo
                child = residual.copy()
                for m in combo:
                    c0, c1, c2, c3 = child[m]
                    child[m] = (c0 - d0, c1 - d1, c2 - d2, c3 - d3)
                dfs(k + 1, child, current + gain[k])
                assign[r] = None
        dfs(k + 1, residual, current, scanned)

    capacities = list(zip(*inst.capacities.tolist()))
    if R:
        dfs(0, capacities, 0.0)
    solution = build_solution(best_assign)
    if violations(inst, solution.x, solution.y):
        raise InfeasibleSolutionError("oracle produced an infeasible solution")
    return ExactResult(solution=solution, objective=best_val, nodes=nodes)

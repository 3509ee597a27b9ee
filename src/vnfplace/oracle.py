"""Exact reference solver for small placement instances.

Served requests never benefit from copies beyond their replica count (extra
copies consume capacity and add no reward), so the search enumerates, per
request, either "unserved" or one exactly-replica-count subset of nodes.
Requests are visited in reward-descending order; serve branches precede the
drop branch, node subsets in lexicographic order.  Among nodes with exactly
equal residual capacities a subset may take only the lowest-indexed ones, the
lexicographically smallest of its symmetry class: the result is unchanged.

Two modes share that skeleton: ``exhaustive`` prunes only with the remaining
reward sum, ``branch_and_bound`` (the default) also with a knapsack bound: per
resource, a fractional knapsack of the undecided requests (weight psi times
demand) in the summed residual capacity, counting a request only while psi
nodes can each still hold a copy of it.  At depth k each resource walks only
the items of requests k and later (a depth's slice of the density order is
built at its first bound), and the walk stops at the first resource whose
value prunes: float addition is monotone, so that is the decision the
smallest value would make.  Which requests count and the summed rooms depend
on the residual alone, so the drop branch, which searches the same residual
one level deeper, takes them from its parent.  Residuals are per-node tuples
of floats, and no numpy call runs per search node.  Both modes respect a node
budget and raise ``OracleLimitError`` carrying the best incumbent and an
upper bound when it runs out; its message states both and the nodes explored.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lp import build_relaxed_program, simplex_solve
from .model import (InfeasibleSolutionError, IntegralSolution, ProblemInstance, VnfplaceError,
                    evaluate_solution)

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
    (requests in search order): scalar loops over the residual tuples and, per
    resource, over (request, weight, reward) items sorted once by density and
    sliced by depth."""

    def __init__(self, rewards, demand, psi):
        items = [sorted(zip(range(psi.size), w, rewards.tolist()), key=lambda t: -t[2] / t[1])
                 for w in (psi * demand).tolist()]
        # layers[k][j]: resource j's items of requests k and later, in density
        # order; built at the first bound taken at depth k, from depth k - 1's
        # when that one is built
        self.layers = [items] + [None] * (psi.size - 1)
        # per request: the residual a copy needs, up to float dust, and psi
        self.floors_psi = list(zip((demand - 1e-12).T.tolist(), psi.tolist()))

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

    def __call__(self, k, residual, scanned=None, prune=None):
        """The bound at depth k: the smallest of the four knapsack values.

        ``scanned`` is ``scan(j, residual)`` for some j <= k, computed when
        not given.  With ``prune=(current, best)`` the walk stops at the first
        resource whose value v prunes, ``current + v <= best + _PRUNE_EPS``,
        and returns v: float addition is monotone, so the minimum prunes
        exactly when some value does.
        """
        eligible, rooms = scanned or self.scan(k, residual)
        layer = self.layers[k]
        if layer is None:
            above = self.layers[k - 1] or self.layers[0]
            layer = self.layers[k] = [[t for t in items if t[0] >= k] for items in above]
        values = []
        for items, room in zip(layer, rooms):
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
    rewards = inst.reward_vector()
    order = sorted(range(R), key=lambda r: (-rewards[r], r))
    gain = rewards[order].tolist()                                  # reward at depth k
    suffix = np.append(np.cumsum(rewards[order][::-1])[::-1], 0.0).tolist()  # from k on

    # column k of each (resource, request) array describes request order[k]
    demand = inst.demands[:, order]
    psi = inst.replica_vector()[order]
    bound = _KnapsackBound(rewards[order], demand, psi)
    cost = demand.T.tolist()
    copies = psi.tolist()

    best_val, best_assign, assign, nodes = 0.0, [None] * R, [None] * R, 0
    use_bound = mode == "branch_and_bound"

    def build_solution(assignment):
        sol = IntegralSolution.empty(inst)
        for r, combo in enumerate(assignment):
            if combo is not None:
                sol.y[r] = 1
                sol.x[r, list(combo)] = 1
        return sol

    def dfs(k, residual, current, scanned=None):
        nonlocal best_val, best_assign, nodes
        nodes += 1
        if nodes > max_nodes:
            upper = suffix[0]
            if use_bound:
                upper = min(upper, simplex_solve(build_relaxed_program(inst)).objective)
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

    if R:
        dfs(0, list(zip(*inst.capacities.tolist())), 0.0)
    solution = build_solution(best_assign)
    metrics = evaluate_solution(inst, solution)
    if not metrics.feasible:
        raise InfeasibleSolutionError("oracle produced an infeasible solution")
    return ExactResult(solution=solution, objective=best_val, nodes=nodes)

"""Exact reference solver for small placement instances.

Served requests never benefit from copies beyond their replica count (extra
copies consume capacity and add no reward), so the search enumerates, per
request, either "unserved" or one exactly-replica-count subset of nodes.
Requests are visited in reward-descending order; serve branches precede the
drop branch, node subsets in lexicographic order.  Among nodes with exactly
equal residual capacities a subset may take only the lowest-indexed ones, the
lexicographically smallest of its symmetry class: the result is unchanged.

Two modes share that skeleton: ``exhaustive`` prunes only with the remaining
reward sum, ``branch_and_bound`` (the default) also with an O(4R) bound: per
resource, a fractional knapsack of the undecided requests (weight psi times
demand) in the summed residual capacity, counting a request only while psi
nodes can each still hold a copy of it.  Residuals are per-node tuples of
floats, and no numpy call runs per search node.  Both respect a node budget
and raise ``OracleLimitError`` carrying the best incumbent and an upper bound
when it runs out; its message states both and the nodes explored.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lp import build_relaxed_program, simplex_solve
from .model import (InfeasibleSolutionError, IntegralSolution, ProblemInstance, VnfplaceError,
                    evaluate_solution)

_PRUNE_EPS = 1e-9
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
    resource, over (request, weight, reward) items sorted once by density."""

    def __init__(self, rewards, demand, psi):
        self.items = [sorted(zip(range(psi.size), w, rewards.tolist()),
                             key=lambda t: -t[2] / t[1]) for w in (psi * demand).tolist()]
        # per request: the residual a copy needs, up to float dust, and psi
        self.floors_psi = list(zip((demand - 1e-12).T.tolist(), psi.tolist()))

    def fits(self, k, residual):
        """fits[m]: request k fits on node m."""
        (f0, f1, f2, f3), _ = self.floors_psi[k]
        return [c0 >= f0 and c1 >= f1 and c2 >= f2 and c3 >= f3 for c0, c1, c2, c3 in residual]

    def __call__(self, k, residual):
        """The bound at depth k: the smallest of the four knapsack values."""
        eligible = [False] * k
        for (f0, f1, f2, f3), n in self.floors_psi[k:]:
            for c0, c1, c2, c3 in residual:
                if c0 >= f0 and c1 >= f1 and c2 >= f2 and c3 >= f3:
                    n -= 1
            eligible.append(n <= 0)
        values = []
        for items, column in zip(self.items, zip(*residual)):
            room = sum([c for c in column if c > 0.0])
            used = value = 0.0
            for i, w, v in items:
                if eligible[i]:
                    used += w
                    part = (room - used + w) / w
                    value += v if part >= 1.0 else max(part, 0.0) * v
                    if part < 1.0:                  # the knapsack is full
                        break
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
    choices = [list(itertools.combinations(range(M), int(n))) for n in psi]

    best_val, best_assign, assign, nodes = 0.0, [None] * R, [None] * R, 0
    use_bound = mode == "branch_and_bound"

    def build_solution(assignment):
        sol = IntegralSolution.empty(inst)
        for r, combo in enumerate(assignment):
            if combo is not None:
                sol.y[r] = 1
                sol.x[r, list(combo)] = 1
        return sol

    def dfs(k, residual, current):
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
        if use_bound and current + bound(k, residual) <= best_val + _PRUNE_EPS:
            return
        fits = bound.fits(k, residual)
        # twin[m]: the nearest lower-indexed node whose residual equals m's
        seen, twin = {}, []
        for m, col in enumerate(residual):
            twin.append(seen.get(col, -1))
            seen[col] = m
        r, (d0, d1, d2, d3) = order[k], cost[k]
        for combo in choices[k]:
            # among twins, only the lowest-indexed ones may be picked
            if all(fits[m] and (twin[m] < 0 or twin[m] in combo) for m in combo):
                assign[r] = combo
                child = residual.copy()
                for m in combo:
                    c0, c1, c2, c3 = child[m]
                    child[m] = (c0 - d0, c1 - d1, c2 - d2, c3 - d3)
                dfs(k + 1, child, current + gain[k])
                assign[r] = None
        dfs(k + 1, residual, current)

    if R:
        dfs(0, list(zip(*inst.capacities.tolist())), 0.0)
    solution = build_solution(best_assign)
    metrics = evaluate_solution(inst, solution)
    if not metrics.feasible:
        raise InfeasibleSolutionError("oracle produced an infeasible solution")
    return ExactResult(solution=solution, objective=best_val, nodes=nodes)

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
nodes can each still hold a copy of it.  Both respect a node budget and raise
``OracleLimitError`` carrying the best incumbent when it runs out.

The module also hosts the availability-blind baseline helpers: strip an
instance down to single-copy requirements, and re-evaluate a solution against
the true requirements (requests left short of copies are counted unserved,
their placements as waste).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lp import build_relaxed_program, simplex_solve
from .model import (RESOURCES, InfeasibleSolutionError, IntegralSolution, ProblemInstance,
                    SolutionMetrics, evaluate_solution)

_PRUNE_EPS = 1e-9


@dataclass
class OracleLimits:
    max_nodes: int = 1_000_000

    def validate(self):
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


class OracleLimitError(RuntimeError):
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
    mode: str


class _KnapsackBound:
    """The branch-and-bound mode's bound on the reward reachable from search
    depth k; requests are given in search order (see the module docstring)."""

    def __init__(self, rewards, demand, psi):
        weight = psi * demand                                    # (4, R)
        self.by_density = np.argsort(-rewards / weight, axis=1, kind="stable")
        self.weight = np.take_along_axis(weight, self.by_density, axis=1)
        self.value = rewards[self.by_density]
        self.fit_floor = demand - 1e-12    # a copy fits up to float dust
        self.psi = psi

    def fits(self, k, residual, stop=None):
        """fits[i, m]: request k + i (up to request stop - 1) fits on node m."""
        return (residual[:, None, :] >= self.fit_floor[:, k:stop, None]).all(axis=0)

    def __call__(self, k, residual, fits=None):
        if fits is None:
            fits = self.fits(k, residual)
        eligible = np.zeros(self.psi.size, dtype=bool)
        eligible[k:] = fits.sum(axis=1) >= self.psi[k:]
        w = np.where(eligible[self.by_density], self.weight, 0.0)
        room = np.maximum(residual, 0.0).sum(axis=1)[:, None]
        part = np.clip((room - np.cumsum(w, axis=1) + w) / self.weight, 0.0, 1.0)
        return (part * (w > 0) * self.value).sum(axis=1).min()


def solve_exact(inst: ProblemInstance, limits: OracleLimits = None,
                mode: str = "branch_and_bound") -> ExactResult:
    """Provably optimal binary placement; intended for small instances."""
    if mode not in ("branch_and_bound", "exhaustive"):
        raise ValueError(f"unknown oracle mode: {mode!r}")
    limits = limits or OracleLimits()
    limits.validate()
    R, M = inst.n_requests, inst.n_mecs
    rewards = inst.reward_vector()
    order = sorted(range(R), key=lambda r: (-rewards[r], r))
    suffix = np.append(np.cumsum(rewards[order][::-1])[::-1], 0.0)  # reward from k on

    # column k of each (resource, request) array describes request order[k]
    demand = np.array([inst.demand_vector(res) for res in RESOURCES])[:, order]
    psi = inst.replica_vector()[order]
    bound = _KnapsackBound(rewards[order], demand, psi)
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
        if nodes > limits.max_nodes:
            upper = suffix[0]
            if use_bound:
                upper = min(upper, simplex_solve(build_relaxed_program(inst)).objective)
            raise OracleLimitError(f"node budget {limits.max_nodes} exhausted",
                                   incumbent=build_solution(best_assign), objective=best_val,
                                   upper_bound=upper, nodes=nodes)
        if k == R:
            if current > best_val + _PRUNE_EPS:
                best_val = current
                best_assign = assign.copy()
            return
        if current + suffix[k] <= best_val + _PRUNE_EPS:
            return
        # one fit test per node: the bound needs every undecided request,
        # the branching below only request k
        fits = bound.fits(k, residual, None if use_bound else k + 1)
        if use_bound and current + bound(k, residual, fits) <= best_val + _PRUNE_EPS:
            return
        fits = fits[0].tolist()
        # twin[m]: the nearest lower-indexed node whose residual equals m's
        seen, twin = {}, []
        for m, col in enumerate(map(tuple, residual.T.tolist())):
            twin.append(seen.get(col, -1))
            seen[col] = m
        r = order[k]
        for combo in choices[k]:
            # among twins, only the lowest-indexed ones may be picked
            if all(fits[m] and (twin[m] < 0 or twin[m] in combo) for m in combo):
                assign[r] = combo
                child = residual.copy()
                child[:, combo] -= demand[:, k, None]
                dfs(k + 1, child, current + rewards[r])
                assign[r] = None
        dfs(k + 1, residual, current)

    if R:
        dfs(0, np.array([inst.capacity_vector(res) for res in RESOURCES]), 0.0)
    solution = build_solution(best_assign)
    metrics = evaluate_solution(inst, solution)
    if not metrics.feasible:
        raise InfeasibleSolutionError("oracle produced an infeasible solution")
    return ExactResult(solution=solution, objective=best_val,
                       nodes=nodes, mode=mode)


def strip_availability(inst: ProblemInstance) -> ProblemInstance:
    """Copy of the instance with every replica requirement forced to one."""
    return ProblemInstance(
        mecs=list(inst.mecs),
        requests=list(inst.requests),
        failure_model=inst.failure_model,
        replicas=[1] * inst.n_requests,
    )


def evaluate_with_true_replicas(inst: ProblemInstance, sol: IntegralSolution):
    """Re-score a solution against the instance's real replica counts.

    Requests served with fewer copies than required are marked unserved;
    their placements stay in place and count as load and waste.  Returns the
    adjusted solution and its metrics.
    """
    placed = np.asarray(sol.x).sum(axis=1)
    need = inst.replica_vector()
    y = np.asarray(sol.y, dtype=np.int8).copy()
    y[placed < need] = 0
    adjusted = IntegralSolution(x=np.asarray(sol.x, dtype=np.int8).copy(), y=y)
    metrics: SolutionMetrics = evaluate_solution(inst, adjusted)
    return adjusted, metrics

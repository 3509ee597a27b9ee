"""Exact reference solver for small placement instances.

Served requests never benefit from copies beyond their replica count (extra
copies consume capacity and add no reward), so the search enumerates, per
request, either "unserved" or one exactly-replica-count subset of nodes.
Requests are visited in reward-descending order; serve branches precede the
drop branch, node subsets in lexicographic order.

Two modes share that skeleton: ``exhaustive`` prunes only with the remaining
reward sum, ``branch_and_bound`` (the default) additionally prunes with the
relaxed objective of the residual program.  Both respect a node budget and
raise ``OracleLimitError`` carrying the best incumbent when it runs out.

The module also hosts the availability-blind baseline helpers: strip an
instance down to single-copy requirements, and re-evaluate a solution against
the true requirements (requests left short of copies are counted unserved,
their placements as waste).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lp import _placement_program, build_relaxed_program, simplex_solve
from .model import (RESOURCES, IntegralSolution, ProblemInstance, SolutionMetrics,
                    evaluate_solution)

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


def _residual_upper_bound(req_ids, inst, residual):
    """Relaxed objective of the remaining requests under residual capacity."""
    lp = _placement_program(inst, req_ids, np.maximum(residual, 0.0))
    return simplex_solve(lp).objective


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
    suffix = np.zeros(R + 1)
    for k in range(R - 1, -1, -1):
        suffix[k] = suffix[k + 1] + rewards[order[k]]

    demand = np.array([inst.demand_vector(res) for res in RESOURCES])   # (4, R)
    capacity = np.array([inst.capacity_vector(res) for res in RESOURCES])  # (4, M)
    choices = {
        r: list(itertools.combinations(range(M), inst.replicas[r]))
        for r in range(R)
    }

    best_val = 0.0
    best_assign = [None] * R
    assign = [None] * R
    state = {"nodes": 0}
    use_lp = mode == "branch_and_bound"
    root_bound = suffix[0]
    if use_lp and R:
        root_bound = min(root_bound, simplex_solve(build_relaxed_program(inst)).objective)

    def build_solution(assignment):
        sol = IntegralSolution.empty(inst)
        for r, combo in enumerate(assignment):
            if combo is None:
                continue
            sol.y[r] = 1
            for m in combo:
                sol.x[r, m] = 1
        return sol

    def dfs(k, residual, current):
        nonlocal best_val, best_assign
        state["nodes"] += 1
        if state["nodes"] > limits.max_nodes:
            raise OracleLimitError(
                f"node budget {limits.max_nodes} exhausted",
                incumbent=build_solution(best_assign),
                objective=best_val,
                upper_bound=root_bound,
                nodes=state["nodes"],
            )
        if k == R:
            if current > best_val + _PRUNE_EPS:
                best_val = current
                best_assign = assign.copy()
            return
        if current + suffix[k] <= best_val + _PRUNE_EPS:
            return
        if use_lp:
            bound = current + _residual_upper_bound(order[k:], inst, residual)
            if bound <= best_val + _PRUNE_EPS:
                return
        r = order[k]
        need = demand[:, r]
        for combo in choices[r]:
            cols = list(combo)
            if (residual[:, cols] >= need[:, None] - 1e-12).all():
                assign[r] = combo
                residual[:, cols] -= need[:, None]
                dfs(k + 1, residual, current + rewards[r])
                residual[:, cols] += need[:, None]
                assign[r] = None
        dfs(k + 1, residual, current)

    if R:
        dfs(0, capacity.copy(), 0.0)
    solution = build_solution(best_assign)
    metrics = evaluate_solution(inst, solution)
    if not metrics.feasible:
        raise RuntimeError("oracle produced an infeasible solution")
    return ExactResult(solution=solution, objective=best_val,
                       nodes=state["nodes"], mode=mode)


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

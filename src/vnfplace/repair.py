"""Greedy restoration of capacity feasibility after rounding.

Rounded solutions respect the redundancy and admission constraints by
construction but may overload nodes.  The repair pass first clears wasted
placements (copies of requests that are not served), then walks the nodes in
id order and, while any resource on the node is over capacity, evicts the
hosted request with the lowest reward, freeing its copies on every node.
Ties evict the higher request id.  The result is always feasible and never
serves a request the input did not serve.
"""

import numpy as np

from .model import (FEAS_EPS, RESOURCES, InfeasibleSolutionError, IntegralSolution,
                    ProblemInstance, evaluate_solution)


def greedy_repair(inst: ProblemInstance, sol: IntegralSolution) -> IntegralSolution:
    """Drop low-reward requests until every node fits its capacities.

    Every copy of a surviving request is kept, including copies beyond its
    replica count: only whole requests are evicted.
    """
    x = np.asarray(sol.x, dtype=np.int8).copy()
    y = np.asarray(sol.y, dtype=np.int8).copy()
    if x.shape != (inst.n_requests, inst.n_mecs) or y.shape != (inst.n_requests,):
        raise ValueError("solution shape does not match instance")

    x[y == 0] = 0  # wasted placements cost capacity and earn nothing
    rewards = inst.reward_vector()
    demands = {res: inst.demand_vector(res) for res in RESOURCES}
    caps = {res: inst.capacity_vector(res) for res in RESOURCES}
    loads = {res: demands[res] @ x for res in RESOURCES}

    def overloaded(m):
        return any(loads[res][m] > caps[res][m] + FEAS_EPS for res in RESOURCES)

    for m in range(inst.n_mecs):
        while overloaded(m):
            hosted = np.flatnonzero(x[:, m] == 1)
            # lowest reward goes first; ties drop the higher id
            r = min(hosted, key=lambda i: (rewards[i], -i))
            for res in RESOURCES:
                loads[res] -= demands[res][r] * x[r]
            x[r] = 0
            y[r] = 0

    repaired = IntegralSolution(x=x, y=y)
    metrics = evaluate_solution(inst, repaired)
    if not metrics.feasible:
        raise InfeasibleSolutionError(f"repair left violations: {metrics.violated_constraints}")
    return repaired

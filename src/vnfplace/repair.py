"""The greedy placement policy.  ``pack`` places requests by reward density
where capacity is left, and the simplex starts at its placement;
``greedy_repair`` evicts the cheapest requests where rounding overloads.

Rounded solutions respect the redundancy and admission constraints by
construction but may overload nodes.  The repair pass first clears wasted
placements (copies of requests that are not served), then walks the nodes in
id order and, while any resource on the node is over capacity, evicts the
hosted request with the lowest reward, freeing its copies on every node.
Ties evict the higher request id.  The result is always feasible and never
serves a request the input did not serve.
"""

import numpy as np

from .model import (FEAS_EPS, InfeasibleSolutionError, IntegralSolution, ProblemInstance,
                    check_integral, violations)


def greedy_repair(inst: ProblemInstance, sol: IntegralSolution) -> IntegralSolution:
    """Drop low-reward requests until every node fits its capacities.

    Every copy of a surviving request is kept, including copies beyond its
    replica count: only whole requests are evicted.
    """
    x, y = np.asarray(sol.x), np.asarray(sol.y)
    check_integral(inst, x, y)
    x, y = x.astype(np.int8), y.astype(np.int8)

    x[y == 0] = 0  # wasted placements cost capacity and earn nothing
    rewards, demand, cap = inst.reward_vector(), inst.demands, inst.capacities
    loads = inst.loads(x)
    # an eviction only lowers loads: a node that fits now is never visited
    for m in np.flatnonzero((loads > cap + FEAS_EPS).any(axis=0)).tolist():
        while (loads[:, m] > cap[:, m] + FEAS_EPS).any():
            hosted = np.flatnonzero(x[:, m] == 1)
            # lowest reward goes first; ties drop the higher id, the last of them
            hosted_rewards = rewards[hosted]
            r = hosted[np.flatnonzero(hosted_rewards == hosted_rewards.min())[-1]]
            loads -= np.multiply.outer(demand[:, r], x[r])
            x[r] = 0
            y[r] = 0

    found = violations(inst, x, y)
    if found:
        raise InfeasibleSolutionError(f"repair left violations: {found}")
    return IntegralSolution(x=x, y=y)


def pack(inst: ProblemInstance) -> IntegralSolution:
    """A feasible placement serving every request that the greedy fits.

    Requests go in descending reward over psi_r times their demand, summed
    over the resources as shares of each resource's total capacity.  Each is
    served on the psi_r fitting nodes with the most room (slack shares of the
    node's capacity, added left to right), or not at all.  Both orders are
    stable sorts, so ties go to the lower index.  A request fits where its
    demand is at most the slack, with no tolerance, so the placement breaks
    no row by float dust.  No numpy call runs per request.
    """
    demand, cap, psi = inst.demands, inst.capacities, inst.replica_vector()
    density = inst.reward_vector() / (psi * ((1.0 / cap.sum(axis=1)) @ demand))
    caps = list(zip(*cap.tolist()))        # per node, as the oracle's residuals
    slack, needs, counts = caps.copy(), demand.T.tolist(), psi.tolist()

    def room(m):
        (s0, s1, s2, s3), (c0, c1, c2, c3) = slack[m], caps[m]
        return s0 / c0 + s1 / c1 + s2 / c2 + s3 / c3

    rooms = [room(m) for m in range(len(slack))]    # changes only where a copy lands
    served, hosts = [], []      # each served request, once per copy, and the copy's node
    for r in np.argsort(-density, kind="stable").tolist():
        d0, d1, d2, d3 = needs[r]
        fits = [m for m, (s0, s1, s2, s3) in enumerate(slack)
                if d0 <= s0 and d1 <= s1 and d2 <= s2 and d3 <= s3]
        if len(fits) >= counts[r]:
            nodes = sorted(fits, key=rooms.__getitem__, reverse=True)[:counts[r]]
            for m in nodes:
                s0, s1, s2, s3 = slack[m]
                slack[m] = (s0 - d0, s1 - d1, s2 - d2, s3 - d3)
                rooms[m] = room(m)
            served += [r] * len(nodes)
            hosts += nodes
    sol = IntegralSolution.empty(inst)
    sol.x[served, hosts] = 1
    sol.y[served] = 1
    return sol

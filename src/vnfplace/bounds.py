"""Concentration guarantees for rounded placements.

Scaling a node's load by the largest single demand alpha turns it into a sum
of independent [0, 1] variables with mean mu equal to the scaled fractional
load, so a multiplicative Chernoff bound caps the rounded load at

    (1 + delta) * fractional load,   delta = 3 ln(R) / mu + 3,

with per-node exceedance probability at most 1/R^2 for R requests.  On the
objective side the rounded reward stays above (1 - delta_opt) times the
relaxed optimum with delta_opt = sqrt(4 ln(R) / mu_opt).  Bounds are reported
verbatim: a factor of 1 - delta_opt <= 0 is flagged vacuous, never clamped,
and a node with zero fractional load has no bound to state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import RESOURCES, FractionalSolution, ProblemInstance, VnfplaceError
from .rounding import randomized_round


class UndefinedBoundError(VnfplaceError, ValueError):
    """No fractional load, hence no multiplicative bound to state."""


@dataclass
class BoundReport:
    """Per-node load factors and the objective floor for one relaxation.

    Factor arrays hold nan where the relaxation puts no load on a node.
    """

    resource_factor: dict
    objective_factor: float
    vacuous_objective: bool

    def worst_factor(self, resource: str):
        """Largest defined factor across nodes, or None if none is defined."""
        factors = self.resource_factor[resource]
        defined = factors[~np.isnan(factors)]
        return float(defined.max()) if defined.size else None


def compute_bound_report(frac: FractionalSolution, inst: ProblemInstance) -> BoundReport:
    R = inst.n_requests
    if R == 0:
        raise UndefinedBoundError("no requests, nothing to bound")
    log_r = math.log(R)
    factors = {}
    for res in RESOURCES:
        demand = inst.demand_vector(res)
        alpha = float(demand.max())
        mu = (frac.x.T @ demand) / alpha
        factor = np.full(inst.n_mecs, np.nan)
        loaded = mu > 0.0
        factor[loaded] = 3.0 * log_r / mu[loaded] + 4.0
        factors[res] = factor

    rewards = inst.reward_vector()
    obj_alpha = float(rewards.max())
    obj_mu = float(rewards @ frac.y) / obj_alpha if obj_alpha > 0 else 0.0
    if obj_mu > 0.0:
        obj_factor = 1.0 - math.sqrt(4.0 * log_r / obj_mu)
    else:
        obj_factor = float("nan")
    return BoundReport(
        resource_factor=factors,
        objective_factor=obj_factor,
        vacuous_objective=not obj_factor > 0.0,
    )


@dataclass
class EmpiricalViolationReport:
    """How often rounded loads actually cross their stated ceilings."""

    exceed_fraction: dict          # resource -> fraction of seeds with any crossing
    chernoff_ceiling: float        # 1/R^2, the per-node theory rate


def empirical_violation_check(inst: ProblemInstance, frac: FractionalSolution,
                              n_seeds: int) -> EmpiricalViolationReport:
    """Round under seeds 0..n_seeds-1 and count crossings of (1 + delta) * LP load."""
    if n_seeds < 100:
        raise ValueError("need at least 100 seeds for a meaningful rate")
    report = compute_bound_report(frac, inst)
    lp_loads = {res: inst.demand_vector(res) @ frac.x for res in RESOURCES}
    ceilings = {res: report.resource_factor[res] * lp_loads[res] for res in RESOURCES}

    exceed_counts = {res: 0 for res in RESOURCES}
    for seed in range(n_seeds):
        sol = randomized_round(frac, inst, seed)
        for res in RESOURCES:
            load = inst.demand_vector(res) @ sol.x
            ceiling = ceilings[res]
            defined = ~np.isnan(ceiling)
            if (load[defined] > ceiling[defined] + 1e-9).any():
                exceed_counts[res] += 1

    return EmpiricalViolationReport(
        exceed_fraction={res: exceed_counts[res] / n_seeds for res in RESOURCES},
        chernoff_ceiling=1.0 / inst.n_requests**2,
    )

"""The solution schemes the paper compares, each implemented once.

Schemes:
  lr      relaxed optimum (fractional; reward is the relaxation objective)
  rr      randomized rounding of the relaxation (may overload nodes)
  greedy  rounding followed by the greedy capacity repair
  wo-avl  availability-blind baseline: plan with single copies, then score
          against the true replica requirements
  exact   reference optimum by the ``oracle`` search (small instances only)

wo-avl's own two steps live here too: ``strip_availability`` and
``evaluate_with_true_replicas``.

``run_schemes`` runs any subset of them on one instance; lr, rr and greedy
share one relaxation solve and one rounding.  ``vnfplace solve`` and the
experiment runner both go through it.  The stage functions are called
through this module's globals at call time, so a tracer or test that rebinds
them here sees every call.
"""

import time
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, compute_bound_report
from .lp import build_relaxed_program, solve_lp
from .model import (RESOURCES, IntegralSolution, ProblemInstance, SolutionMetrics,
                    evaluate_solution)
from .oracle import DEFAULT_MAX_NODES, solve_exact
from .repair import greedy_repair
from .rounding import randomized_round

SCHEMES = ("lr", "rr", "greedy", "wo-avl", "exact")


@dataclass
class SchemeOutcome:
    """What one scheme produced on one instance.

    ``solution`` is what ``solve --output`` saves: fractional for lr, and for
    wo-avl the blind plan re-scored against the true replica counts.
    ``seconds`` is cumulative from the start of the scheme's own work, so
    greedy counts the relaxation, the rounding and the repair.
    """

    scheme: str
    solution: object
    reward: float
    served_pct: float
    utilization_pct: dict       # resource -> capacity-weighted mean, percent
    seconds: float
    metrics: SolutionMetrics = None     # absent for lr
    bounds: BoundReport = None          # rr only
    nodes: int = None                   # exact only


def _load_pct(inst, x):
    """Total load over total capacity per resource, in percent."""
    return {res: 100.0 * float(load.sum() / cap.sum())
            for res, load, cap in zip(RESOURCES, inst.loads(x), inst.capacities)}


def _scored(scheme, inst, solution, metrics, seconds, reward=None, **extra):
    """The outcome of an integral scheme, scored by its ``metrics``."""
    return SchemeOutcome(
        scheme=scheme, solution=solution,
        reward=metrics.total_reward if reward is None else reward,
        served_pct=100.0 * metrics.served_count / max(1, inst.n_requests),
        utilization_pct=_load_pct(inst, solution.x),
        seconds=seconds, metrics=metrics, **extra)


def strip_availability(inst: ProblemInstance) -> ProblemInstance:
    """Copy of the instance with every replica requirement forced to one."""
    return ProblemInstance(mecs=list(inst.mecs), requests=list(inst.requests),
                           failure_model=inst.failure_model, replicas=[1] * inst.n_requests)


def evaluate_with_true_replicas(inst: ProblemInstance, sol: IntegralSolution):
    """Re-score a solution against the instance's real replica counts: a
    request served with fewer copies than required counts as unserved, and
    its copies as load and waste.  Returns the adjusted solution and metrics."""
    y = np.asarray(sol.y, dtype=np.int8).copy()
    y[np.asarray(sol.x).sum(axis=1) < inst.replica_vector()] = 0
    adjusted = IntegralSolution(x=np.asarray(sol.x, dtype=np.int8).copy(), y=y)
    return adjusted, evaluate_solution(inst, adjusted)


def run_schemes(inst, schemes, round_seed=None, baseline_seed=None,
                max_nodes=DEFAULT_MAX_NODES) -> list:
    """Run ``schemes`` on ``inst``; the outcomes come in ``SCHEMES`` order.

    rr and greedy round with ``round_seed``, wo-avl with ``baseline_seed``;
    exact searches at most ``max_nodes`` nodes and raises ``OracleLimitError``
    when the budget runs out.
    """
    want = set(schemes)
    unknown = want - set(SCHEMES)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown, key=str)}")
    outcomes = []

    # lr, rr and greedy share their stages, so one clock times them all:
    # each scheme's seconds end at its own last stage, before any scoring
    if want & {"lr", "rr", "greedy"}:
        t0 = time.perf_counter()
        frac = solve_lp(build_relaxed_program(inst))
        seconds = {"lr": time.perf_counter() - t0}
        if want & {"rr", "greedy"}:
            rounded = randomized_round(frac, inst, round_seed)
            seconds["rr"] = time.perf_counter() - t0
        if "greedy" in want:
            repaired = greedy_repair(inst, rounded)
            seconds["greedy"] = time.perf_counter() - t0

    if "lr" in want:
        outcomes.append(SchemeOutcome(
            scheme="lr", solution=frac, reward=frac.objective,
            served_pct=100.0 * float(frac.y.sum()) / max(1, inst.n_requests),
            utilization_pct=_load_pct(inst, frac.x), seconds=seconds["lr"]))
    if "rr" in want:
        outcomes.append(_scored("rr", inst, rounded, evaluate_solution(inst, rounded),
                                seconds["rr"], bounds=compute_bound_report(frac, inst)))
    if "greedy" in want:
        outcomes.append(_scored("greedy", inst, repaired, evaluate_solution(inst, repaired),
                                seconds["greedy"]))

    if "wo-avl" in want:
        t0 = time.perf_counter()
        blind = strip_availability(inst)
        blind_frac = solve_lp(build_relaxed_program(blind))
        blind_sol = greedy_repair(blind, randomized_round(blind_frac, blind, baseline_seed))
        adjusted, metrics = evaluate_with_true_replicas(inst, blind_sol)
        outcomes.append(_scored("wo-avl", inst, adjusted, metrics,
                                time.perf_counter() - t0))

    if "exact" in want:
        t0 = time.perf_counter()
        result = solve_exact(inst, max_nodes=max_nodes)
        t_exact = time.perf_counter() - t0
        # the search's own sum, not rewards @ y, which may differ in the last bit
        outcomes.append(_scored("exact", inst, result.solution,
                                evaluate_solution(inst, result.solution), t_exact,
                                reward=result.objective, nodes=result.nodes))
    return outcomes

"""Availability-aware placement of service function chains on edge nodes.

Pipeline: relax the binary placement problem to a box-constrained linear
program (``lp``), round the fractional optimum (``rounding``), repair any
capacity overshoot greedily (``repair``), and report concentration bounds on
the overshoot and the reward (``bounds``).  ``oracle`` solves small instances
exactly, ``availsim`` checks delivered availability by Monte Carlo, and
``experiments`` batches the whole pipeline into seeded sweeps with
confidence intervals.
"""

from .availsim import AvailabilityReport, consistent_with_threshold, simulate_availability
from .bounds import (BoundReport, EmpiricalViolationReport, UndefinedBoundError,
                     compute_bound_report, empirical_violation_check,
                     objective_bound_factor, violation_factor)
from .experiments import (ExperimentConfig, ExperimentReport, confidence_interval,
                          derive_seed, run_experiment)
from .gen import GeneratorConfig, UpfCatalog, generate
from .lp import (InfeasibleProgramError, IterationLimitError, LinearProgram,
                 NumericalInstabilityError, SimplexError, UnboundedProgramError,
                 build_relaxed_program, lp_format, simplex_solve, solve_lp)
from .model import (FailureModel, FractionalSolution, InfeasibleSolutionError,
                    IntegralSolution, InvalidModelError, MecNode, ProblemInstance, RESOURCES,
                    ServiceRequest, SolutionMetrics, evaluate_solution,
                    instance_from_dict, instance_to_dict, load_instance,
                    load_solution, required_replicas, save_instance,
                    save_solution, service_failure_prob, solution_from_dict,
                    solution_to_dict)
from .oracle import (ExactResult, OracleLimitError, OracleLimits,
                     evaluate_with_true_replicas, solve_exact, strip_availability)
from .repair import greedy_repair
from .rounding import randomized_round, rounding_ensemble

__version__ = "0.1.0"

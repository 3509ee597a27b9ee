"""Availability-aware placement of service function chains on edge nodes.

Pipeline: relax the binary placement problem to a box-constrained linear
program (``lp``) started at a greedy packing, round the fractional optimum
(``rounding``), repair any capacity overshoot greedily (``repair``, which
holds the packing too), and report concentration bounds (``bounds``).
``oracle`` solves small instances exactly, ``availsim`` checks delivered
availability by Monte Carlo, ``schemes`` assembles the paper's schemes, and
``experiments`` batches them into seeded sweeps with confidence intervals.
"""

from .availsim import AvailabilityReport, consistent_with_threshold, simulate_availability
from .bounds import (BoundReport, EmpiricalViolationReport, UndefinedBoundError,
                     compute_bound_report, empirical_violation_check)
from .experiments import (ExperimentConfig, ExperimentReport, confidence_interval,
                          derive_seed, run_experiment)
from .gen import GeneratorConfig, generate
from .lp import (InfeasibleProgramError, IterationLimitError, LinearProgram,
                 NumericalInstabilityError, SimplexError, UnboundedProgramError,
                 build_relaxed_program, simplex_solve, solve_lp)
from .model import (FailureModel, FractionalSolution, InfeasibleSolutionError,
                    IntegralSolution, InvalidModelError, MecNode, ProblemInstance, RESOURCES,
                    ServiceRequest, SolutionMetrics, VnfplaceError, evaluate_solution,
                    instance_from_dict, instance_to_dict, load_instance,
                    load_solution, required_replicas, save_instance,
                    save_solution, service_failure_prob, solution_from_dict,
                    solution_to_dict)
from .oracle import ExactResult, OracleLimitError, solve_exact
from .repair import greedy_repair
from .rounding import randomized_round
from .schemes import (SCHEMES, SchemeOutcome, evaluate_with_true_replicas, run_schemes,
                      strip_availability)

__version__ = "0.1.0"

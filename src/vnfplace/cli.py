"""Command-line front end.

Subcommands: generate (draw an instance), solve (one scheme on one instance),
experiment (sweep + confidence intervals to CSV), availsim (Monte Carlo
availability check of a saved solution).

Exit codes: 0 success, 2 bad config or arguments, 3 solver failure (also a
solution that fails its post-condition check), 4 search limit exhausted,
5 file IO failure.
"""

import argparse
import secrets
import sys

import yaml

from . import availsim as availsim_mod
from . import gen
from .bounds import UndefinedBoundError
from .experiments import ExperimentConfig, run_experiment
from .lp import SimplexError
from .model import (RESOURCES, InfeasibleSolutionError, IntegralSolution, InvalidModelError,
                    load_instance, load_solution, read_yaml, save_instance, save_solution)
from .oracle import DEFAULT_MAX_NODES, OracleLimitError
from .schemes import SCHEMES, run_schemes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_LIMIT = 4
EXIT_IO = 5

# (error classes, exit code, message prefix); the first row that matches wins
_EXIT_CODES = (
    ((OracleLimitError,), EXIT_LIMIT, "error"),
    ((SimplexError, InfeasibleSolutionError), EXIT_SOLVE, "solver error"),
    ((InvalidModelError, UndefinedBoundError, yaml.YAMLError, ValueError, TypeError,
      KeyError), EXIT_CONFIG, "config error"),
    ((OSError,), EXIT_IO, "io error"),
)
_HANDLED = tuple(cls for classes, _, _ in _EXIT_CODES for cls in classes)


def _resolve_seed(value, label):
    """Use the given seed, or draw one from entropy and announce it."""
    if value is None:
        value = secrets.randbits(63)
        print(f"{label} seed drawn from entropy: {value}")
    return value


def _print_outcome(out, inst):
    print(f"scheme: {out.scheme}")
    metrics = out.metrics
    if metrics is None:     # lr: the fractional optimum
        print(f"objective: {out.reward:.6g}")
        print(f"served (fractional sum): {float(out.solution.y.sum()):.4g} / {inst.n_requests}")
    else:
        print(f"reward: {metrics.total_reward:.6g}")
        print(f"served: {metrics.served_count} / {inst.n_requests} ({out.served_pct:.1f}%)")
        print(f"feasible: {str(metrics.feasible).lower()}")
        if metrics.wasted_placements:
            print(f"wasted placements: {len(metrics.wasted_placements)}")
        print("utilization (capacity-weighted mean):")
    for res in RESOURCES:
        print(f"  {res}: {out.utilization_pct[res]:.1f}%")
    report = out.bounds
    if report is not None:
        print("load ceilings (multiple of relaxed load):")
        for res in RESOURCES:
            worst = report.worst_factor(res)
            print(f"  {res}: {'undefined' if worst is None else format(worst, '.4g')}")
        vacuous = " (vacuous)" if report.vacuous_objective else ""
        print(f"reward floor factor: {report.objective_factor:.4g}{vacuous}")
    if out.nodes is not None:
        print(f"nodes explored: {out.nodes}")


def _cmd_generate(args):
    data = (read_yaml(args.config) or {}) if args.config is not None else {}
    cfg = gen.GeneratorConfig.from_dict(data)
    if args.seed is not None:
        cfg.seed = args.seed
    elif "seed" not in data:
        cfg.seed = _resolve_seed(None, "generator")
    inst = gen.generate(cfg)
    save_instance(inst, args.output)
    print(f"wrote {inst.n_requests} requests on {inst.n_mecs} mecs to {args.output} "
          f"(seed {cfg.seed})")
    return EXIT_OK


def _cmd_solve(args):
    inst = load_instance(args.instance)
    seed = args.seed
    if args.scheme in ("rr", "greedy", "wo-avl"):
        seed = _resolve_seed(seed, "rounding")
    [outcome] = run_schemes(inst, [args.scheme], round_seed=seed, baseline_seed=seed,
                            max_nodes=args.max_nodes)
    _print_outcome(outcome, inst)
    if args.output:
        save_solution(outcome.solution, args.output)
    return EXIT_OK


def _cmd_experiment(args):
    cfg = ExperimentConfig.from_dict(read_yaml(args.config) or {})
    if args.jobs is not None:
        cfg.jobs = args.jobs
    report = run_experiment(cfg)
    paths = report.write(args.output_dir)
    for name in ("summary", "runs", "timings"):
        print(f"wrote {paths[name]}")
    if report.failed_runs:
        print(f"{len(report.failed_runs)} run(s) failed and were excluded", file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


def _cmd_availsim(args):
    inst = load_instance(args.instance)
    sol = load_solution(args.solution)
    if not isinstance(sol, IntegralSolution):
        raise ValueError("availability simulation needs an integral solution")
    seed = _resolve_seed(args.seed, "simulation")
    report = availsim_mod.simulate_availability(inst, sol, trials=args.trials, seed=seed)
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(line + "\n" for line in report.csv_rows())
        print(f"wrote {args.output}")
    else:
        for line in report.csv_rows():
            print(line)
    print(f"aggregate delivery ratio (served requests): {report.aggregate_pdr:.6g}")
    print(f"served fraction (latency proxy): {report.served_fraction:.4g}")
    failing = [r.request_id for r in report.per_request
               if r.placements and not r.meets_threshold]
    if failing:
        print(f"requests below threshold: {failing}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vnfplace",
        description="Availability-aware placement of service chains on edge nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random instance to a file")
    p.add_argument("--config", help="generator config (YAML)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--output", required=True, help="instance file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run one scheme on a saved instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--seed", type=int, help="rounding seed (drawn if omitted)")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                   help="search budget for the exact scheme")
    p.add_argument("--output", help="write the resulting solution here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("experiment", help="run a sweep and write CSV reports")
    p.add_argument("--config", required=True, help="experiment config (YAML)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--jobs", type=int, help="worker processes")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("availsim", help="Monte Carlo availability check")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, help="simulation seed (drawn if omitted)")
    p.add_argument("--output", help="per-request CSV file")
    p.set_defaults(func=_cmd_availsim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        code, prefix = next((code, prefix) for classes, code, prefix in _EXIT_CODES
                            if isinstance(exc, classes))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

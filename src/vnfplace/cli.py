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
from .bounds import compute_bound_report
from .experiments import ExperimentConfig, run_experiment
from .lp import SimplexError, build_relaxed_program, solve_lp
from .model import (RESOURCES, InfeasibleSolutionError, evaluate_solution, load_instance,
                    load_solution, save_instance, save_solution, IntegralSolution)
from .oracle import (OracleLimitError, OracleLimits, evaluate_with_true_replicas,
                     solve_exact, strip_availability)
from .repair import greedy_repair
from .rounding import randomized_round

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_LIMIT = 4
EXIT_IO = 5

SOLVE_SCHEMES = ("lr", "rr", "greedy", "wo-avl", "exact")


def _resolve_seed(value, label):
    """Use the given seed, or draw one from entropy and announce it."""
    if value is None:
        value = secrets.randbits(63)
        print(f"{label} seed drawn from entropy: {value}")
    return value


def _load_yaml(path):
    with open(path) as fh:
        return yaml.safe_load(fh)


def _print_metrics(metrics, inst, label):
    print(f"scheme: {label}")
    print(f"reward: {metrics.total_reward:.6g}")
    served_pct = 100.0 * metrics.served_count / max(1, inst.n_requests)
    print(f"served: {metrics.served_count} / {inst.n_requests} ({served_pct:.1f}%)")
    print(f"feasible: {str(metrics.feasible).lower()}")
    if metrics.wasted_placements:
        print(f"wasted placements: {len(metrics.wasted_placements)}")
    print("utilization (capacity-weighted mean):")
    for res in RESOURCES:
        pct = 100.0 * metrics.aggregate_utilization(res, inst.capacity_vector(res))
        print(f"  {res}: {pct:.1f}%")


def _cmd_generate(args):
    data = (_load_yaml(args.config) or {}) if args.config is not None else {}
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
    tol = args.tol

    if args.scheme == "exact":
        try:
            result = solve_exact(inst, limits=OracleLimits(max_nodes=args.max_nodes))
        except OracleLimitError as exc:
            print(f"search limit exhausted after {exc.nodes} nodes; "
                  f"best incumbent {exc.objective:.6g}, upper bound "
                  f"{exc.upper_bound:.6g}", file=sys.stderr)
            return EXIT_LIMIT
        metrics = evaluate_solution(inst, result.solution)
        _print_metrics(metrics, inst, "exact")
        print(f"nodes explored: {result.nodes}")
        if args.output:
            save_solution(result.solution, args.output)
        return EXIT_OK

    if args.scheme == "wo-avl":
        blind = strip_availability(inst)
        frac = solve_lp(build_relaxed_program(blind), tol=tol)
        seed = _resolve_seed(args.seed, "rounding")
        sol = greedy_repair(blind, randomized_round(frac, blind, seed))
        adjusted, metrics = evaluate_with_true_replicas(inst, sol)
        _print_metrics(metrics, inst, "wo-avl")
        if args.output:
            save_solution(adjusted, args.output)
        return EXIT_OK

    frac = solve_lp(build_relaxed_program(inst), tol=tol)
    if args.scheme == "lr":
        print("scheme: lr")
        print(f"objective: {frac.objective:.6g}")
        print(f"served (fractional sum): {float(frac.y.sum()):.4g} / {inst.n_requests}")
        for res in RESOURCES:
            load = inst.demand_vector(res) @ frac.x
            pct = 100.0 * float(load.sum() / inst.capacity_vector(res).sum())
            print(f"  {res}: {pct:.1f}%")
        if args.output:
            save_solution(frac, args.output)
        return EXIT_OK

    seed = _resolve_seed(args.seed, "rounding")
    rounded = randomized_round(frac, inst, seed)
    if args.scheme == "rr":
        metrics = evaluate_solution(inst, rounded)
        _print_metrics(metrics, inst, "rr")
        report = compute_bound_report(frac, inst)
        print("load ceilings (multiple of relaxed load):")
        for res in RESOURCES:
            worst = report.worst_factor(res)
            print(f"  {res}: {'undefined' if worst is None else format(worst, '.4g')}")
        if report.vacuous_objective:
            print(f"reward floor factor: {report.objective_factor:.4g} (vacuous)")
        else:
            print(f"reward floor factor: {report.objective_factor:.4g}")
        if args.output:
            save_solution(rounded, args.output)
        return EXIT_OK

    # greedy
    repaired = greedy_repair(inst, rounded)
    metrics = evaluate_solution(inst, repaired)
    _print_metrics(metrics, inst, "greedy")
    if args.output:
        save_solution(repaired, args.output)
    return EXIT_OK


def _cmd_experiment(args):
    data = _load_yaml(args.config)
    cfg = ExperimentConfig.from_dict(data or {})
    if args.jobs is not None:
        cfg.jobs = args.jobs
    report = run_experiment(cfg)
    paths = report.write(args.output_dir)
    for name in ("summary", "runs", "timings"):
        print(f"wrote {paths[name]}")
    if report.failed_runs:
        print(f"{len(report.failed_runs)} run(s) failed and were excluded",
              file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


def _cmd_availsim(args):
    inst = load_instance(args.instance)
    sol = load_solution(args.solution)
    if not isinstance(sol, IntegralSolution):
        raise ValueError("availability simulation needs an integral solution")
    seed = _resolve_seed(args.seed, "simulation")
    report = availsim_mod.simulate_availability(inst, sol, trials=args.trials,
                                                seed=seed, jobs=args.jobs)
    if args.output:
        with open(args.output, "w") as fh:
            for line in report.csv_rows():
                fh.write(line + "\n")
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
    p.add_argument("--scheme", choices=SOLVE_SCHEMES, required=True)
    p.add_argument("--seed", type=int, help="rounding seed (drawn if omitted)")
    p.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
    p.add_argument("--max-nodes", type=int, default=1_000_000,
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", help="per-request CSV file")
    p.set_defaults(func=_cmd_availsim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (SimplexError, InfeasibleSolutionError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except (yaml.YAMLError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

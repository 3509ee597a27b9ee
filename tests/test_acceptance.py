"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single "criterion N: PASS/FAIL (...)" line so the whole
gate can be read off a plain pytest -s run.  Shared heavyweight artifacts
(the 50-run benchmark sweep, the 200-instance oracle suite, the big rounding
ensemble) are built once per session.
"""

import math
import time

import numpy as np
import pytest

from helpers import make_instance, slack_caps
from reference import vertex_enumeration_max
from vnfplace.bounds import empirical_violation_check
from vnfplace.availsim import simulate_availability
from vnfplace.experiments import ExperimentConfig, run_experiment
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import (
    GE,
    LE,
    InfeasibleProgramError,
    LinearProgram,
    build_relaxed_program,
    simplex_solve,
    solve_lp,
)
from vnfplace.model import IntegralSolution, evaluate_solution, required_replicas
from vnfplace.oracle import solve_exact
from vnfplace.repair import greedy_repair
from vnfplace.rounding import randomized_round

BENCH_SEED = 2026


def _verdict(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {flag} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _scheme_mean(report, scheme, column):
    vals = [row[column] for row in report.run_rows if row["scheme"] == scheme]
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def benchmark_sweep():
    """Default benchmark: 10 nodes, 50 requests, 50 seeded runs, 4 schemes."""
    cfg = ExperimentConfig(
        sweep="requests", request_counts=(50,), runs=50,
        base_seed=BENCH_SEED, schemes=("lr", "rr", "greedy", "wo-avl"),
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return cfg, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def oracle_suite():
    """200 small random instances with LP, both oracle modes, and greedy."""
    rng = np.random.default_rng(424)
    records = []
    t0 = time.perf_counter()
    for i in range(200):
        inst = generate(GeneratorConfig(
            mec_count=int(rng.integers(1, 4)),
            request_count=int(rng.integers(1, 11)),
            cpu_range=(10, 20), ram_range=(14, 26),
            uplink_capacity=float(rng.uniform(25.0, 60.0)),
            downlink_capacity=float(rng.uniform(80.0, 200.0)),
            seed=i,
        ))
        frac = solve_lp(build_relaxed_program(inst))
        bb = solve_exact(inst, mode="branch_and_bound")
        ex = solve_exact(inst, mode="exhaustive")
        repaired = greedy_repair(inst, randomized_round(frac, inst, seed=i))
        greedy_val = evaluate_solution(inst, repaired).total_reward
        records.append((frac.objective, bb.objective, ex.objective, greedy_val))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def rounding_ensemble_10k():
    """One fixed benchmark-sized instance rounded under 10^4 seeds."""
    inst = generate(GeneratorConfig(seed=BENCH_SEED))
    frac = solve_lp(build_relaxed_program(inst))
    n = 10_000
    rewards = np.empty(n)
    loads = {res: np.empty((n, inst.n_mecs))
             for res in ("cpu", "ram", "uplink", "downlink")}
    reward_vec = inst.reward_vector()
    for s in range(n):
        sol = randomized_round(frac, inst, seed=s)
        rewards[s] = float(reward_vec @ sol.y)
        for res in loads:
            loads[res][s] = inst.demand_vector(res) @ sol.x
    return inst, frac, rewards, loads


def _gate_tail_probability(probs, need):
    """P(sum of independent Bernoulli(p_i) >= need), exact DP."""
    dp = np.zeros(len(probs) + 1)
    dp[0] = 1.0
    for i, p in enumerate(probs):
        dp[1:i + 2] = dp[1:i + 2] * (1 - p) + dp[:i + 1] * p
        dp[0] *= 1 - p
    return float(dp[need:].sum())


class TestAcceptance:
    def test_criterion_1_rounding_stays_near_relaxation(self, benchmark_sweep):
        cfg, report, elapsed = benchmark_sweep
        lr = _scheme_mean(report, "lr", "reward")
        rr = _scheme_mean(report, "rr", "reward")
        greedy = _scheme_mean(report, "greedy", "reward")
        ok = rr >= 0.88 * lr and greedy >= 0.78 * lr and elapsed < 300.0
        _verdict(1, ok,
                 f"rr/lr {rr / lr:.3f} >= 0.88, greedy/lr {greedy / lr:.3f} "
                 f">= 0.78, {elapsed:.1f}s < 300s")

    def test_criterion_2_blind_baseline_earns_much_less(self, benchmark_sweep):
        _, report, _ = benchmark_sweep
        greedy = _scheme_mean(report, "greedy", "reward")
        blind = _scheme_mean(report, "wo-avl", "reward")
        _verdict(2, blind <= 0.6 * greedy,
                 f"wo-avl/greedy {blind / greedy:.3f} <= 0.6")

    def test_criterion_3_served_fractions_track_relaxation(self, benchmark_sweep):
        cfg, report, _ = benchmark_sweep
        lr = _scheme_mean(report, "lr", "served_pct")
        greedy = _scheme_mean(report, "greedy", "served_pct")
        blind = _scheme_mean(report, "wo-avl", "served_pct")
        # the separation claim needs multi-copy requests in the workload
        sample = generate(GeneratorConfig(seed=BENCH_SEED))
        has_multi = any(n >= 2 for n in sample.replicas)
        ok = (abs(greedy - lr) <= 0.25 * lr
              and blind <= 0.65 * greedy
              and has_multi)
        _verdict(3, ok,
                 f"|greedy-lr|/lr {abs(greedy - lr) / lr:.3f} <= 0.25, "
                 f"wo-avl/greedy {blind / greedy:.3f} <= 0.65, "
                 f"multi-copy requests present: {has_multi}")

    def test_criterion_4_oracle_sandwich(self, oracle_suite):
        records, elapsed = oracle_suite
        worst_gap = max(abs(bb - ex) for _, bb, ex, _ in records)
        sandwich = all(g <= bb + 1e-9 and bb <= lp + 1e-6
                       for lp, bb, ex, g in records)
        ok = sandwich and worst_gap <= 1e-6 and elapsed < 120.0
        _verdict(4, ok,
                 f"200 instances, greedy <= exact <= lp: {sandwich}, "
                 f"max |b&b - exhaustive| {worst_gap:.2g} <= 1e-6, "
                 f"{elapsed:.1f}s < 120s")

    def test_criterion_5_rounding_matches_expectations(self, rounding_ensemble_10k):
        inst, frac, rewards, loads = rounding_ensemble_10k
        n = rewards.size
        load_ok = True
        worst_excess = -np.inf
        for res, samples in loads.items():
            lp_load = inst.demand_vector(res) @ frac.x
            # exact summation: a load that is the same in every sample has
            # se ~ 1e-14, below the float error of a pairwise-summed mean
            mean = np.array([math.fsum(column) for column in samples.T]) / n
            se = samples.std(axis=0, ddof=1) / np.sqrt(n)
            excess = np.max((mean - lp_load) / np.where(se > 0, se, 1.0))
            worst_excess = max(worst_excess, float(excess))
            if np.any(mean > lp_load + 3 * se + 1e-12):
                load_ok = False
        need = inst.replica_vector()
        expected_reward = sum(
            req.reward * frac.y[r] * _gate_tail_probability(frac.x[r], int(need[r]))
            for r, req in enumerate(inst.requests))
        reward_se = rewards.std(ddof=1) / np.sqrt(n)
        reward_gap = abs(rewards.mean() - expected_reward)
        ok = load_ok and reward_gap <= 3 * reward_se
        _verdict(5, ok,
                 f"10^4 seeds: worst load excess {worst_excess:.2f} SE <= 3, "
                 f"reward gap {reward_gap:.3f} <= 3 SE = {3 * reward_se:.3f}")

    def test_criterion_6_stated_ceilings_hold_empirically(self):
        inst = generate(GeneratorConfig(seed=BENCH_SEED))
        frac = solve_lp(build_relaxed_program(inst))
        report = empirical_violation_check(inst, frac, n_seeds=1000)
        worst = max(report.exceed_fraction.values())
        _verdict(6, worst <= 0.05,
                 f"10^3 roundings, worst per-resource exceedance "
                 f"{worst:.4f} <= 0.05 (theory ~{report.chernoff_ceiling:.1g})")

    def test_criterion_7_replica_rule_delivers_availability(self):
        classes = (0.01, 0.001, 0.0001)
        inst = make_instance(
            caps=slack_caps(3),
            reqs=[{"eps": eps} for eps in classes],
        )
        trials = 100_000
        x = np.zeros((3, 3), dtype=np.int8)
        for r, count in enumerate(inst.replicas):
            x[r, :count] = 1
        full = simulate_availability(
            inst, IntegralSolution(x=x, y=np.ones(3, dtype=np.int8)),
            trials=trials, seed=71)
        meets = [bool(row.meets_threshold) for row in full.per_request]

        # one copy short on the 1e-3 class must break its guarantee
        short_idx = classes.index(0.001)
        psi = required_replicas(inst.failure_model, 0.001)
        x_short = x.copy()
        x_short[short_idx, :] = 0
        x_short[short_idx, :psi - 1] = 1
        shorted = simulate_availability(
            inst, IntegralSolution(x=x_short, y=np.ones(3, dtype=np.int8)),
            trials=trials, seed=71)
        short_fails = not shorted.per_request[short_idx].meets_threshold
        ok = all(meets) and short_fails
        _verdict(7, ok,
                 f"full replicas meet thresholds: {meets}, "
                 f"one-short 1e-3 class fails: {short_fails}")

    def test_criterion_8_simplex_agrees_with_vertex_enumeration(self, oracle_suite):
        rng = np.random.default_rng(77)
        solved = infeasible = 0
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            lp = LinearProgram(
                n_vars=n,
                objective=rng.uniform(-5, 5, size=n),
                upper=np.full(n, float(rng.integers(1, 4))),
            )
            for _ in range(int(rng.integers(1, 6))):
                coeffs = [(j, float(rng.uniform(-3, 3))) for j in range(n)
                          if rng.random() < 0.8]
                if not coeffs:
                    coeffs = [(0, 1.0)]
                lp.add_row(coeffs, LE if rng.random() < 0.7 else GE,
                           float(rng.uniform(-2, 6)))
            expected = vertex_enumeration_max(lp)
            if expected is None:
                with pytest.raises(InfeasibleProgramError):
                    simplex_solve(lp)
                infeasible += 1
            else:
                got = simplex_solve(lp).objective
                worst = max(worst, abs(got - expected))
                solved += 1
        records, _ = oracle_suite
        lp_dominates = all(lp_obj >= exact - 1e-6
                           for lp_obj, exact, _, _ in records)
        ok = worst <= 1e-6 and solved + infeasible == 100 and lp_dominates
        _verdict(8, ok,
                 f"{solved} solved + {infeasible} infeasible programs, "
                 f"max gap {worst:.2g} <= 1e-6; lp >= exact on all "
                 f"{len(records)} oracle instances: {lp_dominates}")

    def test_criterion_9_reruns_are_byte_identical(
            self, benchmark_sweep, tmp_path_factory):
        cfg, report, _ = benchmark_sweep
        base = tmp_path_factory.mktemp("determinism")
        paths_a = report.write(base / "a")
        rerun = run_experiment(ExperimentConfig(
            sweep=cfg.sweep, request_counts=cfg.request_counts, runs=cfg.runs,
            base_seed=cfg.base_seed, schemes=cfg.schemes,
        ))
        paths_b = rerun.write(base / "b")
        same = {
            name: paths_a[name].read_bytes() == paths_b[name].read_bytes()
            for name in ("summary", "runs")
        }
        _verdict(9, all(same.values()),
                 f"summary.csv identical: {same['summary']}, "
                 f"runs.csv identical: {same['runs']}")

"""Batch experiment runner: sweeps, schemes, confidence intervals, CSVs.

One experiment sweeps either the request count or one capacity axis, runs a
set of solution schemes on freshly generated instances at every sweep point,
and aggregates per-run metrics into Student-t confidence intervals.

Schemes:
  lr      relaxed optimum (fractional; reward is the relaxation objective)
  rr      randomized rounding of the relaxation (may overload nodes)
  greedy  rounding followed by the greedy capacity repair
  wo-avl  availability-blind baseline: plan with single copies, then score
          against the true replica requirements
  exact   reference optimum, only on instances within the oracle limits

Per-run seeds are derived by mixing the base seed with the sweep-point and
run indices through a splitmix-style hash, so adding runs or points never
reshuffles existing ones.  Every value in summary.csv and runs.csv is fully
determined by the config; wall-clock measurements go to timings.csv, which
is the one file that legitimately differs between repeat runs.
"""

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import special

from . import gen
from .bounds import compute_bound_report
from .lp import SimplexError, build_relaxed_program, solve_lp
from .model import RESOURCES, evaluate_solution
from .oracle import OracleLimitError, OracleLimits, evaluate_with_true_replicas, \
    solve_exact, strip_availability
from .repair import greedy_repair
from .rounding import randomized_round

EXPERIMENT_SCHEMA_VERSION = 1

SCHEMES = ("lr", "rr", "greedy", "wo-avl", "exact")
SWEEPS = ("requests", "cpu", "ram", "uplink", "downlink")
METRICS = ("reward", "served_pct", "util_cpu_pct", "util_ram_pct",
           "util_uplink_pct", "util_downlink_pct")

_MASK64 = (1 << 64) - 1
_STREAM_INSTANCE = 0xA1
_STREAM_ROUND = 0xA2
_STREAM_BASELINE = 0xA3


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *indices: int) -> int:
    """Mix a base seed with stream/point/run indices into a fresh 64-bit seed."""
    h = _splitmix64(base & _MASK64)
    for idx in indices:
        h = _splitmix64(h ^ (idx & _MASK64))
    return h


def confidence_interval(samples, confidence: float = 0.95):
    """Student-t mean interval; returns (mean, half width)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    if sem == 0.0:
        return mean, 0.0
    # Student-t quantile; scipy.stats.t.ppf calls the same function
    t = float(special.stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return mean, t * sem


@dataclass
class ExperimentConfig:
    """One sweep: which axis varies, what stays fixed, how many runs."""

    sweep: str = "requests"
    request_counts: tuple = (30, 35, 40, 50, 60)
    sweep_values: tuple = None          # capacity values when sweep != requests
    fixed_request_count: int = 50
    fixed_cpu: int = 40
    fixed_ram: int = 48
    fixed_uplink: float = 75.0
    fixed_downlink: float = 250.0
    runs: int = 50
    confidence: float = 0.95
    base_seed: int = 0
    schemes: tuple = ("lr", "rr", "greedy", "wo-avl")
    generator: gen.GeneratorConfig = None   # template for non-swept knobs
    oracle_limits: OracleLimits = field(default_factory=OracleLimits)
    oracle_max_requests: int = 10
    oracle_max_mecs: int = 3
    on_error: str = "abort"             # or "exclude" (count and continue)
    jobs: int = 1

    def validate(self):
        if self.sweep not in SWEEPS:
            raise ValueError(f"unknown sweep axis: {self.sweep!r}")
        if self.runs < 2:
            raise ValueError("need at least 2 runs per point for intervals")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        if self.on_error not in ("abort", "exclude"):
            raise ValueError("on_error must be 'abort' or 'exclude'")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if not self.points():
            raise ValueError("sweep has no points")
        if self.generator is not None:
            self.generator.validate()
        self.oracle_limits.validate()

    def points(self):
        if self.sweep == "requests":
            return list(self.request_counts or ())
        return list(self.sweep_values or ())

    def to_dict(self) -> dict:
        out = {"version": EXPERIMENT_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "generator":
                out[f.name] = None if value is None else value.to_dict()
            elif f.name == "oracle_limits":
                out[f.name] = {"max_nodes": value.max_nodes}
            elif isinstance(value, tuple):
                out[f.name] = list(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a mapping")
        data = dict(data)
        version = data.pop("version", EXPERIMENT_SCHEMA_VERSION)
        if version != EXPERIMENT_SCHEMA_VERSION:
            raise ValueError(f"unsupported experiment config version: {version!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        kwargs = {}
        for name, value in data.items():
            if name == "generator" and value is not None:
                kwargs[name] = gen.GeneratorConfig.from_dict(value)
            elif name == "oracle_limits" and value is not None:
                kwargs[name] = OracleLimits(**value)
            elif isinstance(value, list):
                kwargs[name] = tuple(value)
            else:
                kwargs[name] = value
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _point_generator(cfg: ExperimentConfig, point_value, seed: int) -> gen.GeneratorConfig:
    """Generator settings at one sweep point (template seed is overridden)."""
    base = cfg.generator or gen.GeneratorConfig()
    kwargs = {f.name: getattr(base, f.name) for f in fields(gen.GeneratorConfig)}
    if cfg.sweep == "requests":
        kwargs["request_count"] = int(point_value)
    else:
        kwargs["request_count"] = cfg.fixed_request_count
        kwargs["cpu_range"] = (cfg.fixed_cpu, cfg.fixed_cpu)
        kwargs["ram_range"] = (cfg.fixed_ram, cfg.fixed_ram)
        kwargs["uplink_capacity"] = cfg.fixed_uplink
        kwargs["downlink_capacity"] = cfg.fixed_downlink
        if cfg.sweep == "cpu":
            kwargs["cpu_range"] = (point_value, point_value)
        elif cfg.sweep == "ram":
            kwargs["ram_range"] = (point_value, point_value)
        elif cfg.sweep == "uplink":
            kwargs["uplink_capacity"] = float(point_value)
        else:
            kwargs["downlink_capacity"] = float(point_value)
    kwargs["seed"] = seed
    return gen.GeneratorConfig(**kwargs)


def _utilization_pcts(metrics, inst):
    out = {}
    for res in RESOURCES:
        caps = inst.capacity_vector(res)
        out[f"util_{res}_pct"] = 100.0 * metrics.aggregate_utilization(res, caps)
    return out


def _lp_utilization_pcts(frac, inst):
    out = {}
    for res in RESOURCES:
        load = inst.demand_vector(res) @ frac.x
        caps = inst.capacity_vector(res)
        out[f"util_{res}_pct"] = 100.0 * float(load.sum() / caps.sum())
    return out


def _base_row(cfg, point_value, run):
    return {
        "sweep": cfg.sweep,
        "sweep_value": point_value,
        "run": run,
        "feasible": True,
        "capacity_violated": False,
        "factor_cpu": None, "factor_ram": None,
        "factor_uplink": None, "factor_downlink": None,
        "objective_factor": None,
    }


def _execute_run(cfg: ExperimentConfig, point_index: int, run: int):
    """All scheme rows and timing rows for one (point, run) cell."""
    point_value = cfg.points()[point_index]
    inst_seed = derive_seed(cfg.base_seed, _STREAM_INSTANCE, point_index, run)
    round_seed = derive_seed(cfg.base_seed, _STREAM_ROUND, point_index, run)
    baseline_seed = derive_seed(cfg.base_seed, _STREAM_BASELINE, point_index, run)
    inst = gen.generate(_point_generator(cfg, point_value, inst_seed))

    rows, timings = [], []
    want = set(cfg.schemes)
    need_lp = want & {"lr", "rr", "greedy"}

    frac = None
    t_lp = 0.0
    if need_lp:
        t0 = time.perf_counter()
        frac = solve_lp(build_relaxed_program(inst))
        t_lp = time.perf_counter() - t0

    if "lr" in want:
        row = _base_row(cfg, point_value, run)
        row.update(scheme="lr", reward=frac.objective,
                   served_pct=100.0 * float(frac.y.sum()) / max(1, inst.n_requests),
                   **_lp_utilization_pcts(frac, inst))
        rows.append(row)
        timings.append((point_value, run, "lr", t_lp))

    rounded = None
    t_round = 0.0
    if want & {"rr", "greedy"}:
        t0 = time.perf_counter()
        rounded = randomized_round(frac, inst, round_seed)
        t_round = time.perf_counter() - t0

    if "rr" in want:
        metrics = evaluate_solution(inst, rounded)
        report = compute_bound_report(frac, inst)
        row = _base_row(cfg, point_value, run)
        row.update(scheme="rr", reward=metrics.total_reward,
                   served_pct=100.0 * metrics.served_count / max(1, inst.n_requests),
                   feasible=metrics.feasible,
                   capacity_violated=any(v[0] in RESOURCES
                                         for v in metrics.violated_constraints),
                   objective_factor=report.objective_factor,
                   **_utilization_pcts(metrics, inst))
        for res in RESOURCES:
            row[f"factor_{res}"] = report.worst_factor(res)
        rows.append(row)
        timings.append((point_value, run, "rr", t_lp + t_round))

    if "greedy" in want:
        t0 = time.perf_counter()
        repaired = greedy_repair(inst, rounded)
        t_repair = time.perf_counter() - t0
        metrics = evaluate_solution(inst, repaired)
        row = _base_row(cfg, point_value, run)
        row.update(scheme="greedy", reward=metrics.total_reward,
                   served_pct=100.0 * metrics.served_count / max(1, inst.n_requests),
                   **_utilization_pcts(metrics, inst))
        rows.append(row)
        timings.append((point_value, run, "greedy", t_lp + t_round + t_repair))

    if "wo-avl" in want:
        t0 = time.perf_counter()
        blind = strip_availability(inst)
        blind_frac = solve_lp(build_relaxed_program(blind))
        blind_sol = greedy_repair(blind, randomized_round(blind_frac, blind, baseline_seed))
        _, metrics = evaluate_with_true_replicas(inst, blind_sol)
        t_blind = time.perf_counter() - t0
        row = _base_row(cfg, point_value, run)
        row.update(scheme="wo-avl", reward=metrics.total_reward,
                   served_pct=100.0 * metrics.served_count / max(1, inst.n_requests),
                   **_utilization_pcts(metrics, inst))
        rows.append(row)
        timings.append((point_value, run, "wo-avl", t_blind))

    if "exact" in want and inst.n_requests <= cfg.oracle_max_requests \
            and inst.n_mecs <= cfg.oracle_max_mecs:
        t0 = time.perf_counter()
        result = solve_exact(inst, limits=cfg.oracle_limits)
        t_exact = time.perf_counter() - t0
        metrics = evaluate_solution(inst, result.solution)
        row = _base_row(cfg, point_value, run)
        row.update(scheme="exact", reward=result.objective,
                   served_pct=100.0 * metrics.served_count / max(1, inst.n_requests),
                   **_utilization_pcts(metrics, inst))
        rows.append(row)
        timings.append((point_value, run, "exact", t_exact))

    return rows, timings


@dataclass
class ExperimentReport:
    """Everything one experiment produced, plus the CSV writers."""

    config: ExperimentConfig
    run_rows: list
    summary_rows: list
    timing_rows: list
    failed_runs: list        # (point_value, run, reason)

    RUN_COLUMNS = ("sweep", "sweep_value", "run", "scheme", "reward", "served_pct",
                   "util_cpu_pct", "util_ram_pct", "util_uplink_pct",
                   "util_downlink_pct", "feasible", "capacity_violated",
                   "factor_cpu", "factor_ram", "factor_uplink", "factor_downlink",
                   "objective_factor")
    SUMMARY_COLUMNS = ("sweep", "sweep_value", "scheme", "metric", "mean",
                       "ci_half_width", "runs", "failed")
    TIMING_COLUMNS = ("sweep", "sweep_value", "run", "scheme", "seconds")

    def write(self, out_dir) -> dict:
        """Write summary.csv, runs.csv and timings.csv; returns their paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "summary": out / "summary.csv",
            "runs": out / "runs.csv",
            "timings": out / "timings.csv",
        }
        with open(paths["runs"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.RUN_COLUMNS)
            for row in self.run_rows:
                writer.writerow([_fmt(row[c]) for c in self.RUN_COLUMNS])
        with open(paths["summary"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.SUMMARY_COLUMNS)
            for row in self.summary_rows:
                writer.writerow([_fmt(row[c]) for c in self.SUMMARY_COLUMNS])
        with open(paths["timings"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.TIMING_COLUMNS)
            for sweep_value, run, scheme, seconds in self.timing_rows:
                writer.writerow([self.config.sweep, _fmt(sweep_value), run,
                                 scheme, _fmt(seconds)])
        return paths


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".10g")
    return value


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (point, run) cell and aggregate confidence intervals."""
    cfg.validate()
    points = cfg.points()
    cells = [(pi, run) for pi in range(len(points)) for run in range(cfg.runs)]

    results = {}
    failed = []
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = {cell: pool.submit(_execute_run, cfg, *cell) for cell in cells}
            for cell in cells:
                try:
                    results[cell] = futures[cell].result()
                except (SimplexError, OracleLimitError) as exc:
                    _handle_run_error(cfg, points, cell, exc, failed)
    else:
        for cell in cells:
            try:
                results[cell] = _execute_run(cfg, *cell)
            except (SimplexError, OracleLimitError) as exc:
                _handle_run_error(cfg, points, cell, exc, failed)

    run_rows, timing_rows = [], []
    for cell in cells:
        if cell not in results:
            continue
        rows, timings = results[cell]
        run_rows.extend(rows)
        timing_rows.extend(timings)

    failed_by_point = {}
    for point_value, _run, _reason in failed:
        failed_by_point[point_value] = failed_by_point.get(point_value, 0) + 1

    summary_rows = []
    for pi, point_value in enumerate(points):
        for scheme in cfg.schemes:
            samples = {metric: [] for metric in METRICS}
            for row in run_rows:
                if row["sweep_value"] == point_value and row["scheme"] == scheme:
                    for metric in METRICS:
                        samples[metric].append(row[metric])
            if not samples["reward"]:
                continue  # scheme skipped at this point (oracle limits)
            for metric in METRICS:
                mean, half = confidence_interval(samples[metric], cfg.confidence)
                summary_rows.append({
                    "sweep": cfg.sweep, "sweep_value": point_value,
                    "scheme": scheme, "metric": metric,
                    "mean": mean, "ci_half_width": half,
                    "runs": len(samples[metric]),
                    "failed": failed_by_point.get(point_value, 0),
                })

    return ExperimentReport(config=cfg, run_rows=run_rows,
                            summary_rows=summary_rows, timing_rows=timing_rows,
                            failed_runs=failed)


def _handle_run_error(cfg, points, cell, exc, failed):
    point_value = points[cell[0]]
    if cfg.on_error == "abort":
        # keep the class and its fields, which the CLI maps to an exit code
        exc.args = (f"run {cell[1]} at sweep point {point_value} failed: {exc}",)
        raise exc
    failed.append((point_value, cell[1], str(exc)))

"""Batch experiment runner: sweeps, schemes, confidence intervals, CSVs.

One experiment sweeps either the request count or one capacity axis, runs a
set of solution schemes on freshly generated instances at every sweep point,
and aggregates per-run metrics into Student-t confidence intervals.  A
point's instances are the ``generator`` template with the swept field and the
seed replaced; a capacity sweep without one runs on identical nodes.

The schemes are described and implemented in ``schemes``; here exact runs
only on instances within ``oracle_max_requests`` and ``oracle_max_mecs``.

Per-run seeds are derived by mixing the base seed with the sweep-point and
run indices through a splitmix-style hash, so adding runs or points never
reshuffles existing ones.  Every value in summary.csv and runs.csv is fully
determined by the config; wall-clock measurements go to timings.csv, which
is the one file that legitimately differs between repeat runs.
"""

import csv
import functools
import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gen
from .lp import SimplexError
from .model import RESOURCES, InfeasibleSolutionError
from .oracle import DEFAULT_MAX_NODES, OracleLimitError
from .schemes import SCHEMES, run_schemes

EXPERIMENT_SCHEMA_VERSION = 1

# failures of one run that on_error may exclude from the sweep
_RUN_ERRORS = (SimplexError, OracleLimitError, InfeasibleSolutionError)

SWEEPS = ("requests", "cpu", "ram", "uplink", "downlink")
METRICS = ("reward", "served_pct", "util_cpu_pct", "util_ram_pct",
           "util_uplink_pct", "util_downlink_pct")

_MASK64 = (1 << 64) - 1
_STREAM_INSTANCE = 0xA1
_STREAM_ROUND = 0xA2
_STREAM_BASELINE = 0xA3

# the template of a capacity sweep without one: the paper's identical nodes
_IDENTICAL_NODES = gen.GeneratorConfig(cpu_range=(40, 40), ram_range=(48, 48))


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
    # arr.mean() and arr.std(ddof=1) through the reductions that numpy's
    # own _mean and _var make, in their order: the same bits
    n = arr.size
    mean = float(np.add.reduce(arr)) / n
    deviation = arr - mean
    sem = math.sqrt(float(np.add.reduce(np.square(deviation, out=deviation))) / (n - 1)) \
        / math.sqrt(n)
    if sem == 0.0:
        return mean, 0.0
    return mean, _t_quantile(arr.size - 1, confidence) * sem


@functools.cache
def _t_quantile(df: int, confidence: float) -> float:
    """The t with P(|T| < t) = ``confidence`` for T Student-t with ``df``
    degrees of freedom: scipy.stats.t.ppf(0.5 + confidence / 2, df).

    df = 1 is the Cauchy law, t = tan(pi c / 2) = 1 / tan(pi (1 - c) / 2).
    Otherwise Newton steps on log P against log t, where P is the central
    probability A(t) = P(|T| < t) if c <= 0.5 and the tail 1 - A(t) if not;
    d log P / d log t is 2 D / A, or -2 D / (1 - A), with D = t f(t) and f
    the density.  The tail is evaluated directly (``_t_probabilities``) and
    compared with 1 - c, which is exact for c >= 0.5, so no cancellation
    near c = 1 costs relative accuracy.  The search starts from the closed
    form of df = 2, which bounds every larger df from above; each step moves
    t by at most a factor e and stays inside the bracket of the points
    evaluated so far, or else bisects it.  Against 40-digit mpmath the
    result is within 7 ulp in 8,700 cells measured at df <= 100 (the tests
    hold 16 ulp) and within 2e-15 relative at df 199, 499 and 999 (they
    hold 1e-14); scipy.special.stdtrit is 621 ulp off at df 1, c 0.999.
    Cached: an experiment asks for one df and confidence.
    """
    if df == 1:
        if confidence <= 0.5:
            return math.tan(math.pi / 2.0 * confidence)
        return 1.0 / math.tan(math.pi / 2.0 * (1.0 - confidence))
    half = df // 2      # 1 / B(1/2, df/2), from exact integers
    inv_beta = (half * math.comb(2 * half, half) / 4 ** half if df % 2 == 0
                else 4 ** half / math.comb(2 * half, half) / math.pi)
    central = confidence <= 0.5
    target = confidence if central else 1.0 - confidence
    lo, hi = 0.0, math.inf
    t = confidence * math.sqrt(2.0 / ((1.0 - confidence) * (1.0 + confidence)))
    for _ in range(100):
        inside, tail, d = _t_probabilities(t, df, inv_beta)
        p = inside if central else tail
        if p == target:
            return t
        if (p < target) == central:
            lo = t
        else:
            hi = t
        new = math.nan
        if p > 0.0 and d > 0.0:
            step = math.log(p / target) * p / (2.0 * d) * (-1.0 if central else 1.0)
            new = t + t * math.expm1(max(-1.0, min(step, 1.0)))
            if abs(new - t) <= 2.0 ** -40 * t:
                return new
        if not lo < new < hi:
            new = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else hi / 2.0
            if not lo < new < hi:   # no float left between the bracket's ends
                return t
        t = new
    raise ArithmeticError(f"no Student-t quantile found for df={df}, "
                          f"confidence={confidence}")


def _t_probabilities(t, df, inv_beta):
    """(A, 1 - A, D) at t > 0: A = P(|T| < t), D = t f(t).

    The tail is the regularized incomplete beta I_x(df/2, 1/2) with
    x = df / (df + t^2) (Numerical Recipes, section 6.4), and A is
    I_y(1/2, df/2) with y = 1 - x; both share the prefactor
    x^(df/2) y^(1/2) / B(1/2, df/2), which is D.  The side that is summed by
    its continued fraction is the tail where t^2 > 1.5, else A: there each
    is the more accurate of the two.
    """
    r = df + t * t
    x, y = df / r, t * t / r
    # x^(df/2) from whichever of x and y = 1 - x is small, so accurate to an ulp
    power = math.exp(df / 2.0 * math.log1p(-y)) if y < 0.5 else x ** (df / 2.0)
    d = power * t / math.sqrt(r) * inv_beta
    if t * t > 1.5:
        tail = 2.0 * d * _beta_fraction(df / 2.0, 0.5, x, y) / df
        return 1.0 - tail, tail, d
    inside = 2.0 * d * _beta_fraction(0.5, df / 2.0, y, x)
    return inside, 1.0 - inside, d


def _beta_fraction(a, b, x, y):
    """I_x(a, b) a B(a, b) / (x^a y^b), y = 1 - x, by the continued fraction
    1 / (1 + d1 / (1 + d2 / (1 + ...))) of Numerical Recipes, section 6.4.

    Evaluated backward from level 2n + 1, with n doubled until the value
    settles; backward, each level's rounding is damped on its way up.  The
    top level 1 + d1 = ((a + 1) y - (b - 1) x) / (a + 1) is formed without
    subtracting from 1, since d1 nears -1 where the tail is small.
    """
    top = ((a + 1.0) * y - (b - 1.0) * x) / (a + 1.0)
    n, value = 8, math.nan
    while True:
        f = 1.0
        for m in range(n, 0, -1):
            f = 1.0 - (a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)) / f
            g = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)) / f
            f = 1.0 + g
        new = f / (top + g)
        if abs(new - value) <= 2.0 ** -52 * new:
            return new
        n, value = 2 * n, new


@dataclass
class ExperimentConfig:
    """One sweep: which axis varies, the template for the rest, how many runs."""

    sweep: str = "requests"
    request_counts: tuple[float, ...] = (30, 35, 40, 50, 60)
    sweep_values: tuple[float, ...] = None    # capacity values when sweep != requests
    runs: int = 50
    confidence: float = 0.95
    base_seed: int = 0
    schemes: tuple[str, ...] = ("lr", "rr", "greedy", "wo-avl")
    generator: gen.GeneratorConfig = None   # template for every non-swept setting
    oracle_max_nodes: int = DEFAULT_MAX_NODES
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
            raise ValueError(f"unknown schemes: {sorted(unknown, key=str)}")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        for kind, values in (("scheme", self.schemes), ("sweep point", self.points())):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]   # 40 == 40.0
            if repeats:
                raise ValueError(f"{kind} {repeats[0]!r} is repeated")
        if self.on_error not in ("abort", "exclude"):
            raise ValueError("on_error must be 'abort' or 'exclude'")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.oracle_max_nodes < 1:
            raise ValueError("oracle_max_nodes must be positive")
        if not self.points():
            raise ValueError("sweep has no points")
        for value in self.points():     # checks every template field a point uses
            try:
                point = _point_generator(self, value, seed=0)
                point.validate()
                if point.request_count < 1:
                    raise ValueError("no requests to place")
            except ValueError as exc:
                raise ValueError(f"sweep point {value}: {exc}") from exc
        if "exact" in self.schemes and not any(_oracle_fits(self, v) for v in self.points()):
            raise ValueError(
                f"exact is listed but no sweep point fits oracle_max_requests="
                f"{self.oracle_max_requests} and oracle_max_mecs={self.oracle_max_mecs}")

    def points(self):
        if self.sweep == "requests":
            return list(self.request_counts or ())
        return list(self.sweep_values or ())

    @classmethod
    def from_dict(cls, data: dict):
        return gen.config_from_dict(cls, data, EXPERIMENT_SCHEMA_VERSION, "experiment",
                                    {"generator": gen.GeneratorConfig.from_dict})


def _point_generator(cfg: ExperimentConfig, point_value, seed: int) -> gen.GeneratorConfig:
    """The template with the swept field set to ``point_value`` and the seed replaced."""
    template = cfg.generator
    if template is None:
        template = gen.GeneratorConfig() if cfg.sweep == "requests" else _IDENTICAL_NODES
    if cfg.sweep == "requests":     # validate rejects a count that is not whole
        swept = {"request_count": point_value}
    elif cfg.sweep in ("cpu", "ram"):
        swept = {f"{cfg.sweep}_range": (point_value, point_value)}
    else:
        swept = {f"{cfg.sweep}_capacity": float(point_value)}
    return replace(template, seed=seed, **swept)


def _oracle_fits(cfg: ExperimentConfig, point_value) -> bool:
    """Whether instances at this sweep point are within the oracle limits."""
    point = _point_generator(cfg, point_value, seed=0)
    return (point.request_count <= cfg.oracle_max_requests
            and point.mec_count <= cfg.oracle_max_mecs)


def _point_schemes(cfg: ExperimentConfig, point_value):
    """The schemes that run at this sweep point: exact only within the oracle limits."""
    fits = _oracle_fits(cfg, point_value)
    return [s for s in cfg.schemes if s != "exact" or fits]


def _run_row(cfg, point_value, run, outcome):
    """One runs.csv row; bound factors are defined for rr alone."""
    metrics, report = outcome.metrics, outcome.bounds
    row = {
        "sweep": cfg.sweep,
        "sweep_value": point_value,
        "run": run,
        "scheme": outcome.scheme,
        "reward": outcome.reward,
        "served_pct": outcome.served_pct,
        "feasible": metrics is None or metrics.feasible,
        "capacity_violated": metrics is not None and any(
            v[0] in RESOURCES for v in metrics.violated_constraints),
        "objective_factor": None if report is None else report.objective_factor,
    }
    for res in RESOURCES:
        row[f"util_{res}_pct"] = outcome.utilization_pct[res]
        row[f"factor_{res}"] = None if report is None else report.worst_factor(res)
    return row


def _execute_run(cfg: ExperimentConfig, point_index: int, run: int):
    """All scheme rows and timing rows for one (point, run) cell."""
    point_value = cfg.points()[point_index]
    inst_seed = derive_seed(cfg.base_seed, _STREAM_INSTANCE, point_index, run)
    round_seed = derive_seed(cfg.base_seed, _STREAM_ROUND, point_index, run)
    baseline_seed = derive_seed(cfg.base_seed, _STREAM_BASELINE, point_index, run)
    inst = gen.generate(_point_generator(cfg, point_value, inst_seed))

    outcomes = run_schemes(inst, _point_schemes(cfg, point_value), round_seed,
                           baseline_seed, cfg.oracle_max_nodes)
    rows = [_run_row(cfg, point_value, run, out) for out in outcomes]
    timings = [{"sweep": cfg.sweep, "sweep_value": point_value, "run": run,
                "scheme": out.scheme, "seconds": out.seconds} for out in outcomes]
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
        tables = {"runs": (self.RUN_COLUMNS, self.run_rows),
                  "summary": (self.SUMMARY_COLUMNS, self.summary_rows),
                  "timings": (self.TIMING_COLUMNS, self.timing_rows)}
        paths = {name: out / f"{name}.csv" for name in tables}
        for name, (columns, rows) in tables.items():
            with open(paths[name], "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                for row in rows:
                    writer.writerow([_fmt(row[c]) for c in columns])
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

    run_rows, timing_rows, failed = [], [], []
    pool = None
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
        pool = ProcessPoolExecutor(max_workers=cfg.jobs)
    in_flight = deque()         # futures of cells i, i+1, ... in cell order
    try:
        for i, cell in enumerate(cells):
            if pool is not None:    # submit ahead so that `jobs` cells are in flight
                for ahead in cells[i + len(in_flight):i + cfg.jobs]:
                    in_flight.append(pool.submit(_execute_run, cfg, *ahead))
            try:
                rows, timings = (_execute_run(cfg, *cell) if pool is None
                                 else in_flight.popleft().result())
            except _RUN_ERRORS as exc:
                _handle_run_error(cfg, points, cell, exc, failed)
                continue
            run_rows.extend(rows)
            timing_rows.extend(timings)
    finally:
        if pool is not None:    # after an abort, the cells not yet started never run
            pool.shutdown(cancel_futures=True)

    failed_by_point = Counter(point_value for point_value, _run, _reason in failed)

    summary_rows = []
    for point_value in points:
        for scheme in _point_schemes(cfg, point_value):
            samples = {metric: [] for metric in METRICS}
            for row in run_rows:
                if row["sweep_value"] == point_value and row["scheme"] == scheme:
                    for metric in METRICS:
                        samples[metric].append(row[metric])
            for metric in METRICS:
                if len(samples[metric]) > 1:
                    mean, half = confidence_interval(samples[metric], cfg.confidence)
                elif samples[metric]:   # the point's other runs were excluded: no interval
                    mean, half = float(samples[metric][0]), math.nan
                else:                   # every run at the point was excluded
                    mean, half = math.nan, math.nan
                summary_rows.append({
                    "sweep": cfg.sweep, "sweep_value": point_value,
                    "scheme": scheme, "metric": metric,
                    "mean": mean, "ci_half_width": half,
                    "runs": len(samples[metric]),
                    "failed": failed_by_point[point_value],
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

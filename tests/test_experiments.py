import csv
import functools
import math
import textwrap
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
import yaml
from scipy import stats

from helpers import force_infeasible
from vnfplace import experiments, oracle, repair
from vnfplace.experiments import (
    METRICS,
    ExperimentConfig,
    ExperimentReport,
    _execute_run,
    _point_generator,
    _splitmix64,
    _t_quantile,
    confidence_interval,
    derive_seed,
    run_experiment,
)
from vnfplace.gen import GeneratorConfig
from vnfplace.lp import SimplexError, _openblas
from vnfplace.model import InfeasibleSolutionError
from vnfplace.oracle import OracleLimitError


def tiny_config(**overrides):
    kwargs = dict(
        sweep="requests",
        request_counts=(4, 6),
        runs=3,
        base_seed=7,
        schemes=("lr", "rr", "greedy", "wo-avl"),
        generator=GeneratorConfig(
            mec_count=3, cpu_range=(12, 18), ram_range=(16, 24),
            uplink_capacity=40.0, downlink_capacity=120.0,
        ),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def mpmath_t_quantile(df, confidence, start):
    """The t with I_x(df/2, 1/2) = 1 - confidence, x = df / (df + t^2), at
    40 digits: Newton's method from ``start`` on the regularized incomplete
    beta, whose t-derivative is -2 f(t), f the Student-t density."""
    half = mpmath.mpf(df) / 2
    tail = 1 - mpmath.mpf(confidence)

    def excess(t):
        return mpmath.betainc(half, 0.5, 0, df / (df + t * t), regularized=True) - tail

    def slope(t):
        return -2 * (1 + t * t / df) ** -(half + 0.5) / (mpmath.sqrt(df) * mpmath.beta(half, 0.5))

    return mpmath.findroot(excess, mpmath.mpf(start), solver="newton", df=slope)


def quantile_errors(dfs, confidences):
    """{(df, confidence): (|error| in ulp, relative error)} of _t_quantile."""
    errors = {}
    with mpmath.workdps(40):
        for df in dfs:
            for confidence in confidences:
                t = _t_quantile(df, confidence)
                off = abs(t - mpmath_t_quantile(df, confidence, t))
                errors[df, confidence] = (float(off / math.ulp(t)), float(off / t))
    return errors


GRID_CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


def marked_run(marker_dir, cfg, point_index, run, fail_run=None):
    """``_execute_run`` that leaves a marker file for its cell, then takes
    long enough that the cells queued behind it are still queued when a
    cell fails.  Run ``fail_run`` fails with a solver error."""
    (marker_dir / f"{point_index}-{run}").touch()
    time.sleep(0.1)
    if run == fail_run:
        raise SimplexError("solver failure")
    return _execute_run(cfg, point_index, run)


class TestSeedDerivation:
    def test_splitmix_known_answer(self):
        # first output of the reference splitmix64 stream from state 0
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_outputs_are_64_bit(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(base, 0xA1, 3, 4) < 2**64

    def test_every_index_matters(self):
        ref = derive_seed(5, 0xA1, 2, 3)
        assert ref != derive_seed(6, 0xA1, 2, 3)
        assert ref != derive_seed(5, 0xA2, 2, 3)
        assert ref != derive_seed(5, 0xA1, 1, 3)
        assert ref != derive_seed(5, 0xA1, 2, 4)

    def test_deterministic(self):
        assert derive_seed(9, 1, 2) == derive_seed(9, 1, 2)


class TestConfidenceInterval:
    def test_two_sample_half_width(self):
        # t(0.975, df=1) = 12.706..., sem = 5: checked by hand once
        mean, half = confidence_interval([0.0, 10.0])
        assert mean == pytest.approx(5.0)
        assert half == pytest.approx(63.53102368216048, rel=1e-10)

    def test_agrees_with_t_interval(self):
        vals = [3.1, 4.2, 5.3, 2.8, 4.9]
        mean, half = confidence_interval(vals)
        lo, hi = stats.t.interval(0.95, df=len(vals) - 1,
                                  loc=np.mean(vals), scale=stats.sem(vals))
        assert mean == pytest.approx((lo + hi) / 2)
        assert half == pytest.approx((hi - lo) / 2)

    def test_quantile_matches_scipy_stats_on_grid(self):
        # a second reference; scipy is not the truth (see the mpmath tests)
        rng = np.random.default_rng(5)
        for n in list(range(2, 40)) + [100, 1000]:
            vals = rng.normal(size=n)
            for confidence in GRID_CONFIDENCES:
                _, half = confidence_interval(vals, confidence)
                t = stats.t.ppf(0.5 + confidence / 2.0, n - 1)
                sem = vals.std(ddof=1) / np.sqrt(n)
                assert half == pytest.approx(t * sem, rel=1e-12), (n, confidence)

    def test_quantile_within_16_ulp_of_mpmath(self):
        errors = quantile_errors(range(1, 101), GRID_CONFIDENCES)
        assert {cell: ulp for cell, (ulp, _) in errors.items() if ulp > 16} == {}

    def test_quantile_within_1e_14_of_mpmath_at_large_df(self):
        errors = quantile_errors((199, 499, 999), GRID_CONFIDENCES)
        assert {cell: rel for cell, (_, rel) in errors.items() if rel > 1e-14} == {}

    @pytest.mark.parametrize("confidence", [1e-12, 0.001, 0.3, 0.5, 0.8, 0.95, 0.999,
                                            1 - 1e-9, 1 - 4e-15, 0.9999999999999999])
    def test_quantile_closed_forms_of_df_1_and_2(self, confidence):
        with mpmath.workdps(40):
            c = mpmath.mpf(confidence)
            for df, exact in ((1, mpmath.tan(mpmath.pi * c / 2)),
                              (2, c * mpmath.sqrt(2 / (1 - c * c)))):
                t = _t_quantile(df, confidence)
                assert abs(t - exact) <= 8 * math.ulp(t), df

    def test_quantile_rises_with_confidence_and_falls_with_df(self):
        # the extremes too: each search ends with a finite, positive t
        confidences = (1e-12, 0.1, 0.5, 0.8, 0.95, 0.999, 0.9999999999999999)
        table = [[_t_quantile(df, c) for c in confidences] for df in (1, 2, 3, 10, 100, 999)]
        assert all(math.isfinite(t) and t > 0.0 for row in table for t in row)
        assert all(a < b for row in table for a, b in zip(row, row[1:]))
        assert all(a > b for col in zip(*table) for a, b in zip(col, col[1:]))

    def test_nan_sample_gives_an_empty_half_width_cell(self, tmp_path):
        mean, half = confidence_interval([1.0, float("nan"), 3.0])
        assert math.isnan(mean) and math.isnan(half)
        row = dict.fromkeys(ExperimentReport.SUMMARY_COLUMNS, 1)
        row.update(mean=mean, ci_half_width=half)
        paths = ExperimentReport(tiny_config(), [], [row], [], []).write(tmp_path)
        with open(paths["summary"]) as fh:
            (written,) = csv.DictReader(fh)
        assert (written["mean"], written["ci_half_width"]) == ("", "")

    def test_zero_variance(self):
        assert confidence_interval([4.0, 4.0, 4.0]) == (4.0, 0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])

    def test_confidence_domain(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.0)


class TestConfigValidation:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            ExperimentConfig(sweep="latency").validate()

    def test_capacity_sweep_needs_values(self):
        with pytest.raises(ValueError, match="points"):
            ExperimentConfig(sweep="cpu").validate()

    def test_single_run_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig(runs=1).validate()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            ExperimentConfig(schemes=("lr", "magic")).validate()

    def test_bad_error_policy(self):
        with pytest.raises(ValueError, match="on_error"):
            ExperimentConfig(on_error="retry").validate()

    @pytest.mark.parametrize("overrides,message", [
        ({"sweep": "ram", "sweep_values": (48, 0)},
         r"sweep point 0: ram_range: bad range \(0, 0\)"),
        ({"sweep": "cpu", "sweep_values": (24, 40),
          "generator": GeneratorConfig(ram_range=(-1, -1))},
         r"sweep point 24: ram_range: bad range \(-1, -1\)"),
        ({"request_counts": (12.7,)}, "sweep point 12.7: request_count must hold whole"),
        ({"sweep": "cpu", "sweep_values": (24.5, 40)},
         "sweep point 24.5: cpu_range must hold whole"),
        ({"generator": GeneratorConfig(cpu_range=(32.9, 33.9))},
         "sweep point 30: cpu_range must hold whole"),
        ({"request_counts": (0, 5)}, "sweep point 0: no requests"),
    ], ids=["swept_value", "template_value", "fractional_request_count",
            "fractional_cpu_value", "fractional_template_range", "no_requests"])
    def test_every_sweep_point_is_validated(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**overrides).validate()

    @pytest.mark.parametrize("overrides,message", [
        ({"schemes": ("lr", "lr", "greedy")}, "scheme 'lr' is repeated"),
        ({"sweep": "cpu", "sweep_values": (24, 24)}, "sweep point 24 is repeated"),
        ({"sweep": "cpu", "sweep_values": (40, 40.0)}, r"sweep point 40\.0 is repeated"),
        ({"request_counts": (4, 6, 4)}, "sweep point 4 is repeated"),
    ], ids=["scheme", "point", "point_by_value", "request_count"])
    def test_repeated_scheme_or_point_rejected(self, overrides, message):
        # a repeat would pool two points' runs into one interval, or write a
        # scheme's summary rows twice
        with pytest.raises(ValueError, match=message):
            run_experiment(tiny_config(runs=2, **overrides))

    def test_roundtrip_through_dict(self):
        # a YAML file with a generator template and float capacity values
        text = """
            sweep: uplink
            sweep_values: [37.5, 50.0]
            request_counts: [4, 6]
            runs: 3
            base_seed: 7
            on_error: exclude
            schemes: [lr, rr, greedy, wo-avl]
            generator: {mec_count: 3, cpu_range: [12, 18], ram_range: [16, 24],
                        uplink_capacity: 40.0, downlink_capacity: 120.0}
        """
        cfg = tiny_config(sweep="uplink", sweep_values=(37.5, 50.0), on_error="exclude")
        assert ExperimentConfig.from_dict(yaml.safe_load(textwrap.dedent(text))) == cfg

    @pytest.mark.parametrize("cls,data,message", [
        (ExperimentConfig, {"runs": "5"}, "experiment config key 'runs' must be an int, got str"),
        (ExperimentConfig, {"runs": 2.5}, "'runs' must be an int, got float"),
        (ExperimentConfig, {"runs": True}, "'runs' must be an int, got bool"),
        (ExperimentConfig, {"schemes": "lr"}, "'schemes' must be a list of strs, got str"),
        (ExperimentConfig, {"generator": {"mec_count": 2.5}},
         "generator config key 'mec_count' must be an int, got float"),
        (ExperimentConfig, {"generator": {"cpu_range": 40}},
         "generator config key 'cpu_range' must be a list of numbers, got int"),
        (GeneratorConfig, {"seed": "5"}, "generator config key 'seed' must be an int, got str"),
        (GeneratorConfig, {"seed": 2.5}, "'seed' must be an int, got float"),
        (GeneratorConfig, {"seed": True}, "'seed' must be an int, got bool"),
        (GeneratorConfig, {"availability_levels": "0.99"},
         "'availability_levels' must be a list of numbers, got str"),
        (GeneratorConfig, {"mec_count": 2.5}, "'mec_count' must be an int, got float"),
        (GeneratorConfig, {"cpu_range": 40}, "'cpu_range' must be a list of numbers, got int"),
    ], ids=[f"{kind}-{case}" for kind in ("experiment", "generator")
            for case in ("str_int", "float_int", "bool_int", "str_list", "float_count",
                         "int_range")])
    def test_wrong_value_type_names_key_and_type(self, cls, data, message):
        with pytest.raises(ValueError, match=message):
            cls.from_dict(data)

    def test_an_int_passes_as_a_number_and_a_whole_float_as_a_bound(self):
        cfg = ExperimentConfig.from_dict({"sweep": "uplink", "sweep_values": [50, 62.5],
                                          "generator": {"uplink_capacity": 75,
                                                        "cpu_range": [40.0, 40.0]}})
        assert cfg.sweep_values == (50, 62.5)
        assert cfg.generator == GeneratorConfig(uplink_capacity=75, cpu_range=(40, 40))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"sweep": "requests", "extra": 1})

    @pytest.mark.parametrize("key", ["fixed_request_count", "fixed_cpu", "fixed_ram",
                                     "fixed_uplink", "fixed_downlink", "oracle_limits"])
    def test_removed_key_is_named(self, key):
        with pytest.raises(ValueError, match=rf"unknown experiment config keys: \['{key}'\]"):
            ExperimentConfig.from_dict({key: 1})

    @pytest.mark.parametrize("cls,key", [
        (ExperimentConfig, "runs"), (ExperimentConfig, "jobs"),
        (ExperimentConfig, "confidence"), (ExperimentConfig, "base_seed"),
        (ExperimentConfig, "oracle_max_nodes"), (GeneratorConfig, "mec_count"),
    ])
    def test_null_value_names_its_key(self, cls, key):
        with pytest.raises(ValueError, match=f"config key '{key}' must not be null"):
            cls.from_dict({key: None})

    def test_keys_that_default_to_null_may_be_null(self):
        cfg = ExperimentConfig.from_dict({"sweep_values": None, "generator": None})
        assert cfg.sweep_values is None and cfg.generator is None


class TestPointGenerator:
    def test_requests_sweep_sets_count_only(self):
        cfg = tiny_config()
        g = _point_generator(cfg, 6, seed=123)
        assert g.request_count == 6
        assert g.seed == 123
        assert g.cpu_range == (12, 18)  # template ranges survive

    def test_capacity_sweep_keeps_template_fields(self):
        cfg = tiny_config(sweep="cpu", sweep_values=(24, 36),
                          generator=GeneratorConfig(mec_count=3, request_count=12,
                                                    ram_range=(16, 24), uplink_capacity=40.0))
        assert _point_generator(cfg, 24, seed=5) == GeneratorConfig(
            mec_count=3, request_count=12, cpu_range=(24, 24), ram_range=(16, 24),
            uplink_capacity=40.0, seed=5)

    @pytest.mark.parametrize("sweep,value,swept", [
        ("cpu", 24, {"cpu_range": (24, 24)}),
        ("ram", 32, {"ram_range": (32, 32)}),
        ("uplink", 50, {"uplink_capacity": 50.0}),
        ("downlink", 150, {"downlink_capacity": 150.0}),
    ])
    def test_capacity_sweep_without_template_runs_on_identical_nodes(self, sweep, value,
                                                                     swept):
        # the settings these sweeps have always used: 50 requests on cpu 40,
        # ram 48, uplink 75 and downlink 250, with the swept one replaced
        pinned = dict(request_count=50, cpu_range=(40, 40), ram_range=(48, 48),
                      uplink_capacity=75.0, downlink_capacity=250.0, seed=5)
        cfg = ExperimentConfig(sweep=sweep, sweep_values=(value,))
        assert _point_generator(cfg, value, seed=5) == GeneratorConfig(**{**pinned, **swept})


class TestRunExperiment:
    def test_row_inventory_and_relations(self):
        report = run_experiment(tiny_config())
        # 2 points x 3 runs x 4 schemes
        assert len(report.run_rows) == 24
        assert not report.failed_runs
        by_cell = {}
        for row in report.run_rows:
            by_cell.setdefault((row["sweep_value"], row["run"]), {})[row["scheme"]] = row
        for cell, schemes in by_cell.items():
            assert set(schemes) == {"lr", "rr", "greedy", "wo-avl"}
            assert schemes["greedy"]["reward"] <= schemes["lr"]["reward"] + 1e-9
            assert schemes["greedy"]["feasible"]
            assert schemes["wo-avl"]["feasible"]
            assert schemes["rr"]["objective_factor"] is not None
            assert schemes["lr"]["factor_cpu"] is None

    def test_deterministic_across_calls_and_jobs(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        c = run_experiment(tiny_config(jobs=2))
        assert a.run_rows == b.run_rows == c.run_rows
        assert a.summary_rows == b.summary_rows == c.summary_rows

    def test_base_seed_changes_rows(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(base_seed=8))
        assert a.run_rows != b.run_rows

    def test_summary_aggregates_run_rows(self):
        report = run_experiment(tiny_config())
        assert {row["metric"] for row in report.summary_rows} == set(METRICS)
        for srow in report.summary_rows:
            samples = [row[srow["metric"]] for row in report.run_rows
                       if row["sweep_value"] == srow["sweep_value"]
                       and row["scheme"] == srow["scheme"]]
            mean, half = confidence_interval(samples)
            assert srow["mean"] == pytest.approx(mean)
            assert srow["ci_half_width"] == pytest.approx(half)
            assert srow["runs"] == 3 and srow["failed"] == 0

    def test_exact_scheme_respects_size_gates(self):
        cfg = tiny_config(request_counts=(4, 12),
                          schemes=("lr", "exact"),
                          oracle_max_requests=10, oracle_max_mecs=3)
        report = run_experiment(cfg)
        exact_points = {row["sweep_value"] for row in report.run_rows
                        if row["scheme"] == "exact"}
        assert exact_points == {4}  # the 12-request point exceeds the gate
        for row in report.run_rows:
            if row["scheme"] != "exact":
                continue
            lr = next(r["reward"] for r in report.run_rows
                      if r["scheme"] == "lr"
                      and r["sweep_value"] == row["sweep_value"]
                      and r["run"] == row["run"])
            assert row["reward"] <= lr + 1e-6

    def test_exact_without_a_fitting_point_is_rejected(self):
        # the default generator has 10 nodes, above oracle_max_mecs = 3
        cfg = ExperimentConfig(request_counts=(6,), runs=3, schemes=("lr", "exact"),
                               oracle_max_nodes=2, on_error="exclude")
        with pytest.raises(ValueError, match="no sweep point fits"):
            run_experiment(cfg)
        with pytest.raises(ValueError, match="oracle_max_requests=10"):
            tiny_config(request_counts=(12, 14), schemes=("exact",)).validate()
        tiny_config(request_counts=(4, 12), schemes=("exact",)).validate()

    def test_oracle_budget_abort_policy(self):
        cfg = tiny_config(request_counts=(6,), schemes=("exact",),
                          oracle_max_nodes=2)
        with pytest.raises(RuntimeError, match="failed"):
            run_experiment(cfg)

    def test_abort_keeps_the_error_class_and_fields(self):
        cfg = tiny_config(request_counts=(6,), schemes=("exact",),
                          oracle_max_nodes=2)
        with pytest.raises(OracleLimitError, match="run 0 at sweep point 6") as info:
            run_experiment(cfg)
        assert info.value.nodes == 3
        assert info.value.incumbent is not None

    def test_abort_cancels_the_queued_cells(self, monkeypatch, tmp_path):
        # every cell exhausts its budget; the first failure must not wait for the other 39
        monkeypatch.setattr(experiments, "_execute_run", functools.partial(marked_run, tmp_path))
        cfg = tiny_config(request_counts=(6,), runs=40, schemes=("exact",),
                          oracle_max_nodes=1, jobs=2)
        with pytest.raises(OracleLimitError, match="run 0 at sweep point 6"):
            run_experiment(cfg)
        assert len(list(tmp_path.iterdir())) < 20

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_abort_starts_at_most_jobs_minus_one_later_cells(self, monkeypatch, tmp_path, jobs):
        # run 5 fails; of the later runs only the jobs - 1 in flight beside it may start
        monkeypatch.setattr(experiments, "_execute_run",
                            functools.partial(marked_run, tmp_path, fail_run=5))
        cfg = tiny_config(request_counts=(6,), runs=40, schemes=("lr",), jobs=jobs)
        with pytest.raises(SimplexError, match="run 5 at sweep point 6"):
            run_experiment(cfg)
        started = {int(path.name.split("-")[1]) for path in tmp_path.iterdir()}
        assert set(range(6)) <= started and max(started) <= 5 + jobs - 1

    def test_oracle_budget_exclude_policy(self):
        cfg = tiny_config(request_counts=(6,), schemes=("lr", "exact"),
                          oracle_max_nodes=2,
                          on_error="exclude")
        report = run_experiment(cfg)
        assert len(report.failed_runs) == 3
        assert not report.run_rows
        assert [(r["scheme"], r["metric"]) for r in report.summary_rows] == \
            [(scheme, metric) for scheme in ("lr", "exact") for metric in METRICS]
        assert all(r["runs"] == 0 and r["failed"] == 3 for r in report.summary_rows)

    def test_point_whose_runs_all_failed_keeps_its_rows(self, tmp_path):
        # the oracle's 3-node budget fails every run at both points
        cfg = ExperimentConfig(request_counts=(6, 8), runs=2,
                               schemes=("lr", "greedy", "exact"), oracle_max_nodes=3,
                               on_error="exclude", generator=GeneratorConfig(mec_count=3))
        report = run_experiment(cfg)
        assert len(report.failed_runs) == 4
        with open(report.write(tmp_path)["summary"]) as fh:
            summary = list(csv.DictReader(fh))
        assert [(r["sweep_value"], r["scheme"], r["metric"]) for r in summary] == \
            [(str(point), scheme, metric) for point in (6, 8)
             for scheme in ("lr", "greedy", "exact") for metric in METRICS]
        for row in summary:
            assert (row["mean"], row["ci_half_width"], row["runs"], row["failed"]) == \
                ("", "", "0", "2")

    def test_failed_point_beyond_the_oracle_limits_has_no_exact_rows(self, monkeypatch):
        def every_run_fails(cfg, point_index, run):
            raise SimplexError("solver failure")

        monkeypatch.setattr(experiments, "_execute_run", every_run_fails)
        report = run_experiment(tiny_config(request_counts=(4, 12), runs=2,
                                            schemes=("lr", "exact"), on_error="exclude"))
        assert [(r["sweep_value"], r["scheme"]) for r in report.summary_rows[::len(METRICS)]] == \
            [(4, "lr"), (4, "exact"), (12, "lr")]
        assert all(r["runs"] == 0 and r["failed"] == 2 for r in report.summary_rows)

    def test_point_left_with_one_run_is_summarized_without_interval(self, monkeypatch, tmp_path):
        def run_1_fails_at_point_4(cfg, point_index, run):
            if (point_index, run) == (0, 1):
                raise SimplexError("solver failure")
            return _execute_run(cfg, point_index, run)

        monkeypatch.setattr(experiments, "_execute_run", run_1_fails_at_point_4)
        paths = run_experiment(tiny_config(runs=2, on_error="exclude")).write(tmp_path)
        with open(paths["runs"]) as fh:
            runs = list(csv.DictReader(fh))
        with open(paths["summary"]) as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 2 * 4 * len(METRICS)
        for row in summary:
            if row["sweep_value"] == "4":
                [kept] = [r for r in runs if (r["sweep_value"], r["scheme"]) == ("4", row["scheme"])]
                assert (row["runs"], row["failed"], row["ci_half_width"]) == ("1", "1", "")
                assert row["mean"] == kept[row["metric"]]
            else:
                assert (row["runs"], row["failed"]) == ("2", "0") and row["ci_half_width"]


class TestCsvOutput:
    def test_files_headers_and_formats(self, tmp_path):
        report = run_experiment(tiny_config())
        paths = report.write(tmp_path)
        with open(paths["runs"]) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == ExperimentReport.RUN_COLUMNS
        assert len(rows) == 1 + 24
        lr_row = next(r for r in rows[1:] if r[3] == "lr")
        assert lr_row[10] == "true"    # feasible printed lowercase
        assert lr_row[12] == ""        # undefined factor printed empty
        with open(paths["summary"]) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == ExperimentReport.SUMMARY_COLUMNS
        with open(paths["timings"]) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == ExperimentReport.TIMING_COLUMNS
        assert len(rows) == 1 + 24

    def test_summary_and_runs_byte_identical_across_processes(self, tmp_path):
        for name in ("a", "b"):
            run_experiment(tiny_config(jobs=1 if name == "a" else 2)).write(
                tmp_path / name)
        for fname in ("summary.csv", "runs.csv"):
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b


# runs.csv and summary.csv of this sweep are checked in under data/golden_sweep;
# a change that moves a seeded vertex on purpose rewrites them with
# run_experiment(GOLDEN_SWEEP).write(...) and records why
GOLDEN_SWEEP = ExperimentConfig(sweep="requests", request_counts=(8, 12), runs=3, base_seed=5,
                                schemes=("lr", "rr", "greedy", "wo-avl"),
                                generator=GeneratorConfig(mec_count=3))


@pytest.mark.skipif(_openblas() is None,
                    reason="the fallback rank-1 update rounds differently and moves pivots")
def test_golden_sweep_writes_the_checked_in_bytes(tmp_path):
    run_experiment(GOLDEN_SWEEP).write(tmp_path)
    golden = Path(__file__).parent / "data" / "golden_sweep"
    for name in ("runs.csv", "summary.csv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


class TestPostConditionErrors:
    def test_repair_violation_excluded_like_a_solver_failure(self, monkeypatch):
        force_infeasible(monkeypatch, repair)
        report = run_experiment(tiny_config(schemes=("lr", "greedy"), on_error="exclude"))
        assert len(report.failed_runs) == 6
        assert all("repair left violations" in reason for *_, reason in report.failed_runs)
        assert not report.run_rows

    def test_repair_violation_aborts_with_its_class(self, monkeypatch):
        force_infeasible(monkeypatch, repair)
        with pytest.raises(InfeasibleSolutionError,
                           match="run 0 at sweep point 4 failed: repair left violations"):
            run_experiment(tiny_config(schemes=("greedy",)))

    def test_infeasible_oracle_result_excluded(self, monkeypatch):
        force_infeasible(monkeypatch, oracle)
        report = run_experiment(tiny_config(request_counts=(4,), schemes=("lr", "exact"),
                                            on_error="exclude"))
        assert [reason for *_, reason in report.failed_runs] == \
            ["oracle produced an infeasible solution"] * 3

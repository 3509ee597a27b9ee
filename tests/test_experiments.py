import csv

import numpy as np
import pytest
from scipy import stats

from helpers import force_infeasible
from vnfplace import oracle, repair
from vnfplace.experiments import (
    METRICS,
    ExperimentConfig,
    ExperimentReport,
    _point_generator,
    _splitmix64,
    confidence_interval,
    derive_seed,
    run_experiment,
)
from vnfplace.gen import GeneratorConfig
from vnfplace.model import InfeasibleSolutionError
from vnfplace.oracle import OracleLimitError, OracleLimits


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
        rng = np.random.default_rng(5)
        for n in list(range(2, 40)) + [100, 1000]:
            vals = rng.normal(size=n)
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                _, half = confidence_interval(vals, confidence)
                t = stats.t.ppf(0.5 + confidence / 2.0, n - 1)
                assert half == t * (vals.std(ddof=1) / np.sqrt(n)), (n, confidence)

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

    def test_roundtrip_through_dict(self):
        cfg = tiny_config(sweep="cpu", sweep_values=(20, 30), on_error="exclude")
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"sweep": "requests", "extra": 1})


class TestPointGenerator:
    def test_requests_sweep_sets_count_only(self):
        cfg = tiny_config()
        g = _point_generator(cfg, 6, seed=123)
        assert g.request_count == 6
        assert g.seed == 123
        assert g.cpu_range == (12, 18)  # template ranges survive

    def test_capacity_sweep_pins_other_axes(self):
        cfg = tiny_config(sweep="cpu", sweep_values=(24, 36),
                          fixed_request_count=8, fixed_ram=20,
                          fixed_uplink=50.0, fixed_downlink=150.0)
        g = _point_generator(cfg, 24, seed=5)
        assert g.cpu_range == (24, 24)
        assert g.ram_range == (20, 20)
        assert g.uplink_capacity == 50.0
        assert g.downlink_capacity == 150.0
        assert g.request_count == 8


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

    def test_oracle_budget_abort_policy(self):
        cfg = tiny_config(request_counts=(6,), schemes=("exact",),
                          oracle_limits=OracleLimits(max_nodes=2))
        with pytest.raises(RuntimeError, match="failed"):
            run_experiment(cfg)

    def test_abort_keeps_the_error_class_and_fields(self):
        cfg = tiny_config(request_counts=(6,), schemes=("exact",),
                          oracle_limits=OracleLimits(max_nodes=2))
        with pytest.raises(OracleLimitError, match="run 0 at sweep point 6") as info:
            run_experiment(cfg)
        assert info.value.nodes == 3
        assert info.value.incumbent is not None

    def test_oracle_budget_exclude_policy(self):
        cfg = tiny_config(request_counts=(6,), schemes=("lr", "exact"),
                          oracle_limits=OracleLimits(max_nodes=2),
                          on_error="exclude")
        report = run_experiment(cfg)
        assert len(report.failed_runs) == 3
        assert not report.run_rows
        assert not report.summary_rows


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

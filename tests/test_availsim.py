import tracemalloc

import numpy as np
import pytest
from scipy import stats

from helpers import make_instance, slack_caps
from reference import reference_chunk_counts
from vnfplace import availsim
from vnfplace.availsim import (
    MIN_TRIALS,
    _binomial_quantile,
    _chunk_counts,
    consistent_with_threshold,
    simulate_availability,
)
from vnfplace.model import IntegralSolution, service_failure_prob


def two_class_instance():
    return make_instance(
        caps=slack_caps(3),
        reqs=[{"eps": 0.001, "reward": 6.0},   # needs 2 copies
              {"eps": 0.01, "reward": 5.0},    # needs 1 copy
              {"eps": 0.01, "reward": 5.0}],
    )


def full_solution():
    return IntegralSolution(
        x=np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int8),
        y=np.array([1, 1, 1], dtype=np.int8),
    )


class TestThresholdTest:
    def test_accepts_exact_binomial_quantile(self):
        trials, eps = 10_000, 0.01
        allowed = int(stats.binom.ppf(0.99, trials, eps))
        assert consistent_with_threshold(trials - allowed, trials, eps)
        assert not consistent_with_threshold(trials - allowed - 1, trials, eps)

    def test_zero_failures_always_pass(self):
        assert consistent_with_threshold(5000, 5000, 1e-4)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            consistent_with_threshold(-1, 100, 0.01)
        with pytest.raises(ValueError):
            consistent_with_threshold(101, 100, 0.01)

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            consistent_with_threshold(100, 100, 0.01, confidence=1.0)

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999])
    def test_quantile_matches_scipy_stats_on_grid(self, confidence):
        for trials in (1, 10, 1000, 4096, 100_000, 131_072):
            for eps in (1e-6, 1e-4, 1e-3, 0.0095, 0.01, 0.05, 0.3, 0.5, 0.99):
                allowed = stats.binom.ppf(confidence, trials, eps)
                assert _binomial_quantile(confidence, trials, eps) == allowed, \
                    (trials, eps)


class TestSimulation:
    def test_deterministic_per_seed(self):
        inst, sol = two_class_instance(), full_solution()
        a = simulate_availability(inst, sol, trials=2000, seed=9)
        b = simulate_availability(inst, sol, trials=2000, seed=9)
        assert [r.delivered for r in a.per_request] == \
               [r.delivered for r in b.per_request]

    def test_jobs_do_not_change_results(self):
        inst, sol = two_class_instance(), full_solution()
        trials = 3 * (1 << 15) + 17  # forces several chunks plus a ragged tail
        serial = simulate_availability(inst, sol, trials=trials, seed=4, jobs=1)
        parallel = simulate_availability(inst, sol, trials=trials, seed=4, jobs=3)
        assert [r.delivered for r in serial.per_request] == \
               [r.delivered for r in parallel.per_request]

    def test_availability_matches_survival_law(self):
        # k copies deliver with probability 1 - eps_m**k; check both k = 1
        # and k = 2 against a 4-sigma binomial band
        inst, sol = two_class_instance(), full_solution()
        trials = 200_000
        report = simulate_availability(inst, sol, trials=trials, seed=7)
        eps_m = service_failure_prob(inst.failure_model)
        assert eps_m == pytest.approx(0.005)
        for row, k in zip(report.per_request, (2, 1, 1)):
            expected = 1.0 - eps_m**k
            se = np.sqrt(expected * (1 - expected) / trials)
            assert abs(row.availability - expected) <= 4 * se + 1e-12

    def test_two_copies_meet_tight_threshold_one_copy_fails_it(self):
        inst, sol = two_class_instance(), full_solution()
        report = simulate_availability(inst, sol, trials=100_000, seed=1)
        assert report.per_request[0].meets_threshold      # 0.999975 vs 0.999
        assert report.per_request[1].meets_threshold      # 0.995 vs 0.99
        short = IntegralSolution(
            x=np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int8),
            y=np.array([1, 1, 1], dtype=np.int8),
        )
        shorted = simulate_availability(inst, short, trials=100_000, seed=1)
        assert not shorted.per_request[0].meets_threshold  # 0.995 vs 0.999

    def test_capacity_violation_rejected(self):
        inst = make_instance(caps=[{"c": 2}], reqs=[{"c": 3, "eps": 0.01}])
        sol = IntegralSolution(x=np.array([[1]], dtype=np.int8),
                               y=np.array([1], dtype=np.int8))
        with pytest.raises(ValueError, match="capacity"):
            simulate_availability(inst, sol, trials=2000, seed=0)

    def test_replica_shortfall_accepted(self):
        # redundancy violations are the measurement target, not an error
        inst, _ = two_class_instance(), None
        short = IntegralSolution(
            x=np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int8),
            y=np.array([1, 0, 0], dtype=np.int8),
        )
        report = simulate_availability(inst, short, trials=2000, seed=0)
        assert report.per_request[0].placements == 1

    def test_unplaced_request_never_delivers(self):
        inst, _ = two_class_instance(), None
        none_placed = IntegralSolution(
            x=np.zeros((3, 3), dtype=np.int8), y=np.zeros(3, dtype=np.int8))
        report = simulate_availability(inst, none_placed, trials=2000, seed=0)
        assert all(r.delivered == 0 for r in report.per_request)
        assert report.aggregate_pdr == 0.0
        assert report.served_fraction == 0.0

    def test_trials_floor_enforced(self):
        inst, sol = two_class_instance(), full_solution()
        with pytest.raises(ValueError):
            simulate_availability(inst, sol, trials=MIN_TRIALS - 1, seed=0)

    def test_aggregate_statistics(self):
        inst, sol = two_class_instance(), full_solution()
        report = simulate_availability(inst, sol, trials=5000, seed=2)
        total = sum(r.delivered for r in report.per_request)
        assert report.aggregate_pdr == pytest.approx(total / (3 * 5000))
        assert report.served_fraction == pytest.approx(1.0)

    def test_csv_rows_shape(self):
        inst, sol = two_class_instance(), full_solution()
        report = simulate_availability(inst, sol, trials=2000, seed=3)
        rows = list(report.csv_rows())
        assert rows[0].startswith("request,required_replicas")
        assert len(rows) == 4
        first = rows[1].split(",")
        assert first[0] == "0" and first[1] == "2" and first[2] == "2"
        assert first[7] in ("true", "false")


class TestChunkCounts:
    """The row-blocked counts against one full draw matrix per chunk."""

    def test_counts_match_full_matrix_reference(self):
        rng = np.random.default_rng(55)
        ragged = 0
        for case in range(24):
            widths = [int(w) for w in rng.integers(0, 6, int(rng.integers(1, 40)))]
            widths[0] = 0                          # always an unplaced request
            total = sum(widths)
            rows = availsim._BLOCK_BYTES // (8 * max(total, 1))
            size = int(rng.integers(rows + 1, 3 * rows)) if case % 2 else 1 << 15
            ragged += size % rows != 0
            eps = float(10 ** rng.uniform(-4, np.log10(0.9)))
            got = _chunk_counts(case, 3, size, eps, widths)
            assert np.array_equal(got, reference_chunk_counts(case, 3, size, eps, widths)), \
                (widths, size, eps)
            assert got[0] == 0
        assert ragged >= 12          # several chunks end in a partial row block

    def test_one_row_blocks_match_reference(self, monkeypatch):
        monkeypatch.setattr(availsim, "_BLOCK_BYTES", 1)    # floor: one row a block
        widths = [2, 0, 1, 3, 2, 2, 1]
        got = _chunk_counts(8, 1, 37, 0.4, widths)
        assert np.array_equal(got, reference_chunk_counts(8, 1, 37, 0.4, widths))

    def test_zero_copy_solution_delivers_nothing(self):
        widths = [0, 0, 0]
        got = _chunk_counts(2, 0, 5000, 0.01, widths)
        assert np.array_equal(got, reference_chunk_counts(2, 0, 5000, 0.01, widths))
        assert not got.any()

    def test_chunk_memory_stays_bounded(self):
        # a full draw matrix of 32,768 trials x 330 copies is 86.5 MB of float64
        widths = [1, 2, 3, 4, 5] * 22
        assert sum(widths) == 330
        tracemalloc.start()
        try:
            _chunk_counts(0, 0, 1 << 15, 0.005, widths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

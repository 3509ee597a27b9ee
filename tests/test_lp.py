import contextlib
import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dger
from scipy.optimize import linprog

import vnfplace
from helpers import bench_tracer, make_instance, slack_caps
from reference import (bincount_transposed_product, column_entries, constraint_matrix,
                       dense_basis, placement_entries, vertex_enumeration_max)
from vnfplace import lp as lp_module
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import (
    GE,
    LE,
    InfeasibleProgramError,
    IterationLimitError,
    LinearProgram,
    NumericalInstabilityError,
    SimplexError,
    UnboundedProgramError,
    _BoundedSimplex,
    build_relaxed_program,
    simplex_solve,
    solve_lp,
)
from vnfplace.model import RESOURCES
from vnfplace.oracle import solve_exact
from vnfplace.schemes import strip_availability


def entries(lp):
    """The program's entry and row arrays as lists."""
    return tuple(a.tolist() for a in (lp.row, lp.var, lp.coef, lp.sense, lp.rhs))


class TestProgramConstruction:
    def test_shapes_and_redundancy_coefficient(self):
        inst = make_instance(
            caps=slack_caps(2),
            reqs=[{"eps": 0.01}, {"eps": 0.001}, {"eps": 0.0001}],
        )
        lp = build_relaxed_program(inst)
        # 3 requests * 2 nodes placement vars + 3 admission vars
        assert lp.n_vars == 9
        # 3 redundancy + 4 resources * 2 nodes (the box already caps y at 1)
        assert lp.rhs.size == lp.sense.size == 11
        # redundancy row for request 1 (needs 2 replicas): x_{1,0}+x_{1,1} - 2 y_1 >= 0
        assert lp.sense[1] == GE and lp.rhs[1] == 0.0
        in_row = lp.row == 1
        coeffs = dict(zip(lp.var[in_row].tolist(), lp.coef[in_row].tolist()))
        assert coeffs == {2: 1.0, 3: 1.0, 7: -2.0}

    @pytest.mark.parametrize("requests,mecs", [(3, 2), (30, 10), (60, 20)])
    def test_entries_match_a_row_by_row_build(self, requests, mecs):
        # the entry order fixes the solver's column layout, and so its pivots
        inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs, seed=1))
        assert entries(build_relaxed_program(inst)) == placement_entries(inst)

    def test_row_from_a_generator_keeps_its_coefficients(self):
        lp = LinearProgram(n_vars=3)
        lp.add_row(((j, 2.0) for j in range(3)), LE, 1.0)
        assert entries(lp) == ([0, 0, 0], [0, 1, 2], [2.0, 2.0, 2.0], [LE], [1.0])

    @pytest.mark.parametrize("coeffs,message", [
        ([(0, 1.0), (3, 1.0)], "unknown variable 3"),
        ([(-1, 1.0)], "unknown variable -1"),
        ([(0, float("nan"))], "must be finite"),
        ([(1, float("inf"))], "must be finite"),
    ])
    def test_bad_row_rejected(self, coeffs, message):
        lp = LinearProgram(n_vars=3)
        with pytest.raises(ValueError, match=message):
            lp.add_row(coeffs, LE, 1.0)
        assert entries(lp) == ([], [], [], [], [])

    def test_a_batch_matches_its_rows_added_one_by_one(self):
        batch = LinearProgram(n_vars=3)
        batch.add_rows([0, 0, 1, 1, 1], [0, 2, 1, 1, 0], [1.0, -2.0, 3.0, 0.5, 4.0],
                       [GE, LE], [0.5, 6.0])
        single = LinearProgram(n_vars=3)
        single.add_row([(0, 1.0), (2, -2.0)], GE, 0.5)
        single.add_row([(1, 3.0), (1, 0.5), (0, 4.0)], LE, 6.0)
        assert entries(batch) == entries(single)

    @pytest.mark.parametrize("batch,message", [
        (([0], [0], [1.0], ["=="], [1.0]), "sense"),
        (([0], [0], [1.0], [LE], [np.inf]), "rhs must be finite"),
        (([0, 1], [0, 3], [1.0, 1.0], [LE, LE], [1.0, 1.0]), "unknown variable 3"),
        (([0], [0], [np.nan], [LE], [1.0]), "must be finite"),
        (([0, 1], [0, 1], [1.0, 1.0], [LE], [1.0]), "name rows of the batch"),
        (([0, 0], [0, 1], [1.0], [LE], [1.0]), "share one length"),
        (([0], [0], [1.0], [LE, GE], [1.0]), "share one length"),
    ])
    def test_bad_batch_leaves_the_program_unchanged(self, batch, message):
        lp = LinearProgram(n_vars=3)
        lp.add_row([(1, 2.0)], GE, 1.0)
        before = entries(lp)
        with pytest.raises(ValueError, match=message):
            lp.add_rows(*batch)
        assert entries(lp) == before

    def test_rows_view_feeds_the_bench_tracer(self):
        # perfbench/tracer.py counts rows and entries through ``program.rows``
        tracer = bench_tracer().Tracer(vnfplace)
        build = tracer._wrap("lp.build", build_relaxed_program, tracer._after_build)
        build(generate(GeneratorConfig(request_count=50, mec_count=10, seed=0)))
        counts = tracer.counts
        # R + 4M rows, R(M + 1) variables, R(M + 1) + 4MR entries
        assert (counts["lp.rows"], counts["lp.vars"], counts["lp.nnz"]) == (90, 550, 2550)
        assert tracer.counter_errors == 0

    def test_bounds_are_unit_box(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{}, {}])
        lp = build_relaxed_program(inst)
        assert np.all(lp.lower == 0.0)
        assert np.all(lp.upper == 1.0)

    def test_start_defaults_to_the_lower_bounds(self):
        lp = LinearProgram(n_vars=2, lower=[-1.0, 0.5], upper=[1.0, np.inf])
        assert lp.start.tolist() == [-1.0, 0.5]
        lp.lower[0] = -2.0
        assert lp.start[0] == -1.0   # a copy, not a view of the bounds

    @pytest.mark.parametrize("start,message", [
        ([0.0], "length"),
        ([0.0, 0.5, 0.0], "lower or upper bound"),
        ([0.0, 1.0, np.inf], "finite"),
        ([0.0, np.nan, 0.0], "finite"),
        # bounds of another length than n_vars, in place of the start:
        # numpy would broadcast the first two and fail on the third
        ({"upper": [2.0]}, "length"),
        ({"lower": [0.0]}, "length"),
        ({"upper": [1.0, 1.0]}, "length"),
    ])
    def test_bad_start_rejected(self, start, message):
        fields = start if isinstance(start, dict) else {"start": start}
        with pytest.raises(ValueError, match=message):
            LinearProgram(**{"n_vars": 3, "upper": [1.0, 1.0, np.inf], **fields})


def check_start(inst):
    """The program's start is a 0/1 point that places exactly psi_r copies of
    each served request and nothing else, satisfies every row and so needs
    no artificials."""
    lp = build_relaxed_program(inst)
    R, M = lp.shape
    assert set(np.unique(lp.start)) <= {0.0, 1.0}
    x, y = lp.start[: R * M].reshape(R, M), lp.start[R * M:]
    assert np.array_equal(x.sum(axis=1), inst.replica_vector() * y)
    value = constraint_matrix(lp) @ lp.start
    assert np.where(lp.sense == LE, value <= lp.rhs, value >= lp.rhs).all()
    assert _BoundedSimplex(lp).artificials.size == 0
    return y


class TestGreedyStart:
    @pytest.mark.parametrize("requests,mecs", [(20, 5), (50, 10), (100, 10), (200, 20)])
    @pytest.mark.parametrize("blind", [False, True], ids=["true_replicas", "stripped"])
    def test_start_is_a_feasible_vertex(self, requests, mecs, blind):
        for seed in range(3):
            inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs, seed=seed))
            y = check_start(strip_availability(inst) if blind else inst)
            assert y.any()

    def test_loaded_instances_leave_requests_out(self):
        inst = generate(GeneratorConfig(request_count=200, mec_count=5, seed=0))
        y = check_start(inst)
        assert 0 < y.sum() < inst.n_requests


class TestSolveLp:
    def test_single_request_fits(self):
        inst = make_instance(caps=[{"c": 10, "d": 10}],
                             reqs=[{"eps": 0.01, "reward": 7.0}])
        frac = solve_lp(build_relaxed_program(inst))
        assert frac.objective == pytest.approx(7.0, abs=1e-7)
        assert frac.y[0] == pytest.approx(1.0, abs=1e-7)
        assert frac.x[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_oversized_request_served_fractionally(self):
        # demand 5 against capacity 4 caps the placement at 0.8
        inst = make_instance(caps=[{"c": 4}],
                             reqs=[{"c": 5, "eps": 0.01, "reward": 7.0}])
        frac = solve_lp(build_relaxed_program(inst))
        assert frac.objective == pytest.approx(5.6, abs=1e-7)
        assert frac.x[0, 0] == pytest.approx(0.8, abs=1e-7)

    def test_fractional_split_on_shared_capacity(self):
        # two identical requests, joint demand 4 against capacity 3
        inst = make_instance(
            caps=[{"c": 3.0, "d": 100}],
            reqs=[{"c": 2.0, "eps": 0.01, "reward": 5.0},
                  {"c": 2.0, "eps": 0.01, "reward": 5.0}],
        )
        frac = solve_lp(build_relaxed_program(inst))
        assert frac.objective == pytest.approx(7.5, abs=1e-7)
        assert float(frac.y.sum()) == pytest.approx(1.5, abs=1e-7)

    def test_redundancy_halves_admission_on_single_node(self):
        # two copies required but only one node exists: y tops out at 1/2
        inst = make_instance(caps=[{"c": 10}], reqs=[{"eps": 0.001, "reward": 7.0}])
        frac = solve_lp(build_relaxed_program(inst))
        assert frac.objective == pytest.approx(3.5, abs=1e-7)
        assert frac.y[0] == pytest.approx(0.5, abs=1e-7)

    def test_empty_instance(self):
        inst = make_instance(caps=slack_caps(1), reqs=[])
        frac = solve_lp(build_relaxed_program(inst))
        assert frac.objective == 0.0
        assert frac.x.shape == (0, 1)

    def test_solution_feasible_within_tolerance(self):
        inst = generate(GeneratorConfig(request_count=30, seed=17))
        frac = solve_lp(build_relaxed_program(inst))
        assert np.all(frac.x >= -1e-7) and np.all(frac.x <= 1 + 1e-7)
        assert np.all(frac.y >= -1e-7) and np.all(frac.y <= 1 + 1e-7)
        psi = np.array(inst.replicas, dtype=float)
        assert np.all(frac.x.sum(axis=1) - psi * frac.y >= -1e-6)
        for res in ("cpu", "ram", "uplink", "downlink"):
            loads = frac.x.T @ inst.demand_vector(res)
            assert np.all(loads <= inst.capacity_vector(res) + 1e-6)
        assert frac.objective == pytest.approx(
            float(inst.reward_vector() @ frac.y), abs=1e-6
        )

    def test_deterministic(self):
        inst = generate(GeneratorConfig(request_count=25, seed=9))
        a = solve_lp(build_relaxed_program(inst))
        b = solve_lp(build_relaxed_program(inst))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_relaxation_dominates_integer_optimum(self):
        for seed in range(12):
            inst = generate(GeneratorConfig(
                mec_count=2, request_count=5,
                cpu_range=(12, 18), ram_range=(16, 24),
                uplink_capacity=30.0, downlink_capacity=90.0, seed=seed,
            ))
            frac = solve_lp(build_relaxed_program(inst))
            exact = solve_exact(inst)
            assert frac.objective >= exact.objective - 1e-6


class TestSimplexCore:
    def test_matches_vertex_enumeration_on_random_programs(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            lp = LinearProgram(
                n_vars=n,
                objective=rng.uniform(-5, 5, size=n),
                upper=np.full(n, float(rng.integers(1, 4))),
            )
            for _ in range(m):
                coeffs = [(j, float(rng.uniform(-3, 3))) for j in range(n)
                          if rng.random() < 0.8]
                if not coeffs:
                    coeffs = [(0, 1.0)]
                sense = LE if rng.random() < 0.7 else GE
                lp.add_row(coeffs, sense, float(rng.uniform(-2, 6)))
            expected = vertex_enumeration_max(lp)
            if expected is None:
                with pytest.raises(InfeasibleProgramError):
                    simplex_solve(lp)
            else:
                result = simplex_solve(lp)
                assert result.objective == pytest.approx(expected, abs=1e-6)
                solved += 1
        assert solved >= 20  # the sampler must exercise the optimal path too

    def test_infeasible_detected(self):
        # forces phase 1 to end with a positive artificial
        lp = LinearProgram(n_vars=2, objective=np.array([1.0, 1.0]))
        lp.add_row([(0, 1.0), (1, 1.0)], GE, 3.0)
        with pytest.raises(InfeasibleProgramError):
            simplex_solve(lp)

    @pytest.mark.parametrize("rows", [[], [(LE, 0.0), (LE, 2.0), (GE, 0.0), (GE, -2.0)]],
                             ids=["no_rows", "satisfied_rows"])
    def test_no_variables_and_satisfied_constant_rows(self, rows):
        lp = LinearProgram(n_vars=0)
        for sense, rhs in rows:
            lp.add_row([], sense, rhs)
        result = simplex_solve(lp)
        assert (result.objective, result.iterations, result.values.shape) == (0.0, 0, (0,))

    @pytest.mark.parametrize("sense,rhs", [(LE, -1e-9), (GE, 1e-9)])
    def test_no_variables_and_a_violated_constant_row(self, sense, rhs):
        lp = LinearProgram(n_vars=0)
        lp.add_row([], LE, 1.0)
        lp.add_row([], sense, rhs)
        with pytest.raises(InfeasibleProgramError):
            simplex_solve(lp)

    def test_unbounded_detected(self):
        lp = LinearProgram(
            n_vars=1,
            objective=np.array([1.0]),
            upper=np.array([np.inf]),
        )
        with pytest.raises(UnboundedProgramError):
            simplex_solve(lp)

    def test_iteration_limit(self):
        inst = generate(GeneratorConfig(request_count=60, seed=3))
        lp = build_relaxed_program(inst)
        # the start is not optimal, so one iteration cannot end the solve
        assert simplex_solve(lp).objective > lp.objective @ lp.start + 1.0
        solver = _BoundedSimplex(lp)
        solver.max_iterations = 1
        with pytest.raises(IterationLimitError):
            solver.solve()

    def test_negative_lower_bounds(self):
        # maximize x0 + x1 with x in [-2, 1]^2 and x0 + x1 <= 1
        lp = LinearProgram(
            n_vars=2,
            objective=np.array([1.0, 1.0]),
            lower=np.array([-2.0, -2.0]),
            upper=np.array([1.0, 1.0]),
        )
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.0)
        result = simplex_solve(lp)
        assert result.objective == pytest.approx(1.0, abs=1e-7)

    def test_equality_via_opposing_rows(self):
        # x0 + x1 == 1 encoded as LE plus GE, maximize 3 x0 + x1
        lp = LinearProgram(n_vars=2, objective=np.array([3.0, 1.0]))
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.0)
        lp.add_row([(0, 1.0), (1, 1.0)], GE, 1.0)
        result = simplex_solve(lp)
        assert result.objective == pytest.approx(3.0, abs=1e-7)
        assert result.values[0] == pytest.approx(1.0, abs=1e-7)

    def test_ratio_test_ignores_drift_past_a_bound(self):
        # maximize x0 + x1 with x0 - x1 <= 0 and x0 + x1 <= 1.5; the first
        # slack has drifted 1e-9 below zero, so its raw step is negative
        lp = LinearProgram(n_vars=2, objective=np.array([1.0, 1.0]))
        lp.add_row([(0, 1.0), (1, -1.0)], LE, 0.0)
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.5)
        solver = _BoundedSimplex(lp)
        solver.max_iterations = 1
        solver.xb[0] = -1e-9
        with pytest.raises(IterationLimitError):
            solver._optimize(np.array([1.0, 1.0, 0.0, 0.0]))
        # a zero step, not a backward one, so x0 enters at its lower bound
        assert (solver._values()[:2] >= 0.0).all()

    def test_dust_below_a_lower_bound_snaps_without_an_upper_bound(self, monkeypatch):
        # x0 rests at its lower bound 0 and has no upper bound
        values = _BoundedSimplex._values

        def dusty(self):
            v = values(self)
            v[: self.n_struct] -= 1e-12
            return v

        monkeypatch.setattr(_BoundedSimplex, "_values", dusty)
        lp = LinearProgram(n_vars=2, objective=[-1.0, 1.0], upper=[np.inf, 1.0])
        assert simplex_solve(lp).values.tolist() == [0.0, 1.0 - 1e-12]

    def test_dependent_row_keeps_an_artificial_basic_at_zero(self, monkeypatch):
        # x0 + x1 >= 2 twice on the unit box: phase 1 flips both variables to
        # their upper bounds and ends with both artificials basic at zero.
        # Pinned, one leaves in a degenerate pivot once x1 enters; the other,
        # on the dependent row, stays basic at zero to the end.
        lp = LinearProgram(n_vars=2, objective=[1.0, -1.0])
        for _ in range(2):
            lp.add_row([(0, 1.0), (1, 1.0)], GE, 2.0)
        phases = []
        optimize = _BoundedSimplex._optimize

        def spy(self, cost):
            before = self.xb[self.basis >= self.n_real].tolist()
            optimize(self, cost)
            pinned = self.upper[self.artificials].tolist()
            phases.append((before, self.xb[self.basis >= self.n_real].tolist(), pinned))

        monkeypatch.setattr(_BoundedSimplex, "_optimize", spy)
        result = simplex_solve(lp)
        assert phases == [([2.0, 2.0], [0.0, 0.0], [np.inf, np.inf]),
                          ([0.0, 0.0], [0.0], [0.0, 0.0])]
        assert result.values.tolist() == [1.0, 1.0]
        assert result.objective == pytest.approx(vertex_enumeration_max(lp), abs=1e-9)


def highs_solve(lp):
    """Status ("optimal", "infeasible" or "unbounded") and objective of the
    program under scipy's HiGHS, as an independent reference.  Presolve is
    off: it calls some unbounded programs infeasible (see draw 703 below)."""
    sign = np.where(lp.sense == LE, 1.0, -1.0)
    A, b = sign[:, None] * constraint_matrix(lp), sign * lp.rhs
    res = linprog(-lp.objective, A_ub=A if b.size else None,
                  b_ub=b if b.size else None,
                  bounds=[(lo, None if np.isinf(hi) else hi)
                          for lo, hi in zip(lp.lower, lp.upper)],
                  method="highs", options={"presolve": False})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (-res.fun if res.status == 0 else None)


def random_box_program(rng):
    """Box LP whose >= rows mostly start with infeasible slacks, so it needs
    artificials and phase 1; some are infeasible and some unbounded."""
    n = int(rng.integers(3, 12))
    m = int(rng.integers(2, 10))
    upper = rng.uniform(1.0, 4.0, size=n)
    upper[rng.random(n) < 0.1] = np.inf
    lp = LinearProgram(n_vars=n, objective=rng.uniform(-3, 5, size=n),
                       lower=rng.uniform(-1.0, 0.5, size=n), upper=upper)
    for _ in range(m):
        coeffs = [(j, float(rng.uniform(-2, 3))) for j in range(n)
                  if rng.random() < 0.6] or [(0, 1.0)]
        if rng.random() < 0.5:
            lp.add_row(coeffs, GE, float(rng.uniform(0.5, 6)))
        else:
            lp.add_row(coeffs, LE, float(rng.uniform(-1, 8)))
    return lp


class TestAgainstHighs:
    @pytest.mark.parametrize("requests,mecs", [(50, 10), (100, 10), (200, 20), (400, 20)])
    def test_placement_objective_matches(self, requests, mecs):
        inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs,
                                        seed=requests + mecs))
        lp = build_relaxed_program(inst)
        assert lp.rhs.size == requests + 4 * mecs
        status, expected = highs_solve(lp)
        assert status == "optimal"
        assert simplex_solve(lp).objective == pytest.approx(expected, abs=1e-6)

    def test_placement_program_needs_no_artificials(self):
        inst = generate(GeneratorConfig(request_count=50, seed=1))
        solver = _BoundedSimplex(build_relaxed_program(inst))
        assert solver.artificials.size == 0

    def test_unbounded_program_that_highs_presolve_calls_infeasible(self):
        # draw 703 (10 variables, 7 rows) is unbounded: capping its free
        # variables at 1e3 and 1e6 gives objectives near 8e3 and 8e6
        rng = np.random.default_rng(12345)
        for _ in range(703):
            random_box_program(rng)
        lp = random_box_program(rng)
        assert (lp.n_vars, lp.rhs.size) == (10, 7)
        assert highs_solve(lp) == ("unbounded", None)
        with pytest.raises(UnboundedProgramError):
            simplex_solve(lp)

    def test_random_box_programs_with_phase_one(self):
        rng = np.random.default_rng(31)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        phase_one = 0
        for _ in range(150):
            lp = random_box_program(rng)
            status, expected = highs_solve(lp)
            seen[status] += 1
            if status == "optimal":
                phase_one += _BoundedSimplex(lp).artificials.size > 0
                assert simplex_solve(lp).objective == pytest.approx(expected, abs=1e-6)
            elif status == "infeasible":
                with pytest.raises(InfeasibleProgramError):
                    simplex_solve(lp)
            else:
                with pytest.raises(UnboundedProgramError):
                    simplex_solve(lp)
        assert seen["optimal"] >= 40 and seen["infeasible"] >= 10
        assert seen["unbounded"] >= 5
        assert phase_one >= 20


class TestAgainstHighsOnTheOuterProductUpdate(TestAgainstHighs):
    """The same checks with numpy's OpenBLAS hidden from the solver, so the
    rank-1 update falls back to ``np.multiply.outer`` and nothing is pinned."""

    @pytest.fixture(autouse=True)
    def no_openblas(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_openblas", lambda: None)
        assert _BoundedSimplex(placement_program(8, 3))._dger is None


class TestAgainstHighsWithARefactorizationAfterEveryPivot(TestAgainstHighs):
    """The same checks with a negative drift bound, so that every pricing
    after a pivot refactorizes and computes the duals afresh."""

    @pytest.fixture(autouse=True)
    def forced_trigger(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_DRIFT", -1.0)

    def test_random_box_programs_with_phase_one(self, monkeypatch):
        # phase 1 refactorizes while artificials are basic and may still move
        in_phase_one = []
        refactorize = _BoundedSimplex._refactorize

        def spy(self):
            refactorize(self)
            artificial = self.basis >= self.n_real
            if self.iterations and artificial.any() and np.isinf(self.upper[self.n_real:]).all():
                in_phase_one.append(int(np.count_nonzero(artificial)))

        monkeypatch.setattr(_BoundedSimplex, "_refactorize", spy)
        super().test_random_box_programs_with_phase_one()
        assert len(in_phase_one) >= 30


_SMALL = st.integers(-3, 3).map(float)


@st.composite
def bounded_programs(draw):
    """Small LPs with integer data: zero right-hand sides make degenerate
    vertices, a copied column ties two variables, and >= rows and infinite
    upper bounds make some programs infeasible or unbounded."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    objective = draw(st.lists(_SMALL, min_size=n, max_size=n))
    lower = draw(st.lists(st.sampled_from([-1.0, 0.0]), min_size=n, max_size=n))
    upper = draw(st.lists(st.sampled_from([1.0, 2.0, np.inf]), min_size=n, max_size=n))
    matrix = draw(st.lists(st.lists(_SMALL, min_size=n, max_size=n), min_size=m, max_size=m))
    if n >= 2 and draw(st.booleans()):
        objective[-1], lower[-1], upper[-1] = objective[0], lower[0], upper[0]
        for row in matrix:
            row[-1] = row[0]
    lp = LinearProgram(n_vars=n, objective=objective, lower=lower, upper=upper)
    for row in matrix:
        lp.add_row([(j, a) for j, a in enumerate(row) if a], draw(st.sampled_from([LE, GE])),
                   draw(st.sampled_from([0.0, 0.0, -1.0, 1.0, 3.0])))
    return lp


class TestProperties:
    def test_status_and_objective_match_highs(self):
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}

        @settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @given(bounded_programs())
        def check(lp):
            status, expected = highs_solve(lp)
            seen[status] += 1
            if status == "optimal":
                assert simplex_solve(lp).objective == pytest.approx(expected, abs=1e-6)
            else:
                error = InfeasibleProgramError if status == "infeasible" else UnboundedProgramError
                with pytest.raises(error):
                    simplex_solve(lp)

        check()
        assert min(seen.values()) >= 20, seen

    def test_box_vertex_start_matches_highs_and_the_default_start(self):
        """From any box vertex, feasible or not, the solve ends with the
        status and objective of HiGHS and of the default start."""
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        starts = {"feasible": 0, "with_artificials": 0}

        def outcome(lp):
            try:
                return "optimal", simplex_solve(lp).objective
            except InfeasibleProgramError:
                return "infeasible", None
            except UnboundedProgramError:
                return "unbounded", None

        @settings(derandomize=True, max_examples=150, deadline=None, database=None)
        @given(st.integers(0, 2**32 - 1), st.data())
        def check(seed, data):
            lp = random_box_program(np.random.default_rng(seed))
            at_upper = data.draw(st.lists(st.booleans(), min_size=lp.n_vars,
                                          max_size=lp.n_vars).filter(any))
            at_upper = np.array(at_upper) & np.isfinite(lp.upper)
            started = dataclasses.replace(lp, start=np.where(at_upper, lp.upper, lp.lower))
            status, expected = highs_solve(lp)
            seen[status] += 1
            for got_status, got in (outcome(lp), outcome(started)):
                assert got_status == status
                if status == "optimal":
                    assert got == pytest.approx(expected, abs=1e-6)
            if at_upper.any():
                has_artificials = _BoundedSimplex(started).artificials.size > 0
                starts["with_artificials" if has_artificials else "feasible"] += 1

        check()
        assert min(seen.values()) >= 10, seen
        assert starts["with_artificials"] >= 50 and starts["feasible"] >= 5, starts


class TestPricingProduct:
    """The padded pricing product against the entry-list bincount, bit for
    bit.  It prices every program below ``_GRID_MIN`` and, on a placement
    grid, every column after the grid."""

    @staticmethod
    def assert_matches_bincount(simplex, y):
        got = simplex._transposed_product(y)
        expected = bincount_transposed_product(simplex.padded_rows, simplex.padded_data,
                                               simplex.count, y)
        assert got.tobytes() == expected.tobytes()

    def test_random_box_programs(self):
        rng = np.random.default_rng(77)
        phase_one = 0
        for _ in range(200):
            simplex = _BoundedSimplex(random_box_program(rng))
            phase_one += simplex.artificials.size > 0
            for scale in (1e-6, 1.0, 1e6):
                self.assert_matches_bincount(simplex, scale * rng.normal(size=simplex.m))
            self.assert_matches_bincount(simplex, np.zeros(simplex.m))
            self.assert_matches_bincount(simplex, -np.ones(simplex.m))
        assert phase_one >= 50

    def test_column_entries_stay_in_row_order(self):
        # the stable column sort keeps each column's entries in row order,
        # the order its pricing sum and the pivots follow; padding slots
        # hold row 0 with a zero value
        simplex = _BoundedSimplex(placement_program(60, 20))
        rows, _, col_of = column_entries(simplex.padded_rows, simplex.padded_data,
                                         simplex.count)
        same_column = np.diff(col_of) == 0
        assert same_column.any() and (np.diff(rows)[same_column] > 0).all()
        padding = np.arange(simplex.padded_rows.shape[0])[:, None] >= simplex.count
        assert padding.any()
        assert not simplex.padded_rows[padding].any() and not simplex.padded_data[padding].any()

    @pytest.mark.parametrize("requests,mecs", [(30, 10), (60, 10), (200, 20)])
    def test_placement_ladder(self, requests, mecs):
        inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs, seed=3))
        simplex = _BoundedSimplex(build_relaxed_program(inst))
        assert simplex.padded_rows.shape == (5, simplex.status.size)
        rng = np.random.default_rng(requests)
        for _ in range(5):
            self.assert_matches_bincount(simplex, rng.normal(size=simplex.m))
        # rows of a basis inverse met during a solve
        simplex._optimize(np.concatenate([simplex.objective_coeffs,
                                          np.zeros(simplex.status.size - simplex.n_struct)]))
        for r in range(0, simplex.m, 7):
            self.assert_matches_bincount(simplex, simplex.Binv[r])


def placement_program(requests, mecs):
    return build_relaxed_program(generate(GeneratorConfig(request_count=requests,
                                                          mec_count=mecs, seed=0)))


def program_with(lp, **changes):
    """A copy of the program with some of its fields replaced."""
    fields = {f.name: getattr(lp, f.name) for f in dataclasses.fields(lp)}
    return LinearProgram(**{**fields, **changes})


class TestGridPricing:
    """The placement grid's pricing, x[r, m] = y[r] + sum_k D[k, r]
    y[R + kM + m] as one product, against the entry-list bincount within
    float64 rounding error; and the programs that must fall back to the
    padded product."""

    @staticmethod
    def grid_programs():
        yield placement_program(200, 20)
        yield placement_program(400, 20)
        inst = generate(GeneratorConfig(request_count=100, mec_count=10, seed=5))
        row, var, coef, sense, rhs = placement_entries(inst)
        yield LinearProgram(n_vars=inst.n_requests * (inst.n_mecs + 1), shape=(100, 10),
                            row=row, var=var, coef=coef, sense=sense, rhs=rhs)

    @staticmethod
    def duals(simplex, rng):
        """Dual vectors at scales 1e-6, 1 and 1e6, half-zero, zero and -1."""
        for scale in (1e-6, 1.0, 1e6):
            yield scale * rng.normal(size=simplex.m)
        yield np.where(rng.random(simplex.m) < 0.5, 0.0, rng.normal(size=simplex.m))
        yield np.zeros(simplex.m)
        yield -np.ones(simplex.m)

    @staticmethod
    def assert_close_to_bincount(simplex, y):
        expected = bincount_transposed_product(simplex.padded_rows, simplex.padded_data,
                                               simplex.count, y)
        padded = simplex._transposed_product(y).copy()
        # at zero cost the reduced costs are the product negated
        reduced = simplex._grid_reduced(np.zeros(simplex.status.size), y)
        # each column adds at most five products: 8 eps of the summed
        # magnitudes bounds float64's rounding, whatever the order
        magnitude = bincount_transposed_product(simplex.padded_rows,
                                                np.abs(simplex.padded_data), simplex.count,
                                                np.abs(y))
        assert (np.abs(-reduced - expected) <= 8 * np.finfo(float).eps * magnitude).all()
        grid = simplex._x.size
        assert reduced[grid:].tobytes() == (0.0 - padded[grid:]).tobytes()

    def test_matches_bincount_within_rounding(self):
        rng = np.random.default_rng(26)
        for lp in self.grid_programs():
            simplex = _BoundedSimplex(lp)
            R, M = lp.shape
            assert simplex._grid.shape == (R, len(RESOURCES) + 1) and simplex._x.shape == (R, M)
            for y in self.duals(simplex, rng):
                self.assert_close_to_bincount(simplex, y)

    def test_one_product_matches_the_grid_product_plus_y_bit_for_bit(self):
        # [-D^T | -y[:R]] @ [Y; 1] adds the y[r] term last, as the sum
        # D^T @ Y + y[:R] does, with every term negated: the same bits
        rng = np.random.default_rng(27)
        for lp in self.grid_programs():
            simplex = _BoundedSimplex(lp)
            (R, M), K = lp.shape, len(RESOURCES)
            cost = np.zeros(simplex.status.size)
            cost[:simplex.n_struct] = lp.objective
            transposed = -simplex._grid[:, :K]
            for y in self.duals(simplex, rng):
                two_step = np.matmul(transposed, y[R:R + K * M].reshape(K, M)) + y[:R, None]
                expected = np.concatenate([0.0 - two_step.ravel(),
                                           cost[R * M:] - simplex._transposed_product(y)[R * M:]])
                got = simplex._grid_reduced(cost, y)
                assert got.tobytes() == expected.tobytes()

    def test_program_with_a_cost_on_the_grid_falls_back(self):
        lp = placement_program(200, 20)
        objective = lp.objective.copy()
        objective[5] = 1.0
        assert _BoundedSimplex(program_with(lp, objective=objective))._grid is None

    def test_column_after_the_grid_with_two_entries_falls_back(self):
        lp = placement_program(100, 10)
        lp.add_row([(1_000, 1.0)], LE, 0.5)     # y[0]'s second entry
        assert _BoundedSimplex(lp)._grid is None
        assert simplex_solve(lp).objective == pytest.approx(highs_solve(lp)[1], abs=1e-6)

    def test_program_without_shape_falls_back(self):
        lp = placement_program(200, 20)
        assert _BoundedSimplex(lp)._grid is not None
        assert _BoundedSimplex(program_with(lp, shape=None))._grid is None

    def test_program_without_entries_falls_back(self):
        lp = LinearProgram(n_vars=1_100, objective=np.ones(1_100), shape=(100, 10))
        assert _BoundedSimplex(lp)._grid is None
        assert simplex_solve(lp).objective == 1_100.0

    def test_coefficient_that_depends_on_the_node_falls_back(self):
        lp = placement_program(200, 20)
        R, M = lp.shape
        # the cpu demand of request 3, on node 7 only
        coef = lp.coef.copy()
        coef[(lp.var == 3 * M + 7) & (lp.row == R + 7)] *= 1.5
        assert _BoundedSimplex(program_with(lp, coef=coef))._grid is None

    def test_appended_row_on_an_x_column_falls_back_and_matches_highs(self):
        lp = placement_program(100, 10)
        lp.add_row([(0, 1.0), (11, 1.0), (25, 1.0)], LE, 1.5)
        assert _BoundedSimplex(lp)._grid is None
        status, expected = highs_solve(lp)
        assert status == "optimal"
        assert simplex_solve(lp).objective == pytest.approx(expected, abs=1e-6)

    # the switch sits at R*M = 1,000; 40x20 starts at its optimum, the
    # others take 230 to 620 pivots
    @pytest.mark.parametrize("requests,mecs", [(30, 10), (50, 10), (80, 10), (40, 20),
                                               (100, 10), (120, 10), (150, 10), (200, 20)])
    def test_switch_boundary(self, monkeypatch, requests, mecs):
        lp = placement_program(requests, mecs)
        grid = _BoundedSimplex(lp)._grid is not None
        assert grid == (requests * mecs >= 1_000)
        on = simplex_solve(lp)
        monkeypatch.setattr(lp_module, "_GRID_MIN", math.inf)
        off = simplex_solve(lp)
        if not grid:
            # below the switch the padded sum prices: the same solve, byte for byte
            assert (on.values.tobytes(), on.objective, on.iterations) == \
                   (off.values.tobytes(), off.objective, off.iterations)
            return
        status, expected = highs_solve(lp)
        assert status == "optimal"
        assert on.objective == pytest.approx(expected, abs=1e-6)
        assert on.objective == pytest.approx(off.objective, rel=1e-9)


class TestNucleusRefactorization:
    """The basis inverse built from singleton columns plus the inverted
    nucleus, against the inverse of the whole basis."""

    @staticmethod
    def check_every_refactorization(monkeypatch):
        """Check Binv at every _refactorize call; returns, per call, the
        number of basic artificials, counted as 0 at the starting basis,
        which is refactorized before any pivot."""
        seen = []
        refactorize = _BoundedSimplex._refactorize

        def checked(self):
            refactorize(self)
            B = dense_basis(self.padded_rows, self.padded_data, self.count, self.basis)
            assert self.Binv.flags.f_contiguous
            # Binv's columns are rows of B^-1 permuted: column c holds row order[c]
            assert np.abs(self.Binv @ B[self._order] - np.eye(self.m)).max() <= 1e-9
            assert np.abs(self.Binv[:, self._where] - np.linalg.inv(B)).max() <= 1e-9
            seen.append(int(np.count_nonzero(self.basis >= self.n_real))
                        if self.iterations else 0)

        monkeypatch.setattr(_BoundedSimplex, "_refactorize", checked)
        return seen

    @pytest.mark.parametrize("requests,mecs", [(50, 10), (200, 20)])
    def test_placement_solves(self, monkeypatch, requests, mecs):
        # the duals hardly drift on these programs: a negative bound makes
        # every pricing after a pivot refactorize, so that the solve
        # refactorizes at least five times
        monkeypatch.setattr(lp_module, "_DRIFT", -1.0)
        seen = self.check_every_refactorization(monkeypatch)
        simplex_solve(placement_program(requests, mecs))
        assert len(seen) >= 5

    def test_phase_one_with_basic_artificials(self, monkeypatch):
        # refactorize after every pivot, so that phase 1 refactorizes
        # while artificials are still basic
        monkeypatch.setattr(lp_module, "_DRIFT", -1.0)
        seen = self.check_every_refactorization(monkeypatch)
        rng = np.random.default_rng(5)
        draws = 0
        for _ in range(100):
            start = len(seen)
            with contextlib.suppress(SimplexError):
                simplex_solve(random_box_program(rng))
            draws += any(seen[start:])
        assert draws >= 30

    @staticmethod
    def two_row_solver(columns):
        """Solver state on two <= rows whose structural columns are given as
        {row: value} maps, with those columns made basic."""
        lp = LinearProgram(n_vars=len(columns))
        for row in range(2):
            lp.add_row([(j, col[row]) for j, col in enumerate(columns) if row in col], LE, 1.0)
        solver = _BoundedSimplex(lp)
        solver.basis[:] = np.arange(len(columns))
        return solver

    def test_singletons_on_one_row_raise(self):
        # x0 and x1 each have one entry, both in row 0
        solver = self.two_row_solver([{0: 1.0}, {0: 2.0}])
        with pytest.raises(NumericalInstabilityError, match="clash"):
            solver._refactorize()

    def test_singular_nucleus_raises(self):
        solver = self.two_row_solver([{0: 1.0, 1: 2.0}, {0: 2.0, 1: 4.0}])
        with pytest.raises(NumericalInstabilityError):
            solver._refactorize()

    def test_inverted_blocks_stay_below_half_the_rows(self, monkeypatch):
        sizes = []
        inv = np.linalg.inv

        def spy(a):
            sizes.append(a.shape[0])
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", spy)
        lp = placement_program(200, 20)
        simplex_solve(lp)
        assert sizes and max(sizes) <= lp.rhs.size // 2


class TestNucleusColumns:
    """The permuted inverse: Binv's first k columns hold the nucleus rows'
    columns of B^-1 and take the rank-1 update; each later one holds a
    singleton's row t, whose column of B^-1 is exactly e_s / a_s."""

    @staticmethod
    def check_every_pivot(monkeypatch):
        """Check the permuted inverse after every pivot; returns the widths k."""
        widths = []
        pivot = _BoundedSimplex._nucleus_pivot

        def checked(self, r, q):
            row = pivot(self, r, q)
            B = dense_basis(self.padded_rows, self.padded_data, self.count, self.basis)
            assert np.abs(self.Binv @ B[self._order] - np.eye(self.m)).max() <= 1e-9
            assert (self._order[self._where] == np.arange(self.m)).all()
            single = np.flatnonzero(self.count[self.basis] == 1)
            first = self.basis[single]
            t, a = self.padded_rows[0, first], self.padded_data[0, first]
            # the block holds the non-singleton basics' rows, the rest are exact
            assert self._k == self.m - single.size
            assert sorted(self._order[self._k:]) == sorted(t)
            expected = np.zeros((self.m, single.size))
            expected[single, np.arange(single.size)] = 1.0 / a
            assert self.Binv[:, self._where[t]].tobytes(order="F") == \
                   np.asfortranarray(expected).tobytes(order="F")
            # the pivot row returned for the duals is the new row r of B^-1
            new_row = self.Binv[r, self._where]
            assert np.abs(row - new_row).max() <= 1e-9 * np.abs(new_row).max()
            widths.append(self._k)
            return row

        monkeypatch.setattr(_BoundedSimplex, "_nucleus_pivot", checked)
        return widths

    @pytest.mark.parametrize("requests,mecs", [(200, 20), (400, 20)])
    def test_every_pivot_on_placement_programs(self, monkeypatch, requests, mecs):
        widths = self.check_every_pivot(monkeypatch)
        lp = placement_program(requests, mecs)
        result = simplex_solve(lp)
        assert len(widths) >= 400
        # the block spans well under half the rows on average
        assert 0 < np.mean(widths) < lp.rhs.size / 2
        assert result.objective == pytest.approx(highs_solve(lp)[1], abs=1e-6)

    def test_every_pivot_with_phase_one(self, monkeypatch):
        # artificials and slacks of one row enter and leave as singletons
        monkeypatch.setattr(lp_module, "_NUCLEUS_MIN", 0)
        widths = self.check_every_pivot(monkeypatch)
        rng = np.random.default_rng(9)
        for _ in range(60):
            with contextlib.suppress(SimplexError):
                simplex_solve(random_box_program(rng))
        assert len(widths) >= 200 and 0 in widths

    @pytest.mark.parametrize("requests,mecs", [(50, 10), (200, 20), (400, 20)])
    def test_tracked_solve_refactorizes_at_most_three_times(self, monkeypatch, requests, mecs):
        # carried duals that go wrong with the columns show as drift, and
        # every refactorization it forces counts here
        monkeypatch.setattr(lp_module, "_NUCLEUS_MIN", 0)
        calls = []
        refactorize = _BoundedSimplex._refactorize

        def counted(self):
            calls.append(self._tracks)
            refactorize(self)

        monkeypatch.setattr(_BoundedSimplex, "_refactorize", counted)
        simplex_solve(placement_program(requests, mecs))
        assert all(calls) and len(calls) <= 3

    def test_solver_state_is_freed_without_the_cycle_collector(self):
        # a reference cycle through the state would keep its m x m inverse
        # until the collector ran: it doubled greedy-large's peak memory
        gc.disable()
        try:
            solver = _BoundedSimplex(placement_program(200, 20), relax=True)
            with lp_module._one_blas_thread():
                solver.solve()
            assert solver._tracks
            state = weakref.ref(solver)
            del solver
            assert state() is None
        finally:
            gc.enable()

    # the switch sits at m = 200 rows: R + 4M, so 120x20 is the first rung on it
    @pytest.mark.parametrize("requests,mecs", [(30, 10), (50, 10), (80, 20), (150, 10),
                                               (119, 20), (120, 20), (200, 20)])
    def test_switch_boundary(self, monkeypatch, requests, mecs):
        lp = placement_program(requests, mecs)
        tracks = _BoundedSimplex(lp)._tracks
        assert tracks == (lp.rhs.size >= 200)
        on = simplex_solve(lp)
        monkeypatch.setattr(lp_module, "_NUCLEUS_MIN", math.inf)
        off = simplex_solve(lp)
        if not tracks:
            # below the switch the whole inverse is updated: the same solve, byte for byte
            assert (on.values.tobytes(), on.objective, on.iterations) == \
                   (off.values.tobytes(), off.objective, off.iterations)
            return
        assert on.objective == pytest.approx(highs_solve(lp)[1], abs=1e-6)
        assert on.objective == pytest.approx(off.objective, rel=1e-9)


class TestAgainstHighsWithEveryInverseTracked(TestAgainstHighs):
    """The same checks with the permuted inverse on every program, so that
    phase 1, artificials, the restore and the infeasible and unbounded
    cases run through it."""

    @pytest.fixture(autouse=True)
    def tracked(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_NUCLEUS_MIN", 0)
        assert _BoundedSimplex(placement_program(8, 3))._tracks


class TestPropertiesWithEveryInverseTracked(TestProperties):
    @pytest.fixture(autouse=True)
    def tracked(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_NUCLEUS_MIN", 0)


@pytest.fixture
def tracked_outer_product(monkeypatch):
    """Every inverse permuted and numpy's OpenBLAS hidden: the one fallback
    update, ``Binv[:, :k] -= np.multiply.outer(...)``, runs on every program."""
    monkeypatch.setattr(lp_module, "_NUCLEUS_MIN", 0)
    monkeypatch.setattr(lp_module, "_openblas", lambda: None)
    solver = _BoundedSimplex(placement_program(8, 3))
    assert solver._tracks and solver._dger is None


@pytest.mark.usefixtures("tracked_outer_product")
class TestAgainstHighsOnTheTrackedOuterProduct(TestAgainstHighs):
    """The same checks through the fallback update on the permuted inverse:
    phase 1, artificials, the restore and the infeasible and unbounded cases."""


@pytest.mark.usefixtures("tracked_outer_product")
class TestPropertiesOnTheTrackedOuterProduct(TestProperties):
    pass


class TestCarriedDuals:
    """The duals y = c_B Binv, carried across a pivot as y + d_q * pivot_row
    and computed afresh at the start of a phase, after a refactorization
    and before a phase declares its optimum."""

    @staticmethod
    def ladder():
        """(name, program): the 50x10 and 200x20 placement programs, then
        200 random box programs."""
        yield "50x10", placement_program(50, 10)
        yield "200x20", placement_program(200, 20)
        rng = np.random.default_rng(8)
        for i in range(200):
            yield f"box {i}", random_box_program(rng)

    def test_carried_duals_stay_within_the_drift_bound_or_refactorize(self, monkeypatch):
        # per solve, in call order: |y - c_B Binv| at each pricing on carried
        # duals, and "refactorize" at each refactorization
        events = []
        reduced_costs, refactorize = _BoundedSimplex._reduced_costs, _BoundedSimplex._refactorize

        def priced(self, cost, basic_cost=None):
            if basic_cost is None:
                fresh = np.matmul(cost[self.basis], self.Binv)[self._where]
                events.append(float(np.abs(self._duals - fresh).max(initial=0.0)))
            return reduced_costs(self, cost, basic_cost)

        def counted(self):
            refactorize(self)
            events.append("refactorize")

        monkeypatch.setattr(_BoundedSimplex, "_reduced_costs", priced)
        monkeypatch.setattr(_BoundedSimplex, "_refactorize", counted)
        carried = 0
        for name, lp in self.ladder():
            del events[:]
            with contextlib.suppress(SimplexError):
                simplex_solve(lp)
            drifted = [i for i, e in enumerate(events)
                       if e != "refactorize" and e > lp_module._DRIFT]
            assert all(events[i + 1:i + 2] == ["refactorize"] for i in drifted), name
            carried += len(events) - events.count("refactorize")
            if not name.startswith("box"):
                # the starting basis and the restored right-hand side, and a spare
                assert events.count("refactorize") <= 3, name
        assert carried >= 1_000

    def test_every_phase_ends_on_an_accurate_inverse_and_fresh_duals(self, monkeypatch):
        phases = []
        optimize = _BoundedSimplex._optimize

        def checked(self, cost):
            optimize(self, cost)
            B = dense_basis(self.padded_rows, self.padded_data, self.count, self.basis)
            fresh = np.matmul(cost[self.basis], self.Binv)[self._where]
            phases.append((float(np.abs(self.Binv @ B[self._order] - np.eye(self.m))
                                 .max(initial=0.0)),
                           self._duals.tobytes() == fresh.tobytes()))

        monkeypatch.setattr(_BoundedSimplex, "_optimize", checked)
        for _, lp in self.ladder():
            with contextlib.suppress(SimplexError):
                simplex_solve(lp)
        # 4.6e-13 at most when measured
        assert len(phases) >= 200 and max(error for error, _ in phases) <= 1e-9
        assert all(fresh for _, fresh in phases)


_SOLVE_200x20 = """
import sys
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, simplex_solve
inst = generate(GeneratorConfig(request_count=200, mec_count=20, seed=0))
sys.stdout.write(simplex_solve(build_relaxed_program(inst)).values.tobytes().hex())
"""


def rows_program(m):
    """One variable under m rows: a solver state with an m x m basis."""
    return LinearProgram(n_vars=1, row=np.arange(m), var=np.zeros(m), coef=np.ones(m),
                         sense=np.full(m, LE), rhs=np.ones(m))


class TestRankOneUpdate:
    """The update Binv -= w pivot_row^T through numpy's OpenBLAS."""

    def test_lookup_finds_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            pytest.skip(f"numpy is built against {blas.get('name')}")
        assert lp_module._openblas() is not None
        assert _BoundedSimplex(rows_program(3))._dger is not None

    @pytest.mark.parametrize("m", [1, 2, 7, 90, 280])
    def test_matches_scipy_dger_bit_for_bit(self, m):
        # on the leading k columns alone; the others keep their bits
        solver = _BoundedSimplex(rows_program(m))
        if solver._dger is None:
            pytest.skip("numpy's OpenBLAS is not loaded")
        rng = np.random.default_rng(m)
        for k in sorted({m, m // 3, 1, 0}):
            binv = np.asfortranarray(rng.normal(size=(m, m)))
            solver.Binv[...] = binv
            solver.w[...] = rng.normal(size=m)
            solver.pivot_row[...] = rng.normal(size=m) * 10.0 ** rng.integers(-6, 7, size=m)
            expected = binv.copy(order="F")
            if k:
                expected[:, :k] = dger(-1.0, solver.w, solver.pivot_row[:k], a=binv[:, :k],
                                       overwrite_a=False)
            solver._width.value = k
            solver._dger()
            assert solver.Binv.tobytes(order="F") == expected.tobytes(order="F")

    def test_buffers_keep_their_addresses_through_a_solve(self, monkeypatch):
        # refactorize after every pivot, so that each solve refactorizes at
        # least five times; each one must rewrite the buffers the update
        # points at, with the whole inverse (50x10) or the permuted one (200x20)
        monkeypatch.setattr(lp_module, "_DRIFT", -1.0)
        seen = []
        refactorize = _BoundedSimplex._refactorize

        def spy(self):
            refactorize(self)
            seen.append([b.ctypes.data for b in (self.Binv, self.w, self.pivot_row)])

        monkeypatch.setattr(_BoundedSimplex, "_refactorize", spy)
        for requests, mecs in ((50, 10), (200, 20)):
            solver = _BoundedSimplex(placement_program(requests, mecs))
            buffers = (solver.Binv, solver.w, solver.pivot_row)
            addresses = [b.ctypes.data for b in buffers]
            del seen[:]
            with lp_module._one_blas_thread():
                solver.solve()
            assert len(seen) >= 5 and all(s == addresses for s in seen)
            assert all(a is b for a, b in zip((solver.Binv, solver.w, solver.pivot_row), buffers))
            if solver._dger is not None:
                bound = solver._dger.args    # order, m, n, alpha, w, 1, pivot_row, 1, Binv, lda
                assert [bound[8].value, bound[4].value, bound[6].value] == addresses
                # the width is the one argument a pivot rewrites
                assert bound[2] is solver._width and bound[9].value == solver.m


class TestBlasThreads:
    def test_vertex_independent_of_blas_thread_count(self):
        src = str(Path(vnfplace.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", _SOLVE_200x20], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestRelaxedRows:
    """The solve relaxes each row the start leaves at zero slack, restores
    the true right-hand side after phase 2, and solves again unrelaxed
    where the basis it found breaks the true rows."""

    @staticmethod
    def spy_solve(monkeypatch):
        """Record, per ``_BoundedSimplex.solve`` call, whether it relaxed
        any row and how it ended: "optimal", "restore failed" or the name
        of the error it raised."""
        calls = []
        solve = _BoundedSimplex.solve

        def spy(self):
            relaxed = self.b is not self.rhs
            try:
                result = solve(self)
            except SimplexError as exc:
                calls.append((relaxed, type(exc).__name__))
                raise
            calls.append((relaxed, "restore failed" if result is None else "optimal"))
            return result

        monkeypatch.setattr(_BoundedSimplex, "solve", spy)
        return calls

    def test_only_rows_at_zero_slack_without_an_artificial_move(self):
        # at the start x = (1, 0): row 0 is tight, row 1 has slack, row 2
        # starts infeasible and gets an artificial
        lp = LinearProgram(n_vars=2, objective=[1.0, 1.0], start=[1.0, 0.0])
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.0)
        lp.add_row([(0, 1.0)], LE, 3.0)
        lp.add_row([(1, 1.0)], GE, 0.5)
        solver = _BoundedSimplex(lp, relax=True)
        assert solver.artificials.size == 1
        assert solver.b[0] > 1.0 and solver.b[1:].tolist() == [3.0, 0.5]
        assert solver.b[0] - 1.0 <= 2e-6
        assert _BoundedSimplex(lp).b is lp.rhs

    def test_redundancy_rows_start_relaxed_by_distinct_shifts(self):
        lp = placement_program(50, 10)
        solver = _BoundedSimplex(lp, relax=True)
        shift = lp.rhs - solver.b
        # each request's >= row moves down; a capacity row moves up only
        # where the start loads its node to the brim
        assert (shift[:50] > 0.0).all() and np.unique(shift[:50]).size == 50
        brim = lp.rhs[50:] == constraint_matrix(lp)[50:] @ lp.start
        assert (shift[50:][brim] < 0.0).all() and (shift[50:][~brim] == 0.0).all()

    def test_infeasible_program_feasible_only_relaxed(self, monkeypatch):
        # x0 + x1 <= 0 starts at zero slack and is relaxed; x0 >= 5e-7 gets
        # an artificial.  The relaxed rows admit 5e-7 <= x0 <= 1e-6, the true ones nothing.
        calls = self.spy_solve(monkeypatch)
        lp = LinearProgram(n_vars=2, objective=[1.0, 0.0])
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 0.0)
        lp.add_row([(0, 1.0)], GE, 5e-7)
        assert highs_solve(lp) == ("infeasible", None)
        with pytest.raises(InfeasibleProgramError):
            simplex_solve(lp)
        assert calls == [(True, "restore failed"), (False, "InfeasibleProgramError")]

    def test_restore_failure_solves_again_unrelaxed(self, monkeypatch):
        # shifts of up to 20% leave the relaxed optimum's basis infeasible
        # for the true rows
        lp = placement_program(50, 10)
        calls = self.spy_solve(monkeypatch)
        monkeypatch.setattr(lp_module, "_RELAX", 0.1)
        result = simplex_solve(lp)
        assert calls == [(True, "restore failed"), (False, "optimal")]
        assert result.objective == pytest.approx(highs_solve(lp)[1], abs=1e-6)
        with lp_module._one_blas_thread():
            unrelaxed = _BoundedSimplex(lp).solve()
        assert result.values.tolist() == unrelaxed.values.tolist()
        assert result.iterations > unrelaxed.iterations

    def test_unbounded_relaxed_program_solves_again_unrelaxed(self, monkeypatch):
        # as above, infeasible, but x2 can grow without bound once the
        # relaxed rows are feasible
        calls = self.spy_solve(monkeypatch)
        lp = LinearProgram(n_vars=3, objective=[0.0, 0.0, 1.0], upper=[1.0, 1.0, np.inf])
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 0.0)
        lp.add_row([(0, 1.0)], GE, 5e-7)
        assert highs_solve(lp) == ("infeasible", None)
        with pytest.raises(InfeasibleProgramError):
            simplex_solve(lp)
        assert calls == [(True, "UnboundedProgramError"), (False, "InfeasibleProgramError")]

    def test_iterations_on_200x20_stay_under_a_ceiling(self):
        # 5,245 before the relaxation, 3,855 with it; the margin leaves room
        # for the outer-product update's pivots
        iterations = sum(simplex_solve(build_relaxed_program(generate(GeneratorConfig(
            request_count=200, mec_count=20, seed=seed)))).iterations for seed in range(6))
        assert iterations <= 4_500

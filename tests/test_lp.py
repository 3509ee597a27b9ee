import contextlib
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import vnfplace
from helpers import make_instance, slack_caps
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
    greedy_vertex,
    simplex_solve,
    solve_lp,
)
from vnfplace.oracle import solve_exact, strip_availability


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
        spec = importlib.util.spec_from_file_location(
            "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        tracer = tracer_module.Tracer(vnfplace)
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

    def test_order_and_node_choice(self):
        # request 1 has the best reward density and takes the two roomiest
        # nodes; request 0 then fits only on node 2 and is left out;
        # request 2, one copy, takes node 2, which has more room than node 0
        inst = make_instance(
            caps=[{"c": 4}, {"c": 3}, {"c": 2, "d": 500}],
            reqs=[{"c": 2, "eps": 0.001, "reward": 5.0},
                  {"c": 3, "eps": 0.001, "reward": 9.0},
                  {"c": 1, "eps": 0.01, "reward": 1.0}],
        )
        x, y = greedy_vertex(inst)
        assert y.tolist() == [0.0, 1.0, 1.0]
        assert x.tolist() == [[0, 0, 0], [1, 1, 0], [0, 0, 1]]

    def test_ties_go_to_the_lower_index(self):
        inst = make_instance(caps=slack_caps(4), reqs=[{"eps": 0.001}] * 2)
        x, y = greedy_vertex(inst)
        # request 0 takes nodes 0 and 1; then nodes 2 and 3 have the most room
        assert x.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]


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
        with pytest.raises(IterationLimitError):
            _BoundedSimplex(lp, 1).solve()

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
        solver = _BoundedSimplex(lp, 1)
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
    program under scipy's HiGHS, as an independent reference."""
    sign = np.where(lp.sense == LE, 1.0, -1.0)
    A, b = sign[:, None] * constraint_matrix(lp), sign * lp.rhs
    res = linprog(-lp.objective, A_ub=A if b.size else None,
                  b_ub=b if b.size else None,
                  bounds=[(lo, None if np.isinf(hi) else hi)
                          for lo, hi in zip(lp.lower, lp.upper)],
                  method="highs")
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
    """The padded pricing product against the entry-list bincount, bit for bit."""

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
            assert np.abs(self.Binv @ B - np.eye(self.m)).max() <= 1e-9
            assert np.abs(self.Binv - np.linalg.inv(B)).max() <= 1e-9
            seen.append(int(np.count_nonzero(self.basis >= self.n_real))
                        if self.iterations else 0)

        monkeypatch.setattr(_BoundedSimplex, "_refactorize", checked)
        return seen

    @pytest.mark.parametrize("requests,mecs", [(50, 10), (200, 20)])
    def test_placement_solves(self, monkeypatch, requests, mecs):
        # the greedy start leaves 50x10 about 240 pivots: refactorize more
        # often, so that the solve still refactorizes at least five times
        monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", 32)
        seen = self.check_every_refactorization(monkeypatch)
        simplex_solve(placement_program(requests, mecs))
        assert len(seen) >= 5

    def test_phase_one_with_basic_artificials(self, monkeypatch):
        # refactorize every other pivot, so that phase 1 refactorizes
        # while artificials are still basic
        monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", 2)
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


_SOLVE_200x20 = """
import sys
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, simplex_solve
inst = generate(GeneratorConfig(request_count=200, mec_count=20, seed=0))
sys.stdout.write(simplex_solve(build_relaxed_program(inst)).values.tobytes().hex())
"""


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

import math

import numpy as np
import pytest

from helpers import make_instance, slack_caps
from vnfplace import bounds
from vnfplace.bounds import UndefinedBoundError, compute_bound_report, empirical_violation_check
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, solve_lp
from vnfplace.model import FractionalSolution
from vnfplace.rounding import randomized_round


def uniform_frac(inst, x_val, y_val):
    R, M = inst.n_requests, inst.n_mecs
    return FractionalSolution(
        x=np.full((R, M), x_val), y=np.full(R, y_val),
        objective=float(inst.reward_vector().sum() * y_val))


def cpu_factor(frac, inst):
    """The load ceiling of node 0's cpu; nan where it carries no load."""
    return compute_bound_report(frac, inst).resource_factor["cpu"][0]


class TestViolationFactor:
    def test_frozen_value_for_round_numbers(self):
        # 50 requests, unit demands, x = 0.2 everywhere: mu = 10, and the
        # factor is 3 ln 50 / 10 + 4 computed once by hand
        inst = make_instance(caps=slack_caps(1),
                             reqs=[{"eps": 0.01} for _ in range(50)])
        frac = uniform_frac(inst, 0.2, 0.2)
        assert cpu_factor(frac, inst) == pytest.approx(5.173606901628444, abs=1e-12)

    def test_alpha_scaling_invariance(self):
        # doubling every demand doubles alpha and leaves mu and the factor alone
        reqs = [{"c": 2.0, "eps": 0.01} for _ in range(20)]
        inst1 = make_instance(caps=slack_caps(1), reqs=reqs)
        inst2 = make_instance(caps=slack_caps(1),
                              reqs=[{"c": 4.0, "eps": 0.01} for _ in range(20)])
        frac1 = uniform_frac(inst1, 0.5, 0.5)
        frac2 = uniform_frac(inst2, 0.5, 0.5)
        assert cpu_factor(frac1, inst1) == pytest.approx(cpu_factor(frac2, inst2), rel=1e-12)

    def test_factor_decreases_with_load(self):
        inst = make_instance(caps=slack_caps(1),
                             reqs=[{"eps": 0.01} for _ in range(30)])
        light = cpu_factor(uniform_frac(inst, 0.1, 0.1), inst)
        heavy = cpu_factor(uniform_frac(inst, 0.9, 0.9), inst)
        assert heavy < light

    def test_zero_load_has_no_bound(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}] * 5)
        assert np.isnan(cpu_factor(uniform_frac(inst, 0.0, 0.0), inst))


class TestObjectiveFactor:
    def test_frozen_value_for_round_numbers(self):
        # 50 unit-reward requests, y = 0.4: mu_opt = 20,
        # factor = 1 - sqrt(4 ln 50 / 20)
        inst = make_instance(caps=slack_caps(1),
                             reqs=[{"eps": 0.01, "reward": 1.0} for _ in range(50)])
        frac = uniform_frac(inst, 0.4, 0.4)
        assert compute_bound_report(frac, inst).objective_factor == pytest.approx(
            0.11546362365042939, abs=1e-12)

    def test_vacuous_threshold(self):
        # the floor crosses zero exactly at mu_opt = 4 ln R
        R = 50
        threshold = 4.0 * math.log(R)
        assert threshold == pytest.approx(15.648092021712584, abs=1e-12)
        inst = make_instance(caps=slack_caps(1),
                             reqs=[{"eps": 0.01, "reward": 1.0} for _ in range(R)])
        below = compute_bound_report(uniform_frac(inst, 0.3, (threshold - 0.5) / R), inst)
        above = compute_bound_report(uniform_frac(inst, 0.3, (threshold + 0.5) / R), inst)
        assert below.vacuous_objective and below.objective_factor < 0
        assert not above.vacuous_objective and above.objective_factor > 0

    def test_vacuous_factor_reported_unclamped(self):
        inst = make_instance(caps=slack_caps(1),
                             reqs=[{"eps": 0.01, "reward": 1.0} for _ in range(50)])
        report = compute_bound_report(uniform_frac(inst, 0.1, 0.02), inst)
        assert report.objective_factor < 0  # negative, not clipped to zero

    def test_zero_objective_has_no_floor(self):
        inst = make_instance(caps=slack_caps(1), reqs=[{"eps": 0.01}] * 5)
        report = compute_bound_report(uniform_frac(inst, 0.5, 0.0), inst)
        assert np.isnan(report.objective_factor)


class TestBoundReport:
    def test_report_consistent_with_scalar_functions(self):
        # every factor recomputed from the module docstring's formulas
        inst = generate(GeneratorConfig(request_count=30, seed=11))
        frac = solve_lp(build_relaxed_program(inst))
        report = compute_bound_report(frac, inst)
        log_r = math.log(inst.n_requests)
        unloaded = 0
        for res in ("cpu", "ram", "uplink", "downlink"):
            demands = [req.demand(res) for req in inst.requests]
            for m in range(inst.n_mecs):
                mu = math.fsum(x * d for x, d in zip(frac.x[:, m], demands)) / max(demands)
                if mu > 0.0:
                    want = 3 * log_r / mu + 4
                    assert report.resource_factor[res][m] == pytest.approx(want, rel=1e-12)
                else:
                    unloaded += 1
                    assert np.isnan(report.resource_factor[res][m])
        assert unloaded < 4 * inst.n_mecs
        rewards = [req.reward for req in inst.requests]
        mu_opt = math.fsum(w * y for w, y in zip(rewards, frac.y)) / max(rewards)
        want = 1 - math.sqrt(4 * log_r / mu_opt)
        assert report.objective_factor == pytest.approx(want, rel=1e-12)

    def test_worst_factor_picks_maximum(self):
        inst = generate(GeneratorConfig(request_count=30, seed=11))
        frac = solve_lp(build_relaxed_program(inst))
        report = compute_bound_report(frac, inst)
        factors = report.resource_factor["cpu"]
        defined = factors[~np.isnan(factors)]
        assert report.worst_factor("cpu") == pytest.approx(float(defined.max()))

    def test_unloaded_node_gets_nan(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}] * 10)
        x = np.zeros((10, 2))
        x[:, 0] = 0.5
        frac = FractionalSolution(x=x, y=np.full(10, 0.5), objective=25.0)
        report = compute_bound_report(frac, inst)
        assert not np.isnan(report.resource_factor["cpu"][0])
        assert np.isnan(report.resource_factor["cpu"][1])

    def test_empty_instance_rejected(self):
        inst = make_instance(caps=slack_caps(1), reqs=[])
        frac = FractionalSolution(x=np.zeros((0, 1)), y=np.zeros(0), objective=0.0)
        with pytest.raises(UndefinedBoundError):
            compute_bound_report(frac, inst)


class TestEmpiricalCheck:
    def test_exceedance_far_below_theory_rate(self):
        inst = generate(GeneratorConfig(request_count=50, seed=19))
        frac = solve_lp(build_relaxed_program(inst))
        report = empirical_violation_check(inst, frac, n_seeds=200)
        assert report.chernoff_ceiling == pytest.approx(1.0 / 2500.0)
        factors = compute_bound_report(frac, inst).resource_factor
        for res in ("cpu", "ram", "uplink", "downlink"):
            # at every loaded node the stated ceiling tops the summed demand of
            # all copies placed with positive probability, so none is crossed
            demand = inst.demand_vector(res)
            loaded = ~np.isnan(factors[res])
            ceiling = factors[res][loaded] * (demand @ frac.x[:, loaded])
            heaviest = demand @ (frac.x[:, loaded] > 0.0)
            assert loaded.any() and (ceiling - heaviest).min() > 0.0
            assert report.exceed_fraction[res] == 0.0

    def test_worst_loads_come_from_seeds_zero_to_n(self, monkeypatch):
        # the stated ceilings are too loose for any rounding to cross; at
        # 1.1 times the fractional loads most roundings cross one, so the
        # fractions depend on which seeds ran
        inst = generate(GeneratorConfig(request_count=40, seed=21))
        frac = solve_lp(build_relaxed_program(inst))
        tight = compute_bound_report(frac, inst)
        tight.resource_factor = {res: np.where(np.isnan(f), np.nan, 1.1)
                                 for res, f in tight.resource_factor.items()}
        monkeypatch.setattr(bounds, "compute_bound_report", lambda *_: tight)
        report = empirical_violation_check(inst, frac, n_seeds=100)
        rounded = [randomized_round(frac, inst, seed) for seed in range(100)]
        for res in ("cpu", "ram", "uplink", "downlink"):
            demand = [req.demand(res) for req in inst.requests]
            crossed = 0
            for sol in rounded:
                crossed += any(
                    math.fsum(d * x for d, x in zip(demand, sol.x[:, m]))
                    > 1.1 * math.fsum(d * p for d, p in zip(demand, frac.x[:, m])) + 1e-9
                    for m in range(inst.n_mecs) if not np.isnan(tight.resource_factor[res][m]))
            assert report.exceed_fraction[res] == crossed / 100
            assert 0.0 < report.exceed_fraction[res] < 1.0

    def test_requires_enough_seeds(self):
        inst = generate(GeneratorConfig(request_count=10, seed=1))
        frac = solve_lp(build_relaxed_program(inst))
        with pytest.raises(ValueError, match="100"):
            empirical_violation_check(inst, frac, n_seeds=50)

from dataclasses import replace

import itertools

import numpy as np
import pytest

from helpers import make_instance, slack_caps
from reference import expected_reward, reference_round
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, solve_lp
from vnfplace.model import FractionalSolution, evaluate_solution
from vnfplace.rounding import randomized_round
from vnfplace.schemes import strip_availability


def frac_for(inst):
    return solve_lp(build_relaxed_program(inst))


def loaded_frac():
    """A congested instance and its fractional LP optimum.  An uncongested
    instance's LP optimum is integral, and rounds the same under any seed."""
    inst = generate(GeneratorConfig(request_count=40, seed=5))
    frac = frac_for(inst)
    assert ((frac.x > 1e-9) & (frac.x < 1 - 1e-9)).any()
    return inst, frac


class TestRoundingContract:
    def test_deterministic_per_seed(self):
        inst, frac = loaded_frac()
        a = randomized_round(frac, inst, seed=11)
        b = randomized_round(frac, inst, seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_seeds_differ(self):
        inst, frac = loaded_frac()
        a = randomized_round(frac, inst, seed=1)
        b = randomized_round(frac, inst, seed=2)
        assert not (np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y))

    def test_integral_probabilities_pass_through(self):
        inst = make_instance(caps=slack_caps(3), reqs=[{"eps": 0.001}, {"eps": 0.01}])
        x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        y = np.array([1.0, 1.0])
        frac = FractionalSolution(x=x, y=y, objective=10.0)
        for seed in range(5):
            sol = randomized_round(frac, inst, seed=seed)
            assert np.array_equal(sol.x, x.astype(np.int8))
            assert np.array_equal(sol.y, y.astype(np.int8))

    def test_never_violates_redundancy_or_admission(self):
        inst = generate(GeneratorConfig(request_count=25, seed=7))
        frac = frac_for(inst)
        need = inst.replica_vector()
        for seed in range(60):
            sol = randomized_round(frac, inst, seed=seed)
            metrics = evaluate_solution(inst, sol)
            kinds = {kind for kind, _, _ in metrics.violated_constraints}
            assert "redundancy" not in kinds
            placed = sol.x.sum(axis=1)
            assert np.all(placed[sol.y == 1] >= need[sol.y == 1])

    def test_gate_blocks_service_without_replicas(self):
        # both copies at probability ~0 makes admission impossible despite y=1
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.001}])
        frac = FractionalSolution(
            x=np.array([[0.0, 0.0]]), y=np.array([1.0]), objective=5.0)
        for seed in range(30):
            assert randomized_round(frac, inst, seed=seed).y[0] == 0

    def test_probability_dust_is_clipped(self):
        inst = make_instance(caps=slack_caps(1), reqs=[{"eps": 0.01}])
        frac = FractionalSolution(
            x=np.array([[1.0 + 5e-8]]), y=np.array([-5e-8]), objective=0.0)
        sol = randomized_round(frac, inst, seed=0)
        assert sol.x[0, 0] == 1 and sol.y[0] == 0

    def test_probability_out_of_range_rejected(self):
        inst = make_instance(caps=slack_caps(1), reqs=[{"eps": 0.01}])
        frac = FractionalSolution(
            x=np.array([[1.2]]), y=np.array([0.5]), objective=0.0)
        with pytest.raises(ValueError, match="placement"):
            randomized_round(frac, inst, seed=0)

    def test_shape_mismatch_rejected(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}])
        frac = FractionalSolution(
            x=np.array([[0.5]]), y=np.array([0.5]), objective=1.0)
        with pytest.raises(ValueError, match="shape"):
            randomized_round(frac, inst, seed=0)

    def test_documented_draw_layout(self):
        # one uniform per cell row-major, then gated admission uniforms in
        # request order; reconstructed here straight from the numpy stream
        inst = make_instance(
            caps=slack_caps(3),
            reqs=[{"eps": 0.001}, {"eps": 0.01}, {"eps": 0.01}],
        )
        x_prob = np.array([
            [0.9, 0.8, 0.1],
            [0.3, 0.0, 0.7],
            [0.5, 0.5, 0.5],
        ])
        y_prob = np.array([0.9, 0.6, 0.4])
        frac = FractionalSolution(x=x_prob, y=y_prob, objective=0.0)
        need = inst.replica_vector()
        for seed in (0, 1, 17):
            sol = randomized_round(frac, inst, seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            x_expect = (rng.random((3, 3)) < x_prob).astype(np.int8)
            y_expect = np.zeros(3, dtype=np.int8)
            for r in range(3):
                if x_expect[r].sum() >= need[r] and rng.random() < y_prob[r]:
                    y_expect[r] = 1
            assert np.array_equal(sol.x, x_expect)
            assert np.array_equal(sol.y, y_expect)


class TestRoundingStatistics:
    def test_placement_frequencies_match_probabilities(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}, {"eps": 0.01}])
        x_prob = np.array([[0.25, 0.75], [0.5, 0.1]])
        y_prob = np.array([0.8, 0.6])
        frac = FractionalSolution(x=x_prob, y=y_prob, objective=0.0)
        n = 4000
        total = np.zeros((2, 2))
        for seed in range(n):
            total += randomized_round(frac, inst, seed=seed).x
        freq = total / n
        se = np.sqrt(x_prob * (1 - x_prob) / n)
        assert np.all(np.abs(freq - x_prob) <= 4 * se + 1e-12)

    def test_service_rate_matches_gated_expectation(self):
        # single request, two nodes, gate needs both copies: the served rate
        # is y_prob times the product of the placement probabilities
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.001}])
        x_prob = np.array([[0.7, 0.6]])
        y_prob = np.array([0.9])
        frac = FractionalSolution(x=x_prob, y=y_prob, objective=0.0)
        n = 6000
        hits = sum(int(randomized_round(frac, inst, seed=s).y[0]) for s in range(n))
        expected = 0.9 * 0.7 * 0.6
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(hits / n - expected) <= 4 * se



class TestAgainstReference:
    @pytest.mark.parametrize("config", [
        GeneratorConfig(request_count=8, mec_count=3, cpu_range=(12, 18), ram_range=(16, 24)),
        GeneratorConfig(request_count=50, mec_count=10),
        GeneratorConfig(request_count=200, mec_count=20),
    ], ids=["8x3", "50x10", "200x20"])
    def test_matches_one_admission_draw_per_cleared_gate(self, config):
        # the admission draws come in request order, so drawing them in one
        # call leaves the stream and every rounded bit as they were
        fractional_y = 0
        for seed in range(2):
            inst = generate(replace(config, seed=seed))
            for case in (inst, strip_availability(inst)):      # true and single copies
                frac = frac_for(case)
                fractional_y += int(((frac.y > 1e-9) & (frac.y < 1 - 1e-9)).sum())
                for round_seed in range(25):
                    sol = randomized_round(frac, case, round_seed)
                    x, y = reference_round(frac, case, round_seed)
                    assert sol.x.dtype == x.dtype and sol.y.dtype == y.dtype
                    assert np.array_equal(sol.x, x) and np.array_equal(sol.y, y), round_seed
        assert fractional_y > 0      # some admission draw decides a bit


def enumerated_expected_reward(frac, inst):
    """Expected reward over every rounding, each weighted by its
    probability: every 0/1 placement, then every outcome of the admission
    draws, which count only where the placement clears the gate."""
    x = np.clip(np.asarray(frac.x, dtype=float), 0.0, 1.0)
    y = np.clip(np.asarray(frac.y, dtype=float), 0.0, 1.0)
    R, M = x.shape
    rewards = np.array([request.reward for request in inst.requests])
    # one row per rounding: R * M placement bits, then R admission bits
    bits = np.array(list(itertools.product((0, 1), repeat=R * M + R)), dtype=bool)
    placed, admitted = bits[:, :R * M].reshape(-1, R, M), bits[:, R * M:]
    weight = (np.where(placed, x, 1.0 - x).prod(axis=(1, 2))
              * np.where(admitted, y, 1.0 - y).prod(axis=1))
    served = (placed.sum(axis=2) >= inst.replica_vector()) & admitted
    return float(weight @ (served @ rewards))


class TestExpectedReward:
    """The test-side expectation of randomized rounding's reward."""

    def test_matches_enumeration_of_every_rounding(self):
        rng = np.random.default_rng(11)
        for replicas in ([1, 2, 3, 1], [2, 2, 1, 3], [3, 1, 2]):
            inst = make_instance(caps=slack_caps(3),
                                 reqs=[{"reward": float(rng.uniform(1, 9))} for _ in replicas],
                                 replicas=replicas)
            for _ in range(3):
                x = rng.choice([0.0, 1.0, 0.3, 0.55, 0.9], size=(len(replicas), 3))
                frac = FractionalSolution(x=x, y=rng.uniform(0, 1, len(replicas)), objective=0.0)
                assert expected_reward(frac, inst) == pytest.approx(
                    enumerated_expected_reward(frac, inst), rel=1e-12)
        # fractional LP optima of generated 4x3 instances with tight links
        for seed in range(4):
            inst = generate(GeneratorConfig(request_count=4, mec_count=3, seed=seed,
                                            uplink_capacity=25.0, downlink_capacity=70.0))
            frac = frac_for(inst)
            assert ((frac.x > 1e-9) & (frac.x < 1 - 1e-9)).any()
            assert expected_reward(frac, inst) == pytest.approx(
                enumerated_expected_reward(frac, inst), rel=1e-12)

    def test_matches_the_mean_of_sampled_roundings(self):
        inst, frac = loaded_frac()
        n = 2000
        rewards = [evaluate_solution(inst, randomized_round(frac, inst, seed)).total_reward
                   for seed in range(n)]
        se = np.std(rewards) / np.sqrt(n)
        assert abs(np.mean(rewards) - expected_reward(frac, inst)) <= 4 * se

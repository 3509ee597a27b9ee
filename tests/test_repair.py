import numpy as np
import pytest

from helpers import make_instance, slack_caps
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, solve_lp
from vnfplace.model import IntegralSolution, evaluate_solution
from vnfplace.repair import greedy_repair
from vnfplace.rounding import randomized_round


def sol(x, y):
    return IntegralSolution(x=np.array(x, dtype=np.int8),
                            y=np.array(y, dtype=np.int8))


class TestBasics:
    def test_feasible_input_unchanged(self):
        inst = make_instance(caps=[{"c": 10}], reqs=[{"c": 3, "eps": 0.01}])
        fixed = greedy_repair(inst, sol([[1]], [1]))
        assert fixed.x[0, 0] == 1 and fixed.y[0] == 1

    def test_wasted_placement_pruned_even_when_feasible(self):
        inst = make_instance(caps=[{"c": 10}],
                             reqs=[{"c": 3, "eps": 0.01}, {"c": 3, "eps": 0.01}])
        fixed = greedy_repair(inst, sol([[1], [1]], [1, 0]))
        assert fixed.x[1, 0] == 0  # unserved copy freed
        assert fixed.y[0] == 1 and fixed.x[0, 0] == 1

    def test_pruning_alone_can_restore_feasibility(self):
        # the wasted copy is the entire overload; no served request drops
        inst = make_instance(caps=[{"c": 5}],
                             reqs=[{"c": 3, "eps": 0.01, "reward": 9.0},
                                   {"c": 3, "eps": 0.01, "reward": 1.0}])
        fixed = greedy_repair(inst, sol([[1], [1]], [1, 0]))
        assert fixed.y[0] == 1

    def test_lowest_reward_evicted_first(self):
        inst = make_instance(caps=[{"c": 5}],
                             reqs=[{"c": 3, "eps": 0.01, "reward": 8.0},
                                   {"c": 3, "eps": 0.01, "reward": 2.0}])
        fixed = greedy_repair(inst, sol([[1], [1]], [1, 1]))
        assert fixed.y.tolist() == [1, 0]

    def test_reward_tie_drops_higher_id(self):
        inst = make_instance(caps=[{"c": 5}],
                             reqs=[{"c": 3, "eps": 0.01, "reward": 4.0},
                                   {"c": 3, "eps": 0.01, "reward": 4.0}])
        fixed = greedy_repair(inst, sol([[1], [1]], [1, 1]))
        assert fixed.y.tolist() == [1, 0]

    def test_eviction_frees_copies_everywhere(self):
        # node 0 overloads; evicting request 0 must release its node-1 copy
        # so request 1 survives there
        inst = make_instance(
            caps=[{"c": 4}, {"c": 4}],
            reqs=[{"c": 3, "eps": 0.001, "reward": 1.0},
                  {"c": 3, "eps": 0.01, "reward": 9.0},
                  {"c": 3, "eps": 0.01, "reward": 9.0}],
        )
        start = sol([[1, 1], [1, 0], [0, 1]], [1, 1, 1])
        fixed = greedy_repair(inst, start)
        assert fixed.y.tolist() == [0, 1, 1]
        assert fixed.x.sum() == 2

    def test_shape_mismatch_rejected(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}])
        with pytest.raises(ValueError):
            greedy_repair(inst, sol([[1]], [1]))


class TestTrimming:
    def test_default_keeps_extra_copies(self):
        inst = make_instance(
            caps=[{"c": 5}, {"c": 5}],
            reqs=[{"c": 3, "eps": 0.01, "reward": 9.0},
                  {"c": 3, "eps": 0.01, "reward": 8.0}],
        )
        start = sol([[1, 1], [1, 0]], [1, 1])
        fixed = greedy_repair(inst, start)
        # repair never trims a surplus copy, so the only cure is evicting
        # the cheaper request
        assert fixed.y.tolist() == [1, 0]
        assert fixed.x[0].sum() == 2


class TestOnRoundedSolutions:
    def test_always_feasible_and_never_adds_service(self):
        inst = generate(GeneratorConfig(request_count=40, seed=33))
        frac = solve_lp(build_relaxed_program(inst))
        for seed in range(25):
            rounded = randomized_round(frac, inst, seed=seed)
            fixed = greedy_repair(inst, rounded)
            metrics = evaluate_solution(inst, fixed)
            assert metrics.feasible
            assert np.all(fixed.y <= rounded.y)
            assert np.all(fixed.x <= rounded.x)
            assert metrics.total_reward <= evaluate_solution(
                inst, rounded).total_reward + 1e-9

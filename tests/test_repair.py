import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_instance, slack_caps
from reference import greedy_vertex
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, solve_lp
from vnfplace.model import IntegralSolution, evaluate_solution
from vnfplace.repair import greedy_repair, pack
from vnfplace.rounding import randomized_round
from vnfplace.schemes import strip_availability


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

    @pytest.mark.parametrize("x, y", [([[2]], [1]), ([[-1]], [1]), ([[1]], [2])])
    def test_entry_other_than_0_or_1_rejected(self, x, y):
        inst = make_instance(caps=slack_caps(1), reqs=[{"eps": 0.5}])
        with pytest.raises(ValueError, match="0/1"):
            greedy_repair(inst, sol(x, y))

    @pytest.mark.parametrize("x, y", [([[0.5]], [1]), ([[1.0]], [0.5]), ([[2], [0]], [0, 1])])
    def test_input_is_checked_before_it_is_cast(self, x, y):
        # a fraction would become 0 in int8, and a copy of an unserved
        # request would be cleared: both are rejected as given
        inst = make_instance(caps=slack_caps(1), reqs=[{"eps": 0.5}] * len(y))
        with pytest.raises(ValueError, match="0/1"):
            greedy_repair(inst, IntegralSolution(x=np.array(x), y=np.array(y)))


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


# (requests, nodes, generator overrides): heterogeneous, then identical nodes
LADDER = ([(R, M, {}) for R, M in [(8, 3), (12, 4), (30, 10), (60, 10), (200, 20)]]
          + [(R, M, {"cpu_range": (cpu, cpu), "ram_range": (48, 48)})
             for R, M in [(12, 4), (60, 10)] for cpu in (24, 40)])


def same_as_reference(inst):
    sol = pack(inst)
    x, y = greedy_vertex(inst)
    return np.array_equal(sol.x, x) and np.array_equal(sol.y, y)


@st.composite
def tied_instances(draw):
    """Up to 5 nodes and 8 requests whose demands and capacities come from
    a few small integers, so fits land exactly on the slack and rooms tie."""
    caps = [{"c": draw(st.sampled_from([2, 3, 4])), "d": draw(st.sampled_from([2, 4]))}
            for _ in range(draw(st.integers(1, 5)))]
    reqs = [{"c": draw(st.sampled_from([1, 2])), "d": draw(st.sampled_from([1, 2])),
             "eps": draw(st.sampled_from([0.01, 0.001])),
             "reward": draw(st.sampled_from([1.0, 2.0]))}
            for _ in range(draw(st.integers(1, 8)))]
    return make_instance(caps=caps, reqs=reqs)


class TestPack:
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
        packed = pack(inst)
        assert packed.y.tolist() == [0, 1, 1]
        assert packed.x.tolist() == [[0, 0, 0], [1, 1, 0], [0, 0, 1]]

    def test_ties_go_to_the_lower_index(self):
        inst = make_instance(caps=slack_caps(4), reqs=[{"eps": 0.001}] * 2)
        # request 0 takes nodes 0 and 1; then nodes 2 and 3 have the most room
        assert pack(inst).x.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]

    def test_a_demand_equal_to_the_slack_fits(self):
        inst = make_instance(caps=[{"c": 3}], reqs=[{"c": 2, "eps": 0.01}, {"c": 1, "eps": 0.01}])
        assert pack(inst).y.tolist() == [1, 1]

    def test_room_adds_the_shares_left_to_right(self):
        # the nodes hold the same four shares after the first two requests,
        # in another order: added left to right, node 1's room is one ulp
        # larger, so the third request goes there; added right to left, the
        # rooms tie and it would go to node 0
        inst = make_instance(caps=[(5, 5, 1.1, 0.7), (5, 5, 0.7, 1.1)],
                             reqs=[{"up": 0.3, "dw": 0.1, "eps": 0.01, "reward": 2.0},
                                   {"up": 0.1, "dw": 0.3, "eps": 0.01, "reward": 2.0},
                                   {"c": 2, "d": 2, "up": 0.2, "dw": 0.3, "eps": 0.01,
                                    "reward": 2.0}])
        assert same_as_reference(inst)
        assert pack(inst).x.tolist() == [[1, 0], [0, 1], [0, 1]]

    @pytest.mark.parametrize("requests,mecs,overrides", LADDER)
    @pytest.mark.parametrize("blind", [False, True], ids=["true_replicas", "stripped"])
    def test_matches_the_numpy_reference(self, requests, mecs, overrides, blind):
        for seed in range(3):
            inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs, seed=seed,
                                            **overrides))
            assert same_as_reference(strip_availability(inst) if blind else inst)

    def test_matches_the_numpy_reference_on_tied_instances(self):
        @settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @given(tied_instances())
        def check(inst):
            assert same_as_reference(inst)

        check()

    @pytest.mark.parametrize("requests,mecs,overrides", LADDER)
    def test_feasible_with_exactly_psi_copies(self, requests, mecs, overrides):
        inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs, seed=5,
                                        **overrides))
        packed = pack(inst)
        assert evaluate_solution(inst, packed).feasible
        assert np.array_equal(packed.x.sum(axis=1), inst.replica_vector() * packed.y)
        assert packed.y.any()

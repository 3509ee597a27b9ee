import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import make_instance, slack_caps
from reference import brute_force_feasible, reference_metrics
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, solve_lp
from vnfplace.repair import greedy_repair
from vnfplace.rounding import randomized_round
from vnfplace.model import (FEAS_EPS, RESOURCES, FailureModel, FractionalSolution,
                            IntegralSolution, InvalidModelError, MecNode, ProblemInstance,
                            ServiceRequest, evaluate_solution, instance_from_dict,
                            instance_to_dict, load_instance, load_solution,
                            required_replicas, save_instance, save_solution,
                            service_failure_prob, solution_from_dict, solution_to_dict)
from vnfplace.model import violations as model_violations


class TestFailureModel:
    def test_combined_probability_is_the_sum(self):
        assert service_failure_prob(FailureModel(0.001, 0.004)) == pytest.approx(0.005)

    def test_zero_model_rejected(self):
        with pytest.raises(InvalidModelError):
            FailureModel(0.0, 0.0)

    def test_saturated_model_rejected(self):
        with pytest.raises(InvalidModelError):
            FailureModel(0.5, 0.5)

    def test_negative_part_rejected(self):
        with pytest.raises(InvalidModelError):
            FailureModel(-0.1, 0.2)


class TestRequiredReplicas:
    # deployment failure split: per-copy failure 0.005
    fm = FailureModel(0.001, 0.004)

    @pytest.mark.parametrize("eps_r,expected", [
        (0.01, 1),      # ln ratio 0.869 -> 1
        (0.001, 2),     # ln ratio 1.304 -> 2
        (0.0001, 2),    # ln ratio 1.738 -> 2
    ])
    def test_deployment_classes(self, eps_r, expected):
        assert required_replicas(self.fm, eps_r) == expected

    def test_exact_power_does_not_round_up(self):
        # threshold == eps_m**2 exactly: ratio 2.0 must give 2, not 3
        assert required_replicas(self.fm, 0.000025) == 2

    def test_clamped_to_at_least_one(self):
        assert required_replicas(self.fm, 0.5) == 1
        assert required_replicas(self.fm, 0.9999) == 1

    def test_monotone_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(5)
        thresholds = np.sort(rng.uniform(1e-8, 0.9, size=200))
        counts = [required_replicas(self.fm, float(t)) for t in thresholds]
        # weaker requirement (larger eps_r) never needs more copies
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            required_replicas(self.fm, bad)


class TestConstruction:
    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            MecNode(id=0, cpu_capacity=0, ram_capacity=1,
                    uplink_capacity=1, downlink_capacity=1)

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(ValueError):
            ServiceRequest(id=0, cpu_demand=1, ram_demand=-1, uplink_demand=1,
                           downlink_demand=1, failure_threshold=0.01, reward=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("res", RESOURCES)
    def test_nonfinite_capacity_rejected(self, res, value):
        caps = dict.fromkeys(RESOURCES, 1.0) | {res: value}
        with pytest.raises(ValueError, match=f"mec 3: {res} capacity"):
            MecNode(id=3, **{f"{k}_capacity": v for k, v in caps.items()})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("res", RESOURCES)
    def test_nonfinite_demand_rejected(self, res, value):
        demands = dict.fromkeys(RESOURCES, 1.0) | {res: value}
        with pytest.raises(ValueError, match=f"request 2: {res} demand"):
            ServiceRequest(id=2, failure_threshold=0.01, reward=1,
                           **{f"{k}_demand": v for k, v in demands.items()})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_reward_rejected(self, value):
        with pytest.raises(ValueError, match="request 2: reward"):
            ServiceRequest(id=2, cpu_demand=1, ram_demand=1, uplink_demand=1,
                           downlink_demand=1, failure_threshold=0.01, reward=value)

    @pytest.mark.parametrize("make,field,value,message", [
        (MecNode, "id", True, "mec True: id must be an int, got bool"),
        (MecNode, "id", 1.0, "mec 1.0: id must be an int, got float"),
        (MecNode, "cpu_capacity", True, "mec 1: cpu_capacity must be a number, got bool"),
        (MecNode, "downlink_capacity", "5", "mec 1: downlink_capacity must be a number, got str"),
        (ServiceRequest, "id", False, "request False: id must be an int, got bool"),
        (ServiceRequest, "reward", True, "request 1: reward must be a number, got bool"),
        (ServiceRequest, "cpu_demand", "5", "request 1: cpu_demand must be a number, got str"),
        (ServiceRequest, "failure_threshold", None,
         "request 1: failure_threshold must be a number, got NoneType"),
        (ServiceRequest, "upf_chain", ("NAT", 1),
         "request 1: upf_chain must be a list of strs, got a list holding int"),
        (ServiceRequest, "upf_chain", "NAT", "request 1: upf_chain must be a list of strs, got str"),
        (FailureModel, "pm_failure", True, "failure model: pm_failure must be a number, got bool"),
        (FailureModel, "vnf_failure", "0.001",
         "failure model: vnf_failure must be a number, got str"),
    ])
    def test_field_of_another_type_rejected(self, make, field, value, message):
        valid = {MecNode: dict(id=1, cpu_capacity=1, ram_capacity=1, uplink_capacity=1,
                               downlink_capacity=1),
                 ServiceRequest: dict(id=1, cpu_demand=1, ram_demand=1, uplink_demand=1,
                                      downlink_demand=1, failure_threshold=0.01, reward=1),
                 FailureModel: dict(vnf_failure=0.001, pm_failure=0.004)}[make]
        with pytest.raises(ValueError) as caught:
            make(**valid | {field: value})
        assert str(caught.value) == message

    def test_numpy_numbers_accepted(self):
        mec = MecNode(id=np.int64(0), cpu_capacity=np.float64(2.0), ram_capacity=np.int32(3),
                      uplink_capacity=1, downlink_capacity=1.5)
        assert mec.capacity("ram") == 3

    def test_instance_without_mecs_rejected(self):
        req = ServiceRequest(id=0, cpu_demand=1, ram_demand=1, uplink_demand=1,
                             downlink_demand=1, failure_threshold=0.01, reward=1)
        with pytest.raises(ValueError, match="at least one mec"):
            ProblemInstance.from_parts([], [req], FailureModel(0.001, 0.004))

    def test_ids_must_match_positions(self):
        mec = MecNode(id=1, cpu_capacity=1, ram_capacity=1,
                      uplink_capacity=1, downlink_capacity=1)
        with pytest.raises(ValueError):
            ProblemInstance(mecs=[mec], requests=[],
                            failure_model=FailureModel(0.001, 0.004), replicas=[])

    def test_from_parts_derives_replicas(self):
        inst = make_instance(slack_caps(2), [{"eps": 0.01}, {"eps": 0.001}])
        assert inst.replicas == [1, 2]


class TestArrayForm:
    @pytest.fixture(scope="class")
    def placements(self):
        inst = generate(GeneratorConfig(request_count=200, mec_count=20, seed=0))
        frac = solve_lp(build_relaxed_program(inst))
        greedy = greedy_repair(inst, randomized_round(frac, inst, seed=0))
        assert greedy.x.dtype == np.int8 and frac.x.dtype == float
        return inst, [greedy.x, frac.x]

    def test_loads_match_per_resource_products_bit_for_bit(self, placements):
        inst, xs = placements
        for x in xs:
            expected = np.array([inst.demand_vector(res) @ x for res in RESOURCES])
            assert np.array_equal(inst.loads(x), expected)

    def test_rows_follow_resource_order(self):
        inst = make_instance([(4, 5, 6, 7), (8, 9, 10, 11)],
                             [{"c": 1, "d": 2, "up": 3, "dw": 4, "reward": 6}])
        assert inst.demands.tolist() == [[1], [2], [3], [4]]
        assert inst.capacities.tolist() == [[4, 8], [5, 9], [6, 10], [7, 11]]
        assert inst.capacity_vector("uplink").tolist() == [6, 10]
        assert inst.reward_vector().tolist() == [6.0]
        assert inst.loads(np.array([[0, 1]])).tolist() == [[0, 1], [0, 2], [0, 3], [0, 4]]

    def test_arrays_are_read_only(self):
        inst = make_instance(slack_caps(2), [{}])
        for arr in (inst.demands, inst.capacities, inst.reward_vector(),
                    inst.replica_vector(), inst.demand_vector("cpu")):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2

    def test_replace_rebuilds_the_arrays(self):
        inst = make_instance(slack_caps(3), [{"eps": 0.001}, {"eps": 0.01}])
        assert inst.replica_vector().tolist() == [2, 1]
        other = dataclasses.replace(inst, replicas=[3, 3],
                                    mecs=[dataclasses.replace(m, cpu_capacity=7.0)
                                          for m in inst.mecs])
        assert other.replica_vector().tolist() == [3, 3]
        assert other.capacity_vector("cpu").tolist() == [7.0] * 3
        assert inst.replica_vector().tolist() == [2, 1]


class TestEvaluateSolution:
    def test_single_placement_metrics(self):
        inst = make_instance([(4, 4, 10, 10)],
                             [{"c": 2, "d": 2, "up": 5, "dw": 5,
                               "eps": 0.01, "reward": 7.0}])
        sol = IntegralSolution(x=np.array([[1]], dtype=np.int8),
                               y=np.array([1], dtype=np.int8))
        m = evaluate_solution(inst, sol)
        assert m.total_reward == pytest.approx(7.0)
        assert m.served_count == 1
        assert m.feasible
        assert m.wasted_placements == []

    def test_missing_replica_flagged(self):
        inst = make_instance(slack_caps(2), [{"eps": 0.001, "reward": 9.0}])
        assert inst.replicas == [2]
        sol = IntegralSolution(x=np.array([[1, 0]], dtype=np.int8),
                               y=np.array([1], dtype=np.int8))
        m = evaluate_solution(inst, sol)
        assert not m.feasible
        assert ("redundancy", 0, 1.0) in m.violated_constraints

    def test_capacity_overshoot_flagged(self):
        inst = make_instance([(4, 100, 100, 100)],
                             [{"c": 3, "eps": 0.01}, {"c": 3, "eps": 0.01}])
        sol = IntegralSolution(x=np.array([[1], [1]], dtype=np.int8),
                               y=np.array([1, 1], dtype=np.int8))
        m = evaluate_solution(inst, sol)
        assert not m.feasible
        assert ("cpu", 0, pytest.approx(2.0)) in m.violated_constraints

    def test_wasted_placement_counts_load_but_no_reward(self):
        inst = make_instance([(4, 4, 10, 10)], [{"c": 2, "eps": 0.01, "reward": 7.0}])
        sol = IntegralSolution(x=np.array([[1]], dtype=np.int8),
                               y=np.array([0], dtype=np.int8))
        m = evaluate_solution(inst, sol)
        assert m.feasible
        assert m.total_reward == 0.0
        assert m.wasted_placements == [(0, 0)]
        # beside a served copy of 3 cpu, the unserved copy's 2 still count
        inst = make_instance([(4, 4, 10, 10)], [{"c": 2, "eps": 0.01, "reward": 7.0},
                                                {"c": 3, "eps": 0.01, "reward": 5.0}])
        sol = IntegralSolution(x=np.array([[1], [1]], dtype=np.int8),
                               y=np.array([0, 1], dtype=np.int8))
        m = evaluate_solution(inst, sol)
        assert m.total_reward == 5.0
        assert m.wasted_placements == [(0, 0)]
        assert m.violated_constraints == [("cpu", 0, 1.0)]

    def test_dimension_mismatch_raises(self):
        inst = make_instance(slack_caps(2), [{"eps": 0.01}])
        sol = IntegralSolution(x=np.zeros((1, 3), dtype=np.int8),
                               y=np.zeros(1, dtype=np.int8))
        with pytest.raises(ValueError, match="does not match"):
            evaluate_solution(inst, sol)

    def test_non_binary_rejected(self):
        inst = make_instance(slack_caps(1), [{"eps": 0.01}])
        for x, y in ([[2]], [1]), ([[0.5]], [1]), ([[np.nan]], [1]), ([[1]], [2]):
            sol = IntegralSolution(x=np.array(x), y=np.array(y))
            with pytest.raises(ValueError, match="0/1"):
                evaluate_solution(inst, sol)

    def test_reward_linearity(self):
        rng = np.random.default_rng(7)
        inst = generate(GeneratorConfig(mec_count=3, request_count=8, seed=3))
        x = (rng.random((8, 3)) < 0.3).astype(np.int8)
        y = np.zeros(8, dtype=np.int8)
        sol = IntegralSolution(x=x, y=y)
        base = evaluate_solution(inst, sol)
        scaled_requests = [
            ServiceRequest(id=r.id, cpu_demand=r.cpu_demand, ram_demand=r.ram_demand,
                           uplink_demand=r.uplink_demand, downlink_demand=r.downlink_demand,
                           failure_threshold=r.failure_threshold, reward=3.0 * r.reward,
                           upf_chain=r.upf_chain)
            for r in inst.requests
        ]
        scaled = ProblemInstance(mecs=inst.mecs, requests=scaled_requests,
                                 failure_model=inst.failure_model,
                                 replicas=list(inst.replicas))
        # serve whatever holds enough copies, in both instances
        y2 = ((x.sum(axis=1) >= inst.replica_vector()) & True).astype(np.int8)
        m1 = evaluate_solution(inst, IntegralSolution(x=x, y=y2))
        m2 = evaluate_solution(scaled, IntegralSolution(x=x, y=y2))
        assert m2.total_reward == pytest.approx(3.0 * m1.total_reward)
        assert m2.feasible == m1.feasible
        assert base.total_reward == 0.0

    def test_feasibility_matches_direct_recheck(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            M = int(rng.integers(1, 4))
            R = int(rng.integers(1, 6))
            caps = [(float(rng.integers(2, 9)), float(rng.integers(2, 9)),
                     float(rng.integers(2, 9)), float(rng.integers(2, 9)))
                    for _ in range(M)]
            reqs = [{"c": float(rng.integers(1, 4)), "d": float(rng.integers(1, 4)),
                     "up": float(rng.integers(1, 4)), "dw": float(rng.integers(1, 4)),
                     "eps": float(rng.choice([0.01, 0.001])), "reward": float(rng.uniform(1, 9))}
                    for _ in range(R)]
            inst = make_instance(caps, reqs)
            x = (rng.random((R, M)) < 0.5).astype(np.int8)
            y = (rng.random(R) < 0.5).astype(np.int8)
            m = evaluate_solution(inst, IntegralSolution(x=x, y=y))
            assert m.feasible == brute_force_feasible(inst, x.tolist(), y.tolist())


    # demands on a half-unit grid, capacities and rewards on quarter units:
    # every load and reward sum is exact in any order, so the package's
    # products and the reference's loops agree to the bit
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data(), requests=st.integers(0, 10), mecs=st.integers(1, 4))
    def test_metrics_match_a_loop_by_loop_reference(self, data, requests, mecs):
        grid = st.integers(1, 8).map(lambda k: k / 2)
        caps = [tuple(data.draw(st.lists(st.integers(1, 48).map(lambda k: k / 4),
                                         min_size=4, max_size=4))) for _ in range(mecs)]
        reqs = [{"c": data.draw(grid), "d": data.draw(grid), "up": data.draw(grid),
                 "dw": data.draw(grid), "reward": data.draw(st.integers(0, 40)) / 4}
                for _ in range(requests)]
        replicas = data.draw(st.lists(st.integers(1, mecs + 1), min_size=requests,
                                      max_size=requests))
        inst = make_instance(caps, reqs, replicas=replicas)
        x = data.draw(hnp.arrays(np.int8, (requests, mecs), elements=st.integers(0, 1)))
        y = data.draw(hnp.arrays(np.int8, requests, elements=st.integers(0, 1)))
        got = evaluate_solution(inst, IntegralSolution(x=x, y=y))
        violations, wasted, served, reward = reference_metrics(inst, x.tolist(), y.tolist())
        assert got.violated_constraints == violations
        assert model_violations(inst, x, y) == violations
        assert got.wasted_placements == wasted
        assert got.served_count == served
        assert got.total_reward == reward
        assert got.feasible == (not violations)

    # FEAS_EPS is absolute: at a capacity of 1e9 it is below half an ulp, so
    # a load one ulp above the capacity already violates it
    @pytest.mark.parametrize("cap", [1.0, 1e9])
    @pytest.mark.parametrize("above", [False, True])
    def test_violations_allow_an_absolute_feas_eps(self, cap, above):
        load = cap + FEAS_EPS
        if above:
            load = math.nextafter(load, math.inf)
        inst = make_instance([{"c": cap}], [{"c": load, "eps": 0.5}])
        x, y = np.ones((1, 1), dtype=np.int8), np.ones(1, dtype=np.int8)
        want = [("cpu", 0, load - cap)] if above else []
        assert model_violations(inst, x, y) == want
        assert reference_metrics(inst, x.tolist(), y.tolist())[0] == want
        assert evaluate_solution(inst, IntegralSolution(x=x, y=y)).violated_constraints == want


class TestSerialization:
    def test_instance_roundtrip(self, tmp_path):
        inst = generate(GeneratorConfig(mec_count=3, request_count=5, seed=9))
        path = tmp_path / "inst.yaml"
        save_instance(inst, path)
        back = load_instance(path)
        assert instance_to_dict(back) == instance_to_dict(inst)
        assert back.replicas == inst.replicas

    def test_save_reproduces_the_golden_document(self, tmp_path):
        golden = Path(__file__).parent / "data" / "instance_3x2_s0.yaml"
        inst = generate(GeneratorConfig(request_count=3, mec_count=2, seed=0))
        save_instance(inst, tmp_path / "inst.yaml")
        assert (tmp_path / "inst.yaml").read_bytes() == golden.read_bytes()
        assert load_instance(golden).requests == inst.requests

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(requests=st.integers(0, 10), mecs=st.integers(1, 3),
           seed=st.integers(0, 2**63 - 1))
    def test_instance_round_trip(self, tmp_path_factory, requests, mecs, seed):
        inst = generate(GeneratorConfig(request_count=requests, mec_count=mecs, seed=seed))
        first, second = (tmp_path_factory.mktemp("doc") / "inst.yaml" for _ in range(2))
        save_instance(inst, first)
        back = load_instance(first)
        assert instance_to_dict(back) == instance_to_dict(inst)
        save_instance(back, second)
        assert second.read_bytes() == first.read_bytes()

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data(), requests=st.integers(0, 10), mecs=st.integers(1, 3))
    def test_solution_round_trip(self, tmp_path_factory, data, requests, mecs):
        for make, dtype, entries in [(IntegralSolution, np.int8, st.integers(0, 1)),
                                     (FractionalSolution, float, st.floats(0.0, 1.0))]:
            parts = {"x": data.draw(hnp.arrays(dtype, (requests, mecs), elements=entries)),
                     "y": data.draw(hnp.arrays(dtype, requests, elements=entries))}
            if make is FractionalSolution:
                parts["objective"] = data.draw(st.floats(allow_nan=False, allow_infinity=False))
            sol = make(**parts)
            first, second = (tmp_path_factory.mktemp("sol") / "sol.yaml" for _ in range(2))
            save_solution(sol, first)
            back = load_solution(first)
            assert type(back) is make
            assert solution_to_dict(back) == solution_to_dict(sol)
            save_solution(back, second)
            assert second.read_bytes() == first.read_bytes()

    def test_document_layout(self):
        inst = make_instance(slack_caps(1), [{"eps": 0.01}])
        doc = instance_to_dict(inst)
        assert set(doc) == {"version", "failure_model", "mecs", "requests"}
        assert doc["version"] == 1

    def test_unsupported_version_rejected(self):
        inst = make_instance(slack_caps(1), [{"eps": 0.01}])
        doc = instance_to_dict(inst)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            instance_from_dict(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            instance_from_dict({"version": 1, "mecs": []})
        with pytest.raises(ValueError):
            instance_from_dict([1, 2, 3])

    @pytest.mark.parametrize("key", ["mecs", "requests"])
    @pytest.mark.parametrize("value,kind", [(5, "int"), ({"a": 1}, "dict"), ("ab", "str")])
    def test_record_list_of_another_type_is_named(self, key, value, kind):
        doc = instance_to_dict(make_instance(slack_caps(2), [{"eps": 0.01}]))
        doc[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be a list, got {kind}$"):
            instance_from_dict(doc)

    def test_integral_solution_roundtrip(self, tmp_path):
        sol = IntegralSolution(x=np.array([[1, 0], [0, 1]], dtype=np.int8),
                               y=np.array([1, 0], dtype=np.int8))
        path = tmp_path / "sol.yaml"
        save_solution(sol, path)
        back = load_solution(path)
        assert isinstance(back, IntegralSolution)
        assert (back.x == sol.x).all() and (back.y == sol.y).all()

    def test_fractional_solution_roundtrip(self, tmp_path):
        sol = FractionalSolution(x=np.array([[0.25, 0.5]]), y=np.array([0.75]),
                                 objective=5.25)
        path = tmp_path / "frac.yaml"
        save_solution(sol, path)
        back = load_solution(path)
        assert isinstance(back, FractionalSolution)
        assert back.objective == pytest.approx(5.25)
        assert back.x[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("entry", [0.7, 1.5, 300, -1, float("nan")])
    def test_integral_entry_other_than_0_or_1_rejected(self, field, entry):
        doc = {"version": 1, "kind": "integral", "x": [[1, 0]], "y": [1]}
        doc[field] = [[entry, 0]] if field == "x" else [entry]
        with pytest.raises(ValueError, match=f"'{field}' holds an entry other than 0 or 1"):
            solution_from_dict(doc)

    def test_unknown_solution_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            solution_from_dict({"version": 1, "kind": "mystery", "x": [], "y": []})

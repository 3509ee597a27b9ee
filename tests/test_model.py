import numpy as np
import pytest

from helpers import make_instance, slack_caps
from reference import brute_force_feasible
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.model import (FailureModel, FractionalSolution, IntegralSolution,
                            InvalidModelError, MecNode, ProblemInstance,
                            ServiceRequest, evaluate_solution, instance_from_dict,
                            instance_to_dict, load_instance, load_solution,
                            required_replicas, save_instance, save_solution,
                            service_failure_prob, solution_from_dict)


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

    def test_ids_must_match_positions(self):
        mec = MecNode(id=1, cpu_capacity=1, ram_capacity=1,
                      uplink_capacity=1, downlink_capacity=1)
        with pytest.raises(ValueError):
            ProblemInstance(mecs=[mec], requests=[],
                            failure_model=FailureModel(0.001, 0.004), replicas=[])

    def test_from_parts_derives_replicas(self):
        inst = make_instance(slack_caps(2), [{"eps": 0.01}, {"eps": 0.001}])
        assert inst.replicas == [1, 2]


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
        sol = IntegralSolution(x=np.array([[2]]), y=np.array([1]))
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


class TestSerialization:
    def test_instance_roundtrip(self, tmp_path):
        inst = generate(GeneratorConfig(mec_count=3, request_count=5, seed=9))
        path = tmp_path / "inst.yaml"
        save_instance(inst, path)
        back = load_instance(path)
        assert instance_to_dict(back) == instance_to_dict(inst)
        assert back.replicas == inst.replicas

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

    def test_unknown_solution_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            solution_from_dict({"version": 1, "kind": "mystery", "x": [], "y": []})

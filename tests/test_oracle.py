import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_instance, slack_caps
from reference import (exhaustive_any_subset_optimum, knapsack_bound, max_admitted_copies,
                       milp_optimum)
from vnfplace.gen import GeneratorConfig, generate
from vnfplace.lp import build_relaxed_program, solve_lp
from vnfplace.model import (RESOURCES, IntegralSolution, MecNode, ProblemInstance,
                            evaluate_solution)
from vnfplace.oracle import (_PRUNE_EPS, DEFAULT_MAX_NODES, _KnapsackBound, OracleLimitError,
                             solve_exact)
from vnfplace.schemes import evaluate_with_true_replicas, strip_availability


def small_config(seed):
    return GeneratorConfig(
        mec_count=3, request_count=6,
        cpu_range=(12, 18), ram_range=(16, 24),
        uplink_capacity=40.0, downlink_capacity=120.0, seed=seed,
    )


class TestSolveExact:
    def test_single_request_single_node(self):
        inst = make_instance(caps=[{"c": 10}], reqs=[{"c": 3, "eps": 0.01,
                                                      "reward": 7.0}])
        result = solve_exact(inst)
        assert result.objective == pytest.approx(7.0)
        assert result.solution.y[0] == 1

    def test_replica_requirement_blocks_single_node(self):
        # two copies demanded, one node available: unservable
        inst = make_instance(caps=[{"c": 10}], reqs=[{"c": 3, "eps": 0.001,
                                                      "reward": 7.0}])
        result = solve_exact(inst)
        assert result.objective == 0.0
        assert result.solution.y[0] == 0

    def test_knapsack_conflict_resolved_optimally(self):
        # greedy by reward density would take request 0; optimum takes 1 and 2
        inst = make_instance(
            caps=[{"c": 10}],
            reqs=[{"c": 10, "eps": 0.01, "reward": 8.0},
                  {"c": 5, "eps": 0.01, "reward": 5.0},
                  {"c": 5, "eps": 0.01, "reward": 5.0}],
        )
        result = solve_exact(inst)
        assert result.objective == pytest.approx(10.0)
        assert result.solution.y.tolist() == [0, 1, 1]

    def test_modes_agree_and_count_nodes(self):
        for seed in range(10):
            inst = generate(small_config(seed))
            bb = solve_exact(inst, mode="branch_and_bound")
            ex = solve_exact(inst, mode="exhaustive")
            assert bb.objective == pytest.approx(ex.objective, abs=1e-9)
            assert 0 < bb.nodes <= ex.nodes

    def test_matches_any_subset_reference(self):
        # the reference allows MORE copies than required, validating the
        # exactly-psi reduction used by the solver
        for seed in range(8):
            inst = generate(GeneratorConfig(
                mec_count=2, request_count=4,
                cpu_range=(10, 14), ram_range=(14, 20),
                uplink_capacity=30.0, downlink_capacity=90.0, seed=seed,
            ))
            got = solve_exact(inst).objective
            want = exhaustive_any_subset_optimum(inst)
            assert got == pytest.approx(want, abs=1e-9)

    def test_solution_is_feasible(self):
        for seed in range(6):
            inst = generate(small_config(seed + 50))
            result = solve_exact(inst)
            metrics = evaluate_solution(inst, result.solution)
            assert metrics.feasible
            assert metrics.total_reward == pytest.approx(result.objective)

    def test_unknown_mode_rejected(self):
        inst = make_instance(caps=slack_caps(1), reqs=[{"eps": 0.01}])
        with pytest.raises(ValueError, match="mode"):
            solve_exact(inst, mode="heuristic")

    def test_node_budget_raises_with_incumbent(self):
        inst = generate(GeneratorConfig(
            mec_count=3, request_count=10,
            cpu_range=(20, 24), ram_range=(24, 30),
            uplink_capacity=60.0, downlink_capacity=200.0, seed=3,
        ))
        full = solve_exact(inst, mode="exhaustive")
        with pytest.raises(OracleLimitError) as excinfo:
            solve_exact(inst, mode="exhaustive", max_nodes=5)
        err = excinfo.value
        assert err.nodes >= 5
        assert err.objective <= full.objective + 1e-9
        assert err.upper_bound >= full.objective - 1e-9
        assert isinstance(err.incumbent, IntegralSolution)

    def test_limit_error_survives_pickling(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}] * 3)
        err = OracleLimitError("budget", IntegralSolution.empty(inst), 1.5, 9.0, 77)
        back = pickle.loads(pickle.dumps(err))
        assert back.objective == 1.5 and back.nodes == 77
        assert back.upper_bound == 9.0

    def test_bad_limits_rejected(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.01}] * 3)
        with pytest.raises(ValueError, match="max_nodes must be positive"):
            solve_exact(inst, max_nodes=0)


def residual_instance(inst, req_ids, residual):
    """The requests ``req_ids`` alone, on nodes holding ``residual`` capacity."""
    mecs = [MecNode(m, *np.maximum(residual[:, m], 1e-9)) for m in range(inst.n_mecs)]
    requests = [dataclasses.replace(inst.requests[r], id=i) for i, r in enumerate(req_ids)]
    return ProblemInstance(mecs=mecs, requests=requests, failure_model=inst.failure_model,
                           replicas=[inst.replicas[r] for r in req_ids])


def random_residual_states():
    """Forty random partial assignments: instance, search order, depth k and
    the residual capacities (4 x M) the first k requests in order leave."""
    rng = np.random.default_rng(2024)
    for seed in range(40):
        inst = generate(GeneratorConfig(
            mec_count=int(rng.integers(2, 4)), request_count=6,
            cpu_range=(10, 18), ram_range=(14, 24),
            uplink_capacity=float(rng.uniform(25.0, 50.0)),
            downlink_capacity=float(rng.uniform(80.0, 160.0)), seed=seed,
        ))
        R, M = inst.n_requests, inst.n_mecs
        demand, residual = inst.demands, inst.capacities.copy()
        order = rng.permutation(R)
        k = int(rng.integers(2, R))
        for r in order[:k]:
            fitting = [list(c) for c in itertools.combinations(range(M), inst.replicas[r])
                       if (residual[:, list(c)] >= demand[:, r, None]).all()]
            if fitting and rng.random() < 0.7:
                residual[:, fitting[rng.integers(len(fitting))]] -= demand[:, r, None]
        yield inst, order, k, residual


def in_search_order(inst, order):
    """Rewards, demands (4 x R) and replica counts of the requests in ``order``."""
    return inst.reward_vector()[order], inst.demands[:, order], inst.replica_vector()[order]


class TestKnapsackBound:
    def test_bound_covers_the_residual_optimum(self):
        # random partial assignments: the bound over the undecided requests
        # must reach their optimum under the residual capacities
        below_reward_sum = 0
        for inst, order, k, residual in random_residual_states():
            knapsack = _KnapsackBound(*in_search_order(inst, order))
            bound = knapsack(k, [tuple(c) for c in residual.T.tolist()])
            want = exhaustive_any_subset_optimum(residual_instance(inst, order[k:], residual))
            assert bound >= want - 1e-9
            below_reward_sum += bound < inst.reward_vector()[order[k:]].sum() - 1e-9
        assert below_reward_sum >= 20   # the bound is tighter than the reward sum

    def test_bound_equals_the_reference_and_prunes_alike(self):
        # each state also with one node's cpu at -1e-12, float dust that the
        # fit test's tolerance lets a search leave behind
        rng = np.random.default_rng(7)
        for inst, order, k, residual in random_residual_states():
            knapsack = _KnapsackBound(*in_search_order(inst, order))
            dusted = residual.copy()
            dusted[0, rng.integers(inst.n_mecs)] = -1e-12
            for state in (residual, dusted):
                nodes = [tuple(c) for c in state.T.tolist()]
                want = knapsack_bound(*in_search_order(inst, order), k, nodes)
                assert knapsack(k, nodes) == want
                # what a residual scanned at a shallower depth tells holds at k
                for depth in range(k):
                    assert knapsack(k, nodes, knapsack.scan(depth, nodes)) == want
                for current in rng.uniform(0.0, 30.0, size=4).tolist():
                    reach = current + want
                    # an exact tie, best + _PRUNE_EPS == reach, the floats either side
                    # of it, and four random incumbents
                    tie = next(b for b in (reach - _PRUNE_EPS + n * math.ulp(reach)
                                           for n in range(-4, 5)) if b + _PRUNE_EPS == reach)
                    near = [math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf)]
                    for best in [tie, *near, *rng.uniform(0.0, 2 * reach, 4).tolist()]:
                        value = knapsack(k, nodes, prune=(current, best))
                        pruned = current + value <= best + _PRUNE_EPS
                        assert pruned == (reach <= best + _PRUNE_EPS)

    def test_request_without_enough_fitting_nodes_adds_nothing(self):
        # two copies needed, one node: the summed capacity would admit it
        inst = make_instance(caps=[{"c": 10}], reqs=[{"c": 3, "eps": 0.001, "reward": 7.0}])
        residual = inst.capacities
        bound = _KnapsackBound(inst.reward_vector(), inst.demands, inst.replica_vector())
        assert bound(0, [tuple(c) for c in residual.T.tolist()]) == 0.0
        assert bound(0, [tuple(c) for c in (2 * residual).T.tolist()]) == 0.0

    def test_negative_residual_adds_no_room(self):
        # node 0's cpu has gone below zero by float dust.  The cpu room is
        # node 1's 4 cores, which the 4-core request worth 10 fills: 10.  Node
        # 0 holds no copy and node 1 two (1 + 1 <= 4 < 1 + 1 + 4), so the
        # copy knapsack gives 10 + 1 = 11, and ram, uplink and downlink 12
        demand = np.array([[4.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        bound = _KnapsackBound(np.array([10.0, 1.0, 1.0]), demand, np.array([1, 1, 1]))
        dust, zero = (-1e-12, 10.0, 10.0, 10.0), (0.0, 10.0, 10.0, 10.0)
        free = (4.0, 10.0, 10.0, 10.0)
        assert bound(0, [dust, free]) == bound(0, [zero, free]) == 10.0
        assert bound.copy_room(0, [dust, free]) == bound.copy_room(0, [zero, free]) == 2

    def test_budget_error_reports_the_relaxed_optimum(self):
        # the least of the reward sum, the LP optimum and the root bound:
        # the bound at depth 0 on the full capacities
        inst = generate(small_config(4))
        with pytest.raises(OracleLimitError) as excinfo:
            solve_exact(inst, max_nodes=3)
        relaxed = solve_lp(build_relaxed_program(inst)).objective
        order = sorted(range(inst.n_requests), key=lambda r: (-inst.reward_vector()[r], r))
        root = knapsack_bound(*in_search_order(inst, order), 0,
                              [tuple(c) for c in inst.capacities.T.tolist()])
        assert excinfo.value.upper_bound == pytest.approx(
            min(inst.reward_vector().sum(), relaxed, root), rel=1e-12)
        assert excinfo.value.upper_bound >= solve_exact(inst, mode="exhaustive").objective

    def test_copy_room_never_undercounts(self):
        # the copy room may over-count, but never below the copies that
        # some sequence of the search's fit tests places on each node
        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(copy_states())
        @example(rounding_state(1.0, [3, 11, 4]))
        @example(rounding_state(1e9, [32, 5, 13]))
        def check(state):
            demand, k, nodes = state
            R = demand.shape[1]
            bound = _KnapsackBound(np.ones(R), demand, np.ones(R, dtype=int))
            want = sum(max_admitted_copies(demand, k, node) for node in nodes)
            assert bound.copy_room(k, nodes) >= want

        check()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6, 1e9])
    def test_modes_agree_on_exact_sum_capacities(self, scale):
        # one node holds exactly the summed load of three or four requests
        # whose demands are thirds of the scale, none exactly representable;
        # a decoy that fills the node alone is worth one less than all of
        # them, so the search finds them after the decoy's incumbent, and a
        # copy room one short of them would prune them
        rng = np.random.default_rng(33)
        for _ in range(400):
            n = int(rng.integers(3, 5))
            reqs = [{"c": c, "d": d, "up": up, "dw": dw, "reward": 3.0 + w / 10}
                    for (c, d, up, dw), w in zip((rng.integers(1, 41, size=(n, 4)) / 3 * scale)
                                                 .tolist(), rng.permutation(n).tolist())]
            cap = make_instance(caps=[(1.0,) * 4], reqs=reqs).loads(np.ones((n, 1), dtype=np.int8))
            decoy = {"c": cap[0, 0], "d": scale, "up": scale, "dw": scale,
                     "reward": sum(req["reward"] for req in reqs) - 1.0}
            inst = make_instance(caps=[tuple(cap[:, 0].tolist())], reqs=[decoy, *reqs],
                                 replicas=[1] * (n + 1))
            bb, ex = (solve_exact(inst, mode=mode) for mode in ("branch_and_bound", "exhaustive"))
            assert bb.objective == ex.objective
            assert (bb.solution.x == ex.solution.x).all()


@st.composite
def copy_states(draw):
    """Demands (4 x R) of up to 5 requests in thirds or tenths of a scale
    from 1e-3 to 1e9, a depth k and up to 3 node residuals: random, or per
    resource either ample or the exact sum of some requests' demands from k
    on (added in another order than the sorted running sums), or such a
    node with one resource at -1e-12, float dust the fit test lets a search
    leave behind."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6, 1e9]))
    unit = draw(st.sampled_from([3, 10]))
    R = draw(st.integers(1, 5))
    demand = [[draw(st.integers(1, 40)) / unit * scale for _ in range(R)] for _ in RESOURCES]
    k = draw(st.integers(0, R - 1))
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "exact sum", "dust"]))
        if kind == "random":
            node = [draw(st.integers(0, 120)) / unit * scale for _ in RESOURCES]
        else:
            held = draw(st.lists(st.integers(k, R - 1), min_size=1, max_size=4, unique=True))
            node = [sum(row[i] for i in held) if draw(st.booleans()) else 200 * scale
                    for row in demand]
            if kind == "dust":
                node[draw(st.integers(0, 3))] = -1e-12
        nodes.append(tuple(node))
    return np.array(demand), k, nodes


def rounding_state(scale, thirds):
    """One node whose cpu is the sum of three cpu demands, thirds of the
    scale added in the given order, and whose other resources are ample:
    the smallest-first running sum rounds above it, yet some order of fit
    tests places all three."""
    cpu = [v / 3 * scale for v in thirds]
    demand = np.array([cpu] + [[scale] * len(cpu)] * 3)
    return demand, 0, [(sum(cpu), 100 * scale, 100 * scale, 100 * scale)]


def placement_rows(sol):
    return ["".join(map(str, row)) for row in sol.x.tolist()]


def hetero_config(seed):
    return GeneratorConfig(mec_count=3, request_count=9, cpu_range=(10, 20),
                           ram_range=(14, 26), uplink_capacity=45.0,
                           downlink_capacity=150.0, seed=seed)


def identical_config(seed):
    return GeneratorConfig(mec_count=4, request_count=8, cpu_range=(14, 14),
                           ram_range=(20, 20), uplink_capacity=40.0,
                           downlink_capacity=130.0, seed=seed)


class TestNodeSymmetry:
    def test_identical_nodes_are_searched_once(self):
        # a twin whose capacities differ by 1e-9 m has no interchangeable nodes
        for seed in range(3):
            inst = generate(dataclasses.replace(identical_config(seed), request_count=7))
            mecs = [dataclasses.replace(node, **{f"{res}_capacity": node.capacity(res) + 1e-9 * m
                                                 for res in RESOURCES})
                    for m, node in enumerate(inst.mecs)]
            twin = ProblemInstance(mecs=mecs, requests=inst.requests,
                                   failure_model=inst.failure_model, replicas=inst.replicas)
            for mode in ("branch_and_bound", "exhaustive"):
                same, perturbed = solve_exact(inst, mode=mode), solve_exact(twin, mode=mode)
                assert same.objective == perturbed.objective
                assert (same.solution.x == perturbed.solution.x).all()
                assert same.nodes < perturbed.nodes


# optimum and placement rows (one 0/1 digit per node) as found by the search
# with a simplex bound per node and no symmetry rule, in both modes; then the
# nodes the search with the knapsack bound and the symmetry rule visits, per mode
PINNED = [
    (hetero_config(11), 28.90696567032899,
     ["000", "000", "010", "000", "101", "000", "001", "000", "010"],
     {"branch_and_bound": 110, "exhaustive": 573}),
    (hetero_config(12), 22.739974384698996,
     ["000", "110", "101", "000", "000", "000", "011", "000", "000"],
     {"branch_and_bound": 565, "exhaustive": 2148}),
    (hetero_config(13), 29.18794913450685,
     ["000", "000", "001", "000", "000", "100", "110", "000", "001"],
     {"branch_and_bound": 17, "exhaustive": 926}),
    (identical_config(21), 36.54308142168607,
     ["1100", "0000", "0010", "0000", "0000", "0001", "1100", "0011"],
     {"branch_and_bound": 16, "exhaustive": 530}),
    (identical_config(22), 35.47010574756578,
     ["0000", "0010", "1100", "0001", "0011", "0000", "0000", "1100"],
     {"branch_and_bound": 21, "exhaustive": 737}),
    (identical_config(23), 29.374977556781687,
     ["0011", "0000", "0000", "0000", "0110", "1100", "0000", "1000"],
     {"branch_and_bound": 419, "exhaustive": 1216}),
]

# the 14-request, 4-node fixed-capacity instance below, as solved by the
# exhaustive search without the symmetry rule (4.1 million nodes), and the
# nodes the default mode visits on it
FIXED_14X4_OPTIMUM = 57.9053707857995
FIXED_14X4_ROWS = ["0000", "1000", "0000", "0000", "0011", "1000", "1100",
                   "0000", "0110", "0000", "0000", "0001", "0001", "0110"]
FIXED_14X4_NODES = 6004


class TestRegressionPins:
    @pytest.mark.parametrize("mode", ["branch_and_bound", "exhaustive"])
    @pytest.mark.parametrize("cfg, objective, rows, nodes", PINNED,
                             ids=[f"{len(rows[0])}x{cfg.seed}" for cfg, _, rows, _ in PINNED])
    def test_pinned_optimum_and_placement(self, cfg, objective, rows, nodes, mode):
        result = solve_exact(generate(cfg), mode=mode)
        assert result.objective == pytest.approx(objective, abs=1e-9)
        assert placement_rows(result.solution) == rows
        assert result.nodes == nodes[mode]

    @pytest.mark.parametrize("cfg", [cfg for cfg, *_ in PINNED],
                             ids=[f"{len(rows[0])}x{cfg.seed}" for cfg, _, rows, _ in PINNED])
    def test_pinned_optimum_equals_the_milp_referee(self, cfg):
        inst = generate(cfg)
        assert solve_exact(inst).objective == pytest.approx(milp_optimum(inst), rel=1e-9)

    def test_fixed_capacity_14x4_within_default_budget(self):
        inst = generate(GeneratorConfig(
            mec_count=4, request_count=14, cpu_range=(20, 20), ram_range=(24, 24),
            uplink_capacity=60.0, downlink_capacity=200.0, seed=0,
        ))
        result = solve_exact(inst)
        assert result.nodes == FIXED_14X4_NODES <= DEFAULT_MAX_NODES
        assert result.objective == pytest.approx(FIXED_14X4_OPTIMUM, abs=1e-9)
        assert placement_rows(result.solution) == FIXED_14X4_ROWS
        assert evaluate_solution(inst, result.solution).feasible

    def test_16x4_seed_0_within_default_budget(self):
        # the copy knapsack proves it in about 10,000 nodes; the four
        # resource knapsacks alone ran out of the default budget
        inst = generate(GeneratorConfig(request_count=16, mec_count=4, seed=0))
        result = solve_exact(inst)
        assert result.nodes == 10_258 <= DEFAULT_MAX_NODES
        assert result.objective == pytest.approx(90.04841641694479, abs=1e-9)
        assert result.objective == pytest.approx(milp_optimum(inst), rel=1e-9)

    def test_16x4_seed_1_equals_the_milp_referee(self):
        inst = generate(GeneratorConfig(request_count=16, mec_count=4, seed=1))
        result = solve_exact(inst)
        assert result.nodes == 57_889
        assert result.objective == pytest.approx(111.8212319974743, abs=1e-9)
        assert result.objective == pytest.approx(milp_optimum(inst), rel=1e-9)


def oracle_small_instances():
    """The sixteen 8-request, 3-node instances of the benchmark's oracle-small
    workload: heterogeneous nodes (uplink and downlink capacities drawn from
    seed 424) alternating with identical ones, generator seeds 0-7 each."""
    caps = np.random.default_rng(424).uniform((25.0, 80.0), (60.0, 200.0), size=(8, 2))
    hetero = [GeneratorConfig(mec_count=3, request_count=8, cpu_range=(10, 20),
                              ram_range=(14, 26), uplink_capacity=float(up),
                              downlink_capacity=float(dw), seed=s)
              for s, (up, dw) in enumerate(caps.tolist())]
    identical = [GeneratorConfig(mec_count=3, request_count=8, cpu_range=(15, 15),
                                 ram_range=(20, 20), uplink_capacity=40.0,
                                 downlink_capacity=140.0, seed=s) for s in range(8)]
    return [generate(cfg) for pair in zip(hetero, identical) for cfg in pair]


# per oracle-small instance: the optimum, then the nodes each mode visits
# (693 in all for branch_and_bound, 8,331 for exhaustive)
ORACLE_SMALL = [
    (22.688634738107005, {"branch_and_bound": 109, "exhaustive": 882}),
    (29.48398768382539, {"branch_and_bound": 14, "exhaustive": 330}),
    (30.177603509248353, {"branch_and_bound": 17, "exhaustive": 1165}),
    (30.177603509248353, {"branch_and_bound": 14, "exhaustive": 254}),
    (22.85174562342294, {"branch_and_bound": 143, "exhaustive": 793}),
    (29.80453360656479, {"branch_and_bound": 14, "exhaustive": 329}),
    (34.93522057349436, {"branch_and_bound": 18, "exhaustive": 783}),
    (28.95925779262344, {"branch_and_bound": 104, "exhaustive": 320}),
    (29.777545077785305, {"branch_and_bound": 37, "exhaustive": 694}),
    (29.777545077785305, {"branch_and_bound": 14, "exhaustive": 304}),
    (27.841034741908533, {"branch_and_bound": 17, "exhaustive": 609}),
    (27.841034741908533, {"branch_and_bound": 14, "exhaustive": 146}),
    (28.442578547560085, {"branch_and_bound": 45, "exhaustive": 508}),
    (28.442578547560085, {"branch_and_bound": 14, "exhaustive": 240}),
    (28.752068569373954, {"branch_and_bound": 95, "exhaustive": 737}),
    (35.035413298648095, {"branch_and_bound": 24, "exhaustive": 237}),
]


class TestBenchmarkSearch:
    @pytest.mark.parametrize("mode", ["branch_and_bound", "exhaustive"])
    def test_oracle_small_optima_and_node_counts(self, mode):
        results = [solve_exact(inst, mode=mode) for inst in oracle_small_instances()]
        assert [r.objective for r in results] == pytest.approx(
            [objective for objective, _ in ORACLE_SMALL], abs=1e-9)
        assert [r.nodes for r in results] == [nodes[mode] for _, nodes in ORACLE_SMALL]


@st.composite
def tiny_instances(draw):
    """Up to 5 requests on up to 3 nodes, demands in tenths (whose sums carry
    float dust), integer rewards; capacities random, identical on every node,
    or the sum of two to four requests' demands, so copies can fill a node to
    within the fit test's 1e-12 floor."""
    M, R = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    tenths = st.integers(1, 40).map(lambda v: v / 10)
    demands = [tuple(draw(tenths) for _ in RESOURCES) for _ in range(R)]
    kind = draw(st.sampled_from(["random", "identical", "exact sums"]))
    if kind == "random":
        caps = [tuple(draw(tenths) * 3 for _ in RESOURCES) for _ in range(M)]
    elif kind == "identical":
        caps = [tuple(draw(tenths) * 3 for _ in RESOURCES)] * M
    else:
        caps = []
        for _ in range(M):
            held = draw(st.lists(st.integers(0, R - 1), min_size=2, max_size=4))
            caps.append(tuple(sum(demands[r][j] for r in reversed(held)) for j in range(4)))
    reqs = [{"c": c, "d": d, "up": up, "dw": dw, "reward": float(draw(st.integers(0, 9)))}
            for c, d, up, dw in demands]
    replicas = [draw(st.integers(1, 3)) for _ in range(R)]
    return make_instance(caps=caps, reqs=reqs, replicas=replicas)


class TestProperties:
    def test_both_modes_match_the_any_subset_reference(self):
        @settings(derandomize=True, max_examples=100, deadline=None, database=None)
        @given(tiny_instances())
        def check(inst):
            want = exhaustive_any_subset_optimum(inst)
            bb, ex = (solve_exact(inst, mode=mode) for mode in ("branch_and_bound", "exhaustive"))
            for result in (bb, ex):
                assert result.objective == pytest.approx(want, abs=1e-9)
                metrics = evaluate_solution(inst, result.solution)
                assert metrics.feasible
                assert metrics.total_reward == pytest.approx(result.objective, abs=1e-9)
            assert bb.nodes <= ex.nodes

        check()


class TestBaselineHelpers:
    def test_strip_availability_forces_single_copies(self):
        inst = generate(GeneratorConfig(request_count=20, seed=2))
        stripped = strip_availability(inst)
        assert all(n == 1 for n in stripped.replicas)
        assert stripped.requests == inst.requests
        assert stripped.mecs == inst.mecs
        assert any(n > 1 for n in inst.replicas)  # original untouched

    def test_true_replica_evaluation_drops_short_requests(self):
        inst = make_instance(
            caps=slack_caps(2),
            reqs=[{"eps": 0.001, "reward": 6.0}, {"eps": 0.01, "reward": 4.0}],
        )
        # request 0 needs 2 copies but holds 1: it must not count as served,
        # and its copy stays behind as waste
        sol = IntegralSolution(x=np.array([[1, 0], [0, 1]], dtype=np.int8),
                               y=np.array([1, 1], dtype=np.int8))
        adjusted, metrics = evaluate_with_true_replicas(inst, sol)
        assert adjusted.y.tolist() == [0, 1]
        assert adjusted.x[0].tolist() == [1, 0]
        assert metrics.total_reward == pytest.approx(4.0)
        assert metrics.feasible
        assert (0, 0) in metrics.wasted_placements

    def test_true_replica_evaluation_keeps_satisfied_requests(self):
        inst = make_instance(caps=slack_caps(2), reqs=[{"eps": 0.001, "reward": 6.0}])
        sol = IntegralSolution(x=np.array([[1, 1]], dtype=np.int8),
                               y=np.array([1], dtype=np.int8))
        adjusted, metrics = evaluate_with_true_replicas(inst, sol)
        assert adjusted.y.tolist() == [1]
        assert metrics.total_reward == pytest.approx(6.0)


class TestAgainstRelaxation:
    def test_lp_exact_greedy_sandwich(self):
        from vnfplace.repair import greedy_repair
        from vnfplace.rounding import randomized_round

        for seed in range(8):
            inst = generate(small_config(seed + 100))
            frac = solve_lp(build_relaxed_program(inst))
            exact = solve_exact(inst)
            assert frac.objective >= exact.objective - 1e-6
            rounded = randomized_round(frac, inst, seed=0)
            fixed = greedy_repair(inst, rounded)
            greedy_val = evaluate_solution(inst, fixed).total_reward
            assert greedy_val <= exact.objective + 1e-9

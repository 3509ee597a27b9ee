import itertools

import numpy as np
import pytest
import yaml
from scipy import stats

from vnfplace.gen import (DEFAULT_UPF_SPECS, MANDATORY_UPFS, OPTIONAL_UPFS, GeneratorConfig,
                          generate)
from vnfplace.model import instance_to_dict, required_replicas


class TestCatalog:
    def test_default_footprints(self):
        assert DEFAULT_UPF_SPECS["NAT"] == (1, 1)
        assert DEFAULT_UPF_SPECS["FW"] == (2, 3)
        assert DEFAULT_UPF_SPECS["IDPS"] == (2, 2)
        assert DEFAULT_UPF_SPECS["TM"] == (1, 3)
        assert DEFAULT_UPF_SPECS["VOC"] == (2, 2)
        assert DEFAULT_UPF_SPECS["WOC"] == (1, 2)

    def test_exemplar_chain_sums(self):
        inst = generate(GeneratorConfig(mec_count=1, request_count=60, seed=9))
        demands = {req.upf_chain: (req.cpu_demand, req.ram_demand) for req in inst.requests}
        assert demands[("NAT", "FW", "IDPS", "TM")] == (6, 9)
        assert demands[("NAT", "FW", "VOC", "WOC")] == (6, 8)

    def test_chain_hull_from_exhaustive_enumeration(self):
        # all C(4,2)=6 chains, enumerated here independently of the generator
        cpus, rams = set(), set()
        for pair in itertools.combinations(OPTIONAL_UPFS, 2):
            chain = MANDATORY_UPFS + pair
            cpus.add(sum(DEFAULT_UPF_SPECS[u][0] for u in chain))
            rams.add(sum(DEFAULT_UPF_SPECS[u][1] for u in chain))
        assert cpus == {5, 6, 7}
        assert rams == {8, 9}


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = generate(GeneratorConfig(seed=42))
        b = generate(GeneratorConfig(seed=42))
        assert instance_to_dict(a) == instance_to_dict(b)

    def test_different_seeds_differ(self):
        a = generate(GeneratorConfig(seed=1))
        b = generate(GeneratorConfig(seed=2))
        assert instance_to_dict(a) != instance_to_dict(b)

    def test_request_prefix_stable_under_count(self):
        small = generate(GeneratorConfig(request_count=20, seed=8))
        large = generate(GeneratorConfig(request_count=50, seed=8))
        for a, b in zip(small.requests, large.requests[:20]):
            assert a == b

    def test_capacity_ranges(self):
        inst = generate(GeneratorConfig(seed=3))
        assert inst.n_mecs == 10
        for mec in inst.mecs:
            assert 32 <= mec.cpu_capacity <= 56
            assert mec.cpu_capacity == int(mec.cpu_capacity)
            assert 32 <= mec.ram_capacity <= 80
            assert mec.ram_capacity == int(mec.ram_capacity)
            assert mec.uplink_capacity == 75.0
            assert mec.downlink_capacity == 250.0

    def test_request_fields_within_hull(self):
        inst = generate(GeneratorConfig(request_count=300, seed=4))
        for req in inst.requests:
            assert req.cpu_demand in (5, 6, 7)
            assert req.ram_demand in (8, 9)
            assert 6.0 <= req.uplink_demand < 15.0
            assert 20.0 <= req.downlink_demand < 40.0
            assert req.failure_threshold in (0.01, 0.001, 0.0001)
            # rewards: base in [6, 8) scaled by availability in (0.99, 1)
            assert 5.94 <= req.reward < 8.0
            assert req.upf_chain[:2] == ("NAT", "FW")

    def test_replicas_follow_thresholds(self):
        inst = generate(GeneratorConfig(request_count=40, seed=6))
        for req, count in zip(inst.requests, inst.replicas):
            assert count == required_replicas(inst.failure_model, req.failure_threshold)
        assert set(inst.replicas) <= {1, 2}

    def test_optional_pair_uniformity(self):
        # 6 unordered pairs should be equally likely; chi-square at 1%
        inst = generate(GeneratorConfig(mec_count=1, request_count=10_000, seed=12))
        pairs = {}
        for req in inst.requests:
            key = tuple(sorted(req.upf_chain[2:]))
            pairs[key] = pairs.get(key, 0) + 1
        assert len(pairs) == 6
        counts = np.array(list(pairs.values()), dtype=float)
        expected = counts.sum() / 6.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=5)

    def test_threshold_levels_roughly_balanced(self):
        inst = generate(GeneratorConfig(mec_count=1, request_count=3000, seed=13))
        eps = np.array([r.failure_threshold for r in inst.requests])
        for level in (0.01, 0.001, 0.0001):
            share = float((eps == level).mean())
            assert 0.28 < share < 0.39

    def test_custom_availability_levels(self):
        cfg = GeneratorConfig(request_count=30, availability_levels=(0.95,), seed=2)
        inst = generate(cfg)
        assert all(r.failure_threshold == 0.05 for r in inst.requests)


class TestConfigValidation:
    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="cpu_range"):
            GeneratorConfig(cpu_range=(56, 32)).validate()

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="availability"):
            GeneratorConfig(availability_levels=(1.0,)).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            GeneratorConfig(seed=-1).validate()

    def test_from_dict_roundtrip(self):
        text = ("version: 1\nmec_count: 4\nrequest_count: 7\nseed: 5\n"
                "cpu_range: [40, 48]\nuplink_capacity: 62.5\n")
        assert GeneratorConfig.from_dict(yaml.safe_load(text)) == GeneratorConfig(
            mec_count=4, request_count=7, seed=5, cpu_range=(40, 48), uplink_capacity=62.5)

    @pytest.mark.parametrize("overrides,field", [
        ({"request_count": 12.7}, "request_count"),
        ({"cpu_range": (32.9, 33.9)}, "cpu_range"),
        ({"ram_range": (32, 48.5)}, "ram_range"),
    ])
    def test_counts_and_bounds_must_be_whole(self, overrides, field):
        with pytest.raises(ValueError, match=f"{field} must hold whole numbers"):
            GeneratorConfig(**overrides).validate()

    @pytest.mark.parametrize("field,value", [
        ("cpu_range", [40]), ("ram_range", [32, 48, 64]), ("reward_base_range", [6.0]),
        ("uplink_demand_range", []), ("downlink_demand_range", [20.0, 30.0, 40.0]),
    ])
    def test_ranges_hold_exactly_two_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must hold exactly two values"):
            GeneratorConfig.from_dict({field: value})
        with pytest.raises(ValueError, match=f"^{field} must hold exactly two values"):
            GeneratorConfig(**{field: tuple(value)}).validate()

    def test_whole_floats_pass(self):
        cfg = GeneratorConfig(request_count=12.0, cpu_range=(40.0, 40.0), mec_count=3)
        inst = generate(cfg)
        assert inst.n_requests == 12
        assert [m.cpu_capacity for m in inst.mecs] == [40, 40, 40]

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            GeneratorConfig.from_dict({"mec_count": 3, "mystery": 1})

    def test_from_dict_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            GeneratorConfig.from_dict({"version": 9})

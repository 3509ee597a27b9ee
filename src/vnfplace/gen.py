"""Seeded random instance generation for the simulated edge deployment.

Every request carries a user-plane function chain: the mandatory pair
``MANDATORY_UPFS`` (NAT, FW) plus two functions of ``OPTIONAL_UPFS`` drawn
uniformly without replacement, so its CPU and RAM demands are the sums of the
chain's ``DEFAULT_UPF_SPECS`` footprints rather than free ranges.  Node
capacities, link demands, availability classes and rewards follow the
deployment defaults baked into ``GeneratorConfig``.

Request k is generated from its own derived random stream, so the first k
requests of a seed are identical no matter how many requests are asked for.
"""

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .model import FailureModel, MecNode, ProblemInstance, ServiceRequest, check_type

# (cpu cores, ram GB) per user-plane function
DEFAULT_UPF_SPECS = {
    "IDPS": (2, 2),
    "FW": (2, 3),
    "NAT": (1, 1),
    "TM": (1, 3),
    "VOC": (2, 2),
    "WOC": (1, 2),
}
MANDATORY_UPFS = ("NAT", "FW")
OPTIONAL_UPFS = ("IDPS", "TM", "VOC", "WOC")

GENERATOR_SCHEMA_VERSION = 1

# sub-stream tags so node and request draws never share a stream
_MEC_STREAM = 0
_REQUEST_STREAM = 1


@dataclass
class GeneratorConfig:
    """Knobs for one random instance; defaults mirror the simulated deployment."""

    mec_count: int = 10
    cpu_range: tuple[float, ...] = (32, 56)
    ram_range: tuple[float, ...] = (32, 80)
    uplink_capacity: float = 75.0
    downlink_capacity: float = 250.0
    request_count: int = 50
    availability_levels: tuple[float, ...] = (0.99, 0.999, 0.9999)
    reward_base_range: tuple[float, ...] = (6.0, 8.0)
    uplink_demand_range: tuple[float, ...] = (6.0, 15.0)
    downlink_demand_range: tuple[float, ...] = (20.0, 40.0)
    vnf_failure: float = 0.001
    pm_failure: float = 0.004
    seed: int = 0

    def validate(self) -> None:
        ranges = ("cpu_range", "ram_range", "reward_base_range",
                  "uplink_demand_range", "downlink_demand_range")
        for name in ranges:
            if np.shape(getattr(self, name)) != (2,):
                raise ValueError(f"{name} must hold exactly two values (low, high), "
                                 f"got {getattr(self, name)}")
        if self.mec_count < 1:
            raise ValueError("mec_count must be at least 1")
        if self.request_count < 0:
            raise ValueError("request_count must be nonnegative")
        for name in ("request_count", "cpu_range", "ram_range"):    # counts, cores and GB
            if np.any(np.mod(getattr(self, name), 1) != 0):
                raise ValueError(f"{name} must hold whole numbers, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ranges:
            lo, hi = getattr(self, name)
            if lo > hi or lo <= 0:
                raise ValueError(f"{name}: bad range ({lo}, {hi})")
        if self.uplink_capacity <= 0 or self.downlink_capacity <= 0:
            raise ValueError("link capacities must be positive")
        if not self.availability_levels:
            raise ValueError("at least one availability level required")
        for level in self.availability_levels:
            if not 0.0 < level < 1.0:
                raise ValueError(f"availability level {level} must lie in (0, 1)")
        # raises InvalidModelError on a bad split
        FailureModel(self.vnf_failure, self.pm_failure)

    @classmethod
    def from_dict(cls, data: dict):
        return config_from_dict(cls, data, GENERATOR_SCHEMA_VERSION, "generator")


def config_from_dict(cls, data, version: int, kind: str, nested=None):
    """The validated ``cls`` config that ``data``, plain values as read from
    YAML, describes.  ``nested`` maps a field to the parser of its value, if
    not None; only a field whose default is None may be null."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} config must be a mapping")
    data = dict(data)
    found = data.pop("version", version)
    if found != version:
        raise ValueError(f"unsupported {kind} config version: {found!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {kind} config keys: {sorted(unknown, key=str)}")
    kwargs = {}
    for name, value in data.items():
        if value is None and declared[name].default is not None:
            raise ValueError(f"{kind} config key {name!r} must not be null")
        if value is not None and name in (nested or {}):
            value = nested[name](value)
        elif value is not None:
            check_type(f"{kind} config key {name!r}", value, declared[name])
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    cfg = cls(**kwargs)
    cfg.validate()
    return cfg


def generate(cfg: GeneratorConfig) -> ProblemInstance:
    """Draw one instance from the config's seeded streams."""
    cfg.validate()
    fm = FailureModel(cfg.vnf_failure, cfg.pm_failure)

    mec_rng = np.random.default_rng([_MEC_STREAM, cfg.seed])
    mecs = []
    for m in range(cfg.mec_count):
        cpu = int(mec_rng.integers(int(cfg.cpu_range[0]), int(cfg.cpu_range[1]) + 1))
        ram = int(mec_rng.integers(int(cfg.ram_range[0]), int(cfg.ram_range[1]) + 1))
        mecs.append(MecNode(id=m, cpu_capacity=cpu, ram_capacity=ram,
                            uplink_capacity=cfg.uplink_capacity,
                            downlink_capacity=cfg.downlink_capacity))

    # exact decimal thresholds, not 1 - level float residue
    thresholds = [round(1.0 - level, 12) for level in cfg.availability_levels]
    (base_lo, base_span), (up_lo, up_span), (dw_lo, dw_span) = (
        (float(lo), float(hi) - float(lo)) for lo, hi in
        (cfg.reward_base_range, cfg.uplink_demand_range, cfg.downlink_demand_range))
    # per pick of two optional functions: the chain, its cpu and its ram
    chains = {}
    for pick in itertools.permutations(range(len(OPTIONAL_UPFS)), 2):
        chain = MANDATORY_UPFS + tuple(OPTIONAL_UPFS[i] for i in sorted(pick))
        chains[pick] = (chain, sum(DEFAULT_UPF_SPECS[u][0] for u in chain),
                        sum(DEFAULT_UPF_SPECS[u][1] for u in chain))
    requests = []
    for k in range(int(cfg.request_count)):
        rng = np.random.default_rng([_REQUEST_STREAM, cfg.seed, k])
        chain, cpu, ram = chains[tuple(rng.choice(len(OPTIONAL_UPFS), size=2,
                                                  replace=False).tolist())]
        eps_r = thresholds[int(rng.integers(len(thresholds)))]
        # three uniforms in one call, each scaled as Generator.uniform scales
        # its draw: low + (high - low) * u
        u0, u1, u2 = rng.random(3).tolist()
        base, up, dw = base_lo + base_span * u0, up_lo + up_span * u1, dw_lo + dw_span * u2
        requests.append(ServiceRequest(
            id=k, cpu_demand=cpu, ram_demand=ram,
            uplink_demand=up, downlink_demand=dw,
            failure_threshold=eps_r, reward=base * (1.0 - eps_r),
            upf_chain=chain,
        ))

    return ProblemInstance.from_parts(mecs, requests, fm)

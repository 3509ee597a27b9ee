"""Domain types for availability-aware placement of service function chains.

An instance couples edge nodes (CPU, RAM, uplink and downlink capacities)
with service requests (per-resource demands, a failure threshold, a reward)
under a shared failure model.  Each hosted copy of a request's chain fails
independently with probability eps_m = vnf_failure + pm_failure, so a request
that tolerates at most failure probability eps_r needs

    replicas = ceil(ln(eps_r) / ln(eps_m))

copies on distinct nodes (clamped to at least 1).

Solutions are binary placement matrices x (request by node) plus a served
flag y per request.  ``evaluate_solution`` scores a binary solution against
every placement constraint and reports reward, violations and wasted
placements (copies of requests that are not served).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

RESOURCES = ("cpu", "ram", "uplink", "downlink")

INSTANCE_SCHEMA_VERSION = 1
SOLUTION_SCHEMA_VERSION = 1

# slack when comparing float loads against capacities
FEAS_EPS = 1e-9


class VnfplaceError(Exception):
    """Base class of the errors this package raises.  Each subclass also
    keeps the builtin base (``ValueError`` or ``RuntimeError``) it is caught
    by elsewhere; ``cli.main`` maps each to an exit code."""


class InvalidModelError(VnfplaceError, ValueError):
    """Failure probabilities that cannot support replica sizing."""


class InfeasibleSolutionError(VnfplaceError, RuntimeError):
    """A solver stage returned a solution that fails its own feasibility check."""


@dataclass(frozen=True)
class MecNode:
    """One edge node with four capacity dimensions."""

    id: int
    cpu_capacity: float
    ram_capacity: float
    uplink_capacity: float
    downlink_capacity: float

    def __post_init__(self):
        for res in RESOURCES:
            if self.capacity(res) <= 0:
                raise ValueError(f"mec {self.id}: {res} capacity must be positive")

    def capacity(self, resource: str) -> float:
        return getattr(self, resource + "_capacity")


@dataclass(frozen=True)
class ServiceRequest:
    """One service request: four demands, a failure threshold, a reward."""

    id: int
    cpu_demand: float
    ram_demand: float
    uplink_demand: float
    downlink_demand: float
    failure_threshold: float
    reward: float
    upf_chain: tuple = ()

    def __post_init__(self):
        for res in RESOURCES:
            if self.demand(res) <= 0:
                raise ValueError(f"request {self.id}: {res} demand must be positive")
        if not 0.0 < self.failure_threshold < 1.0:
            raise ValueError(f"request {self.id}: failure threshold must lie in (0, 1)")
        if self.reward < 0:
            raise ValueError(f"request {self.id}: reward must be nonnegative")

    def demand(self, resource: str) -> float:
        return getattr(self, resource + "_demand")


@dataclass(frozen=True)
class FailureModel:
    """Independent per-copy failure probability, split into VNF and host parts."""

    vnf_failure: float
    pm_failure: float

    def __post_init__(self):
        if self.vnf_failure < 0 or self.pm_failure < 0:
            raise InvalidModelError("failure probabilities must be nonnegative")
        total = self.vnf_failure + self.pm_failure
        if not 0.0 < total < 1.0:
            raise InvalidModelError(
                f"combined failure probability {total} must lie strictly in (0, 1)"
            )


def service_failure_prob(fm: FailureModel) -> float:
    """Probability that one hosted copy fails: vnf_failure + pm_failure.
    ``FailureModel`` is frozen and checked on construction to lie in (0, 1)."""
    return fm.vnf_failure + fm.pm_failure


def required_replicas(fm: FailureModel, failure_threshold: float) -> int:
    """Fewest independent copies keeping loss probability below the threshold.

    With per-copy failure eps_m, k copies all fail with probability eps_m**k,
    so the requirement eps_m**k <= eps_r gives k = ceil(ln eps_r / ln eps_m).
    Ratios within 1e-9 of an integer are snapped before the ceil so that
    thresholds like eps_m**2 do not round up an extra copy.  Never below 1.
    """
    if not 0.0 < failure_threshold < 1.0:
        raise ValueError("failure threshold must lie strictly in (0, 1)")
    eps_m = service_failure_prob(fm)
    ratio = math.log(failure_threshold) / math.log(eps_m)
    nearest = round(ratio)
    count = int(nearest) if abs(ratio - nearest) < 1e-9 else math.ceil(ratio)
    return max(1, count)


@dataclass
class ProblemInstance:
    """Nodes, requests, failure model, and per-request replica counts.

    Ids must equal list positions (0..n-1); matrices across the package index
    requests by row and nodes by column.  Treat instances as immutable after
    construction: demand and capacity vectors are cached on first use.
    """

    mecs: list
    requests: list
    failure_model: FailureModel
    replicas: list
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for pos, mec in enumerate(self.mecs):
            if mec.id != pos:
                raise ValueError("mec ids must be 0..M-1 in list order")
        for pos, req in enumerate(self.requests):
            if req.id != pos:
                raise ValueError("request ids must be 0..R-1 in list order")
        if len(self.replicas) != len(self.requests):
            raise ValueError("one replica count per request required")
        if any(k < 1 for k in self.replicas):
            raise ValueError("replica counts must be at least 1")

    @classmethod
    def from_parts(cls, mecs, requests, failure_model):
        """Build an instance, deriving replica counts from the failure model."""
        replicas = [required_replicas(failure_model, r.failure_threshold) for r in requests]
        return cls(mecs=list(mecs), requests=list(requests),
                   failure_model=failure_model, replicas=replicas)

    @property
    def n_mecs(self) -> int:
        return len(self.mecs)

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def demand_vector(self, resource: str) -> np.ndarray:
        key = "d_" + resource
        if key not in self._cache:
            self._cache[key] = np.array([r.demand(resource) for r in self.requests], dtype=float)
        return self._cache[key]

    def capacity_vector(self, resource: str) -> np.ndarray:
        key = "c_" + resource
        if key not in self._cache:
            self._cache[key] = np.array([m.capacity(resource) for m in self.mecs], dtype=float)
        return self._cache[key]

    def reward_vector(self) -> np.ndarray:
        if "rewards" not in self._cache:
            self._cache["rewards"] = np.array([r.reward for r in self.requests], dtype=float)
        return self._cache["rewards"]

    def replica_vector(self) -> np.ndarray:
        if "replicas" not in self._cache:
            self._cache["replicas"] = np.array(self.replicas, dtype=int)
        return self._cache["replicas"]


@dataclass
class IntegralSolution:
    """Binary placement matrix x (R by M) and served flags y (R)."""

    x: np.ndarray
    y: np.ndarray

    @classmethod
    def empty(cls, inst: ProblemInstance):
        return cls(x=np.zeros((inst.n_requests, inst.n_mecs), dtype=np.int8),
                   y=np.zeros(inst.n_requests, dtype=np.int8))


@dataclass
class FractionalSolution:
    """Relaxed placement: x and y entries in [0, 1], plus the relaxed objective."""

    x: np.ndarray
    y: np.ndarray
    objective: float


@dataclass
class SolutionMetrics:
    """Outcome of scoring a binary solution against one instance.

    ``violated_constraints`` holds (kind, index, overshoot) tuples where kind
    is "redundancy" (index = request id, overshoot = missing copies) or a
    resource name (index = mec id, overshoot = load minus capacity).
    ``wasted_placements`` lists (request, mec) pairs that hold resources for
    requests that are not served; they are legal but earn nothing.
    """

    total_reward: float
    served_count: int
    feasible: bool
    violated_constraints: list
    wasted_placements: list


def evaluate_solution(inst: ProblemInstance, sol: IntegralSolution) -> SolutionMetrics:
    """Score a binary solution: reward, feasibility, waste."""
    x = np.asarray(sol.x)
    y = np.asarray(sol.y)
    if x.shape != (inst.n_requests, inst.n_mecs) or y.shape != (inst.n_requests,):
        raise ValueError(
            f"solution shape {x.shape}/{y.shape} does not match instance "
            f"({inst.n_requests} requests, {inst.n_mecs} mecs)"
        )
    for arr in (x, y):
        vals = np.unique(arr)
        if not np.isin(vals, (0, 1)).all():
            raise ValueError("integral solutions must be 0/1 valued")

    violations = []
    # each served request needs its replica count, on distinct nodes
    placed = x.sum(axis=1)
    need = inst.replica_vector()
    for r in np.flatnonzero(y == 1):
        if placed[r] < need[r]:
            violations.append(("redundancy", int(r), float(need[r] - placed[r])))

    for res in RESOURCES:
        load = inst.demand_vector(res) @ x
        cap = inst.capacity_vector(res)
        for m in np.flatnonzero(load > cap + FEAS_EPS):
            violations.append((res, int(m), float(load[m] - cap[m])))

    wasted = [(int(r), int(m)) for r, m in zip(*np.nonzero(x)) if y[r] == 0]
    rewards = inst.reward_vector()
    return SolutionMetrics(
        total_reward=float(rewards @ y),
        served_count=int(y.sum()),
        feasible=not violations,
        violated_constraints=violations,
        wasted_placements=wasted,
    )


# ---------------------------------------------------------------------------
# serialization

def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "version": INSTANCE_SCHEMA_VERSION,
        "failure_model": {
            "vnf_failure": float(inst.failure_model.vnf_failure),
            "pm_failure": float(inst.failure_model.pm_failure),
        },
        "mecs": [
            {
                "id": int(m.id),
                "cpu_capacity": float(m.cpu_capacity),
                "ram_capacity": float(m.ram_capacity),
                "uplink_capacity": float(m.uplink_capacity),
                "downlink_capacity": float(m.downlink_capacity),
            }
            for m in inst.mecs
        ],
        "requests": [
            {
                "id": int(r.id),
                "cpu_demand": float(r.cpu_demand),
                "ram_demand": float(r.ram_demand),
                "uplink_demand": float(r.uplink_demand),
                "downlink_demand": float(r.downlink_demand),
                "failure_threshold": float(r.failure_threshold),
                "reward": float(r.reward),
                "upf_chain": [str(u) for u in r.upf_chain],
            }
            for r in inst.requests
        ],
    }


def instance_from_dict(data: dict) -> ProblemInstance:
    if not isinstance(data, dict):
        raise ValueError("instance document must be a mapping")
    version = data.get("version")
    if version != INSTANCE_SCHEMA_VERSION:
        raise ValueError(f"unsupported instance schema version: {version!r}")
    try:
        fm = FailureModel(**data["failure_model"])
        mecs = [MecNode(**m) for m in data["mecs"]]
        requests = [
            ServiceRequest(**{**r, "upf_chain": tuple(r.get("upf_chain", ()))})
            for r in data["requests"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    # replica counts are derived, not stored
    return ProblemInstance.from_parts(mecs, requests, fm)


def save_instance(inst: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(instance_to_dict(inst), fh, sort_keys=True)


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_dict(yaml.safe_load(fh))


def solution_to_dict(sol) -> dict:
    if isinstance(sol, IntegralSolution):
        return {
            "version": SOLUTION_SCHEMA_VERSION,
            "kind": "integral",
            "x": [[int(v) for v in row] for row in sol.x],
            "y": [int(v) for v in sol.y],
        }
    if isinstance(sol, FractionalSolution):
        return {
            "version": SOLUTION_SCHEMA_VERSION,
            "kind": "fractional",
            "x": [[float(v) for v in row] for row in sol.x],
            "y": [float(v) for v in sol.y],
            "objective": float(sol.objective),
        }
    raise TypeError(f"cannot serialize {type(sol).__name__}")


def solution_from_dict(data: dict):
    if not isinstance(data, dict):
        raise ValueError("solution document must be a mapping")
    if data.get("version") != SOLUTION_SCHEMA_VERSION:
        raise ValueError(f"unsupported solution schema version: {data.get('version')!r}")
    kind = data.get("kind")
    try:
        if kind == "integral":
            return IntegralSolution(x=np.array(data["x"], dtype=np.int8),
                                    y=np.array(data["y"], dtype=np.int8))
        if kind == "fractional":
            return FractionalSolution(x=np.array(data["x"], dtype=float),
                                      y=np.array(data["y"], dtype=float),
                                      objective=float(data["objective"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed solution document: {exc}") from exc
    raise ValueError(f"unknown solution kind: {kind!r}")


def save_solution(sol, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(solution_to_dict(sol), fh, sort_keys=True)


def load_solution(path):
    with open(path) as fh:
        return solution_from_dict(yaml.safe_load(fh))

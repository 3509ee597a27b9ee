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

import functools
import math
import numbers
import operator
import typing
from dataclasses import dataclass, fields

import numpy as np

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


_KINDS = {int: (numbers.Integral, "an int"), float: (numbers.Real, "a number"),
          str: (str, "a str")}


def check_type(key, value, field):
    """Raise unless ``value`` suits the dataclass ``field``: an int field takes
    an int, a float field a number, a str field a str, and a
    ``tuple[kind, ...]`` field a list of that kind.  A bool is no number."""
    if field.type in _KINDS:
        cls, expected = _KINDS[field.type]
        if not isinstance(value, cls) or isinstance(value, bool):
            raise ValueError(f"{key} must be {expected}, got {type(value).__name__}")
        return
    cls, expected = _KINDS[typing.get_args(field.type)[0]]
    got = type(value).__name__
    if isinstance(value, (list, tuple)):    # name the first item of another kind
        got = next((f"a list holding {type(v).__name__}" for v in value
                    if not isinstance(v, cls) or isinstance(v, bool)), None)
    if got is not None:
        raise ValueError(f"{key} must be a list of {expected.split()[1]}s, got {got}")


@functools.cache
def _typed_fields(cls) -> tuple:
    """(field, type, item type) of each field of the dataclass ``cls``: a
    ``tuple[kind, ...]`` field has type ``tuple`` and item type kind, any
    other field its own type and item type None."""
    return tuple((field, typing.get_origin(field.type) or field.type,
                  (typing.get_args(field.type) or [None])[0]) for field in fields(cls))


def _check_fields(record, obj):
    """Raise unless each field of the dataclass ``obj`` suits its type
    (``check_type``), naming ``record`` and the field."""
    for field, kind, item in _typed_fields(type(obj)):
        value = getattr(obj, field.name)
        # a value of the declared type (or an int for a float), with items
        # of the declared type, passes
        got = type(value)
        if (got is not kind and (got is not int or kind is not float)
                or item is not None and not all(type(v) is item for v in value)):
            check_type(f"{record}: {field.name}", value, field)


# each resource's field of a request and of a node, in ``RESOURCES`` order
_DEMANDS = tuple(operator.attrgetter(res + "_demand") for res in RESOURCES)
_CAPACITIES = tuple(operator.attrgetter(res + "_capacity") for res in RESOURCES)


@dataclass(frozen=True)
class MecNode:
    """One edge node with four capacity dimensions."""

    id: int
    cpu_capacity: float
    ram_capacity: float
    uplink_capacity: float
    downlink_capacity: float

    def __post_init__(self):
        _check_fields(f"mec {self.id}", self)
        for res, capacity in zip(RESOURCES, _CAPACITIES):
            if not 0 < capacity(self) < math.inf:       # nan fails too
                raise ValueError(f"mec {self.id}: {res} capacity must be positive and finite")

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
    upf_chain: tuple[str, ...] = ()

    def __post_init__(self):
        _check_fields(f"request {self.id}", self)
        for res, demand in zip(RESOURCES, _DEMANDS):
            if not 0 < demand(self) < math.inf:         # nan fails too
                raise ValueError(f"request {self.id}: {res} demand must be positive and finite")
        if not 0.0 < self.failure_threshold < 1.0:
            raise ValueError(f"request {self.id}: failure threshold must lie in (0, 1)")
        if not 0 <= self.reward < math.inf:
            raise ValueError(f"request {self.id}: reward must be nonnegative and finite")

    def demand(self, resource: str) -> float:
        return getattr(self, resource + "_demand")


@dataclass(frozen=True)
class FailureModel:
    """Independent per-copy failure probability, split into VNF and host parts."""

    vnf_failure: float
    pm_failure: float

    def __post_init__(self):
        _check_fields("failure model", self)
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
    requests by row and nodes by column.  Construction builds the array form
    every stage reads: ``demands`` (resources x requests) and ``capacities``
    (resources x nodes), one row per resource in ``RESOURCES`` order, plus
    the reward and replica vectors, all read-only.  Treat instances as
    immutable; ``dataclasses.replace`` builds a new one with new arrays.
    """

    mecs: list
    requests: list
    failure_model: FailureModel
    replicas: list

    def __post_init__(self):
        if not self.mecs:
            raise ValueError("an instance needs at least one mec")
        if [mec.id for mec in self.mecs] != list(range(len(self.mecs))):
            raise ValueError("mec ids must be 0..M-1 in list order")
        if [req.id for req in self.requests] != list(range(len(self.requests))):
            raise ValueError("request ids must be 0..R-1 in list order")
        if len(self.replicas) != len(self.requests):
            raise ValueError("one replica count per request required")
        if any(k < 1 for k in self.replicas):
            raise ValueError("replica counts must be at least 1")
        self.demands = np.array([list(map(get, self.requests)) for get in _DEMANDS], dtype=float)
        self.capacities = np.array([list(map(get, self.mecs)) for get in _CAPACITIES], dtype=float)
        self._rewards = np.array([r.reward for r in self.requests], dtype=float)
        self._replicas = np.array(self.replicas, dtype=int)
        for arr in (self.demands, self.capacities, self._rewards, self._replicas):
            arr.flags.writeable = False

    @classmethod
    def from_parts(cls, mecs, requests, failure_model):
        """Build an instance, deriving replica counts from the failure model."""
        # one count per distinct threshold: a generated instance has a few
        count = functools.cache(functools.partial(required_replicas, failure_model))
        replicas = [count(r.failure_threshold) for r in requests]
        return cls(mecs=list(mecs), requests=list(requests),
                   failure_model=failure_model, replicas=replicas)

    @property
    def n_mecs(self) -> int:
        return len(self.mecs)

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def demand_vector(self, resource: str) -> np.ndarray:
        return self.demands[RESOURCES.index(resource)]

    def capacity_vector(self, resource: str) -> np.ndarray:
        return self.capacities[RESOURCES.index(resource)]

    def reward_vector(self) -> np.ndarray:
        return self._rewards

    def replica_vector(self) -> np.ndarray:
        return self._replicas

    def loads(self, x) -> np.ndarray:
        """Per-node load of placement ``x`` (R x M): resources x nodes.

        One product per resource, ``demands[i] @ x``: a stacked
        ``demands @ x`` may round differently in the last bit, and every
        load in the package (evaluation, repair, utilization, bound checks)
        must round the same way so that seeded outputs stay bit-stable.
        """
        return np.array([d @ x for d in self.demands])


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
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("integral solutions must be 0/1 valued")

    # each served request needs its replica count, on distinct nodes
    missing = inst.replica_vector() - x.sum(axis=1)
    short = np.flatnonzero((y == 1) & (missing > 0))
    violations = [("redundancy", r, float(gap)) for r, gap in
                  zip(short.tolist(), missing[short].tolist())]
    # then each overloaded (resource, node), resource by resource
    loads, caps = inst.loads(x), inst.capacities
    for k, m in zip(*np.nonzero(loads > caps + FEAS_EPS)):
        violations.append((RESOURCES[k], int(m), float(loads[k, m] - caps[k, m])))

    # copies of unserved requests, in row-major order
    rows, cols = np.nonzero((x != 0) & (y == 0)[:, None])
    wasted = list(zip(rows.tolist(), cols.tolist()))
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

def _record_to_dict(record) -> dict:
    """The document form of a node, request or failure model: each field
    written as its declared type, a tuple as a list of its item type."""
    return {field.name: kind(getattr(record, field.name)) if item is None
            else [item(v) for v in getattr(record, field.name)]
            for field, kind, item in _typed_fields(type(record))}


def instance_to_dict(inst: ProblemInstance) -> dict:
    # replica counts are derived, not stored
    return {"version": INSTANCE_SCHEMA_VERSION,
            "failure_model": _record_to_dict(inst.failure_model),
            "mecs": [_record_to_dict(m) for m in inst.mecs],
            "requests": [_record_to_dict(r) for r in inst.requests]}


def _record_from_dict(cls, name, doc):
    """The ``cls`` record that the mapping ``doc`` describes, a list made a
    tuple where the field is one; an error in the call names ``name``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a mapping")
    tuples = {field.name for field, kind, _ in _typed_fields(cls) if kind is tuple}
    try:
        return cls(**{key: tuple(value) if key in tuples and isinstance(value, list) else value
                      for key, value in doc.items()})
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def instance_from_dict(data: dict) -> ProblemInstance:
    if not isinstance(data, dict):
        raise ValueError("instance document must be a mapping")
    version = data.get("version")
    if version != INSTANCE_SCHEMA_VERSION:
        raise ValueError(f"unsupported instance schema version: {version!r}")
    unknown = set(data) - {"version", "failure_model", "mecs", "requests"}
    if unknown:
        raise ValueError(f"unknown instance document keys: {sorted(unknown, key=str)}")
    for key in ("mecs", "requests"):
        if key in data and not isinstance(data[key], list):
            raise ValueError(f"{key} must be a list, got {type(data[key]).__name__}")
    try:
        fm = _record_from_dict(FailureModel, "failure model", data["failure_model"])
        mecs = [_record_from_dict(MecNode, f"mec {pos}", m) for pos, m in enumerate(data["mecs"])]
        requests = [_record_from_dict(ServiceRequest, f"request {pos}", r)
                    for pos, r in enumerate(data["requests"])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    return ProblemInstance.from_parts(mecs, requests, fm)


# yaml is imported on first use, keeping it out of start-up
def read_yaml(path):
    """The document in the YAML file at ``path``."""
    import yaml
    with open(path) as fh:
        return yaml.safe_load(fh)


def write_yaml(doc, path) -> None:
    """Write ``doc`` to the file at ``path`` as YAML, keys sorted."""
    import yaml
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def save_instance(inst: ProblemInstance, path) -> None:
    write_yaml(instance_to_dict(inst), path)


def load_instance(path) -> ProblemInstance:
    return instance_from_dict(read_yaml(path))


def solution_to_dict(sol) -> dict:
    if isinstance(sol, IntegralSolution):
        kind, number, extra = "integral", int, {}
    elif isinstance(sol, FractionalSolution):
        kind, number, extra = "fractional", float, {"objective": float(sol.objective)}
    else:
        raise TypeError(f"cannot serialize {type(sol).__name__}")
    return {"version": SOLUTION_SCHEMA_VERSION, "kind": kind,
            "x": np.asarray(sol.x, dtype=number).tolist(),
            "y": np.asarray(sol.y, dtype=number).tolist(), **extra}


def solution_from_dict(data: dict):
    if not isinstance(data, dict):
        raise ValueError("solution document must be a mapping")
    if data.get("version") != SOLUTION_SCHEMA_VERSION:
        raise ValueError(f"unsupported solution schema version: {data.get('version')!r}")
    kind = data.get("kind")
    try:
        if kind == "integral":
            fields = {name: np.array(data[name], dtype=float) for name in ("x", "y")}
            for name, values in fields.items():
                if not ((values == 0.0) | (values == 1.0)).all():
                    raise ValueError(f"integral field {name!r} holds an entry other than 0 or 1")
            return IntegralSolution(**{name: values.astype(np.int8)
                                       for name, values in fields.items()})
        if kind == "fractional":
            return FractionalSolution(x=np.array(data["x"], dtype=float),
                                      y=np.array(data["y"], dtype=float),
                                      objective=float(data["objective"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed solution document: {exc}") from exc
    raise ValueError(f"unknown solution kind: {kind!r}")


def save_solution(sol, path) -> None:
    write_yaml(solution_to_dict(sol), path)


def load_solution(path):
    return solution_from_dict(read_yaml(path))

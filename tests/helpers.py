"""Compact builders shared across test modules."""

import dataclasses

from vnfplace.model import FailureModel, MecNode, ProblemInstance, ServiceRequest


def make_instance(caps, reqs, fm=(0.001, 0.004), replicas=None):
    """Build a small instance from terse node and request specs.

    caps: list of (cpu, ram, uplink, downlink) tuples or dicts with
        optional keys c, d, up, dw (missing axes default to 1000).
    reqs: list of dicts with optional keys c, d, up, dw, eps, reward.
    replicas: override the derived replica counts.
    """
    def cap_tuple(spec):
        if isinstance(spec, dict):
            return (spec.get("c", 1000.0), spec.get("d", 1000.0),
                    spec.get("up", 1000.0), spec.get("dw", 1000.0))
        return spec

    mecs = [MecNode(id=i, cpu_capacity=c, ram_capacity=r,
                    uplink_capacity=u, downlink_capacity=w)
            for i, (c, r, u, w) in enumerate(map(cap_tuple, caps))]
    requests = [
        ServiceRequest(
            id=i,
            cpu_demand=spec.get("c", 1.0),
            ram_demand=spec.get("d", 1.0),
            uplink_demand=spec.get("up", 1.0),
            downlink_demand=spec.get("dw", 1.0),
            failure_threshold=spec.get("eps", 0.001),
            reward=spec.get("reward", 5.0),
        )
        for i, spec in enumerate(reqs)
    ]
    model = FailureModel(*fm)
    inst = ProblemInstance.from_parts(mecs, requests, model)
    if replicas is not None:
        inst = ProblemInstance(mecs=inst.mecs, requests=inst.requests,
                               failure_model=model, replicas=list(replicas))
    return inst


def slack_caps(n, value=1000.0):
    """n nodes with ample capacity everywhere."""
    return [(value, value, value, value)] * n


def force_infeasible(monkeypatch, module):
    """Make ``module``'s post-condition check see every solution as infeasible."""
    real = module.evaluate_solution
    monkeypatch.setattr(module, "evaluate_solution",
                        lambda inst, sol: dataclasses.replace(real(inst, sol), feasible=False))

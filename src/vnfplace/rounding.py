"""Bernoulli rounding of fractional placements with a replica-count gate.

Each placement probability is rounded independently; a request's served flag
is then drawn only if the rounded placements reach its replica count, else it
is forced to zero.  The output therefore never violates the redundancy or
single-admission constraints, but node capacities may be exceeded (see
``repair`` for the restoration pass and ``bounds`` for how far the overshoot
can stretch).

Draws use numpy's PCG64 generator seeded explicitly, so a seed reproduces the
same solution on any platform: one uniform per placement variable in row-major
(request, node) order, then one uniform per request that clears its gate.
"""

import numpy as np

from .model import FractionalSolution, IntegralSolution, ProblemInstance

# probabilities may carry solver dust this far outside [0, 1]
PROB_SLACK = 1e-7


def _clean_probabilities(arr, label):
    arr = np.asarray(arr, dtype=float)
    if arr.size and (arr.min() < -PROB_SLACK or arr.max() > 1.0 + PROB_SLACK):
        raise ValueError(f"{label} probabilities leave [0, 1] by more than {PROB_SLACK}")
    return np.clip(arr, 0.0, 1.0)


def randomized_round(frac: FractionalSolution, inst: ProblemInstance,
                     seed: int) -> IntegralSolution:
    """Round one fractional solution to a binary one (capacities unchecked)."""
    x_prob = _clean_probabilities(frac.x, "placement")
    y_prob = _clean_probabilities(frac.y, "admission")
    R, M = inst.n_requests, inst.n_mecs
    if x_prob.shape != (R, M) or y_prob.shape != (R,):
        raise ValueError("fractional solution shape does not match instance")

    rng = np.random.Generator(np.random.PCG64(seed))
    x = (rng.random((R, M)) < x_prob).astype(np.int8)
    y = np.zeros(R, dtype=np.int8)
    # the admission draw happens only when the replica gate is cleared
    gate = x.sum(axis=1) >= inst.replica_vector()
    y[gate] = rng.random(gate.sum()) < y_prob[gate]
    return IntegralSolution(x=x, y=y)

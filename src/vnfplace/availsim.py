"""Monte Carlo check of delivered availability for placed solutions.

Every placed copy of a request fails independently with probability
eps_m = vnf_failure + pm_failure per trial; the request is delivered when at
least one copy survives, so k copies deliver with probability 1 - eps_m**k.
The simulation accepts solutions that are short of their replica counts
(that is exactly the case worth measuring) but rejects capacity violations.

Trials are simulated in fixed-size chunks, each drawn from a stream derived
from (seed, chunk index), so results are identical whether chunks run
serially or across worker processes.  A request loses a trial only when all
k of its copies fail, with probability eps_m**k; trials are independent and
no two requests share a copy, so a request's lost trials in a chunk are
exactly Binomial(size, eps_m**k), independent across requests.  A chunk
therefore draws one binomial per request.  An unplaced request (k = 0) loses
every trial.
"""

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (RESOURCES, IntegralSolution, ProblemInstance,
                    evaluate_solution, service_failure_prob)

MIN_TRIALS = 1000
_CHUNK = 1 << 15
CONFIDENCE = 0.99         # of the binomial acceptance test
_TAIL = 1e-20             # pmf relative to the mode's, below which the quantile stops summing


@dataclass
class RequestAvailability:
    request_id: int
    required_replicas: int
    placements: int
    trials: int
    delivered: int
    availability: float
    threshold: float         # required availability, 1 - failure threshold
    meets_threshold: bool


@dataclass
class AvailabilityReport:
    per_request: list
    trials: int
    aggregate_pdr: float     # delivered fraction across served requests
    served_fraction: float   # requests handled at the edge (latency proxy)

    CSV_HEADER = ("request,required_replicas,placements,trials,delivered,"
                  "availability,threshold,meets_threshold")

    def csv_rows(self):
        yield self.CSV_HEADER
        for row in self.per_request:
            yield (f"{row.request_id},{row.required_replicas},{row.placements},"
                   f"{row.trials},{row.delivered},{row.availability:.10g},"
                   f"{row.threshold:.10g},{str(row.meets_threshold).lower()}")


def consistent_with_threshold(delivered: int, trials: int, failure_threshold: float) -> bool:
    """Binomial acceptance test: failures within what the threshold allows.

    Passes when the observed failure count does not exceed the ``CONFIDENCE``
    quantile of Binomial(trials, failure_threshold), i.e. the data stays
    consistent with a true failure probability at or below the threshold.
    """
    if not 0 <= delivered <= trials:
        raise ValueError("delivered count outside [0, trials]")
    if not 0.0 <= failure_threshold <= 1.0:
        raise ValueError("failure threshold outside [0, 1]")
    allowed = _binomial_quantile(CONFIDENCE, trials, failure_threshold)
    return trials - delivered <= allowed


@functools.lru_cache(maxsize=256)
def _binomial_quantile(q, n, p):
    """Smallest k with P(Binomial(n, p) <= k) >= q, as scipy.stats.binom.ppf.

    Summed in Python from the pmf relative to its value at the mode, which
    cancels: the ratio recurrence pmf(k + 1) / pmf(k) = (n - k) p / ((k + 1)
    (1 - p)) walks outward from the mode until a term falls below ``_TAIL``,
    and a tail of the CDF is the ``math.fsum`` of its terms over the fsum of
    all of them.  Each term carries a few ulp of rounding per step from the
    mode; no log-gamma enters (its absolute error at n = 131,072 is about
    1e-10), and nothing under- or overflows.  The upper tail is compared with
    1 - q, which is exact for q >= 0.5 (the confidences in use), so that the
    comparison keeps the tail's relative accuracy.  The CDF only grows with
    k, so bisection finds the answer.  Cached: a simulation tests every request at the same
    trial count against a few thresholds; at those (p <= 0.01, n <= 131,072)
    a call sums at most about 700 terms.
    """
    mode = min(n, math.floor((n + 1) * p))
    below, above = [], []           # pmf / pmf(mode) at mode - 1, mode - 2, ... and mode + 1, ...
    t = 1.0
    for k in range(mode, 0, -1):
        if t < _TAIL:
            break
        t *= k * (1.0 - p) / ((n - k + 1) * p)
        below.append(t)
    t = 1.0
    for k in range(mode, n):
        if t < _TAIL:
            break
        t *= (n - k) * p / ((k + 1) * (1.0 - p))
        above.append(t)
    terms = below[::-1] + [1.0] + above
    total = math.fsum(terms)
    reaches = lambda i: math.fsum(terms[i + 1:]) / total <= 1.0 - q
    return mode - len(below) + bisect.bisect_left(range(len(terms)), True, key=reaches)


def _chunk_counts(seed, chunk_index, size, eps_m, widths):
    """Delivered counts per request for one chunk of trials: the trials in
    which not every copy of the request failed."""
    rng = np.random.default_rng([seed, chunk_index])
    return size - rng.binomial(size, eps_m ** np.asarray(widths))


def simulate_availability(inst: ProblemInstance, sol: IntegralSolution,
                          trials: int, seed: int, jobs: int = 1) -> AvailabilityReport:
    """Estimate per-request delivered availability over independent trials."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    metrics = evaluate_solution(inst, sol)
    capacity_violations = [v for v in metrics.violated_constraints if v[0] in RESOURCES]
    if capacity_violations:
        raise ValueError(f"capacity-infeasible solution: {capacity_violations}")

    eps_m = service_failure_prob(inst.failure_model)
    widths = np.asarray(sol.x).sum(axis=1)
    chunks = [(c, min(_CHUNK, trials - c * _CHUNK))
              for c in range((trials + _CHUNK - 1) // _CHUNK)]

    delivered = np.zeros(inst.n_requests, dtype=np.int64)
    if jobs > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_chunk_counts, seed, c, size, eps_m, widths)
                       for c, size in chunks]
            for future in futures:
                delivered += future.result()
    else:
        for c, size in chunks:
            delivered += _chunk_counts(seed, c, size, eps_m, widths)

    per_request = []
    for r, req in enumerate(inst.requests):
        per_request.append(RequestAvailability(
            request_id=r,
            required_replicas=int(inst.replicas[r]),
            placements=int(widths[r]),
            trials=trials,
            delivered=int(delivered[r]),
            availability=float(delivered[r] / trials),
            threshold=1.0 - req.failure_threshold,
            meets_threshold=consistent_with_threshold(
                int(delivered[r]), trials, req.failure_threshold),
        ))

    served = np.flatnonzero(np.asarray(sol.y) == 1)
    pdr = float(delivered[served].sum() / (served.size * trials)) if served.size else 0.0
    return AvailabilityReport(
        per_request=per_request,
        trials=trials,
        aggregate_pdr=pdr,
        served_fraction=served.size / inst.n_requests if inst.n_requests else 0.0,
    )

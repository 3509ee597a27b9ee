"""Monte Carlo check of delivered availability for placed solutions.

Every placed copy of a request fails independently with probability
eps_m = vnf_failure + pm_failure per trial; the request is delivered when at
least one copy survives, so k copies deliver with probability 1 - eps_m**k.
The simulation accepts solutions that are short of their replica counts
(that is exactly the case worth measuring) but rejects capacity violations.

Trials are simulated in fixed-size chunks, each drawn from a stream derived
from (seed, chunk index), so results are identical whether chunks run
serially or across worker processes.  A chunk draws its (trials, copies)
uniforms in row blocks of about 4 MB, into buffers reused from block to
block, so its memory stays fixed whatever the trial count; the stream fills
rows in order, so the blocks consume exactly the draws one full matrix
would, and the counts are the same.  Per block, the failure test runs once
over all copies, and requests with the same number of copies k are counted
together: k column gathers, one per copy, ANDed and summed per request.
"""

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import (RESOURCES, IntegralSolution, ProblemInstance,
                    evaluate_solution, service_failure_prob)

MIN_TRIALS = 1000
_CHUNK = 1 << 15
_BLOCK_BYTES = 1 << 22    # uniforms drawn per row block, about 4 MB of float64


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


def consistent_with_threshold(delivered: int, trials: int, failure_threshold: float,
                              confidence: float = 0.99) -> bool:
    """Binomial acceptance test: failures within what the threshold allows.

    Passes when the observed failure count does not exceed the ``confidence``
    quantile of Binomial(trials, failure_threshold), i.e. the data stays
    consistent with a true failure probability at or below the threshold.
    """
    if not 0 <= delivered <= trials:
        raise ValueError("delivered count outside [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    allowed = _binomial_quantile(confidence, trials, failure_threshold)
    return trials - delivered <= allowed


@functools.lru_cache(maxsize=256)
def _binomial_quantile(q, n, p):
    """Smallest k with P(Binomial(n, p) <= k) >= q, as scipy.stats.binom.ppf.

    The inverse of the continuous extension of the CDF lands within one of
    the answer; one CDF evaluation settles which.  Cached: a simulation
    tests every request at the same trial count, against a few thresholds.
    """
    if p == 0.0:
        return 0
    k = math.ceil(special.bdtrik(q, n, p))
    return k - 1 if k > 0 and special.bdtr(k - 1, n, p) >= q else k


def _chunk_counts(seed, chunk_index, size, eps_m, widths):
    """Delivered counts per request for one chunk of trials."""
    rng = np.random.default_rng([seed, chunk_index])
    widths = np.asarray(widths, dtype=np.int64)
    total = int(widths.sum())
    first = np.cumsum(widths) - widths          # column of each request's first copy
    groups = [(k, np.flatnonzero(widths == k)) for k in np.unique(widths[widths > 0])]
    failures = np.zeros(widths.size, dtype=np.int64)
    rows = min(size, max(1, _BLOCK_BYTES // (8 * max(total, 1))))
    uniforms, failed_buf = np.empty((rows, total)), np.empty((rows, total), dtype=bool)
    for lo in range(0, size, rows):
        n = min(rows, size - lo)
        # the row-major stream fills consecutive row blocks as it would one matrix
        rng.random(out=uniforms[:n])
        failed = np.less(uniforms[:n], eps_m, out=failed_buf[:n])   # True = copy failed
        for k, reqs in groups:
            cols = first[reqs]
            lost = failed[:, cols]
            for j in range(1, k):
                lost &= failed[:, cols + j]
            # int32 sums run faster than int64 ones; a block has at most _CHUNK rows
            failures[reqs] += lost.sum(axis=0, dtype=np.int32)
    return np.where(widths > 0, size - failures, 0)


def simulate_availability(inst: ProblemInstance, sol: IntegralSolution,
                          trials: int, seed: int, jobs: int = 1) -> AvailabilityReport:
    """Estimate per-request delivered availability over independent trials."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials")
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
        avail = delivered[r] / trials
        per_request.append(RequestAvailability(
            request_id=r,
            required_replicas=int(inst.replicas[r]),
            placements=int(widths[r]),
            trials=trials,
            delivered=int(delivered[r]),
            availability=float(avail),
            threshold=1.0 - req.failure_threshold,
            meets_threshold=consistent_with_threshold(
                int(delivered[r]), trials, req.failure_threshold),
        ))

    served = np.flatnonzero(np.asarray(sol.y) == 1)
    if served.size:
        pdr = float(delivered[served].sum() / (served.size * trials))
    else:
        pdr = 0.0
    return AvailabilityReport(
        per_request=per_request,
        trials=trials,
        aggregate_pdr=pdr,
        served_fraction=served.size / inst.n_requests if inst.n_requests else 0.0,
    )

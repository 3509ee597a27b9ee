"""Relaxed placement program and a self-contained simplex solver.

``build_relaxed_program`` turns an instance with R requests and M nodes into
a box-constrained linear program: placement variables x[r,m] and admission
variables y[r], all in [0, 1], with R + 4M rows: one redundancy row per
request (placed copies of a served request must reach its replica count)
and one capacity row per node and resource.  No row caps y[r] at 1, since
its box already does.  A ``LinearProgram`` holds its rows as entry arrays
(row, variable, coefficient), which the build emits a block at a time and
the solver sorts stably into columns.

``simplex_solve`` is a two-phase primal simplex on the revised tableau with
bounded variables: nonbasic variables rest at a finite bound, the ratio test
considers both bounds of every basic variable plus a bound flip of the
entering variable, and artificial columns are allocated only for rows whose
slack starts infeasible.  Phase 1 ends by fixing every artificial at zero
(lower = upper = 0): phase 2's ratio test then gives a basic artificial a
zero step, so it leaves in a degenerate pivot, or stays basic at zero on a
dependent row.  A program may name a ``start``: a box vertex, every
structural variable at its lower or upper bound, at which the solve begins
with every slack basic (a crash start; Bixby, ORSA J. Computing 1992).
``build_relaxed_program`` starts at ``greedy_vertex``, a 0/1 placement that
serves every request a greedy fits, so the placement relaxation needs no
artificials and often starts at, or a few pivots from, its optimum.
Entering variable: largest reduced cost, switching to Bland's smallest-index
rule after a long degenerate streak.

The solver stores the constraint matrix once, in a padded (width x columns)
layout plus the number of entries of each column: width is the most entries
of any column (5 for the placement program), and padding slots hold row 0
with a zero value.  The entering column costs one small product of its
entries with the basis inverse; pricing sums the layout over its first
axis, the additions, in order, of a ``bincount`` over the entries in column
order.  The basis inverse is a dense array, updated in place by a rank-1
BLAS update after each pivot and recomputed every 64 pivots.
A recomputation inverts densely only the basis nucleus: basic columns with
one entry (slacks, artificials, the y[r] columns) are singletons whose
rows and inverse entries follow by substitution, so only the remaining
columns over the remaining rows, under half the basis on the placement
program, go through ``np.linalg.inv``.  The basic values are updated
incrementally along each step, with the leaving variable pinned exactly
at the bound it hit, and recomputed whenever the inverse is.  The cost
and bounds of each basic variable and the improving sign of every column
are arrays that a pivot or a bound flip updates in at most two places; a
bound flip leaves the basis as it was and reuses the reduced costs.

The pivots follow from BLAS products, whose summation order depends on
the BLAS thread count, so another count can end at another optimal vertex.
``simplex_solve`` therefore holds both bundled OpenBLAS libraries (numpy's
and scipy's) at one thread while it runs and restores their counts after:
a solve returns the same vertex whatever ``OPENBLAS_NUM_THREADS`` says.
Where those libraries are not found the pin does nothing.  The pin is
process-wide, so it does not cover solves run concurrently in threads.
"""

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from .model import RESOURCES, FractionalSolution, ProblemInstance, VnfplaceError

LE = "<="
GE = ">="

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_DIRECTION = np.array([1.0, -1.0, 0.0])   # improving move, by status
_PIVOT_FLOOR = 1e-10                        # smallest usable pivot magnitude
_TOL = 1e-7                                 # pricing, tie, step and feasibility tolerance
_REFACTOR_EVERY = 64
_DEGENERATE_STREAK = 40


class SimplexError(VnfplaceError, RuntimeError):
    """Base class for solver failures."""


class InfeasibleProgramError(SimplexError):
    pass


class UnboundedProgramError(SimplexError):
    pass


class IterationLimitError(SimplexError):
    pass


class NumericalInstabilityError(SimplexError):
    pass


@dataclass
class LinearProgram:
    """Maximize objective @ v subject to sparse <=/>= rows and box bounds.

    Rows are stored as entry arrays: entry k adds ``coef[k]`` times variable
    ``var[k]`` to row ``row[k]``, and row i holds ``sense[i]`` against
    ``rhs[i]``; entries given to the constructor pass through ``add_rows``.
    Bounds default to [0, 1] for every variable.  ``shape`` marks programs
    built from an instance: (n_requests, n_mecs) for unpacking the variable
    vector back into placement form.  ``start`` is the box vertex the
    simplex begins at: each entry equals its variable's lower or upper
    bound.  It defaults to the lower bounds; a start that violates a row is
    repaired by phase 1.
    """

    n_vars: int
    objective: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None
    shape: tuple = None
    start: np.ndarray = None
    row: np.ndarray = ()
    var: np.ndarray = ()
    coef: np.ndarray = ()
    sense: np.ndarray = ()
    rhs: np.ndarray = ()

    def __post_init__(self):
        if self.n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        if self.objective is None:
            self.objective = np.zeros(self.n_vars)
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.zeros(self.n_vars) if self.lower is None else np.asarray(self.lower, float)
        self.upper = np.ones(self.n_vars) if self.upper is None else np.asarray(self.upper, float)
        self.start = self.lower.copy() if self.start is None else np.asarray(self.start, float)
        for name in ("objective", "lower", "upper", "start"):
            if getattr(self, name).shape != (self.n_vars,):
                raise ValueError(f"{name} length must equal n_vars")
        if not np.isfinite(self.lower).all():
            raise ValueError("variable lower bounds must be finite")
        if (self.upper < self.lower).any():
            raise ValueError("upper bounds must dominate lower bounds")
        at_bound = (self.start == self.lower) | (self.start == self.upper)
        if not (at_bound & np.isfinite(self.start)).all():
            raise ValueError("start must put every variable at a finite lower or upper bound")
        entries = self.row, self.var, self.coef, self.sense, self.rhs
        self.row = self.var = np.zeros(0, np.intp)
        self.coef, self.sense, self.rhs = np.zeros(0), np.zeros(0, str), np.zeros(0)
        self.add_rows(*entries)

    def add_rows(self, row, var, coef, sense, rhs) -> None:
        """Append len(rhs) rows; entry k adds coef[k] times var[k] to new row
        row[k], numbered from 0 within the batch.  A rejected batch changes nothing."""
        row, var = np.asarray(row, np.intp), np.asarray(var, np.intp)
        coef, sense, rhs = np.asarray(coef, float), np.asarray(sense, str), np.asarray(rhs, float)
        if (row.shape != var.shape or var.shape != coef.shape or sense.shape != rhs.shape
                or row.min(initial=0) < 0 or row.max(initial=-1) >= rhs.size):
            raise ValueError("entry arrays must share one length and name rows of the batch")
        if not ((sense == LE) | (sense == GE)).all():
            raise ValueError(f"row sense must be {LE!r} or {GE!r}")
        if not np.isfinite(rhs).all():
            raise ValueError("row rhs must be finite")
        lo, hi = var.min(initial=0), var.max(initial=-1)   # an empty batch passes
        if lo < 0 or hi >= self.n_vars:
            raise ValueError(f"row references unknown variable {lo if lo < 0 else hi}")
        if not np.isfinite(coef).all():
            raise ValueError("row coefficients must be finite")
        batch = row + self.rhs.size, var, coef, sense, rhs
        for name, new in zip(("row", "var", "coef", "sense", "rhs"), batch):
            setattr(self, name, np.concatenate([getattr(self, name), new]))

    def add_row(self, coeffs, sense: str, rhs: float) -> None:
        pairs = np.array(list(coeffs), dtype=float).reshape(-1, 2)
        self.add_rows(np.zeros(len(pairs)), pairs[:, 0], pairs[:, 1], [sense], [rhs])

    @property
    def rows(self) -> list:
        """(coeffs, sense, rhs) triples, coeffs a (k, 2) array of (var, value) rows,
        derived on each read; kept for ``perfbench/tracer.py``, which counts
        ``lp.rows`` and ``lp.nnz`` here."""
        order = np.argsort(self.row, kind="stable")
        pairs = np.column_stack([self.var[order], self.coef[order]])
        ends = np.cumsum(np.bincount(self.row, minlength=self.rhs.size))
        return list(zip(np.split(pairs, ends[:-1]), self.sense.tolist(), self.rhs.tolist()))


def greedy_vertex(inst: ProblemInstance):
    """A feasible 0/1 placement (x, y) that serves every request a greedy fits.

    Requests are taken in descending reward over psi_r times their demand
    summed over the four resources, each normalized by the resource's total
    capacity.  A request is served when at least psi_r nodes still fit it,
    on the psi_r fitting nodes with the most slack, summed over the
    resources as shares of the node's capacity.  Both orders are stable
    sorts, so ties go to the lower index.
    """
    R, M = inst.n_requests, inst.n_mecs
    demand = np.array([inst.demand_vector(res) for res in RESOURCES])     # 4 x R
    cap = np.array([inst.capacity_vector(res) for res in RESOURCES])      # 4 x M
    psi = inst.replica_vector()
    density = inst.reward_vector() / (psi * ((1.0 / cap.sum(axis=1)) @ demand))
    slack = cap.copy()
    x, y = np.zeros((R, M)), np.zeros(R)
    for r in np.argsort(-density, kind="stable").tolist():
        need = demand[:, r, None]
        fits = np.flatnonzero((need <= slack).all(axis=0))
        if fits.size < psi[r]:
            continue
        room = (slack[:, fits] / cap[:, fits]).sum(axis=0)
        nodes = fits[np.argsort(-room, kind="stable")[: psi[r]]]
        slack[:, nodes] -= need
        x[r, nodes] = 1.0
        y[r] = 1.0
    return x, y


def build_relaxed_program(inst: ProblemInstance) -> LinearProgram:
    """Relax the placement problem: binary requirements become [0, 1] boxes.
    The simplex starts at ``greedy_vertex``."""
    R, M = inst.n_requests, inst.n_mecs
    objective = np.concatenate([np.zeros(R * M), inst.reward_vector()])
    x0, y0 = greedy_vertex(inst)
    lp = LinearProgram(n_vars=R * M + R, objective=objective, shape=(R, M),
                       start=np.concatenate([x0.ravel(), y0]))
    x = np.arange(R * M).reshape(R, M)
    # served requests must reach their replica count: x[r, :] - psi_r y_r >= 0
    lp.add_rows(np.repeat(np.arange(R), M + 1),
                np.column_stack([x, R * M + np.arange(R)]).ravel(),
                np.column_stack([np.ones((R, M)), -inst.replica_vector()]).ravel(),
                np.full(R, GE), np.zeros(R))
    # one row per (resource, node): demand @ x[:, m] <= capacity
    demand = np.array([inst.demand_vector(res) for res in RESOURCES])
    lp.add_rows(np.repeat(np.arange(len(RESOURCES) * M), R), np.tile(x.T.ravel(), len(RESOURCES)),
                np.repeat(demand, M, axis=0).ravel(), np.full(len(RESOURCES) * M, LE),
                np.concatenate([inst.capacity_vector(res) for res in RESOURCES]))
    return lp


@dataclass
class SimplexResult:
    values: np.ndarray
    objective: float
    iterations: int


class _BoundedSimplex:
    """Column-sparse working state for one solve; see the module docstring.

    Columns are the structural variables, one slack per row, then one
    artificial per row whose slack starts infeasible.  The matrix is stored
    once, padded: column q holds its entries' rows and values in the first
    ``count[q]`` slots of ``padded_rows`` and ``padded_data`` (width x
    columns).  The state also keeps the basis inverse ``Binv`` as a
    Fortran-ordered dense array and the basic values ``xb`` incrementally.
    """

    def __init__(self, lp, max_iterations=None):
        self.objective_coeffs = lp.objective
        m, n = lp.rhs.size, lp.n_vars
        self.m = m
        self.n_struct = n
        self.n_real = n + m            # structural + one slack per row
        self.max_iterations = max_iterations or (50 * (3 * m + n) + 1000)
        self.iterations = 0

        # structural entries, column by column; repeated entries add up
        order = np.argsort(lp.var, kind="stable")
        rows, cols, vals = lp.row[order], lp.var[order], lp.coef[order]

        self.b = lp.rhs
        sigma = np.where(lp.sense == LE, 1.0, -1.0)
        resid = self.b - np.bincount(rows, weights=vals * lp.start[cols], minlength=m)
        art_rows = np.flatnonzero(sigma * resid < 0.0)  # slack would start negative
        art_signs = np.sign(resid[art_rows])
        k = art_rows.size
        total = self.n_real + k
        slack_rows = np.arange(m)
        col_of = np.concatenate([cols, n + slack_rows, self.n_real + np.arange(k)])
        # a column's entries fill its first count[q] slots in storage order;
        # padding slots hold row 0 with a zero value, adding a zero term
        self.count = np.bincount(col_of, minlength=total)
        slot = np.arange(col_of.size) - (np.cumsum(self.count) - self.count)[col_of]
        width = int(self.count.max(initial=0))
        self.padded_rows = np.zeros((width, total), dtype=np.intp)
        self.padded_rows[slot, col_of] = np.concatenate([rows, slack_rows, art_rows])
        self.padded_data = np.zeros((width, total))
        self.padded_data[slot, col_of] = np.concatenate([vals, sigma, art_signs])

        self.lower = np.concatenate([lp.lower, np.zeros(total - n)])
        self.upper = np.concatenate([lp.upper, np.full(total - n, np.inf)])
        self.artificials = self.n_real + np.arange(k)
        self.basis = n + slack_rows
        self.basis[art_rows] = self.artificials
        self.status = np.full(total, _AT_LOWER, dtype=np.int8)
        self.status[:n][(lp.start == lp.upper) & (lp.upper > lp.lower)] = _AT_UPPER
        self.status[self.basis] = _BASIC
        # slacks and artificials are singletons: no nucleus to invert
        self._refactorize()

    # -- sparse products -------------------------------------------------------

    def _product(self, v) -> np.ndarray:
        """A @ v, each row summed over the entries in column order."""
        return np.bincount(self.padded_rows.ravel("F"),
                           weights=(self.padded_data * v).ravel("F"), minlength=self.m)

    def _transposed_product(self, y) -> np.ndarray:
        """y @ A, each column summed from zero over its slots in order, the
        additions a ``np.bincount`` makes over the entries in column order."""
        terms = y[self.padded_rows]
        terms *= self.padded_data
        return np.add.reduce(terms, axis=0, initial=0.0)

    def _column(self, q) -> np.ndarray:
        """FTRAN: Binv @ A[:, q]."""
        k = self.count[q]
        # a contiguous copy: BLAS may round a strided operand differently
        return self.Binv[:, self.padded_rows[:k, q]] @ self.padded_data[:k, q].copy()

    def _reduced_costs(self, cost, basic_cost) -> np.ndarray:
        """Reduced costs; basic_cost is cost[basis]."""
        return cost - self._transposed_product(basic_cost @ self.Binv)

    # -- basis -----------------------------------------------------------------

    def _refactorize(self):
        """Invert the basis afresh and recompute the basic values from it.

        A basic column with one entry (a slack, an artificial, an admission
        column) is a singleton: at basis positions S its entries a_S sit in
        rows t_S, the set T.  Setting those rows and positions aside leaves
        the nucleus, the other positions K over the other rows N, and B is
        block triangular, so only the nucleus is inverted densely:

            Binv[K, N] = inv(B[N, K])     Binv[S, t_S] = 1 / a_S
            Binv[K, T] = 0                Binv[S, N] = -B[t_S, K] @ Binv[K, N] / a_S
        """
        single = self.count[self.basis] == 1
        S, K = np.flatnonzero(single), np.flatnonzero(~single)
        # slot 0 of each singleton column; a program without rows has no slots
        first = self.basis[S]
        t, a = self.padded_rows[:1, first].ravel(), self.padded_data[:1, first].ravel()
        in_t = np.zeros(self.m, dtype=bool)
        in_t[t] = True
        if np.count_nonzero(in_t) < S.size or not a.all():
            raise NumericalInstabilityError(
                "basis matrix is singular: singleton columns clash on a row or hold a zero")
        N = np.flatnonzero(~in_t)
        place = np.empty(self.m, dtype=np.intp)   # a row's index within N or within t
        place[N] = np.arange(N.size)
        place[t] = np.arange(S.size)
        # the nucleus entries, column by column: the slots below each count
        nuclear = self.basis[K]
        cols, slot = np.nonzero(np.arange(self.padded_rows.shape[0]) < self.count[nuclear, None])
        rows, vals = self.padded_rows[slot, nuclear[cols]], self.padded_data[slot, nuclear[cols]]
        on_t = in_t[rows]
        nucleus = np.zeros((N.size, K.size))
        np.add.at(nucleus, (place[rows[~on_t]], cols[~on_t]), vals[~on_t])
        coupling = np.zeros((S.size, K.size))
        np.add.at(coupling, (place[rows[on_t]], cols[on_t]), vals[on_t])
        try:
            nucleus_inv = np.linalg.inv(nucleus)
        except np.linalg.LinAlgError as exc:
            raise NumericalInstabilityError("basis matrix is singular") from exc
        self.Binv = np.zeros((self.m, self.m), order="F")   # Fortran-ordered for dger
        self.Binv[np.ix_(K, N)] = nucleus_inv
        self.Binv[S, t] = 1.0 / a
        # only singleton rows that some nucleus column touches couple to N
        hit = np.flatnonzero(coupling.any(axis=1))
        self.Binv[np.ix_(S[hit], N)] = (coupling[hit] @ nucleus_inv) / -a[hit, None]
        v = self._nonbasic_values()
        self.xb = self.Binv @ (self.b - self._product(v))

    def _pivot(self, r, q, w):
        """Column q replaces basis row r; w = Binv @ A[:, q] is consumed."""
        self.basis[r] = q
        pivot_row = self.Binv[r] / w[r]
        w[r] -= 1.0
        self.Binv = dger(-1.0, w, pivot_row, a=self.Binv, overwrite_a=True)
        self.Binv[r] = pivot_row

    # -- state ---------------------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        v = np.where(self.status == _AT_UPPER, self.upper, self.lower)
        v[self.basis] = 0.0
        return v

    def _values(self) -> np.ndarray:
        v = self._nonbasic_values()
        v[self.basis] = self.xb
        return v

    # -- core loop -----------------------------------------------------------

    def _optimize(self, cost):
        """Run primal iterations for one phase; cost is maximized."""
        degenerate_streak = 0
        bland = False
        movable = (self.upper - self.lower > 0.0).astype(float)
        since_refactor = 0
        # per basis row: its cost and bounds; per column: the sign of an
        # improving move off its bound (0 if basic or fixed).  A pivot or a
        # bound flip changes at most two entries of each.
        basic_cost = cost[self.basis]
        basic_lower = self.lower[self.basis]
        basic_upper = self.upper[self.basis]
        sign = _DIRECTION[self.status] * movable
        steps = np.empty(self.m)
        reduced = None           # valid while the basis is unchanged
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise IterationLimitError(f"no optimum within {self.max_iterations} iterations")
            if reduced is None:
                reduced = self._reduced_costs(cost, basic_cost)
            # positive exactly where moving off the current bound improves
            gain = reduced * sign
            if bland:
                candidates = np.flatnonzero(gain > _TOL)
                if candidates.size == 0:
                    return
                q = int(candidates[0])
            else:
                q = int(np.argmax(gain))
                if gain[q] <= _TOL:
                    return

            w = self._column(q)
            entering_lower = self.status[q] == _AT_LOWER
            delta = w if entering_lower else -w   # basic values move as xb - t*delta
            xb = self.xb
            # each basic value heads for the bound on its side of the move;
            # an infinite upper bound yields an infinite step
            bound = np.where(delta > 0.0, basic_lower, basic_upper)
            steps.fill(np.inf)
            np.divide(xb - bound, delta, out=steps, where=np.abs(delta) > _PIVOT_FLOOR)
            np.maximum(steps, 0.0, out=steps)

            t_flip = self.upper[q] - self.lower[q]
            t_row = steps.min() if self.m else np.inf
            if not math.isfinite(t_row) and not math.isfinite(t_flip):
                raise UnboundedProgramError("objective unbounded above")

            if t_flip <= t_row:
                # entering variable runs to its opposite bound; basis unchanged
                flipped = _AT_UPPER if entering_lower else _AT_LOWER
                self.status[q] = flipped
                sign[q] = _DIRECTION[flipped] * movable[q]
                step = t_flip
                xb -= step * delta
            else:
                tie = np.flatnonzero(steps <= t_row + _TOL)
                r = int(tie[np.argmax(np.abs(delta[tie]))])
                if abs(w[r]) < _PIVOT_FLOOR:
                    raise NumericalInstabilityError(f"pivot magnitude {abs(w[r]):.3e} below floor")
                step = steps[r]
                entering = self.lower[q] + step if entering_lower else self.upper[q] - step
                # the leaving variable is pinned exactly at the bound it hit
                leaving = self.basis[r]
                left = _AT_UPPER if delta[r] < 0 else _AT_LOWER
                self.status[leaving] = left
                sign[leaving] = _DIRECTION[left] * movable[leaving]
                self.status[q] = _BASIC
                sign[q] = 0.0
                basic_cost[r] = cost[q]
                basic_lower[r] = self.lower[q]
                basic_upper[r] = self.upper[q]
                xb -= step * delta
                xb[r] = entering
                self._pivot(r, q, w)
                reduced = None
                since_refactor += 1
                if since_refactor >= _REFACTOR_EVERY:
                    self._refactorize()
                    since_refactor = 0

            if step <= _TOL:
                degenerate_streak += 1
                if degenerate_streak >= _DEGENERATE_STREAK:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False

    # -- phases ---------------------------------------------------------------

    def solve(self) -> SimplexResult:
        total = self.status.size
        if self.artificials.size:
            phase1_cost = np.zeros(total)
            phase1_cost[self.artificials] = -1.0
            self._optimize(phase1_cost)
            infeasibility = float(self._values()[self.artificials].sum())
            scale = max(1.0, float(np.abs(self.b).max(initial=0.0)))
            if infeasibility > _TOL * scale:
                raise InfeasibleProgramError(
                    f"phase 1 left total infeasibility {infeasibility:.3e}")
            # artificials may no longer move; a basic one leaves in a
            # degenerate pivot, or stays basic at zero on a dependent row
            self.lower[self.artificials] = self.upper[self.artificials] = 0.0

        cost = np.zeros(total)
        cost[: self.n_struct] = self.objective_coeffs
        self._optimize(cost)
        v = self._values()
        self._certify(cost, v)
        values = v[: self.n_struct]
        # snap solver dust back onto the boxes
        lo = self.lower[: self.n_struct]
        hi = self.upper[: self.n_struct]
        values = np.clip(values, lo, hi)
        objective = float(self.objective_coeffs @ values)
        return SimplexResult(values=values, objective=objective, iterations=self.iterations)

    def _certify(self, cost, v):
        """Optimality and feasibility certificates on the final point."""
        scale = max(1.0, float(np.abs(self.b).max(initial=0.0)))
        row_resid = self._product(v) - self.b
        if np.abs(row_resid).max(initial=0.0) > 1e-6 * scale:
            raise NumericalInstabilityError("final basis violates row equations")
        reduced = self._reduced_costs(cost, cost[self.basis])
        # positive exactly where moving a column off its bound improves
        gain = reduced * _DIRECTION[self.status] * (self.upper - self.lower > 0.0)
        if (gain > 10 * _TOL).any():
            raise NumericalInstabilityError("reduced costs fail the optimality test")


@functools.cache
def _blas_thread_controls():
    """(getter, setter) of the thread count of each bundled OpenBLAS loaded in
    this process: numpy's ``scipy_openblas_*64_`` and scipy's
    ``scipy_openblas_*``.  Empty where they cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every bundled OpenBLAS at one thread; restore the counts after."""
    controls = _blas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Maximize the program; raises on infeasible/unbounded/stalled solves."""
    if lp.n_vars == 0:
        if (np.where(lp.sense == LE, lp.rhs, -lp.rhs) < 0.0).any():
            raise InfeasibleProgramError("constant row is violated")
        return SimplexResult(values=np.zeros(0), objective=0.0, iterations=0)
    with _one_blas_thread():
        return _BoundedSimplex(lp).solve()


def solve_lp(lp: LinearProgram) -> FractionalSolution:
    """Solve a relaxed placement program and unpack x, y from the variables."""
    if lp.shape is None:
        raise ValueError("program carries no (requests, mecs) shape to unpack")
    R, M = lp.shape
    result = simplex_solve(lp)
    x = result.values[: R * M].reshape(R, M)
    y = result.values[R * M : R * M + R]
    return FractionalSolution(x=x, y=y, objective=result.objective)

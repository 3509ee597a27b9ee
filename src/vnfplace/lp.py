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
``build_relaxed_program`` starts at ``repair.pack``'s placement, which
serves every request the greedy policy fits and breaks no row, so the
placement relaxation needs no artificials and often starts at, or a few
pivots from, its optimum.
Entering variable: largest reduced cost, switching to Bland's smallest-index
rule after a long degenerate streak.

Such a start is degenerate: ``pack`` leaves every redundancy row at exactly
zero slack, and from it about half of all steps moved the objective by zero.
So the solve relaxes each row whose slack starts at exactly zero, and which
gets no artificial, by a small shift that differs from row to row,
``1e-6 * max(1, |b_i|) * (1 + frac(0.618... * i))`` for row i, and runs both
phases on the relaxed rows (right-hand-side perturbation; Charnes,
Econometrica 1952; Wolfe, J. SIAM 1963).  After phase 2 it restores the true
right-hand side and refactorizes once, which recomputes the basic values.
The reduced costs do not depend on the right-hand side, and phase 2 stops
on fresh duals only, so where every basic value lies within the tolerance
of its bounds the basis is optimal for the true program; it is certified
on fresh duals and residuals as any other.  Otherwise, and where the
relaxed program is unbounded (the true one may then be infeasible), the
program is solved once more from its start with no relaxation.  The shifts
follow from the row index alone, so no random stream is drawn.

The solver stores the constraint matrix in a padded (width x columns)
layout plus the number of entries of each column: width is the most entries
of any column (5 for the placement program), and padding slots hold row 0
with a zero value.  Pricing sums that layout over its first axis, the
additions, in order, of a ``bincount`` over the entries in column order.
A transposed copy, (columns x width) in C order, keeps each column's
entries contiguous and lists every entry in column order without a copy:
the entering column costs one small product of its contiguous entries with
the basis inverse, A @ v (``_product``, at each refactorization and at the
certificate) is one multiply and one ``bincount`` over it, and a
refactorization gathers the nucleus columns from it.  At 200x20 the copy
holds 0.36 MB.  The basis inverse is a dense array, updated in place by a
rank-1 BLAS update after each pivot, which carries the duals y = c_B B^-1
along as y + d_q * pivot_row (Maros, Computational Techniques of the
Simplex Method, 2003, ch. 8-9); they are computed afresh only at a phase's
start, after a refactorization and where carried duals show no improving
column.  The inverse is recomputed where pricing gives a basic column
(zero but for drift) a reduced cost above ``_DRIFT`` = 1e-9; those
measured 7e-13 at most, and |B^-1 B - I| after a phase 1.7e-12, so a
placement solve refactorizes at its start and at the restore alone.
A recomputation inverts densely only the basis nucleus: basic columns with
one entry (slacks, artificials, the y[r] columns) are singletons whose
rows and inverse entries follow by substitution, so only the remaining
columns over the remaining rows, under half the basis on the placement
program, go through ``np.linalg.inv``.  A slack start, where every
placement solve begins, has no nucleus: there the inverse is diagonal and
neither the inversion nor the coupling product runs.  From
``_NUCLEUS_MIN`` = 200 rows on, pivots exploit it too.  A basic singleton
at position s with entry a_s in row t has B e_s = a_s e_t, so column t of
B^-1 is exactly e_s / a_s, zero in every other pivot row, and the rank-1
update leaves it alone.  There is one update, over the first k columns
of ``Binv``; ``order[c]`` is the row of column c and ``where`` its
inverse, through which FTRAN, the fresh duals and the basic values read
the inverse.  Below the switch k = m and the columns keep row order.  From
it on, tracking is column swaps around that update: the k nucleus rows'
columns come first, a leaving singleton's column joins them before the
update, and an entering one's leaves after it as e_r / a_q.  k averages
87 of 280 rows at 200x20 seed 0 and 65 of 480 at 400x20, which take the
same pivots 1.27x and 2.21x as fast.  Below the switch the swaps, about
2 us a pivot, cost more than they save (every program tracked: 0.98x at
80x20, 1.00-1.04x at 130-150x10 and 120x20, 1.13x at 200x20).  The
basic values are updated incrementally along each step, with the leaving
variable pinned exactly at the bound it hit, and recomputed whenever the
inverse is.  The cost and bounds of each basic variable and the improving
sign of every column are arrays that a pivot or a bound flip updates in at
most two places; a bound flip leaves the basis as it was and reuses the
reduced costs.

A placement grid at zero cost prices its x block in one BLAS product
instead, as x[r, m] = y[r] + sum_k D[k, r] y[R + kM + m]: its reduced costs
are [-D^T | -y[:R]] @ [Y; 1], Y being y[R:R+KM] reshaped (K, M), the same
bits as 0 - (D^T @ Y + y[:R]).  The columns after it, of one entry each,
cost a take and a multiply.  The solver recognises the grid at
construction: ``shape`` = (R, M), R*M >= ``_GRID_MIN``, no cost on the
first R*M columns, column r*M + m holds row r at 1.0, then rows R + kM + m
at D[k, r], the same for every m, and no later column holds two entries.
Grid over padded pricing, measured: 0.47x at 8x3, 0.61x at 20x5, 0.78x at
30x10, 0.92x at 50x10, 1.04-1.07x at 60-80x10, 1.40x at 40x20, 2.46x at
200x20, 1.85x at 400x20.
Below the switch solves stay byte-identical; above it the product sums in
another order and may end at another optimal vertex.

The rank-1 update is ``cblas_dger`` of numpy's bundled OpenBLAS, called
through ``ctypes`` with its arguments bound once per solve: the basis
inverse, the entering column, the pivot row and the width k live in
buffers allocated with the solver and rewritten in place.  BLAS computes
the update with fused multiply-adds, so the fallback
``Binv[:, :k] -= np.multiply.outer(w, pivot_row[:k])`` differs
in the last bit of about a quarter of the entries and moves the pivots;
it is used only where that library or symbol is not found (another BLAS,
or no ``/proc/self/maps``).

The pivots follow from BLAS products, whose summation order depends on
the BLAS thread count, so another count can end at another optimal vertex.
``simplex_solve`` therefore holds numpy's OpenBLAS, which runs every BLAS
and LAPACK call of the simplex, at one thread while it runs and restores
its count after: a solve returns the same vertex whatever
``OPENBLAS_NUM_THREADS`` says.  Where the library is not found the pin
does nothing.  The pin is process-wide, so it does not cover solves run
concurrently in threads.
"""

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import RESOURCES, FractionalSolution, ProblemInstance, VnfplaceError
from .repair import pack

LE = "<="
GE = ">="

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_DIRECTION = np.array([1.0, -1.0, 0.0])   # improving move, by status
_PIVOT_FLOOR = 1e-10                        # smallest usable pivot magnitude
_TOL = 1e-7                                 # pricing, tie, step and feasibility tolerance
_DRIFT = 1e-9                               # largest basic reduced cost before a refactorization
_DEGENERATE_STREAK = 40
_RELAX = 1e-6                               # right-hand-side shift of a zero-slack row
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0      # spreads the shifts: frac(golden * i)
_GRID_MIN = 1_000                           # R*M from which a grid pays (the ladder above)
_NUCLEUS_MIN = 200                          # rows from which the permuted inverse pays (above)


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


def build_relaxed_program(inst: ProblemInstance) -> LinearProgram:
    """Relax the placement problem: binary requirements become [0, 1] boxes.
    The simplex starts at ``repair.pack``'s placement."""
    R, M, K = inst.n_requests, inst.n_mecs, len(RESOURCES)
    packed = pack(inst)
    x = np.arange(R * M).reshape(R, M)
    # served requests must reach their replica count: x[r, :] - psi_r y_r >= 0;
    # then one row per (resource, node): demand @ x[:, m] <= capacity
    return LinearProgram(
        n_vars=R * M + R, objective=np.concatenate([np.zeros(R * M), inst.reward_vector()]),
        shape=(R, M), start=np.concatenate([packed.x.ravel(), packed.y]),
        row=np.concatenate([np.repeat(np.arange(R), M + 1), R + np.repeat(np.arange(K * M), R)]),
        var=np.concatenate([np.column_stack([x, R * M + np.arange(R)]).ravel(),
                            np.tile(x.T.ravel(), K)]),
        coef=np.concatenate([np.column_stack([np.ones((R, M)), -inst.replica_vector()]).ravel(),
                             np.repeat(inst.demands, M, axis=0).ravel()]),
        sense=np.concatenate([np.full(R, GE), np.full(K * M, LE)]),
        rhs=np.concatenate([np.zeros(R), inst.capacities.ravel()]))


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
    Fortran-ordered dense array, its columns permuted from ``_NUCLEUS_MIN``
    rows on, and the basic values ``xb`` incrementally.
    With ``relax``, the rows the start leaves at zero slack are relaxed: the
    phases run against ``b``, and ``rhs`` holds the true right-hand side.
    """

    def __init__(self, lp, relax=False):
        self.objective_coeffs = lp.objective
        m, n = lp.rhs.size, lp.n_vars
        self.m = m
        self.n_struct = n
        self.n_real = n + m            # structural + one slack per row
        self.max_iterations = 50 * (3 * m + n) + 1000
        self.iterations = 0

        # structural entries, column by column; repeated entries add up
        order = np.argsort(lp.var, kind="stable")
        rows, cols, vals = lp.row[order], lp.var[order], lp.coef[order]

        self.rhs = self.b = lp.rhs
        sigma = np.where(lp.sense == LE, 1.0, -1.0)
        resid = self.b - np.bincount(rows, weights=vals * lp.start[cols], minlength=m)
        art_rows = np.flatnonzero(sigma * resid < 0.0)  # slack would start negative
        tight = np.flatnonzero(resid == 0.0)
        if relax and tight.size:
            # each zero slack starts a little positive: a distinct shift per row
            self.b = self.rhs.copy()
            self.b[tight] += sigma[tight] * _RELAX * np.maximum(1.0, np.abs(self.b[tight])) \
                * (1.0 + np.modf(_GOLDEN * tight)[0])
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
        # the same slots column by column, (columns x width) in C order: a
        # column's entries are contiguous, and the ravel lists every entry
        # in column order without a copy
        self._column_rows = np.ascontiguousarray(self.padded_rows.T)
        self._column_data = np.ascontiguousarray(self.padded_data.T)

        self.lower = np.concatenate([lp.lower, np.zeros(total - n)])
        self.upper = np.concatenate([lp.upper, np.full(total - n, np.inf)])
        self.artificials = self.n_real + np.arange(k)
        self.basis = n + slack_rows
        self.basis[art_rows] = self.artificials
        self.status = np.full(total, _AT_LOWER, dtype=np.int8)
        self.status[:n][(lp.start == lp.upper) & (lp.upper > lp.lower)] = _AT_UPPER
        self.status[self.basis] = _BASIC
        # buffers rewritten in place, so the rank-1 update's arguments,
        # Binv -= w pivot_row^T in column-major order (102), are bound once
        self.Binv = np.zeros((m, m), order="F")
        self.w, self.pivot_row, self._duals = np.empty(m), np.empty(m), np.empty(m)
        self._terms = np.empty(self.padded_rows.shape)
        self._priced, self._reduced = np.empty(total), np.empty(total)
        self._grid = _placement_grid(lp, self.padded_rows, self.padded_data, self.count)
        if self._grid is not None:
            # the grid's reduced costs and the one-entry columns after it
            grid = math.prod(lp.shape)
            self._x = self._reduced[:grid].reshape(lp.shape)
            self._Y = np.ones((self._grid.shape[1], lp.shape[1]))
            self._tail = (self.padded_rows[0, grid:].copy(), self.padded_data[0, grid:].copy(),
                          self._priced[grid:])
        # Binv's column c holds row order[c], row i sits in column where[i]
        self._tracks = m >= _NUCLEUS_MIN
        self._order, self._where, self._k, self._spare = np.arange(m), np.arange(m), m, np.empty(m)
        blas = _openblas()
        self._dger = blas and functools.partial(blas[2], *(
            kind(value) for kind, value in zip(blas[2].argtypes, (
                102, m, m, -1.0, self.w.ctypes.data, 1, self.pivot_row.ctypes.data, 1,
                self.Binv.ctypes.data, m))))
        # the columns the update reaches: m, or k while the inverse is permuted
        self._width = self._dger.args[2] if self._dger else ctypes.c_int64(m)
        # slacks and artificials are singletons: no nucleus to invert
        self._refactorize()

    # -- sparse products -------------------------------------------------------

    def _product(self, v) -> np.ndarray:
        """A @ v, each row summed over the entries in column order."""
        return np.bincount(self._column_rows.ravel(),
                           weights=(self._column_data * v[:, None]).ravel(), minlength=self.m)

    def _transposed_product(self, y) -> np.ndarray:
        """y @ A, each column summed from zero over its slots in order, the
        additions a ``np.bincount`` makes over the entries in column order.
        Returns a buffer that the next call overwrites."""
        return _padded_product(y, self.padded_rows, self.padded_data, self._terms, self._priced)

    def _grid_reduced(self, cost, y) -> np.ndarray:
        """Reduced costs on a placement grid at zero cost (see the module
        docstring), into the buffer ``_reduced``."""
        (R, M), K = self._x.shape, self._Y.shape[0] - 1
        np.negative(y[:R], out=self._grid[:, K])
        self._Y[:K] = y[R:R + K * M].reshape(K, M)
        np.matmul(self._grid, self._Y, out=self._x)
        rows, data, priced = self._tail
        np.multiply(y.take(rows, out=priced, mode="clip"), data, out=priced)
        np.subtract(cost[self._x.size:], priced, out=self._reduced[self._x.size:])
        return self._reduced

    def _column(self, q) -> np.ndarray:
        """FTRAN: Binv @ A[:, q], written into ``w``."""
        k = self.count[q]
        # a contiguous operand: BLAS may round a strided one differently
        return np.matmul(self.Binv[:, self._where[self._column_rows[q, :k]]],
                         self._column_data[q, :k], out=self.w)

    def _reduced_costs(self, cost, basic_cost=None) -> np.ndarray:
        """Reduced costs on the duals ``_duals``, into a reused buffer; given
        basic_cost = cost[basis], the duals are first computed afresh."""
        if basic_cost is not None:
            (basic_cost @ self.Binv).take(self._where, out=self._duals)
        if self._grid is not None:
            return self._grid_reduced(cost, self._duals)
        return np.subtract(cost, self._transposed_product(self._duals), out=self._reduced)

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
        if K.size:      # else every basic column is a singleton: no nucleus
            # the nucleus columns over every row, each cell summed in slot
            # order; padding slots add zero to row 0
            nuclear = self.basis[K]
            cells = self._column_rows[nuclear] * K.size + np.arange(K.size)[:, None]
            dense = np.bincount(cells.ravel(), weights=self._column_data[nuclear].ravel(),
                                minlength=self.m * K.size).reshape(self.m, K.size)
            # only singleton rows that some nucleus column touches couple to N
            coupling = dense[t]
            hit = np.flatnonzero(coupling.any(axis=1))
            try:
                nucleus_inv = np.linalg.inv(dense[N])
            except np.linalg.LinAlgError as exc:
                raise NumericalInstabilityError("basis matrix is singular") from exc
        if self._tracks:    # the nucleus rows' columns first, then the singleton rows'
            self._order, self._k = np.concatenate([N, t]), N.size
            self._where[self._order] = np.arange(self.m)
            N, t = np.arange(N.size), np.arange(N.size, self.m)
        self.Binv.fill(0.0)
        self.Binv[S, t] = 1.0 / a
        if K.size:      # the columns N, whole: the inverse in rows K, coupling in rows S
            block = np.zeros((self.m, N.size))
            block[K] = nucleus_inv
            block[S[hit]] = (coupling[hit] @ nucleus_inv) / -a[hit, None]
            self.Binv[:, N] = block
        v = self._nonbasic_values()
        rhs = self.b - self._product(v)
        self.xb = self.Binv @ rhs[self._order]

    def _pivot(self, r, q) -> np.ndarray:
        """Column q replaces basis row r; w = Binv @ A[:, q] is consumed.
        The rank-1 update reaches Binv's first k columns.  Returns the pivot
        row in Binv's column order."""
        self.basis[r] = q
        Binv, pivot_row, w, k = self.Binv, self.pivot_row, self.w, self._k
        np.divide(Binv[r], w[r], out=pivot_row)
        w[r] -= 1.0
        if self._dger:
            self._dger()
        else:
            Binv[:, :k] -= np.multiply.outer(w, pivot_row[:k])
        Binv[r, :k] = pivot_row[:k]
        return pivot_row

    def _nucleus_pivot(self, r, q) -> np.ndarray:
        """``_pivot`` on the permuted inverse, whose columns after the first
        k are e_s / a_s with a zero in row r.  Returns the pivot row in row order."""
        leaving = self.basis[r]
        if self.count[leaving] == 1:
            # the leaving singleton's row joins the nucleus rows
            self._swap(self._where[self.padded_rows[0, leaving]], self._k)
            self._k += 1
        self._width.value = self._k
        pivot_row = self._pivot(r, q)
        if self.count[q] == 1:
            # the entering singleton's row leaves them, its column exactly e_r / a_q
            self._k -= 1
            self._swap(self._where[self.padded_rows[0, q]], self._k)
            self.Binv[:, self._k] = 0.0
            self.Binv[r, self._k] = 1.0 / self.padded_data[0, q]
        return pivot_row[self._where]

    def _swap(self, i, j):
        """Exchange columns i and j of the permuted inverse and of the pivot row."""
        a, b, row, order = self.Binv[:, i], self.Binv[:, j], self.pivot_row, self._order
        self._spare[:] = a
        a[:] = b
        b[:] = self._spare
        row[i], row[j] = row[j], row[i]
        order[i], order[j] = order[j], order[i]
        self._where[order[i]], self._where[order[j]] = i, j

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
        status, lower, upper, basis = self.status, self.lower, self.upper, self.basis
        movable = (upper - lower > 0.0).astype(float)
        # per basis row: its cost and bounds; per column: the sign of an
        # improving move off its bound (0 if basic or fixed).  A pivot or a
        # bound flip changes at most two entries of each.
        basic_cost = cost[basis]
        basic_lower = lower[basis]
        basic_upper = upper[basis]
        sign = _DIRECTION[status] * movable
        gain = np.empty(sign.size)
        negated, gap, size, steps, moved = (np.empty(self.m) for _ in range(5))
        above, usable = np.empty(self.m, bool), np.empty(self.m, bool)
        dual_step = np.empty(self.m)
        # bound per phase: stored on the instance it would hold it in a reference cycle
        pivot = self._nucleus_pivot if self._tracks else self._pivot
        reduced = self._reduced_costs(cost, basic_cost)   # None until priced after a pivot
        fresh = True             # the duals are basic_cost @ Binv, not carried
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise IterationLimitError(f"no optimum within {self.max_iterations} iterations")
            if reduced is None:
                reduced = self._reduced_costs(cost)
                # a basic column's reduced cost is zero but for drift
                drift = reduced[basis]
                if np.maximum.reduce(np.abs(drift, out=drift), initial=0.0) > _DRIFT:
                    self._refactorize()
                    reduced, fresh = self._reduced_costs(cost, basic_cost), True
            # gain: positive exactly where moving off the current bound improves
            np.multiply(reduced, sign, out=gain)
            q = _bland(gain) if bland else int(gain.argmax())
            if not gain[q] > _TOL and not fresh:
                # optimality is declared on fresh duals only
                reduced, fresh = self._reduced_costs(cost, basic_cost), True
                np.multiply(reduced, sign, out=gain)
                q = _bland(gain) if bland else int(gain.argmax())
            if not gain[q] > _TOL:
                return

            w = self._column(q)
            entering_lower = status[q] == _AT_LOWER
            lower_q, upper_q = lower.item(q), upper.item(q)
            # basic values move as xb - t*delta
            delta = w if entering_lower else np.negative(w, out=negated)
            xb = self.xb
            # each basic value heads for the bound on its side of the move;
            # an infinite upper bound yields an infinite step
            np.greater(delta, 0.0, out=above)
            np.subtract(xb, basic_upper, out=gap)
            np.subtract(xb, basic_lower, out=gap, where=above)
            np.greater(np.abs(delta, out=size), _PIVOT_FLOOR, out=usable)
            steps.fill(np.inf)
            np.divide(gap, delta, out=steps, where=usable)
            np.maximum(steps, 0.0, out=steps)

            t_flip = upper_q - lower_q
            t_row = np.minimum.reduce(steps) if self.m else np.inf
            if not math.isfinite(t_row) and not math.isfinite(t_flip):
                raise UnboundedProgramError("objective unbounded above")

            if t_flip <= t_row:
                # entering variable runs to its opposite bound; basis unchanged
                flipped = _AT_UPPER if entering_lower else _AT_LOWER
                status[q] = flipped
                sign[q] = _DIRECTION[flipped] * movable[q]
                step = t_flip
                np.subtract(xb, np.multiply(delta, step, out=moved), out=xb)
            else:
                tie = (steps <= t_row + _TOL).nonzero()[0]
                r = int(tie[size[tie].argmax()])
                if abs(w[r]) < _PIVOT_FLOOR:
                    raise NumericalInstabilityError(f"pivot magnitude {abs(w[r]):.3e} below floor")
                step = steps[r]
                entering = lower_q + step if entering_lower else upper_q - step
                # the leaving variable is pinned exactly at the bound it hit
                leaving = basis[r]
                left = _AT_UPPER if delta[r] < 0 else _AT_LOWER
                status[leaving] = left
                sign[leaving] = _DIRECTION[left] * movable[leaving]
                status[q] = _BASIC
                sign[q] = 0.0
                basic_cost[r] = cost[q]
                basic_lower[r] = lower_q
                basic_upper[r] = upper_q
                np.subtract(xb, np.multiply(delta, step, out=moved), out=xb)
                xb[r] = entering
                # y = basic_cost @ Binv moves by d_q times the pivot row
                np.add(self._duals, np.multiply(pivot(r, q), reduced[q], out=dual_step),
                       out=self._duals)
                reduced, fresh = None, False

            if step <= _TOL:
                degenerate_streak += 1
                if degenerate_streak >= _DEGENERATE_STREAK:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False

    # -- phases ---------------------------------------------------------------

    def solve(self) -> SimplexResult:
        """The optimum, or None where the relaxed rows' optimal basis is
        infeasible once the true right-hand side is restored."""
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
        if self.b is not self.rhs:
            # the reduced costs do not depend on b: the basis stays optimal
            # for the true rows if it stays feasible for them
            self.b = self.rhs
            self._refactorize()
            basis = self.basis
            if ((self.xb < self.lower[basis] - _TOL) | (self.xb > self.upper[basis] + _TOL)).any():
                return None
        v = self._values()
        self._certify(cost, v)
        # snap solver dust back onto the boxes
        n = self.n_struct
        values = np.clip(v[:n], self.lower[:n], self.upper[:n])
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


def _padded_product(y, rows, data, terms, out) -> np.ndarray:
    """y @ A for columns stored padded, each summed from zero over its slots in order."""
    y.take(rows, out=terms, mode="clip")
    terms *= data
    return np.add.reduce(terms, axis=0, initial=0.0, out=out)


def _placement_grid(lp, rows, data, count):
    """[-D^T | 0], an (R, K + 1) array, where the program's first R*M columns
    form a placement grid at zero cost and no later column has two entries
    (see the module docstring); None for any other program."""
    if lp.shape is None or not _GRID_MIN <= math.prod(lp.shape) <= lp.n_vars or not count[0]:
        return None
    (R, M), K = lp.shape, int(count[0]) - 1
    r, m = np.divmod(np.arange(R * M), M)
    expected = np.vstack([r, R + M * np.arange(K)[:, None] + m])
    if ((count[:R * M] != K + 1).any() or (rows[:K + 1, :R * M] != expected).any()
            or (data[0, :R * M] != 1.0).any() or lp.objective[:R * M].any()
            or count[R * M:].max(initial=0) > 1):
        return None
    D = data[1:K + 1, :R * M].reshape(K, R, M)
    return None if (D != D[:, :, :1]).any() else np.column_stack([-D[:, :, 0].T, np.zeros(R)])


def _bland(gain) -> int:
    """Bland's rule: the first column whose gain exceeds ``_TOL``, else
    column 0, which then fails that test too."""
    candidates = (gain > _TOL).nonzero()[0]
    return int(candidates[0]) if candidates.size else 0


@functools.cache
def _openblas():
    """(get_threads, set_threads, dger) of numpy's bundled OpenBLAS, the
    ILP64 ``scipy_openblas`` build, found through ``/proc/self/maps``; None
    where it is not loaded or lacks a symbol."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            found = (lib.scipy_openblas_get_num_threads64_,
                     lib.scipy_openblas_set_num_threads64_, lib.scipy_cblas_dger64_)
        except (OSError, AttributeError):
            continue
        get, put, dger = found
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        int64, ptr = ctypes.c_int64, ctypes.c_void_p
        # order, m, n, alpha, x, incx, y, incy, a, lda
        dger.argtypes, dger.restype = [ctypes.c_int, int64, int64, ctypes.c_double,
                                       ptr, int64, ptr, int64, ptr, int64], None
        return found
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread; restore its count after."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put, _ = blas
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Maximize the program; raises on infeasible/unbounded/stalled solves."""
    if lp.n_vars == 0:
        if (np.where(lp.sense == LE, lp.rhs, -lp.rhs) < 0.0).any():
            raise InfeasibleProgramError("constant row is violated")
        return SimplexResult(values=np.zeros(0), objective=0.0, iterations=0)
    with _one_blas_thread():
        relaxed = _BoundedSimplex(lp, relax=True)
        try:
            result = relaxed.solve()
        except UnboundedProgramError:
            if relaxed.b is relaxed.rhs:
                raise
            result = None       # the relaxed rows may admit points the true ones do not
        if result is None:
            result = _BoundedSimplex(lp).solve()
            result.iterations += relaxed.iterations
        return result


def solve_lp(lp: LinearProgram) -> FractionalSolution:
    """Solve a relaxed placement program and unpack x, y from the variables."""
    if lp.shape is None:
        raise ValueError("program carries no (requests, mecs) shape to unpack")
    R, M = lp.shape
    result = simplex_solve(lp)
    x = result.values[: R * M].reshape(R, M)
    y = result.values[R * M : R * M + R]
    return FractionalSolution(x=x, y=y, objective=result.objective)

"""Sparse linear programs and solvers.

A :class:`LinearProgram` is ``min c'x`` subject to two-sided row activities
``row_lo <= Ax <= row_hi`` and variable bounds ``lo <= x <= hi`` (any bound
may be infinite; equal bounds mean equality).  ``A`` is one
:class:`CsrMatrix`: the three compressed-sparse-row arrays HiGHS takes as
they are, and no more.

Three interchangeable solvers implement the same result contract:

* :func:`solve` - the in-repo bounded-variable two-phase revised simplex.
  Deterministic, dense basis arithmetic, intended for desk-scale instances.
* :func:`solve_highs` and :func:`solve_highs_ipm` - HiGHS dual simplex and
  interior point for large dispatch instances, through one adapter over
  the HiGHS bindings bundled with scipy.  They pass the model and options
  of scipy's ``milp`` and ``linprog(method="highs-ipm")``, share one status
  table, report HiGHS's iteration count, and take no tolerance: HiGHS
  runs with its own defaults.

The bindings are one extension module, ``scipy.optimize._highspy._core``.
Importing it by name first runs ``scipy/optimize/__init__.py``, which pulls
in ``scipy.linalg``, ``scipy.special``, ``scipy.fft`` and more that gridstore
never uses: 0.30-0.42 s of a 0.84 s start to the first solve.  So until
``scipy.optimize`` is loaded, :func:`_highs` loads the extension from its
file and registers it under its full name, and a later ``import
scipy.optimize`` reuses it.  The binary and its options are the same either
way, so no LP's answer moves; the benchmark's set-up time, from importing
gridstore through its first solve, fell from 0.78 s to 0.44 s
(``rts_greedy``, medians of 10 runs on a 2-core Xeon).

For the same reason gridstore does not import ``scipy.sparse``: 0.19-0.23 s
and 20 MB, about half of it ``scipy._lib.array_api_compat`` loading
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, only to hold three
arrays.  :class:`CsrMatrix` holds them with the index dtype scipy picks,
builds from triplets in scipy's entry order, and multiplies a vector in
scipy's summation order, so every model HiGHS receives and every residual
is byte-identical to the ones built through ``scipy.sparse``.  The in-repo
simplex keeps its tableau in one as well, stored by column: the arrays of
scipy's CSC matrix, so its prices, basic values and basis matrices are
scipy's bit for bit too.

The HiGHS adapter keeps no model between solves.  Each LP goes to HiGHS in
one ``passModel`` call that takes the counts and the program's own numpy
arrays: 25-39 us on a quickstart LP (219 x 81, 928 nonzeros), where
filling the bindings' LP object copies the matrix item by item and takes
170 us (best of 5 x 200 calls, 2-core Xeon).  Dual simplex reuses one
HiGHS object per thread, which ``passModel`` resets to a cold start; a new
object with its options would add 61-91 us to every LP.  HiGHS releases the
GIL while it solves, so a sweep's threads solve at once.  Interior point
takes a fresh HiGHS object per LP: a reused one keeps about 10 MB of IPM
workspace that neither ``clearSolver`` nor ``clearModel`` releases (peak
RSS over the 15 ``rts_greedy`` LPs in one process, 85.5 against 75.2 MB).
Every answer is bit-identical to a solve on a fresh object.

A solve given a ``stop`` event ends with Status.INTERRUPTED once the event
is set: the in-repo simplex checks it before every pivot, and HiGHS through
one Python callback started for its IPM and simplex interrupt checks.  Each
call of that callback takes the GIL, about 6100 times per T=12 and 10600
times per T=24 storage-everywhere IPM solve of the three-area network, so
only a solve with ``stop`` installs one: those on the pool threads of a
``jobs > 1`` sweep, which stops its abandoned solves this way.  A jobs=1
sweep and :func:`dispatch.lookahead_dispatch` install none.  The callback
is dropped when the solve returns, so a reused dual simplex object carries
none into its next solve.  A never-set ``stop`` moves no answer: on the
T=12 LP both solves took 0.72 s and returned the same ``x`` bit for bit.

Every solver answers a program without variables the same way and reports
an infeasible, unbounded or iteration-limited instance as a status, not as
an exception.  Every optimal ``x`` takes one path, :func:`_optimal`, with
one rule: it must be finite, and once clipped into the variable bounds it
may miss a row by at most ``max(10 * feas_tol, 1e-6)``, else the solver
raises SolverFailure.  ``LpSolution.max_violation`` is that row residual.
:func:`solve_with_backend` picks a solver by name.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import SolverFailure, ValidationError

INF = float("inf")

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_OPT_TOL = 1e-8
_STALL_LIMIT = 50  # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 150
_PIVOT_TOL = 1e-9


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    INTERRUPTED = "interrupted"  # the caller's ``stop`` event was set mid-solve


class CsrMatrix:
    """A sparse matrix as its compressed-sparse-row arrays, the form HiGHS takes.

    ``indptr`` (n_rows + 1), ``indices`` and ``data`` (nnz each) mean what
    they mean in ``scipy.sparse.csr_matrix``; the constructor keeps the
    arrays it is given.  A matrix built here has scipy's arrays and dtypes.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> CsrMatrix:
        """Entries ``A[rows[k], cols[k]] = values[k]``, sorted by row, then column.

        This is ``scipy.sparse.csr_matrix((values, (rows, cols)), shape)``
        byte for byte when no (row, column) pair repeats; scipy would add
        repeats up, this keeps each.
        """
        order = np.lexsort((cols, rows))
        # scipy's index dtype: int32 unless a dimension or the nnz needs more
        idx = np.int32 if max(*shape, len(order)) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(shape[0] + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols[order].astype(idx), np.asarray(values, float)[order], shape)

    @classmethod
    def convert(cls, A) -> CsrMatrix:
        """``A`` itself, a scipy sparse matrix's ``tocsr()`` or a dense array's nonzeros."""
        if isinstance(A, CsrMatrix):
            return A
        if hasattr(A, "tocsr"):  # any scipy sparse matrix or array, without importing scipy.sparse
            A = A.tocsr()
            return cls(A.indptr, A.indices, np.asarray(A.data, float), A.shape)
        dense = np.atleast_2d(np.asarray(A, float))
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector ``x``.

        ``bincount`` adds each row's products into a zero in entry order, as
        scipy's ``csr_matvec`` does, so the result is scipy's bit for bit.
        """
        products = self.data * np.asarray(x)[self.indices]
        return np.bincount(self._entry_rows(), weights=products, minlength=self.shape[0])

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x`` for a vector ``x``: scipy's product for the CSC matrix ``A.T``.

        ``bincount`` adds each product into its column's zero in entry order,
        as scipy's ``csc_matvec`` does, so the result is scipy's bit for bit.
        """
        products = self.data * np.repeat(np.asarray(x), np.diff(self.indptr))
        return np.bincount(self.indices, weights=products, minlength=self.shape[1])

    def take_rows(self, rows: np.ndarray) -> CsrMatrix:
        """The rows numbered ``rows``, in that order, as new arrays: scipy's ``A[rows]``."""
        start, stop = self.indptr[rows], self.indptr[rows + 1]
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(stop - start, out=indptr[1:])
        entries = np.repeat(start - indptr[:-1], stop - start) + np.arange(indptr[-1])
        shape = (len(rows), self.shape[1])
        return CsrMatrix(indptr, self.indices[entries], self.data[entries], shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self._entry_rows(), self.indices), self.data)
        return out


@dataclass
class LinearProgram:
    """LP over a CSR constraint matrix with two-sided rows and variable bounds.

    ``A`` is a :class:`CsrMatrix`, kept as it is, so programs built on one
    matrix share it.  A dense array or nested list is converted to its
    nonzeros, and any scipy sparse matrix through its own ``tocsr()``, which
    keeps a CSR matrix's arrays (see :meth:`CsrMatrix.convert`); either way
    the arrays are those ``scipy.sparse.csr_matrix(A, dtype=float)`` holds.
    Without ``A`` the program has ``len(row_lower)`` empty rows.
    """

    n_vars: int
    cost: np.ndarray  # (n_vars,)
    A: CsrMatrix | None = None  # (n_rows, n_vars)
    row_lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    var_lower: np.ndarray | None = None
    var_upper: np.ndarray | None = None

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.row_lower = np.asarray(self.row_lower, dtype=float)
        self.row_upper = np.asarray(self.row_upper, dtype=float)
        if self.A is None:
            self.A = np.zeros((len(self.row_lower), self.n_vars))
        self.A = CsrMatrix.convert(self.A)
        if self.var_lower is None:
            self.var_lower = np.full(self.n_vars, -INF)
        else:
            self.var_lower = np.asarray(self.var_lower, dtype=float)
        if self.var_upper is None:
            self.var_upper = np.full(self.n_vars, INF)
        else:
            self.var_upper = np.asarray(self.var_upper, dtype=float)

    @property
    def n_rows(self) -> int:
        return len(self.row_lower)

    def validate(self) -> None:
        if self.cost.shape != (self.n_vars,):
            raise ValidationError("cost vector length mismatch")
        if not np.all(np.isfinite(self.cost)):
            raise ValidationError("cost entries must be finite")
        if self.row_lower.shape != self.row_upper.shape:
            raise ValidationError("row bound arrays disagree")
        # the HiGHS bindings read every array by the counts they are given, not its length
        if self.var_lower.shape != (self.n_vars,) or self.var_upper.shape != (self.n_vars,):
            raise ValidationError("variable bound vector length mismatch")
        for name in ("row_lower", "row_upper", "var_lower", "var_upper"):
            if np.isnan(getattr(self, name)).any():
                raise ValidationError(f"{name} has NaN entries")
        if np.any(self.row_lower > self.row_upper):
            raise ValidationError("row lower bound exceeds upper bound")
        if np.any(self.var_lower > self.var_upper):
            raise ValidationError("variable lower bound exceeds upper bound")
        if self.A.shape != (self.n_rows, self.n_vars):
            raise ValidationError(
                f"constraint matrix is {self.A.shape}, expected {(self.n_rows, self.n_vars)}"
            )
        if self.A.indptr.shape != (self.n_rows + 1,):
            raise ValidationError(f"constraint matrix indptr needs {self.n_rows + 1} entries")
        if self.A.indptr[0] != 0 or (self.A.indptr[1:] < self.A.indptr[:-1]).any():
            raise ValidationError("constraint matrix indptr must start at 0 and never decrease")
        if not len(self.A.indices) == len(self.A.data) == self.A.nnz:
            raise ValidationError("constraint matrix indices and values disagree with its indptr")
        if self.A.nnz and not 0 <= self.A.indices.min() <= self.A.indices.max() < self.n_vars:
            raise ValidationError(f"constraint matrix has a column index outside [0, {self.n_vars})")
        if not np.all(np.isfinite(self.A.data)):
            raise ValidationError("constraint matrix has non-finite coefficients")

    def matrix(self) -> CsrMatrix:
        return self.A


@dataclass
class LpSolution:
    status: Status
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    max_violation: float = 0.0


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst residual of x against the rows; every solver clips x into the variable bounds."""
    act = lp.matrix() @ x
    return max(
        0.0,
        float(np.max(lp.row_lower - act, initial=0.0)),
        float(np.max(act - lp.row_upper, initial=0.0)),
    )


def _optimal(
    lp: LinearProgram, x: np.ndarray, iterations: int, name: str, feas_tol: float
) -> LpSolution:
    """Every solver's one acceptance rule for its optimal ``x``; clips ``x`` in place."""
    # max() reads a NaN residual as 0, so NaN is caught here
    if not np.isfinite(x).all():
        raise SolverFailure(f"{name} returned a non-finite solution")
    np.clip(x, lp.var_lower, lp.var_upper, out=x)
    resid = max_violation(lp, x)
    tol = max(10 * feas_tol, 1e-6)
    if resid > tol:
        raise SolverFailure(f"{name} solution misses its rows by {resid:.3e}, more than {tol:.1e}")
    return LpSolution(Status.OPTIMAL, x, float(lp.cost @ x), iterations, resid)


def _empty_program(lp: LinearProgram) -> LpSolution:
    """Every solver's result for a program without variables: its rows hold at 0 or never."""
    if np.all(lp.row_lower <= 0) and np.all(lp.row_upper >= 0):
        return LpSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0, 0.0)
    return LpSolution(Status.INFEASIBLE)


def default_iter_limit(lp: LinearProgram) -> int:
    return 50 * (lp.n_vars + lp.n_rows)


# ---------------------------------------------------------------------------
# In-repo simplex
# ---------------------------------------------------------------------------
#
# Internally the LP is restated with one logical variable per row:
#     A x - s = 0,   row_lo <= s <= row_hi,   var_lo <= x <= var_hi
# so every constraint is an equality with rhs zero and all inequality
# information lives in bounds.  Phase 1 adds a signed artificial column for
# each row whose initial activity falls outside the logical bounds and
# minimizes the sum of artificials.

_AT_LOWER = 0
_AT_UPPER = 1
_FREE_AT_ZERO = 2
_BASIC = 3


class _Tableau:
    def __init__(self, lp: LinearProgram, feas_tol: float):
        m = lp.n_rows
        n = lp.n_vars
        self.m = m

        # initial nonbasic point: finite bound nearest zero, else zero
        lo, hi = lp.var_lower, lp.var_upper
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        take_lower = lo_fin & (~hi_fin | (np.abs(lo) <= np.abs(np.where(hi_fin, hi, 0.0))))
        x0 = np.where(take_lower, lo, np.where(hi_fin, hi, 0.0))
        x0 = np.where(lo_fin | hi_fin, x0, 0.0)

        act = lp.A @ x0
        s0 = np.clip(act, lp.row_lower, lp.row_upper)
        resid = act - s0  # nonzero where the start violates logical bounds
        art_rows = np.flatnonzero(np.abs(resid) > feas_tol)
        n_art = len(art_rows)

        self.n_total = n + m + n_art
        self.lower = np.concatenate([lp.var_lower, lp.row_lower, np.zeros(n_art)])
        self.upper = np.concatenate([lp.var_upper, lp.row_upper, np.full(n_art, INF)])
        self.cost = np.concatenate([lp.cost, np.zeros(m + n_art)])
        # [A, -I, artificials] stored by column: row j of self.A is column j.
        # An artificial's coefficient opposes its row's residual, so it starts at |resid|.
        rows = np.arange(m)
        self.A = CsrMatrix.from_coo(
            np.concatenate([lp.A.indices, n + rows, n + m + np.arange(n_art)]),
            np.concatenate([lp.A._entry_rows(), rows, art_rows]),
            np.concatenate([lp.A.data, np.full(m, -1.0), -np.sign(resid[art_rows])]),
            (self.n_total, m),
        )
        self.art_cols = np.arange(n + m, self.n_total)

        self.state = np.empty(self.n_total, dtype=np.int8)
        self.values = np.zeros(self.n_total)
        self.state[:n] = np.where(
            take_lower, _AT_LOWER, np.where(hi_fin, _AT_UPPER, _FREE_AT_ZERO)
        )
        self.state[:n][~(lo_fin | hi_fin)] = _FREE_AT_ZERO
        self.values[:n] = x0

        # basis: logical for satisfied rows, artificial for violated ones
        self.basis = n + np.arange(m)
        self.state[n : n + m] = _BASIC
        self.values[n : n + m] = act
        for k, r in enumerate(art_rows):
            col = n + m + k
            self.basis[r] = col
            self.state[col] = _BASIC
            self.values[col] = abs(resid[r])
            # the logical sits at whichever bound the activity overshot
            self.state[n + r] = _AT_UPPER if resid[r] > 0 else _AT_LOWER
            self.values[n + r] = s0[r]

        self.binv = np.zeros((0, 0))
        self.refactor()

    # -- basis linear algebra --------------------------------------------

    def refactor(self) -> None:
        B = self.A.take_rows(self.basis).toarray().T
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular basis during refactorization") from exc

    def recompute_basic_values(self) -> None:
        xn = np.where(self.state == _BASIC, 0.0, self.values)
        self.values[self.basis] = self.binv @ -self.A.rmatvec(xn)

    def column(self, j: int) -> np.ndarray:
        out = np.zeros(self.m)
        a, b = self.A.indptr[j], self.A.indptr[j + 1]
        out[self.A.indices[a:b]] = self.A.data[a:b]
        return out

    # -- pivoting ----------------------------------------------------------

    def entering(self, cost: np.ndarray, tol: float, bland: bool):
        rc = cost - self.A @ (cost[self.basis] @ self.binv)
        movable = (self.upper - self.lower) > 0
        st = self.state
        up_ok = ((st == _AT_LOWER) | (st == _FREE_AT_ZERO)) & (rc < -tol) & movable
        dn_ok = ((st == _AT_UPPER) | (st == _FREE_AT_ZERO)) & (rc > tol) & movable
        eligible = up_ok | dn_ok
        if not eligible.any():
            return None
        if bland:
            j = int(np.flatnonzero(eligible)[0])
        else:
            j = int(np.argmax(np.where(eligible, np.abs(rc), -1.0)))
        return j, (+1 if up_ok[j] else -1)

    def ratio_test(self, j: int, direction: int, bland: bool):
        """Largest step along the edge; None row means a bound flip.

        Returns (step, row, to_upper, d) or None for an unbounded ray.
        """
        d = self.binv @ self.column(j)
        # basic response to a unit move of x_j: dx_B = -direction * d
        rate = -direction * d
        vals = self.values[self.basis]
        steps = np.full(self.m, INF)
        pos = rate > _PIVOT_TOL
        neg = rate < -_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            steps[pos] = (self.upper[self.basis[pos]] - vals[pos]) / rate[pos]
            steps[neg] = (self.lower[self.basis[neg]] - vals[neg]) / rate[neg]
        steps = np.maximum(steps, 0.0)

        flip = self.upper[j] - self.lower[j]  # may be inf
        row_min = float(steps.min(initial=INF))
        if row_min >= INF and flip >= INF:
            return None  # unbounded ray
        if flip < row_min - 1e-12:
            return flip, None, False, d

        cands = np.flatnonzero(steps <= row_min + 1e-12)
        if bland:
            r = int(cands[np.argmin(self.basis[cands])])
        else:
            r = int(cands[np.argmax(np.abs(d[cands]))])
        return row_min, r, bool(rate[r] > 0), d

    def pivot(self, j: int, direction: int, step: float, row, to_upper: bool, d: np.ndarray):
        if step != 0.0:
            self.values[self.basis] -= step * direction * d
        self.values[j] = self.values[j] + step * direction
        if row is None:
            self.state[j] = _AT_UPPER if direction > 0 else _AT_LOWER
            return
        leaving = self.basis[row]
        self.state[leaving] = _AT_UPPER if to_upper else _AT_LOWER
        self.values[leaving] = self.upper[leaving] if to_upper else self.lower[leaving]
        self.basis[row] = j
        self.state[j] = _BASIC
        dj = d[row]
        if abs(dj) < 1e-11:
            self.refactor()
            return
        # product-form update of the explicit inverse
        eta = -d / dj
        eta[row] = 1.0 / dj
        pivot_row = self.binv[row, :].copy()
        self.binv += np.outer(eta, pivot_row)
        self.binv[row, :] = pivot_row * eta[row]

    def run(self, cost: np.ndarray, iter_budget: int, opt_tol: float, stop=None):
        """Minimize cost from the current basis.

        Returns (outcome, iterations); the outcome is OPTIMAL, UNBOUNDED (a
        ray), ITERATION_LIMIT, or INTERRUPTED once ``stop`` is set, which is
        checked before every pivot.
        """
        iters = 0
        stall = 0
        bland = False
        since_refactor = 0
        while iters < iter_budget:
            if stop is not None and stop.is_set():
                return Status.INTERRUPTED, iters
            pick = self.entering(cost, opt_tol, bland)
            if pick is None:
                return Status.OPTIMAL, iters
            j, direction = pick
            hit = self.ratio_test(j, direction, bland)
            if hit is None:
                return Status.UNBOUNDED, iters
            step, row, to_upper, d = hit
            self.pivot(j, direction, step, row, to_upper, d)
            iters += 1
            since_refactor += 1
            if step <= 1e-12:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            if since_refactor >= _REFACTOR_EVERY:
                self.refactor()
                self.recompute_basic_values()
                since_refactor = 0
        return Status.ITERATION_LIMIT, iters


def solve(
    lp: LinearProgram,
    feas_tol: float = DEFAULT_FEAS_TOL,
    opt_tol: float = DEFAULT_OPT_TOL,
    iter_limit: int | None = None,
    stop: threading.Event | None = None,
) -> LpSolution:
    """Bounded-variable two-phase revised simplex.

    Dantzig pricing with a switch to Bland's rule after a degenerate stall;
    statuses follow the instance (OPTIMAL / INFEASIBLE / UNBOUNDED) with
    ITERATION_LIMIT reported as a status rather than an exception, and
    INTERRUPTED once ``stop`` is set, which is checked before every pivot.
    """
    lp.validate()
    if iter_limit is None:
        iter_limit = default_iter_limit(lp)

    if lp.n_vars == 0:
        return _empty_program(lp)

    tab = _Tableau(lp, feas_tol)
    total_iters = 0

    if len(tab.art_cols):
        phase1 = np.zeros(tab.n_total)
        phase1[tab.art_cols] = 1.0
        outcome, iters = tab.run(phase1, iter_limit, 1e-10, stop)
        total_iters += iters
        if outcome is Status.UNBOUNDED:
            raise SolverFailure("phase 1 reported an unbounded ray")
        if outcome is not Status.OPTIMAL:
            return LpSolution(outcome, iterations=total_iters)
        infeas = float(np.abs(tab.values[tab.art_cols]).sum())
        if infeas > feas_tol:
            return LpSolution(Status.INFEASIBLE, iterations=total_iters, max_violation=infeas)
        # pin artificials so phase 2 cannot move them again
        tab.upper[tab.art_cols] = 0.0
        tab.lower[tab.art_cols] = 0.0
        nonbasic_art = tab.art_cols[tab.state[tab.art_cols] != _BASIC]
        tab.state[nonbasic_art] = _AT_LOWER
        tab.values[nonbasic_art] = 0.0

    outcome, iters = tab.run(tab.cost, iter_limit - total_iters, opt_tol, stop)
    total_iters += iters
    if outcome is not Status.OPTIMAL:
        return LpSolution(outcome, iterations=total_iters)

    tab.refactor()
    tab.recompute_basic_values()
    return _optimal(lp, tab.values[: lp.n_vars].copy(), total_iters, "simplex", feas_tol)


# ---------------------------------------------------------------------------
# External backend (HiGHS through the bindings bundled with scipy)
# ---------------------------------------------------------------------------

_HIGHS_SCIPY = "1.15"  # the first scipy that ships _HIGHS_CORE
_HIGHS_PACKAGE = "scipy.optimize._highspy"
_HIGHS_CORE = _HIGHS_PACKAGE + "._core"

# HiGHS model statuses, by name, that answer the LP; any other is a failure
_HIGHS_STATUS = {
    "kOptimal": Status.OPTIMAL,
    "kInfeasible": Status.INFEASIBLE,
    "kModelError": Status.INFEASIBLE,
    "kIterationLimit": Status.ITERATION_LIMIT,
    "kTimeLimit": Status.ITERATION_LIMIT,
    "kUnbounded": Status.UNBOUNDED,
    "kInterrupt": Status.INTERRUPTED,
    "kHighsInterrupt": Status.INTERRUPTED,
}


_HIGHS_LOCK = threading.Lock()


def _highs():
    """scipy's bundled HiGHS bindings, loaded once: by the first thread that
    asks, while the others wait on the lock and then take its module.

    The import system binds a module on its package only when it loads the
    module itself, so once ``scipy.optimize`` has been imported after a
    direct load, this binds the bindings as ``scipy.optimize._highspy._core``.
    """
    with _HIGHS_LOCK:
        core = sys.modules.get(_HIGHS_CORE) or _load_highs()
        package = sys.modules.get(_HIGHS_PACKAGE)
        if package is not None and "_core" not in vars(package):
            package._core = core
        return core


def _load_highs():
    """The HiGHS bindings, from the extension's file until ``scipy.optimize``
    is imported, so that its ``__init__`` does not run (see the module docstring)."""
    try:
        if "scipy.optimize" in sys.modules:
            from scipy.optimize._highspy import _core

            return _core
        folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, [folder])
        if spec is None:
            raise ImportError(f"no {_HIGHS_CORE} in {folder}")
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = core
        spec.loader.exec_module(core)
        return core
    except ImportError as exc:
        raise ImportError(
            f"the HiGHS backends need scipy>={_HIGHS_SCIPY}, which bundles "
            f"{_HIGHS_CORE}; this is scipy {scipy.__version__}"
        ) from exc


@functools.cache
def _highs_options(ipm: bool):
    """The options ``milp``, or ``linprog(method="highs-ipm")``, passes to HiGHS."""
    h = _highs()
    opts = h.HighsOptions()
    opts.log_to_console = False
    if ipm:
        opts.presolve = "on"
        opts.solver = "ipm"
        opts.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        opts.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
        opts.output_flag = False
    return opts


def _highs_status(model_status, name: str) -> Status:
    try:
        return _HIGHS_STATUS[model_status.name]
    except KeyError:
        raise SolverFailure(f"{name} stopped with model status {model_status.name}") from None


class _IpmRows:
    """linprog's one-sided rows ``[A[<=]; -A[>=]; A[==]]`` for a program's row bounds.

    ``blocks`` holds the row numbers of the three blocks; a ranged row is in
    the first two, which are the ``<=`` rows, with lower bound -inf.
    """

    def __init__(self, lp: LinearProgram):
        eq = lp.row_lower == lp.row_upper
        self.blocks = (
            np.flatnonzero(np.isfinite(lp.row_upper) & ~eq),
            np.flatnonzero(np.isfinite(lp.row_lower) & ~eq),
            np.flatnonzero(eq),
        )

    def matrix(self, lp: LinearProgram) -> CsrMatrix:
        upper, lower, _ = self.blocks
        A = lp.A.take_rows(np.concatenate(self.blocks))
        A.data[A.indptr[len(upper)] : A.indptr[len(upper) + len(lower)]] *= -1.0
        return A

    def bounds(self, lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
        upper, lower, equal = self.blocks
        row_upper = np.concatenate([lp.row_upper[upper], -lp.row_lower[lower], lp.row_lower[equal]])
        row_lower = np.concatenate([np.full(len(upper) + len(lower), -INF), lp.row_lower[equal]])
        return row_lower, row_upper


def _per_thread(make):
    """``functools.cache`` for ``make``, with one cache per thread."""
    local = threading.local()

    @functools.wraps(make)
    def cached(*args):
        made = local.__dict__.setdefault("made", {})
        if args not in made:
            made[args] = make(*args)
        return made[args]

    return cached


@_per_thread
def _highs_solver(ipm: bool, name: str):
    """A HiGHS object with the method's options, made once per method and thread.

    No two threads share one: an object holds one model and one solve.
    Dual simplex reuses this thread's object for every LP; interior point
    takes a fresh one per LP from ``_highs_solver.__wrapped__`` (see the
    module docstring).
    """
    h = _highs()
    highs = h._Highs()
    if highs.passOptions(_highs_options(ipm)) == h.HighsStatus.kError:
        raise SolverFailure(f"{name} rejected its options")
    return highs


def _run_highs(lp: LinearProgram, ipm: bool, stop: threading.Event | None = None) -> LpSolution:
    """Solve ``lp`` with HiGHS dual simplex, as ``milp`` runs it, or interior point.

    The program goes to HiGHS in one ``passModel`` call on its own arrays,
    whose lengths :meth:`LinearProgram.validate` has checked: the bindings
    read the counts they are given and check no length.  Interior point
    runs on :class:`_IpmRows`' split, built per solve, as ``linprog`` runs
    it, so that its ``x`` is bit-identical to linprog's.  With ``stop``,
    the solve carries an interrupt callback until it returns (see the
    module docstring), and ends INTERRUPTED once ``stop`` is set.
    """
    lp.validate()
    if lp.n_vars == 0:
        return _empty_program(lp)
    h = _highs()
    name = "HiGHS IPM" if ipm else "HiGHS"
    if ipm:
        rows = _IpmRows(lp)
        A = rows.matrix(lp)
        row_lower, row_upper = rows.bounds(lp)
        highs = _highs_solver.__wrapped__(True, name)
    else:
        A, row_lower, row_upper = lp.A, lp.row_lower, lp.row_upper
        highs = _highs_solver(False, name)
    passed = highs.passModel(
        lp.n_vars, A.shape[0], A.nnz,
        int(h.MatrixFormat.kRowwise), int(h.ObjSense.kMinimize), 0.0,  # ints: no enum is taken
        lp.cost, lp.var_lower, lp.var_upper, row_lower, row_upper,
        A.indptr, A.indices, A.data,
        np.zeros(lp.n_vars, np.int32),  # integrality: every column continuous
    )
    if passed == h.HighsStatus.kError:
        raise SolverFailure(f"{name} rejected the model")
    if stop is not None:

        def interrupt(kind, message, data_out, data_in, user_data):
            if stop.is_set():
                data_in.user_interrupt = True

        highs.setCallback(interrupt, None)
        highs.startCallback(h.cb.HighsCallbackType.kCallbackIpmInterrupt)
        highs.startCallback(h.cb.HighsCallbackType.kCallbackSimplexInterrupt)
    try:
        ran = highs.run()
    finally:
        if stop is not None:
            highs.setCallback(None, None)  # drops the callback and stops both kinds
    if ran == h.HighsStatus.kError:
        raise SolverFailure(f"{name} failed with model status {highs.getModelStatus().name}")
    status = _highs_status(highs.getModelStatus(), name)
    _, iterations = highs.getInfoValue("simplex_iteration_count")
    if not iterations:
        _, iterations = highs.getInfoValue("ipm_iteration_count")
    if status is not Status.OPTIMAL:
        return LpSolution(status, iterations=iterations)
    # HiGHS's primal feasibility tolerance defaults to DEFAULT_FEAS_TOL too
    x = np.array(highs.getSolution().col_value)
    return _optimal(lp, x, iterations, name, DEFAULT_FEAS_TOL)


def solve_highs(lp: LinearProgram, stop: threading.Event | None = None) -> LpSolution:
    """HiGHS dual simplex, as ``milp`` runs it; same result contract as :func:`solve`.

    ``iterations`` is HiGHS's simplex iteration count.
    """
    return _run_highs(lp, False, stop)


def solve_highs_ipm(lp: LinearProgram, stop: threading.Event | None = None) -> LpSolution:
    """HiGHS interior point (with crossover), as ``linprog(method="highs-ipm")`` runs it.

    Much faster than simplex on large time-coupled instances with highly
    degenerate optimal faces; same result contract as :func:`solve`.
    ``iterations`` is HiGHS's simplex (crossover) iteration count, or its
    IPM count when crossover made none.
    """
    return _run_highs(lp, True, stop)


BACKENDS = {"simplex": solve, "highs": solve_highs, "highs-ipm": solve_highs_ipm}


def solve_with_backend(
    lp: LinearProgram, backend: str = "simplex", stop: threading.Event | None = None
) -> LpSolution:
    """Solve ``lp`` with the backend named ``backend``.

    Once ``stop`` is set, a solve still running ends with Status.INTERRUPTED
    and no ``x``: the in-repo simplex checks it before every pivot, HiGHS at
    its IPM and simplex interrupt callbacks.  Without ``stop`` no check is
    made and no callback installed.
    """
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValidationError(f"unknown LP backend {backend!r}") from None
    return fn(lp, stop=stop)

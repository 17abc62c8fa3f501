"""Sparse linear programs and solvers.

A :class:`LinearProgram` is ``min c'x`` subject to two-sided row activities
``row_lo <= Ax <= row_hi`` and variable bounds ``lo <= x <= hi`` (any bound
may be infinite; equal bounds mean equality).  ``A`` is one
``scipy.sparse`` CSR matrix.

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

A scenario sweep solves programs that share one ``A``, ``cost`` and
``var_lower`` and differ only in their row bounds and variable upper bounds
(:func:`gridstore.dispatch.retarget_dispatch_lp`).  So the HiGHS adapter
converts a program's matrix, costs and lower bounds into a HiGHS model once
and keeps the last model each method built; a program holding the same
``A`` object, with every shared array equal to the copy taken at build time
(an edit in place is seen), reuses it, and each solve sets only the row
bounds and variable upper bounds.  Dual simplex also keeps one HiGHS object
per model, which ``passModel`` resets to a cold start.  Interior point takes
a fresh HiGHS object per LP: a reused one keeps about 10 MB of IPM
workspace that neither ``clearSolver`` nor ``clearModel`` releases (peak
RSS over the 15 ``rts_greedy`` LPs in one process, 85.5 against 75.2 MB).
Every answer is bit-identical to a solve on a fresh model and object.

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
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.sparse as sp

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


@dataclass
class LinearProgram:
    """LP over a CSR constraint matrix with two-sided rows and variable bounds.

    ``A`` may be anything ``scipy.sparse.csr_matrix`` accepts (a sparse
    matrix or a dense array); it is stored as CSR, and a float CSR matrix is
    kept as it is, so programs built on one matrix share it.  Without ``A``
    the program has ``len(row_lower)`` empty rows.
    """

    n_vars: int
    cost: np.ndarray  # (n_vars,)
    A: sp.csr_matrix | None = None  # (n_rows, n_vars)
    row_lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    var_lower: np.ndarray | None = None
    var_upper: np.ndarray | None = None

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.row_lower = np.asarray(self.row_lower, dtype=float)
        self.row_upper = np.asarray(self.row_upper, dtype=float)
        if self.A is None:
            self.A = sp.csr_matrix((len(self.row_lower), self.n_vars))
        elif not (isinstance(self.A, sp.csr_matrix) and self.A.dtype == float):
            self.A = sp.csr_matrix(self.A, dtype=float)
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
        if np.any(self.row_lower > self.row_upper):
            raise ValidationError("row lower bound exceeds upper bound")
        if np.any(self.var_lower > self.var_upper):
            raise ValidationError("variable lower bound exceeds upper bound")
        if self.A.shape != (self.n_rows, self.n_vars):
            raise ValidationError(
                f"constraint matrix is {self.A.shape}, expected {(self.n_rows, self.n_vars)}"
            )
        if not np.all(np.isfinite(self.A.data)):
            raise ValidationError("constraint matrix has non-finite coefficients")

    def matrix(self) -> sp.csr_matrix:
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

        A = lp.matrix()
        self.lower = np.concatenate([lp.var_lower, lp.row_lower])
        self.upper = np.concatenate([lp.var_upper, lp.row_upper])
        self.cost = np.concatenate([lp.cost, np.zeros(m)])

        # initial nonbasic point: finite bound nearest zero, else zero
        lo, hi = lp.var_lower, lp.var_upper
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        take_lower = lo_fin & (~hi_fin | (np.abs(lo) <= np.abs(np.where(hi_fin, hi, 0.0))))
        x0 = np.where(take_lower, lo, np.where(hi_fin, hi, 0.0))
        x0 = np.where(lo_fin | hi_fin, x0, 0.0)

        act = A @ x0 if m else np.zeros(0)
        s0 = np.clip(act, lp.row_lower, lp.row_upper)
        resid = act - s0  # nonzero where the start violates logical bounds
        art_rows = np.flatnonzero(np.abs(resid) > feas_tol)
        n_art = len(art_rows)

        self.n_struct = n
        self.n_total = n + m + n_art
        blocks = [A, -sp.identity(m, format="csc")]
        if n_art:
            # coefficient opposes the residual so the artificial starts at |resid|
            art = sp.csc_matrix(
                (-np.sign(resid[art_rows]), (art_rows, np.arange(n_art))), shape=(m, n_art)
            )
            blocks.append(art)
            self.lower = np.concatenate([self.lower, np.zeros(n_art)])
            self.upper = np.concatenate([self.upper, np.full(n_art, INF)])
            self.cost = np.concatenate([self.cost, np.zeros(n_art)])
        self.A = sp.hstack(blocks, format="csc") if m else sp.csc_matrix((0, self.n_total))
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
        if self.m == 0:
            return
        B = self.A[:, self.basis].toarray()
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("singular basis during refactorization") from exc

    def recompute_basic_values(self) -> None:
        if self.m == 0:
            return
        xn = np.where(self.state == _BASIC, 0.0, self.values)
        self.values[self.basis] = self.binv @ -(self.A @ xn)

    def column(self, j: int) -> np.ndarray:
        out = np.zeros(self.m)
        a, b = self.A.indptr[j], self.A.indptr[j + 1]
        out[self.A.indices[a:b]] = self.A.data[a:b]
        return out

    # -- pivoting ----------------------------------------------------------

    def entering(self, cost: np.ndarray, tol: float, bland: bool):
        if self.m:
            y = cost[self.basis] @ self.binv
            rc = cost - (self.A.T @ y)
        else:
            rc = cost.copy()
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
        d = self.binv @ self.column(j) if self.m else np.zeros(0)
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
        row_min = float(steps.min()) if self.m else INF
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
        if step != 0.0 and self.m:
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

    def run(self, cost: np.ndarray, iter_budget: int, opt_tol: float):
        """Minimize cost from the current basis.

        Returns (outcome, iterations): True optimal, None unbounded ray,
        False iteration budget exhausted.
        """
        iters = 0
        stall = 0
        bland = False
        since_refactor = 0
        while iters < iter_budget:
            pick = self.entering(cost, opt_tol, bland)
            if pick is None:
                return True, iters
            j, direction = pick
            hit = self.ratio_test(j, direction, bland)
            if hit is None:
                return None, iters
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
        return False, iters


def solve(
    lp: LinearProgram,
    feas_tol: float = DEFAULT_FEAS_TOL,
    opt_tol: float = DEFAULT_OPT_TOL,
    iter_limit: int | None = None,
) -> LpSolution:
    """Bounded-variable two-phase revised simplex.

    Dantzig pricing with a switch to Bland's rule after a degenerate stall;
    statuses follow the instance (OPTIMAL / INFEASIBLE / UNBOUNDED) with
    ITERATION_LIMIT reported as a status rather than an exception.
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
        outcome, iters = tab.run(phase1, iter_limit, opt_tol=1e-10)
        total_iters += iters
        if outcome is False:
            return LpSolution(Status.ITERATION_LIMIT, iterations=total_iters)
        if outcome is None:
            raise SolverFailure("phase 1 reported an unbounded ray")
        infeas = float(np.abs(tab.values[tab.art_cols]).sum())
        if infeas > feas_tol:
            return LpSolution(Status.INFEASIBLE, iterations=total_iters, max_violation=infeas)
        # pin artificials so phase 2 cannot move them again
        tab.upper[tab.art_cols] = 0.0
        tab.lower[tab.art_cols] = 0.0
        nonbasic_art = tab.art_cols[tab.state[tab.art_cols] != _BASIC]
        tab.state[nonbasic_art] = _AT_LOWER
        tab.values[nonbasic_art] = 0.0

    outcome, iters = tab.run(tab.cost, iter_limit - total_iters, opt_tol)
    total_iters += iters
    if outcome is False:
        return LpSolution(Status.ITERATION_LIMIT, iterations=total_iters)
    if outcome is None:
        return LpSolution(Status.UNBOUNDED, iterations=total_iters)

    tab.refactor()
    tab.recompute_basic_values()
    return _optimal(lp, tab.values[: lp.n_vars].copy(), total_iters, "simplex", feas_tol)


# ---------------------------------------------------------------------------
# External backend (HiGHS through the bindings bundled with scipy)
# ---------------------------------------------------------------------------

_HIGHS_SCIPY = "1.15"  # the first scipy that ships _HIGHS_CORE
_HIGHS_CORE = "scipy.optimize._highspy._core"

# HiGHS model statuses, by name, that answer the LP; any other is a failure
_HIGHS_STATUS = {
    "kOptimal": Status.OPTIMAL,
    "kInfeasible": Status.INFEASIBLE,
    "kModelError": Status.INFEASIBLE,
    "kIterationLimit": Status.ITERATION_LIMIT,
    "kTimeLimit": Status.ITERATION_LIMIT,
    "kUnbounded": Status.UNBOUNDED,
}


@functools.cache
def _highs():
    """scipy's bundled HiGHS bindings, loaded on first use.

    Until ``scipy.optimize`` is imported, the extension is loaded from its
    file, so that package's ``__init__`` does not run (see the module
    docstring).
    """
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

    def matrix(self, lp: LinearProgram) -> sp.csr_matrix:
        upper, lower, _ = self.blocks
        A = lp.matrix()[np.concatenate(self.blocks)]
        A.data[A.indptr[len(upper)] : A.indptr[len(upper) + len(lower)]] *= -1.0
        return A

    def bounds(self, lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
        upper, lower, equal = self.blocks
        row_upper = np.concatenate([lp.row_upper[upper], -lp.row_lower[lower], lp.row_lower[equal]])
        row_lower = np.concatenate([np.full(len(upper) + len(lower), -INF), lp.row_lower[equal]])
        return row_lower, row_upper


def _highs_solver(ipm: bool, name: str):
    """A new HiGHS object with the method's options."""
    h = _highs()
    highs = h._Highs()
    if highs.passOptions(_highs_options(ipm)) == h.HighsStatus.kError:
        raise SolverFailure(f"{name} rejected its options")
    return highs


class _HighsModel:
    """A program's matrix, costs and variable lower bounds, converted for HiGHS once.

    Each solve sets only the row bounds and the variable upper bounds.  With
    ``rows`` (interior point) the matrix is ``rows``' split of ``A``.  Dual
    simplex keeps one solver object for the model; interior point takes a
    fresh one per solve (see the module docstring).
    """

    def __init__(self, lp: LinearProgram, rows: _IpmRows | None):
        h = _highs()
        self.A = lp.A
        self.options = _highs_options(rows is not None)
        self.contents = tuple(a.copy() for a in self._contents(lp, rows))
        A = lp.A if rows is None else rows.matrix(lp)
        model = self.model = h.HighsLp()
        model.num_col_ = lp.n_vars
        model.num_row_ = A.shape[0]
        model.col_cost_ = lp.cost
        model.col_lower_ = lp.var_lower
        matrix = model.a_matrix_
        matrix.format_ = h.MatrixFormat.kRowwise
        matrix.num_col_ = lp.n_vars
        matrix.num_row_ = A.shape[0]
        matrix.start_ = A.indptr
        matrix.index_ = A.indices
        matrix.value_ = A.data
        self.highs = _highs_solver(False, "HiGHS") if rows is None else None

    @staticmethod
    def _contents(lp: LinearProgram, rows: _IpmRows | None) -> tuple[np.ndarray, ...]:
        A = lp.A
        blocks = () if rows is None else rows.blocks
        return (A.indptr, A.indices, A.data, lp.cost, lp.var_lower, *blocks)

    def fits(self, lp: LinearProgram, rows: _IpmRows | None) -> bool:
        """Whether ``lp`` is this model's program, with contents unchanged since it was built."""
        return (
            lp.A is self.A
            and self.options is _highs_options(rows is not None)
            and all(map(np.array_equal, self._contents(lp, rows), self.contents))
        )


# the last model each HiGHS method built, by ipm flag; a sweep's programs share it
_MODELS: dict[bool, _HighsModel] = {}


def _run_highs(lp: LinearProgram, ipm: bool) -> LpSolution:
    """Solve ``lp`` with HiGHS dual simplex, as ``milp`` runs it, or interior point.

    Interior point runs on :class:`_IpmRows`' split, as ``linprog`` runs it,
    so that its ``x`` is bit-identical to linprog's.
    """
    lp.validate()
    if lp.n_vars == 0:
        return _empty_program(lp)
    h = _highs()
    name = "HiGHS IPM" if ipm else "HiGHS"
    rows = _IpmRows(lp) if ipm else None
    prepared = _MODELS.get(ipm)
    if prepared is None or not prepared.fits(lp, rows):
        prepared = _MODELS[ipm] = _HighsModel(lp, rows)
    row_lower, row_upper = rows.bounds(lp) if ipm else (lp.row_lower, lp.row_upper)
    model = prepared.model
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    model.col_upper_ = lp.var_upper

    highs = prepared.highs if prepared.highs is not None else _highs_solver(ipm, name)
    if highs.passModel(model) == h.HighsStatus.kError:
        raise SolverFailure(f"{name} rejected the model")
    if highs.run() == h.HighsStatus.kError:
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


def solve_highs(lp: LinearProgram) -> LpSolution:
    """HiGHS dual simplex, as ``milp`` runs it; same result contract as :func:`solve`.

    ``iterations`` is HiGHS's simplex iteration count.
    """
    return _run_highs(lp, ipm=False)


def solve_highs_ipm(lp: LinearProgram) -> LpSolution:
    """HiGHS interior point (with crossover), as ``linprog(method="highs-ipm")`` runs it.

    Much faster than simplex on large time-coupled instances with highly
    degenerate optimal faces; same result contract as :func:`solve`.
    ``iterations`` is HiGHS's simplex (crossover) iteration count, or its
    IPM count when crossover made none.
    """
    return _run_highs(lp, ipm=True)


BACKENDS = {"simplex": solve, "highs": solve_highs, "highs-ipm": solve_highs_ipm}


def solve_with_backend(lp: LinearProgram, backend: str = "simplex") -> LpSolution:
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValidationError(f"unknown LP backend {backend!r}") from None
    return fn(lp)


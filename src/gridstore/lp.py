"""Sparse linear programs and solvers.

A :class:`LinearProgram` is ``min c'x`` subject to two-sided row activities
``row_lo <= Ax <= row_hi`` and variable bounds ``lo <= x <= hi`` (any bound
may be infinite; equal bounds mean equality).  ``A`` is one
``scipy.sparse`` CSR matrix.

Three interchangeable solvers implement the same result contract:

* :func:`solve` - the in-repo bounded-variable two-phase revised simplex.
  Deterministic, dense basis arithmetic, intended for desk-scale instances.
* :func:`solve_highs` and :func:`solve_highs_ipm` - thin adapters over
  scipy's HiGHS dual simplex and interior point for large dispatch
  instances.  Same statuses, same residual reporting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
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
    matrix or a dense array); it is stored as CSR.  Without ``A`` the program
    has ``len(row_lower)`` empty rows.
    """

    n_vars: int
    cost: np.ndarray  # (n_vars,)
    A: sp.csr_matrix | None = None  # (n_rows, n_vars)
    row_lower: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    var_lower: np.ndarray | None = None
    var_upper: np.ndarray | None = None
    names: list[str] | None = None

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.row_lower = np.asarray(self.row_lower, dtype=float)
        self.row_upper = np.asarray(self.row_upper, dtype=float)
        if self.A is None:
            self.A = sp.csr_matrix((len(self.row_lower), self.n_vars))
        else:
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
    """Worst residual of x against every row and variable bound."""
    worst = 0.0
    if lp.n_vars:
        worst = max(
            worst,
            float(np.max(np.maximum(lp.var_lower - x, 0.0), initial=0.0)),
            float(np.max(np.maximum(x - lp.var_upper, 0.0), initial=0.0)),
        )
    if lp.n_rows:
        act = lp.matrix() @ x
        worst = max(
            worst,
            float(np.max(np.maximum(lp.row_lower - act, 0.0), initial=0.0)),
            float(np.max(np.maximum(act - lp.row_upper, 0.0), initial=0.0)),
        )
    return worst


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
        if np.all(lp.row_lower <= 0) and np.all(lp.row_upper >= 0):
            return LpSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0, 0.0)
        return LpSolution(Status.INFEASIBLE)

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
    x = tab.values[: lp.n_vars].copy()
    np.clip(x, lp.var_lower, lp.var_upper, out=x)
    resid = max_violation(lp, x)
    if resid > max(10 * feas_tol, 1e-6):
        raise SolverFailure(f"simplex terminated with residual {resid:.3e}")
    obj = float(lp.cost @ x)
    return LpSolution(Status.OPTIMAL, x, obj, total_iters, resid)


# ---------------------------------------------------------------------------
# External backend (HiGHS via scipy)
# ---------------------------------------------------------------------------


def solve_highs(lp: LinearProgram, feas_tol: float = DEFAULT_FEAS_TOL) -> LpSolution:
    """Solve with scipy's HiGHS wrapper; same result contract as :func:`solve`.

    scipy's ``milp`` entry point reports no simplex iteration count, so
    ``iterations`` stays 0 here.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp.validate()
    if lp.n_vars == 0:
        if np.all(lp.row_lower <= 0) and np.all(lp.row_upper >= 0):
            return LpSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0, 0.0)
        return LpSolution(Status.INFEASIBLE)

    constraints = []
    if lp.n_rows:
        constraints.append(LinearConstraint(lp.matrix(), lp.row_lower, lp.row_upper))
    res = milp(
        c=lp.cost,
        constraints=constraints,
        bounds=Bounds(lp.var_lower, lp.var_upper),
    )
    if res.status == 0:
        x = np.asarray(res.x, dtype=float)
        np.clip(x, lp.var_lower, lp.var_upper, out=x)
        return LpSolution(Status.OPTIMAL, x, float(lp.cost @ x), 0, max_violation(lp, x))
    if res.status == 2:
        return LpSolution(Status.INFEASIBLE)
    if res.status == 3:
        return LpSolution(Status.UNBOUNDED)
    if res.status == 1:
        return LpSolution(Status.ITERATION_LIMIT)
    raise SolverFailure(f"HiGHS stopped with status {res.status}: {res.message}")


def solve_highs_ipm(lp: LinearProgram, feas_tol: float = DEFAULT_FEAS_TOL) -> LpSolution:
    """HiGHS interior-point (with crossover) via scipy's linprog.

    Much faster than simplex on large time-coupled instances with highly
    degenerate optimal faces; same result contract as :func:`solve`.
    ``iterations`` is linprog's ``nit``.
    """
    from scipy.optimize import linprog

    lp.validate()
    if lp.n_vars == 0:
        if np.all(lp.row_lower <= 0) and np.all(lp.row_upper >= 0):
            return LpSolution(Status.OPTIMAL, np.zeros(0), 0.0, 0, 0.0)
        return LpSolution(Status.INFEASIBLE)

    A = lp.matrix().tocsc()
    eq = lp.row_lower == lp.row_upper
    ineq = ~eq
    take_u = np.isfinite(lp.row_upper) & ineq
    take_l = np.isfinite(lp.row_lower) & ineq
    A_ub = sp.vstack([A[take_u], -A[take_l]]) if (take_u.any() or take_l.any()) else None
    b_ub = np.concatenate([lp.row_upper[take_u], -lp.row_lower[take_l]]) if A_ub is not None else None
    A_eq = A[eq] if eq.any() else None
    b_eq = lp.row_lower[eq] if eq.any() else None
    bounds = [
        (l if np.isfinite(l) else None, h if np.isfinite(h) else None)
        for l, h in zip(lp.var_lower, lp.var_upper)
    ]
    res = linprog(
        lp.cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs-ipm"
    )
    nit = int(res.nit)
    if res.status == 0:
        x = np.asarray(res.x, dtype=float)
        np.clip(x, lp.var_lower, lp.var_upper, out=x)
        return LpSolution(Status.OPTIMAL, x, float(lp.cost @ x), nit, max_violation(lp, x))
    if res.status == 2:
        return LpSolution(Status.INFEASIBLE, iterations=nit)
    if res.status == 3:
        return LpSolution(Status.UNBOUNDED, iterations=nit)
    if res.status == 1:
        return LpSolution(Status.ITERATION_LIMIT, iterations=nit)
    raise SolverFailure(f"HiGHS IPM stopped with status {res.status}: {res.message}")


BACKENDS = {
    "simplex": lambda lp, feas_tol=DEFAULT_FEAS_TOL: solve(lp, feas_tol=feas_tol),
    "highs": solve_highs,
    "highs-ipm": solve_highs_ipm,
}


def solve_with_backend(lp: LinearProgram, backend: str = "simplex", **kwargs) -> LpSolution:
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValidationError(f"unknown LP backend {backend!r}") from None
    return fn(lp, **kwargs)


# ---------------------------------------------------------------------------
# Text dump (for debugging against external solvers)
# ---------------------------------------------------------------------------


def write_lp_text(lp: LinearProgram, path) -> None:
    """Dump in CPLEX LP text format; range rows become constraint pairs."""

    def vname(j: int) -> str:
        return lp.names[j] if lp.names else f"x{j}"

    def terms(entries) -> str:
        parts = []
        for j, v in entries:
            sign = "+" if v >= 0 else "-"
            parts.append(f"{sign} {abs(v):.17g} {vname(j)}")
        return " ".join(parts) if parts else "0 " + vname(0)

    A = lp.matrix()
    lines = ["Minimize", " obj: " + terms(list(enumerate(lp.cost))), "Subject To"]
    for r in range(lp.n_rows):
        span = slice(A.indptr[r], A.indptr[r + 1])
        body = terms(zip(A.indices[span], A.data[span]))
        lo, hi = lp.row_lower[r], lp.row_upper[r]
        if lo == hi:
            lines.append(f" r{r}: {body} = {lo:.17g}")
            continue
        if np.isfinite(hi):
            lines.append(f" r{r}_u: {body} <= {hi:.17g}")
        if np.isfinite(lo):
            lines.append(f" r{r}_l: {body} >= {lo:.17g}")
    lines.append("Bounds")
    for j in range(lp.n_vars):
        lo, hi = lp.var_lower[j], lp.var_upper[j]
        lo_s = f"{lo:.17g}" if np.isfinite(lo) else "-inf"
        hi_s = f"{hi:.17g}" if np.isfinite(hi) else "+inf"
        lines.append(f" {lo_s} <= {vname(j)} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

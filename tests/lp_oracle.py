"""Brute-force LP reference used to cross-check the simplex.

Enumerates every choice of n active constraint hyperplanes (row bounds and
variable bounds), solves the square systems in a batch, and keeps the
feasible intersection points.  For an LP whose feasible region is a bounded
polytope this visits every vertex, so the minimum objective over the kept
points is the true optimum.  Completely independent of the solver under
test: no pivoting, no pricing, no shared code.
"""

from __future__ import annotations

import itertools

import numpy as np

from gridstore.lp import LinearProgram

FEAS_TOL = 1e-7


def _hyperplanes(lp: LinearProgram):
    """All (normal, offset) pairs that can be active at a vertex."""
    normals = []
    offsets = []
    A = lp.matrix().toarray() if lp.n_rows else np.zeros((0, lp.n_vars))
    for r in range(lp.n_rows):
        lo, hi = lp.row_lower[r], lp.row_upper[r]
        if np.isfinite(lo):
            normals.append(A[r])
            offsets.append(lo)
        if np.isfinite(hi) and hi != lo:
            normals.append(A[r])
            offsets.append(hi)
    eye = np.eye(lp.n_vars)
    for j in range(lp.n_vars):
        lo, hi = lp.var_lower[j], lp.var_upper[j]
        if np.isfinite(lo):
            normals.append(eye[j])
            offsets.append(lo)
        if np.isfinite(hi) and hi != lo:
            normals.append(eye[j])
            offsets.append(hi)
    return np.array(normals), np.array(offsets)


def feasible_mask(lp: LinearProgram, pts: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
    """Boolean mask of points satisfying every row and bound within tol."""
    ok = np.all(np.isfinite(pts), axis=1)
    ok &= np.all(pts >= lp.var_lower - tol, axis=1)
    ok &= np.all(pts <= lp.var_upper + tol, axis=1)
    if lp.n_rows:
        act = pts @ lp.matrix().toarray().T
        ok &= np.all(act >= lp.row_lower - tol, axis=1)
        ok &= np.all(act <= lp.row_upper + tol, axis=1)
    return ok


def enumerate_vertices(lp: LinearProgram, tol: float = FEAS_TOL) -> np.ndarray:
    """Feasible candidate vertices, one per row. Empty array if none."""
    n = lp.n_vars
    normals, offsets = _hyperplanes(lp)
    if len(normals) < n:
        return np.zeros((0, n))
    combos = np.array(list(itertools.combinations(range(len(normals)), n)))
    mats = normals[combos]  # (K, n, n)
    rhs = offsets[combos]  # (K, n)
    dets = np.abs(np.linalg.det(mats))
    solvable = dets > 1e-9
    if not solvable.any():
        return np.zeros((0, n))
    pts = np.linalg.solve(mats[solvable], rhs[solvable][..., None])[..., 0]
    pts = pts[feasible_mask(lp, pts, tol)]
    return pts


def oracle_solve(lp: LinearProgram, tol: float = FEAS_TOL):
    """Return (status_str, objective) by exhaustive vertex enumeration.

    Only valid when the feasible region is bounded (all vertices exist);
    callers guarantee that by giving every variable finite bounds.
    """
    pts = enumerate_vertices(lp, tol)
    if len(pts) == 0:
        return "infeasible", None
    objs = pts @ lp.cost
    return "optimal", float(objs.min())


def certifies_ray(lp: LinearProgram, x0: np.ndarray, d: np.ndarray, tol: float = 1e-9) -> bool:
    """Check that d is an objective-improving recession direction at x0."""
    if not feasible_mask(lp, x0[None, :], FEAS_TOL)[0]:
        return False
    if lp.cost @ d >= -tol:
        return False
    if np.any((np.isfinite(lp.var_upper)) & (d > tol)):
        return False
    if np.any((np.isfinite(lp.var_lower)) & (d < -tol)):
        return False
    if lp.n_rows:
        rd = lp.matrix() @ d
        if np.any(np.isfinite(lp.row_upper) & (rd > tol)):
            return False
        if np.any(np.isfinite(lp.row_lower) & (rd < -tol)):
            return False
    return True


def random_bounded_lp(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 8) -> LinearProgram:
    """Random LP with finite variable boxes, so the region is bounded."""
    n = int(rng.choice([2, 3, 4, 5, 6], p=[0.3, 0.25, 0.2, 0.15, 0.1]))
    n = min(n, max_vars)
    m = int(rng.integers(1, max_rows + 1))
    lo = rng.uniform(-4.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 5.0, n)
    cost = rng.normal(0.0, 2.0, n).round(3)
    A = np.zeros((m, n))
    row_lo = np.empty(m)
    row_hi = np.empty(m)
    center = (lo + hi) / 2
    for r in range(m):
        coefs = rng.normal(0.0, 1.0, n).round(3)
        keep = rng.random(n) < 0.8
        if not keep.any():
            keep[int(rng.integers(n))] = True
        coefs = np.where(keep, coefs, 0.0)
        A[r] = coefs
        mid = float(coefs @ center)
        kind = rng.random()
        if kind < 0.25:  # equality
            b = mid + rng.normal(0, 0.4)
            row_lo[r], row_hi[r] = b, b
        elif kind < 0.6:  # upper
            row_lo[r], row_hi[r] = -np.inf, mid + rng.uniform(-0.5, 1.5)
        elif kind < 0.9:  # lower
            row_lo[r], row_hi[r] = mid - rng.uniform(-0.5, 1.5), np.inf
        else:  # range
            c = mid + rng.normal(0, 0.5)
            w = rng.uniform(0.1, 1.0)
            row_lo[r], row_hi[r] = c - w, c + w
    return LinearProgram(
        n_vars=n,
        cost=cost,
        A=A,
        row_lower=row_lo,
        row_upper=row_hi,
        var_lower=lo,
        var_upper=hi,
    )

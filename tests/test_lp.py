import functools
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

import gridstore.lp as lpmod
from gridstore.config import load_run_config
from gridstore.errors import SolverFailure, ValidationError
from gridstore.lp import (
    CsrMatrix,
    LinearProgram,
    Status,
    default_iter_limit,
    solve,
    solve_highs,
    solve_highs_ipm,
    solve_with_backend,
)
from gridstore.dispatch import DispatchConfig, Scenario, build_dispatch_lp, retarget_dispatch_lp
from gridstore.runners import run_place
from lp_oracle import certifies_ray, oracle_solve, random_bounded_lp
from netgen import random_network, random_scenario

CASES = Path(__file__).resolve().parent.parent / "cases"


def lp_min_x_in_box():
    return LinearProgram(n_vars=1, cost=[1.0], var_lower=[1.0], var_upper=[2.0])


def test_min_over_box():
    sol = solve(lp_min_x_in_box())
    assert sol.status is Status.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def lp_unbounded_ray():
    return LinearProgram(n_vars=1, cost=[-1.0], var_lower=[0.0])


def lp_conflicting_rows():
    return LinearProgram(
        n_vars=1,
        cost=[0.0],
        A=[[1.0], [1.0]],
        row_lower=[2.0, -np.inf],  # x >= 2
        row_upper=[np.inf, 1.0],  # x <= 1
    )


def test_unbounded_direction():
    assert solve(lp_unbounded_ray()).status is Status.UNBOUNDED


def test_conflicting_rows_infeasible():
    assert solve(lp_conflicting_rows()).status is Status.INFEASIBLE


STATUS_CASES = {
    # no variables: the rows hold at the empty point or never
    "empty_satisfiable": (
        lambda: LinearProgram(n_vars=0, cost=[], row_lower=[-1.0, 0.0], row_upper=[1.0, np.inf]),
        Status.OPTIMAL,
    ),
    "empty_unsatisfiable": (
        lambda: LinearProgram(n_vars=0, cost=[], row_lower=[-1.0, 1.0], row_upper=[1.0, 2.0]),
        Status.INFEASIBLE,
    ),
    "unbounded_ray": (lp_unbounded_ray, Status.UNBOUNDED),
    "conflicting_rows": (lp_conflicting_rows, Status.INFEASIBLE),
}


@pytest.mark.parametrize("case", sorted(STATUS_CASES))
@pytest.mark.parametrize("backend", ["simplex", "highs", "highs-ipm"])
def test_every_backend_maps_status_alike(backend, case):
    make, want = STATUS_CASES[case]
    sol = solve_with_backend(make(), backend)
    assert sol.status is want
    if want is Status.OPTIMAL:
        assert sol.x.shape == (0,) and sol.objective == 0.0 and sol.max_violation == 0.0
    else:
        assert sol.x is None and sol.objective is None


def test_degenerate_tie_objective_only():
    lp = LinearProgram(
        n_vars=2,
        cost=[1.0, 1.0],
        A=[[1.0, 1.0]],
        row_lower=[1.0],
        row_upper=[np.inf],
        var_lower=[0.0, 0.0],
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_equality_row_and_free_variable():
    # free variable pinned by an equality; loading the dearer variable is useless
    lp = LinearProgram(
        n_vars=2,
        cost=[1.0, 2.0],
        A=[[1.0, 1.0]],
        row_lower=[3.0],
        row_upper=[3.0],
        var_lower=[-np.inf, 0.0],
    )
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-8)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-8)


def test_objective_matches_cost_dot_x():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lp = random_bounded_lp(rng)
        sol = solve(lp)
        if sol.status is Status.OPTIMAL:
            assert sol.objective == pytest.approx(float(lp.cost @ sol.x), rel=1e-9, abs=1e-12)
            assert sol.max_violation <= 1e-6


def test_oracle_agreement_quick():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(60):
        lp = random_bounded_lp(rng)
        status, obj = oracle_solve(lp)
        sol = solve(lp)
        if status == "optimal":
            assert sol.status is Status.OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-6)
        else:
            assert sol.status is Status.INFEASIBLE
        checked += 1
    assert checked == 60


def test_unbounded_status_certified_by_ray():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        cost = rng.normal(0, 1, n)
        free = int(rng.integers(n))
        cost[free] = -abs(cost[free]) - 0.1
        lo = np.zeros(n)
        hi = np.full(n, np.inf)
        hi[:free] = rng.uniform(1, 3, free)  # others boxed
        lp = LinearProgram(n_vars=n, cost=cost, var_lower=lo, var_upper=hi)
        sol = solve(lp)
        assert sol.status is Status.UNBOUNDED
        ray = np.zeros(n)
        ray[free] = 1.0
        assert certifies_ray(lp, np.zeros(n), ray)


def test_bitwise_determinism():
    rng = np.random.default_rng(99)
    for _ in range(10):
        lp = random_bounded_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.status == b.status
        if a.status is Status.OPTIMAL:
            assert a.objective == b.objective  # exact, not approx
            assert np.array_equal(a.x, b.x)


def test_relaxation_never_hurts():
    rng = np.random.default_rng(42)
    done = 0
    while done < 20:
        lp = random_bounded_lp(rng)
        base = solve(lp)
        if base.status is not Status.OPTIMAL:
            continue
        widened = LinearProgram(
            n_vars=lp.n_vars,
            cost=lp.cost.copy(),
            A=lp.A,
            row_lower=lp.row_lower - 0.5,
            row_upper=lp.row_upper + 0.5,
            var_lower=lp.var_lower - 0.5,
            var_upper=lp.var_upper + 0.5,
        )
        relaxed = solve(widened)
        assert relaxed.status is Status.OPTIMAL
        assert relaxed.objective <= base.objective + 1e-7
        done += 1


def test_iteration_limit_status():
    rng = np.random.default_rng(3)
    lp = random_bounded_lp(rng)
    sol = solve(lp, iter_limit=0)
    assert sol.status in (Status.ITERATION_LIMIT, Status.OPTIMAL)
    # zero budget can only succeed if the initial point is already optimal
    if sol.status is Status.ITERATION_LIMIT:
        assert sol.x is None


def test_default_iter_limit_formula():
    lp = lp_min_x_in_box()
    assert default_iter_limit(lp) == 50 * (1 + 0)


def test_validate_rejects_bad_bounds():
    lp = LinearProgram(n_vars=1, cost=[1.0], var_lower=[2.0], var_upper=[1.0])
    with pytest.raises(ValidationError):
        lp.validate()


@pytest.mark.parametrize("backend", sorted(lpmod.BACKENDS))
@pytest.mark.parametrize("bound", ["row_lower", "row_upper", "var_lower", "var_upper"])
def test_every_backend_rejects_a_nan_bound(backend, bound):
    lp = dense_lp()
    getattr(lp, bound)[3] = np.nan
    with pytest.raises(ValidationError, match=f"{bound} has NaN"):
        solve_with_backend(lp, backend)


def two_row_program(indptr, indices, data):
    """Two rows over two variables, on a matrix given by its raw CSR arrays."""
    A = CsrMatrix(np.array(indptr), np.array(indices, np.int32), np.array(data), (2, 2))
    return LinearProgram(2, [1.0, 1.0], A, [1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [5.0, 5.0])


MALFORMED = {
    "short_var_upper": lambda: LinearProgram(
        n_vars=2, cost=[1.0, -1.0], var_lower=[0.0, 0.0], var_upper=[1.0]
    ),
    "long_var_lower": lambda: LinearProgram(
        n_vars=2, cost=[1.0, -1.0], var_lower=[0.0, 0.0, 0.0], var_upper=[1.0, 1.0]
    ),
    "short_indptr": lambda: two_row_program([0, 1], [0], [1.0]),
    "long_indptr": lambda: two_row_program([0, 1, 2, 2], [0, 1], [1.0, 1.0]),
    "short_indices": lambda: two_row_program([0, 1, 2], [0], [1.0, 1.0]),
    "short_data": lambda: two_row_program([0, 1, 2], [0, 1], [1.0]),
    "long_data": lambda: two_row_program([0, 1, 2], [0, 1], [1.0, 1.0, 1.0]),
    "indptr_not_from_zero": lambda: two_row_program([1, 1, 2], [0, 1], [1.0, 1.0]),
    "decreasing_indptr": lambda: two_row_program([0, 2, 1], [0], [1.0]),
    "column_index_past_the_end": lambda: two_row_program([0, 1, 2], [0, 5], [1.0, 1.0]),
    "negative_column_index": lambda: two_row_program([0, 1, 2], [-1, 1], [1.0, 1.0]),
}


@pytest.mark.parametrize("backend", sorted(lpmod.BACKENDS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_every_backend_rejects_a_length_it_would_misread(backend, case):
    with pytest.raises(ValidationError):
        solve_with_backend(MALFORMED[case](), backend)


MATRIX = np.array([[0.0, 1.5, -2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]])
MATRIX_FORMS = {
    "list": MATRIX.tolist(),
    "dense": MATRIX,
    "csr": sp.csr_matrix(MATRIX),
    "csc": sp.csc_matrix(MATRIX),
    "coo": sp.coo_matrix(MATRIX),
    "coo_repeats": sp.coo_matrix(([1.0, 0.5, 3.0, 1.0], ([0, 0, 2, 0], [1, 2, 0, 1])), (3, 3)),
    "csr_int": sp.csr_matrix(MATRIX.astype(int)),
}


@pytest.mark.parametrize("form", sorted(MATRIX_FORMS))
def test_program_takes_dense_and_scipy_matrices_as_scipy_did(form):
    given = MATRIX_FORMS[form]
    lp = LinearProgram(3, np.ones(3), given, -np.ones(3), np.ones(3), -np.ones(3), np.ones(3))
    want = sp.csr_matrix(given, dtype=float)  # how programs stored their matrix before
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(lp.A, name), getattr(want, name)
        assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())
    assert lp.A.shape == want.shape and lp.A.nnz == want.nnz
    assert np.array_equal(lp.A.toarray(), want.toarray())
    if form == "csr":  # a float CSR matrix's arrays are kept, as a CsrMatrix is
        assert lp.A.data is given.data and lp.A.indices is given.indices
        assert LinearProgram(3, np.ones(3), lp.A).A is lp.A
    sols = [solve_with_backend(lp, backend) for backend in sorted(lpmod.BACKENDS)]
    assert all(sol.status is Status.OPTIMAL for sol in sols)


@pytest.mark.parametrize("source", ["random", "dispatch"])
def test_simplex_tableau_is_scipy_csc_bit_for_bit(source):
    """The tableau's by-column CsrMatrix holds and multiplies as scipy's CSC ``[A, -I, art]`` did."""
    rng = np.random.default_rng(31)
    progs = [random_bounded_lp(rng) for _ in range(40)] if source == "random" else surplus_sweep()
    n_art = 0
    for lp in progs:
        tab = lpmod._Tableau(lp, lpmod.DEFAULT_FEAS_TOL)
        A, m = scipy_csr(lp.A), lp.n_rows
        act = A @ tab.values[: lp.n_vars]  # the start, before any pivot
        resid = act - np.clip(act, lp.row_lower, lp.row_upper)
        art_rows = np.flatnonzero(np.abs(resid) > lpmod.DEFAULT_FEAS_TOL)
        n_art += len(art_rows)
        art_cols = np.arange(len(art_rows))
        art = sp.csc_matrix((-np.sign(resid[art_rows]), (art_rows, art_cols)), (m, len(art_rows)))
        want = sp.hstack([A, -sp.identity(m, format="csc"), art], format="csc")
        assert tab.A.shape == want.shape[::-1]
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(tab.A, name), getattr(want, name)
            assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())
        x, y = rng.normal(size=tab.n_total), rng.normal(size=m)
        assert tab.A.rmatvec(x).tobytes() == (want @ x).tobytes()
        assert (tab.A @ y).tobytes() == (want.T @ y).tobytes()
        basis = tab.A.take_rows(tab.basis).toarray().T
        assert basis.tobytes() == want[:, tab.basis].toarray().tobytes()
    assert n_art > 0


# -- external backend --------------------------------------------------------


def test_highs_agrees_with_simplex():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        lp = random_bounded_lp(rng)
        mine = solve(lp)
        ext = solve_highs(lp)
        assert mine.status == ext.status
        if mine.status is Status.OPTIMAL:
            assert mine.objective == pytest.approx(ext.objective, abs=1e-6)


def dense_lp():
    # dense rows and coupled boxes leave HiGHS presolve nothing to remove
    rng = np.random.default_rng(8)
    n, m = 30, 20
    A = rng.uniform(0.5, 1.5, (m, n))
    return LinearProgram(
        n_vars=n,
        cost=rng.uniform(-1.0, 1.0, n),
        A=A,
        row_lower=np.full(m, -np.inf),
        row_upper=A.sum(axis=1) * 0.5,
        var_lower=np.zeros(n),
        var_upper=np.ones(n),
    )


def test_highs_ipm_reports_iterations():
    lp = dense_lp()
    sol = solve_highs_ipm(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.iterations > 0
    assert sol.objective == pytest.approx(solve_highs(lp).objective, abs=1e-6)


def test_highs_reports_iterations():
    sol = solve_highs(dense_lp())
    assert sol.status is Status.OPTIMAL
    assert sol.iterations > 0


# The public scipy wrappers the HiGHS backends stand in for.  They live here
# only, as a drift oracle: a scipy release that changes the bundled
# bindings, or what its wrappers pass to them, fails these tests.

SCIPY_STATUS = {
    0: Status.OPTIMAL,
    1: Status.ITERATION_LIMIT,
    2: Status.INFEASIBLE,
    3: Status.UNBOUNDED,
}


def scipy_csr(A: CsrMatrix) -> sp.csr_matrix:
    """The same matrix as scipy's CSR, over the same arrays, for scipy's wrappers."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def milp_reference(lp):
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = [LinearConstraint(scipy_csr(lp.A), lp.row_lower, lp.row_upper)] if lp.n_rows else []
    return milp(c=lp.cost, constraints=rows, bounds=Bounds(lp.var_lower, lp.var_upper))


def linprog_ipm_reference(lp):
    from scipy.optimize import linprog

    A = scipy_csr(lp.A).tocsc()
    eq = lp.row_lower == lp.row_upper
    take_u = np.isfinite(lp.row_upper) & ~eq
    take_l = np.isfinite(lp.row_lower) & ~eq
    split = take_u.any() or take_l.any()
    return linprog(
        lp.cost,
        A_ub=sp.vstack([A[take_u], -A[take_l]]) if split else None,
        b_ub=np.concatenate([lp.row_upper[take_u], -lp.row_lower[take_l]]) if split else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=lp.row_lower[eq] if eq.any() else None,
        bounds=np.column_stack([lp.var_lower, lp.var_upper]),
        method="highs-ipm",
    )


def assert_matches_scipy_wrappers(lp):
    for solve_fn, reference in ((solve_highs, milp_reference), (solve_highs_ipm, linprog_ipm_reference)):
        mine, ref = solve_fn(lp), reference(lp)
        assert mine.status is SCIPY_STATUS[ref.status]
        if mine.status is Status.OPTIMAL:
            assert np.array_equal(mine.x, np.clip(ref.x, lp.var_lower, lp.var_upper))


def test_highs_backends_match_scipy_wrappers_on_random_lps():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        assert_matches_scipy_wrappers(random_bounded_lp(rng))


def copy_program(lp):
    """The same program in new arrays, sharing none with ``lp``."""
    return LinearProgram(
        lp.n_vars,
        lp.cost.copy(),
        CsrMatrix(lp.A.indptr.copy(), lp.A.indices.copy(), lp.A.data.copy(), lp.A.shape),
        lp.row_lower.copy(),
        lp.row_upper.copy(),
        lp.var_lower.copy(),
        lp.var_upper.copy(),
    )


def solution_bits(sol):
    x = None if sol.x is None else sol.x.tobytes()
    return sol.status, x, sol.iterations, sol.objective, sol.max_violation


def on_a_new_object(monkeypatch, solve_fn, lp):
    """``solve_fn(lp)`` on a HiGHS object that has solved nothing before."""
    with monkeypatch.context() as m:
        m.setattr(lpmod, "_DUAL_SIMPLEX", threading.local())  # dual simplex makes a new one
        return solve_fn(lp)


def test_highs_backends_match_scipy_wrappers_on_a_placement(tmp_path, monkeypatch):
    for backend in ("highs", "highs-ipm"):
        seen = []
        solve_fn = lpmod.BACKENDS[backend]

        def record(lp, stop=None, solve_fn=solve_fn, seen=seen):
            copy = copy_program(lp)
            sol = solve_fn(lp, stop=stop)
            seen.append((copy, sol))
            return sol

        monkeypatch.setitem(lpmod.BACKENDS, backend, record)
        cfg = load_run_config(
            CASES / "quickstart_place.json",
            {"jobs": 1, "solver": backend, "out_dir": str(tmp_path / backend)},
        )
        run_place(cfg)
        assert len(seen) > 50
        for lp, sol in seen:
            # every LP has ranged rows, which the IPM backend splits in two
            ranged = np.isfinite(lp.row_lower) & np.isfinite(lp.row_upper) & (lp.row_lower < lp.row_upper)
            assert ranged.any()
            assert solution_bits(on_a_new_object(monkeypatch, solve_fn, lp)) == solution_bits(sol)
            assert_matches_scipy_wrappers(lp)


def surplus_sweep():
    """A curtailment sweep whose caps bind, with an infeasible scenario in the middle."""
    rng = np.random.default_rng(17)
    net = random_network(rng, n_buses=5, flow_limits=True, n_sites=2)
    scens = []
    for i in range(5):
        scen = random_scenario(rng, net, label=f"s{i}")
        # renewables beyond the load over the horizon: some must be curtailed
        scens.append(Scenario(scen.dt_hours, 3.0 * scen.renewable, scen.load, label=scen.label))
    # load beyond every generator and renewable
    short = Scenario(scens[0].dt_hours, scens[0].renewable, 100.0 * scens[0].load, label="short")
    scens.insert(2, short)
    template, idx = build_dispatch_lp(net, scens[0], {1, 3}, DispatchConfig(allow_curtailment=True))
    return [retarget_dispatch_lp(template, idx, scen) for scen in scens]


@pytest.mark.parametrize("backend", ["highs", "highs-ipm"])
def test_highs_model_reuse_equals_fresh_solves(backend, monkeypatch):
    progs = surplus_sweep()
    assert len({p.var_upper.tobytes() for p in progs}) == len(progs) - 1  # short shares s0's caps
    swept = [solve_with_backend(prog, backend) for prog in progs]
    assert [sol.status for sol in swept] == [Status.OPTIMAL] * 2 + [Status.INFEASIBLE] + [Status.OPTIMAL] * 3
    assert all(sol.x[sol.x > 0].size for sol in swept if sol.x is not None)
    solve_fn = lpmod.BACKENDS[backend]
    fresh = [on_a_new_object(monkeypatch, solve_fn, copy_program(prog)) for prog in progs]
    assert [solution_bits(s) for s in swept] == [solution_bits(s) for s in fresh]


@pytest.mark.parametrize("backend", ["highs", "highs-ipm"])
@pytest.mark.parametrize("edit", ["A.data", "cost"])
def test_highs_model_follows_an_edit_in_place(backend, edit):
    lp = dense_lp()
    before = solve_with_backend(lp, backend)
    if edit == "cost":
        lp.cost[:10] *= -1.0
    else:
        lp.A.data[:150] *= 3.0  # the first five rows, tighter
    after = solve_with_backend(lp, backend)
    assert not np.array_equal(after.x, before.x)
    assert solution_bits(after) == solution_bits(solve_with_backend(copy_program(lp), backend))


def test_shared_dual_simplex_object_answers_as_a_new_one(monkeypatch):
    """Programs of every shape and outcome, unsolved ones first, on one HiGHS object."""
    no_limit = lpmod._highs_options(False).simplex_iteration_limit

    def solve_on(highs, lp, limit):
        highs.setOptionValue("simplex_iteration_limit", limit)
        with monkeypatch.context() as m:
            m.setattr(lpmod, "_DUAL_SIMPLEX", SimpleNamespace(highs=highs))
            return solve_highs(lp)

    new_object = functools.partial(lpmod._new_highs, False)
    shared = new_object()
    rng = np.random.default_rng(5)
    sweep = surplus_sweep()
    cases = [
        (lp_conflicting_rows(), no_limit, Status.INFEASIBLE),
        (dense_lp(), 0, Status.ITERATION_LIMIT),
        (lp_min_x_in_box(), no_limit, Status.OPTIMAL),  # no rows
        (dense_lp(), no_limit, Status.OPTIMAL),
        (sweep[2], no_limit, Status.INFEASIBLE),
        (sweep[0], no_limit, Status.OPTIMAL),
        (lp_min_x_in_box(), no_limit, Status.OPTIMAL),
        (sweep[1], no_limit, Status.OPTIMAL),
    ]
    cases += [(random_bounded_lp(rng), no_limit, None) for _ in range(10)]
    for lp, limit, status in cases:
        got = solve_on(shared, lp, limit)
        assert status is None or got.status is status
        assert solution_bits(got) == solution_bits(solve_on(new_object(), lp, limit))


def test_dual_simplex_keeps_one_object_per_thread_and_ipm_a_new_one_per_lp(monkeypatch):
    made, held = [], []
    make = lpmod._new_highs

    def counting_make(ipm):
        made.append(ipm)
        return make(ipm)

    def two_simplex_solves():
        for _ in range(2):
            assert solve_highs(dense_lp()).status is Status.OPTIMAL
            held.append(lpmod._DUAL_SIMPLEX.highs)

    monkeypatch.setattr(lpmod, "_new_highs", counting_make)
    for _ in range(2):  # two new threads, one after the other
        thread = threading.Thread(target=two_simplex_solves)
        thread.start()
        thread.join()
    assert made == [False, False]  # one per thread, on its first LP
    assert held[0] is held[1] and held[2] is held[3] and held[0] is not held[2]
    mine = getattr(lpmod._DUAL_SIMPLEX, "highs", None)
    for _ in range(2):
        assert solve_highs_ipm(dense_lp()).status is Status.OPTIMAL
    assert made == [False, False, True, True]
    assert getattr(lpmod._DUAL_SIMPLEX, "highs", None) is mine  # interior point leaves the slot alone


def test_highs_status_table_matches_scipy():
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    for model_status in lpmod._highs().HighsModelStatus.__members__.values():
        code, _ = _highs_to_scipy_status_message(model_status, "")
        if model_status.name in ("kInterrupt", "kHighsInterrupt"):
            # scipy installs no interrupt callback, so it has no code for these
            assert lpmod._highs_status(model_status, "HiGHS") is Status.INTERRUPTED
        elif code in SCIPY_STATUS:
            assert lpmod._highs_status(model_status, "HiGHS") is SCIPY_STATUS[code]
        else:
            with pytest.raises(SolverFailure):
                lpmod._highs_status(model_status, "HiGHS")


@pytest.mark.parametrize("limit", ["time_limit", "simplex_iteration_limit"])
def test_highs_limit_is_a_status(monkeypatch, limit):
    options = lpmod._highs().HighsOptions()
    options.log_to_console = False
    setattr(options, limit, 0)
    monkeypatch.setattr(lpmod, "_highs_options", lambda ipm: options)
    # a new dual simplex object, made with these options
    monkeypatch.setattr(lpmod, "_DUAL_SIMPLEX", threading.local())
    sol = solve_highs(dense_lp())
    assert sol.status is Status.ITERATION_LIMIT and sol.x is None


@pytest.mark.parametrize("backend", ["highs", "highs-ipm"])
def test_highs_model_rejection_is_a_failure(backend):
    # a duplicated matrix entry; scipy's wrappers reported this model infeasible
    A = sp.csr_matrix((np.ones(2), np.zeros(2, dtype=np.int32), np.array([0, 2])), shape=(1, 1))
    lp = LinearProgram(1, [1.0], A, [1.0], [2.0], [0.0], [5.0])
    assert lp.A.nnz == 2  # kept as given
    with pytest.raises(SolverFailure):
        solve_with_backend(lp, backend)


def test_missing_highs_bindings_name_the_scipy_needed(monkeypatch, tmp_path):
    import scipy.optimize  # noqa: F401  (the first case imports through the loaded package)

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        lpmod._load_highs()
    # without scipy.optimize loaded, the loader looks for the extension in scipy's folder
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy")
    monkeypatch.delitem(sys.modules, "scipy.optimize")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        lpmod._load_highs()


def linprog_highs(lp):
    from scipy.optimize import linprog

    bounds = np.column_stack([lp.var_lower, lp.var_upper])
    return linprog(lp.cost, A_ub=scipy_csr(lp.A), b_ub=lp.row_upper, bounds=bounds, method="highs")


# In a test session scipy.optimize is loaded by the drift tests above, so
# only a fresh interpreter is sure to load the bindings from their file.
DIRECT_LOAD = """
import sys
import gridstore.lp as lpmod
from test_lp import dense_lp, linprog_highs

xs = [lpmod.solve_with_backend(dense_lp(), b).x for b in ("highs", "highs-ipm")]
assert "scipy.optimize" not in sys.modules
import scipy.optimize._highspy._core as core
assert core is lpmod._highs()
xs.append(linprog_highs(dense_lp()).x)
print(" ".join(x.tobytes().hex() for x in xs))
"""


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports gridstore and these tests' modules."""
    path = [str(Path(lpmod.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return run


def test_highs_bindings_load_without_scipy_optimize():
    run = run_fresh(DIRECT_LOAD)
    lp = dense_lp()
    in_process = [solve_highs(lp).x, solve_highs_ipm(lp).x, linprog_highs(lp).x]
    assert run.stdout.split() == [x.tobytes().hex() for x in in_process]


# scipy.optimize imported after the direct load: the import system binds no
# _core attribute on the package, so the next solve binds it
BIND_AFTER_IMPORT = """
import sys
import gridstore.lp as lpmod
from test_lp import dense_lp, linprog_highs

lpmod.solve_with_backend(dense_lp(), "highs")
import scipy.optimize
lpmod.solve_with_backend(dense_lp(), "highs")
assert scipy.optimize._highspy._core is sys.modules["scipy.optimize._highspy._core"]
print(linprog_highs(dense_lp()).x.tobytes().hex())
"""


def test_highs_bindings_bound_on_their_package_after_scipy_optimize():
    run = run_fresh(BIND_AFTER_IMPORT)
    assert run.stdout.split() == [linprog_highs(dense_lp()).x.tobytes().hex()]


# Two threads make the process's first HiGHS solves at once, each loading the bindings.
CONCURRENT_LOAD = """
import sys
import threading
import gridstore.lp as lpmod
from test_lp import dense_lp

loads = []
load = lpmod._load_highs

def counted_load():
    loads.append(load())
    return loads[-1]

lpmod._load_highs = counted_load
sys.setswitchinterval(1e-6)
gate = threading.Barrier(2, timeout=60)
got = {}

def first_solve(backend):
    gate.wait()
    got[backend] = (lpmod.solve_with_backend(dense_lp(), backend).objective, lpmod._highs())

threads = [threading.Thread(target=first_solve, args=(b,)) for b in ("highs", "highs-ipm")]
for t in threads:
    t.start()
for t in threads:
    t.join(120)
assert not any(t.is_alive() for t in threads)
(_, core), (_, other) = got.values()
assert len(loads) == 1 and core is other is loads[0] is sys.modules[lpmod._HIGHS_CORE]
assert "scipy.optimize" not in sys.modules  # so the bindings were loaded from their file
print(" ".join(repr(got[b][0]) for b in ("highs", "highs-ipm")))
"""


def test_first_highs_solves_on_two_threads_load_the_bindings_once():
    run = run_fresh(CONCURRENT_LOAD)
    lp = dense_lp()
    assert run.stdout.split() == [repr(solve_highs(lp).objective), repr(solve_highs_ipm(lp).objective)]


PLACE_WITHOUT_SCIPY_SPARSE = """
import sys
from gridstore.config import load_run_config
from gridstore.runners import run_place

case, out = sys.argv[1:]
for solver in ("simplex", "highs", "highs-ipm"):
    for jobs in (1, 2):
        overrides = {"solver": solver, "jobs": jobs, "out_dir": f"{out}/{solver}-{jobs}"}
        run_place(load_run_config(case, overrides))
print([m for m in ("scipy.sparse", "scipy.optimize") if m in sys.modules])
"""


def test_placements_import_neither_scipy_sparse_nor_optimize(tmp_path):
    run = run_fresh(PLACE_WITHOUT_SCIPY_SPARSE, str(CASES / "quickstart_place.json"), str(tmp_path))
    assert run.stdout.splitlines()[-1] == "[]"


def test_ipm_residual_rule_on_doctored_solution():
    lp = LinearProgram(
        n_vars=2,
        cost=[1.0, 1.0],
        A=[[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]],
        row_lower=[1.0, -np.inf, -1.0],
        row_upper=[1.0, 0.5, 3.0],
        var_lower=[0.0, 0.0],
        var_upper=[2.0, 2.0],
    )

    def accept(x):
        return lpmod._optimal(lp, np.array(x), 0, "doctored", lpmod.DEFAULT_FEAS_TOL)

    tol = 1e-6
    assert accept([0.5, 0.5]).max_violation == 0.0
    # within the tolerance on every row
    assert accept([0.5 + 0.4 * tol, 0.5]).max_violation == pytest.approx(0.4 * tol)
    for doctored in (
        [np.nan, 0.5],
        [0.5 + 2 * tol, 0.5],  # the equality row
        [0.75 + tol, 0.25 - tol],  # the <= row, equality kept
        [-2 * tol, 1.0 + 2 * tol],  # a variable bound: clipped, x then misses the equality row
    ):
        with pytest.raises(SolverFailure, match="doctored"):
            accept(doctored)


class DoctoredHighs:
    """A HiGHS object whose optimal ``col_value`` comes back altered by ``doctor``."""

    def __init__(self, highs, doctor):
        self.highs, self.doctor = highs, doctor

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def getSolution(self):
        return SimpleNamespace(col_value=self.doctor(np.array(self.highs.getSolution().col_value)))


def shift_first(x):
    x[0] += 1e-3
    return x


def first_nan(x):
    x[0] = np.nan
    return x


@pytest.mark.parametrize("doctor", [shift_first, first_nan])
@pytest.mark.parametrize("backend", ["highs", "highs-ipm"])
def test_highs_rejects_a_doctored_optimal_x(backend, doctor, monkeypatch):
    lp = surplus_sweep()[0]  # balance rows are equalities, so any move of x misses one
    assert solve_with_backend(lp, backend).status is Status.OPTIMAL
    make = lpmod._new_highs
    monkeypatch.setattr(lpmod, "_new_highs", lambda ipm: DoctoredHighs(make(ipm), doctor))
    monkeypatch.setattr(lpmod, "_DUAL_SIMPLEX", threading.local())  # dual simplex makes a doctored one
    with pytest.raises(SolverFailure, match="HiGHS"):
        solve_with_backend(lp, backend)


@pytest.mark.parametrize("backend", sorted(lpmod.BACKENDS))
def test_max_violation_is_the_row_residual_of_x(backend):
    rng = np.random.default_rng(11)
    progs = surplus_sweep() + [dense_lp()] + [random_bounded_lp(rng) for _ in range(10)]
    solved = 0
    for lp in progs:
        sol = solve_with_backend(lp, backend)
        if sol.status is not Status.OPTIMAL:
            continue
        solved += 1
        assert np.all((lp.var_lower <= sol.x) & (sol.x <= lp.var_upper))
        act = scipy_csr(lp.A) @ sol.x
        rows = np.concatenate([[0.0], lp.row_lower - act, act - lp.row_upper])
        assert sol.max_violation == rows.max()
    assert solved >= 10


@pytest.mark.parametrize("backend", sorted(lpmod.BACKENDS))
def test_a_set_stop_interrupts_every_backend(backend):
    stop = threading.Event()
    stop.set()
    sol = solve_with_backend(dense_lp(), backend, stop=stop)
    assert sol.status is Status.INTERRUPTED and sol.x is None


@pytest.mark.parametrize("backend", sorted(lpmod.BACKENDS))
def test_an_unset_stop_moves_no_answer_of_a_placement(tmp_path, monkeypatch, backend):
    solve_fn, solved = lpmod.BACKENDS[backend], []

    def both(lp, stop=None):
        plain = solve_fn(copy_program(lp))
        sol = solve_fn(lp, stop=threading.Event())
        assert solution_bits(sol) == solution_bits(plain)
        solved.append(sol.status)
        return sol

    monkeypatch.setitem(lpmod.BACKENDS, backend, both)
    overrides = {"seed": 7, "jobs": 1, "solver": backend, "out_dir": str(tmp_path)}
    run_place(load_run_config(CASES / "quickstart_place.json", overrides))
    assert len(solved) > 50 and Status.OPTIMAL in solved


def rts_storage_everywhere_lp():
    """The storage-everywhere LP of the first scenario of the ``rts_greedy`` benchmark draw."""
    from gridstore.matpower import import_matpower_document
    from gridstore.network import with_renewable_node
    from gridstore.scenarios import SyntheticParams, generate_synthetic

    doc = import_matpower_document(CASES / "rts96_3area.m")
    net = doc.network
    for bus_name, cap in (("107", 600.0), ("215", 1800.0), ("317", 1200.0)):
        at = next(b.id for b in net.buses if b.name == bus_name)
        net = with_renewable_node(net, at, cap, line_reactance=0.02, line_limit=1.2 * cap)
    base_load = np.concatenate([doc.base_load, np.zeros(3)])
    params = SyntheticParams(
        n_scenarios=4, penetration_target=0.25, seed=1, volatility=0.07, ramp_event_prob=0.4
    )
    sset = generate_synthetic(net, base_load, params, dt_hours=1.0 / 12.0, n_steps=12)
    return build_dispatch_lp(net, sset.scenarios[0], range(net.n_buses), DispatchConfig())[0]


def test_an_unset_stop_moves_no_ipm_answer_on_the_three_area_network():
    lp = rts_storage_everywhere_lp()
    sol = solve_highs_ipm(lp, stop=threading.Event())
    assert sol.status is Status.OPTIMAL
    assert solution_bits(sol) == solution_bits(solve_highs_ipm(lp))


def test_a_stopped_solve_leaves_no_callback_on_the_cached_object(monkeypatch):
    stop = threading.Event()
    stop.set()
    assert solve_highs(dense_lp(), stop=stop).status is Status.INTERRUPTED
    sol = solve_highs(dense_lp())  # the same thread, so the same HiGHS object
    assert sol.status is Status.OPTIMAL
    assert solution_bits(sol) == solution_bits(on_a_new_object(monkeypatch, solve_highs, dense_lp()))


def test_backend_registry():
    lp = lp_min_x_in_box()
    for backend in ("simplex", "highs"):
        sol = solve_with_backend(lp, backend)
        assert sol.objective == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(ValidationError):
        solve_with_backend(lp, "nope")


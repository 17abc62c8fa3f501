import numpy as np
import pytest

from gridstore.errors import ValidationError
from gridstore.lp import (
    LinearProgram,
    Status,
    default_iter_limit,
    solve,
    solve_highs,
    solve_highs_ipm,
    solve_with_backend,
    write_lp_text,
)
from lp_oracle import certifies_ray, oracle_solve, random_bounded_lp


def lp_min_x_in_box():
    return LinearProgram(n_vars=1, cost=[1.0], var_lower=[1.0], var_upper=[2.0])


def test_min_over_box():
    sol = solve(lp_min_x_in_box())
    assert sol.status is Status.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_unbounded_direction():
    lp = LinearProgram(n_vars=1, cost=[-1.0], var_lower=[0.0])
    assert solve(lp).status is Status.UNBOUNDED


def test_conflicting_rows_infeasible():
    lp = LinearProgram(
        n_vars=1,
        cost=[0.0],
        A=[[1.0], [1.0]],
        row_lower=[2.0, -np.inf],  # x >= 2
        row_upper=[np.inf, 1.0],  # x <= 1
    )
    assert solve(lp).status is Status.INFEASIBLE


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
            A=lp.A.copy(),
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


def test_highs_ipm_reports_iterations():
    # dense rows and coupled boxes leave HiGHS presolve nothing to remove
    rng = np.random.default_rng(8)
    n, m = 30, 20
    A = rng.uniform(0.5, 1.5, (m, n))
    lp = LinearProgram(
        n_vars=n,
        cost=rng.uniform(-1.0, 1.0, n),
        A=A,
        row_lower=np.full(m, -np.inf),
        row_upper=A.sum(axis=1) * 0.5,
        var_lower=np.zeros(n),
        var_upper=np.ones(n),
    )
    sol = solve_highs_ipm(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.iterations > 0
    assert sol.objective == pytest.approx(solve_highs(lp).objective, abs=1e-6)


def test_backend_registry():
    lp = lp_min_x_in_box()
    for backend in ("simplex", "highs"):
        sol = solve_with_backend(lp, backend)
        assert sol.objective == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(ValidationError):
        solve_with_backend(lp, "nope")


def test_lp_text_dump(tmp_path):
    lp = LinearProgram(
        n_vars=2,
        cost=[1.0, -2.0],
        A=[[1.0, 2.0], [1.0, -1.0]],
        row_lower=[-np.inf, 1.0],
        row_upper=[5.0, 1.0],
        var_lower=[0.0, -1.0],
        var_upper=[4.0, np.inf],
    )
    path = tmp_path / "dump.lp"
    write_lp_text(lp, path)
    text = path.read_text()
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "= 1" in text  # the equality row
    assert "<= 5" in text

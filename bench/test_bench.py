"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import stats  # noqa: E402
import tracer as tracing  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_nearest_rank_small_cases():
    assert stats.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert stats.nearest_rank([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize(
    "n, pct",
    [
        (1000, 99),  # 10 samples lie beyond the 990th
        (999, 98),  # p99 leaves 9 beyond; p98 leaves 19
        (100, 90),
        (101, 90),
        (40, 75),
        (20, 50),
        (19, 50),  # no percentile in [50, 99] keeps 10 beyond: fall back to the median
        (3, 50),
    ],
)
def test_tail_percentile_keeps_ten_beyond(n, pct):
    values = [float(i) for i in range(1, n + 1)]
    got_pct, value = stats.tail_percentile(values)
    assert got_pct == pct
    assert value == stats.nearest_rank(values, pct)
    beyond = sum(1 for v in values if v > value)
    if pct > 50:
        assert beyond >= stats.MIN_BEYOND
        # the next percentile up would leave fewer than ten
        if pct < 99:
            assert n - math.ceil((pct + 1) / 100 * n) < stats.MIN_BEYOND


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children are counted once, and clipped to the parent
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0
    assert stats.self_time(2.0, 4.0, [(0.0, 1.0), (5.0, 6.0)]) == 2.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_layer_self_times_sum_to_operation_wall():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    op = tr.begin("op")
    clock.now = 1.0
    ev = tr.begin("placement.evaluate")
    tr.spans[ev].attrs["nodes"] = frozenset({1})
    clock.now = 2.0
    solve = tr.begin("lp.solve")
    tr.spans[solve].attrs.update(status="optimal", iterations=0, max_violation=1e-9)
    clock.now = 5.0
    tr.end(solve)
    clock.now = 5.5
    tr.end(ev)
    clock.now = 6.0
    tr.end(op)
    tally = tracing.op_tally(tr.spans, [op, ev, solve])
    assert tally["wall_s"] == 6.0
    assert tally["self_by_name"] == {"op": 1.5, "placement.evaluate": 1.5, "lp.solve": 3.0}
    assert sum(tally["self_by_name"].values()) == tally["wall_s"]
    assert tally["dispatch_s"] == 3.0
    assert tally["evaluate_s"] == 4.5


def test_repeated_subsets_count_within_one_placement():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    op = tr.begin("op")
    for _ in range(2):  # two placements that each evaluate {0} twice
        place = tr.begin("runners.place")
        for _ in range(2):
            clock.now += 1.0
            ev = tr.begin("placement.evaluate")
            tr.spans[ev].attrs["nodes"] = frozenset({0})
            tr.end(ev)
        tr.end(place)
    tr.end(op)
    tally = tracing.op_tally(tr.spans, list(range(len(tr.spans))))
    assert tally["subsets"] == 4
    assert tally["subsets_repeated"] == 2


def test_summary_reports_the_fastest_traced_operation():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    for duration in (3.0, 2.0, 4.0):
        op = tr.begin("op")
        solve = tr.begin("lp.solve")
        tr.spans[solve].attrs.update(status="optimal", iterations=0, max_violation=0.0)
        clock.now += duration - 0.5
        tr.end(solve)
        clock.now += 0.5
        tr.end(op)
    got = tracing.summarize(tr.spans, untraced_walls=[1.5, 1.0, 1.2], jobs=1)
    assert got["trace.wall_s"] == 2.0
    assert got["lp.solve_s"] == 1.5
    assert got["lp.solves"] == 1  # counts of one operation, not of all three
    # layers only: the 0.5 s the operation spends outside lp.solve is the benchmark's own
    assert got["trace.layer_sum_s"] == 1.5
    assert got["bench.self_s"] == 0.5
    assert got["trace.overhead_s"] == 1.0
    assert got["op.wall_s.p50"] == 1.2
    assert got["op.samples"] == 3


def test_median_operation_leaves_out_failed_operations():
    def op(wall, error=None, checks=()):
        return {"wall_s": wall, "cpu_s": 2 * wall, "error": error, "checks": checks}

    ops = [op(3.0), op(1.0), op(2.0), op(0.1, error="E"), op(0.2, checks=["c"])]
    assert stats.median_operation(ops, "wall") == 2.0
    assert stats.median_operation(ops, "cpu") == 4.0
    assert stats.median_operation([op(7.0)], "wall") == 7.0
    # with no operation passing, all of them count
    failed = [op(0.5, error="E"), op(0.2, checks=["expected the outputs, got a verdict"])]
    assert stats.median_operation(failed, "wall") == 0.35


def test_to_reference_scales_by_the_kernel():
    ref = stats.REFERENCE_KERNEL_S
    assert stats.to_reference(2.0, ref) == 2.0
    # the kernel ran 25% slow, so the operation is charged 25% less
    assert stats.to_reference(2.5, 1.25 * ref) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stats.to_reference(1.0, 0.0)


# -- failure counting ----------------------------------------------------------


def test_fail_frac_counts_errors_and_failed_checks():
    ok = (None, [])
    assert stats.fail_frac([ok, ok, ok, ok]) == 0.0
    assert stats.fail_frac([ok, ("SolverFailure: x", []), ok, ok]) == 0.25
    # a check failure fails the operation even though it raised nothing
    assert stats.fail_frac([ok, (None, ["residual 1e-3 > 1e-6"])]) == 0.5
    assert stats.fail_frac([("E", ["c"])]) == 1.0
    with pytest.raises(ValueError):
        stats.fail_frac([])


class FakeWork:
    """A workload whose operation raises ``exc``; its checks would pass."""

    name = "fake"

    def __init__(self, exc):
        self.exc = exc

    def run(self, jobs):
        raise self.exc

    def check(self, result):
        return []

    def check_reference(self, result):
        return []


def test_an_operation_ending_in_a_verdict_fails():
    import gridstore.errors as errors
    import worker

    for exc in (errors.AllScenariosInfeasible("all dropped"), errors.InfeasibleScenario("s1")):
        op = worker.run_one(FakeWork(exc), jobs=1, trace=None)
        assert op["error"] is None
        assert op["checks"] and "expected the outputs" in op["checks"][0]
        assert stats.fail_frac([(op["error"], op["checks"])]) == 1.0
    op = worker.run_one(FakeWork(ValueError("bad")), jobs=1, trace=None)
    assert op["error"] == "ValueError: bad"
    assert stats.count_failed([(op["error"], op["checks"])]) == 1


# -- pool efficiency -----------------------------------------------------------


def test_pool_efficiency():
    # 49 s of serial dispatch against 38 s on two workers
    assert stats.pool_efficiency(49.0, 38.0, 2) == pytest.approx(0.6447, abs=1e-4)
    assert stats.pool_efficiency(20.0, 10.0, 2) == 1.0
    assert stats.pool_efficiency(3.0, 4.0, 1) == 0.75
    with pytest.raises(ValueError):
        stats.pool_efficiency(1.0, 0.0, 2)


# -- tracer wiring -------------------------------------------------------------


def test_tracer_wraps_every_holder_and_restores_them():
    import gridstore.dispatch as dispatch
    import gridstore.lp as lp
    import gridstore.placement as placement
    import gridstore.runners as runners

    original = placement.greedy_placement
    tr = tracing.Tracer()
    tr.install()
    try:
        assert placement.greedy_placement is not original
        assert runners.greedy_placement is placement.greedy_placement
        assert placement.greedy_placement.__wrapped__ is original
        prog = lp.LinearProgram(n_vars=1, cost=[1.0], var_lower=[0.0], var_upper=[1.0])
        sol = lp.solve_with_backend(prog, "simplex")
        assert sol.status is lp.Status.OPTIMAL
    finally:
        tr.uninstall()
    assert placement.greedy_placement is original
    assert runners.greedy_placement is original
    assert dispatch.build_dispatch_lp.__name__ == "build_dispatch_lp"
    [span] = [s for s in tr.spans if s.name == "lp.solve"]
    assert span.attrs["status"] == "optimal"

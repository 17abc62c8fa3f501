import numpy as np
import pytest
import scipy.sparse as sp

from gridstore.dispatch import (
    DispatchConfig,
    Scenario,
    build_dispatch_lp,
    lookahead_dispatch,
    renewable_fluctuation_energy,
    retarget_dispatch_lp,
    verify_dispatch,
)
from gridstore import lp as lpmod
from gridstore.errors import (
    InconsistentDimensions,
    InfeasibleScenario,
    SolverFailure,
    ValidationError,
)
from gridstore.lp import CsrMatrix, LpSolution, Status
from gridstore.lp import solve as lp_solve
from gridstore.network import Bus, Generator, Line, Network, RenewableSite
from lp_oracle import oracle_solve
from netgen import constant_scenario, random_network, random_scenario

DT = 1.0 / 12.0


def one_bus_network(ramp=1.0, cost=1.0, p_max=10.0, with_site=True):
    return Network(
        buses=[Bus(0, "only", is_slack=True)],
        lines=[],
        generators=[Generator(bus=0, cost=cost, p_max=p_max, ramp_limit=ramp)],
        renewables=[RenewableSite(bus=0, p_max=5.0)] if with_site else [],
    )


# -- construction shape ------------------------------------------------------


def record_assembly(monkeypatch) -> list:
    """Make ``CsrMatrix.from_coo`` note each matrix it builds in the returned
    list, with scipy's CSR matrix of the same triplets."""
    built = []
    from_coo = CsrMatrix.from_coo

    def record(rows, cols, values, shape):
        A = from_coo(rows, cols, values, shape)
        built.append((A, sp.csr_matrix((values, (rows, cols)), shape=shape)))
        return A

    monkeypatch.setattr(CsrMatrix, "from_coo", staticmethod(record))
    return built


def csr_bytes(A) -> list[tuple]:
    return [(a.dtype.str, a.tobytes()) for a in (A.indptr, A.indices, A.data)] + [A.shape]


def assert_matches_scipy(prog, ref: sp.csr_matrix) -> None:
    """``prog.A``, its IPM row split and its mat-vec equal scipy's, byte for byte."""
    assert csr_bytes(prog.A) == csr_bytes(ref)
    rows = lpmod._IpmRows(prog)
    n_upper, n_lower = len(rows.blocks[0]), len(rows.blocks[1])
    split = ref[np.concatenate(rows.blocks)]
    split.data[split.indptr[n_upper] : split.indptr[n_upper + n_lower]] *= -1.0
    assert csr_bytes(rows.matrix(prog)) == csr_bytes(split)
    # magnitudes from 1e-3 to 1e3, so that a change in summation order shows
    x = np.random.default_rng(0).normal(size=prog.n_vars) * np.logspace(-3, 3, prog.n_vars)
    assert (prog.A @ x).tobytes() == (ref @ x).tobytes()


def test_lp_shape_one_bus_no_storage():
    net = one_bus_network(ramp=float("inf"), with_site=False)
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 0)), load=[[5.0], [5.0]])
    prog, idx = build_dispatch_lp(net, scen, DispatchConfig())
    assert prog.n_vars == 2  # two pg variables, no angles beyond the fixed slack
    assert prog.n_rows == 2  # one balance equality per step
    assert np.all(prog.row_lower == prog.row_upper)


def test_lp_shape_two_bus_one_step_storage():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1)],
        lines=[Line(0, 1, 0.1, 50.0)],
        generators=[Generator(bus=0, cost=1.0, p_max=10.0)],
    )
    scen = Scenario(dt_hours=DT, renewable=np.zeros((1, 0)), load=[[0.0, 5.0]])
    prog, idx = build_dispatch_lp(net, scen, DispatchConfig(storage_nodes={1}))
    # pg(1) + ps(1) + theta(1 non-slack) + s_bar(1) + ps_bar(1) + s0(1)
    assert prog.n_vars == 6


INF = np.inf

# 2 buses, T=2, storage at bus 1, curtailment on, initial SOC pinned at half:
# config, then the dense A with its row bounds, then cost and variable bounds
LAYOUTS = {
    "sized": (
        dict(storage_energy_cost=200.0, storage_power_cost=20.0),
        # columns: pg0 pg1 | ps0 ps1 | th0 th1 | s_bar | ps_bar | s0 | cur0 cur1
        [
            # nodal balance at (t, bus) = (0,0) (0,1) (1,0) (1,1)
            ([-1, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0], 0.5, 0.5),
            ([0, 0, -1, 0, 2, 0, 0, 0, 0, 1, 0], -1.0, -1.0),
            ([0, -1, 0, 0, 0, -2, 0, 0, 0, 0, 0], 0.0, 0.0),
            ([0, 0, 0, -1, 0, 2, 0, 0, 0, 0, 1], -3.0, -3.0),
            # line flow at t = 0, 1 (the from end is the slack)
            ([0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0], -3, 3),
            ([0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0], -3, 3),
            # ramp pg1 - pg0
            ([-1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], -1, 1),
            # s0 <= s_bar, s0 = s_bar / 2
            ([0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0], -INF, 0),
            ([0, 0, 0, 0, 0, 0, -0.5, 0, 1, 0, 0], 0, 0),
            # soc after step 1, then step 2: >= 0, <= s_bar
            ([0, 0, -0.5, 0, 0, 0, 0, 0, 1, 0, 0], 0, INF),
            ([0, 0, -0.5, 0, 0, 0, -1, 0, 1, 0, 0], -INF, 0),
            ([0, 0, -0.5, -0.5, 0, 0, 0, 0, 1, 0, 0], 0, INF),
            ([0, 0, -0.5, -0.5, 0, 0, -1, 0, 1, 0, 0], -INF, 0),
            # ps(t) - ps_bar <= 0 <= ps(t) + ps_bar at t = 0, 1
            ([0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0], -INF, 0),
            ([0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0], 0, INF),
            ([0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0], -INF, 0),
            ([0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], 0, INF),
            # zero net storage energy
            ([0, 0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0], 0, 0),
        ],
        [5, 5, 0, 0, 0, 0, 200, 20, 0, 5000, 5000],
        [0, 0, -INF, -INF, -INF, -INF, 0, 0, 0, 0, 0],
        [8, 8, INF, INF, INF, INF, INF, INF, INF, 2, 1],
    ),
}


@pytest.mark.parametrize("variant", sorted(LAYOUTS))
def test_lp_layout_pinned(variant, monkeypatch):
    caps, rows, cost, var_lower, var_upper = LAYOUTS[variant]
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1)],
        lines=[Line(0, 1, 0.5, 3.0)],  # weight 1/x = 2, |flow| <= 3
        generators=[Generator(bus=0, cost=10.0, p_max=8.0, ramp_limit=1.0)],
        renewables=[RenewableSite(bus=1, p_max=4.0)],
    )
    scen = Scenario(
        dt_hours=0.5,
        renewable=[[2.0], [1.0]],
        load=[[0.0, 3.0], [0.0, 4.0]],
        interchange=[[0.5, 0.0], [0.0, 0.0]],
    )
    cfg = DispatchConfig(
        storage_nodes={1}, allow_curtailment=True, initial_soc_free=False, **caps
    )
    built = record_assembly(monkeypatch)
    prog, _ = build_dispatch_lp(net, scen, cfg)
    assert np.array_equal(prog.matrix().toarray(), [r[0] for r in rows])
    ((A, ref),) = built
    assert A is prog.A
    assert_matches_scipy(prog, ref)
    assert list(prog.row_lower) == [r[1] for r in rows]
    assert list(prog.row_upper) == [r[2] for r in rows]
    assert list(prog.cost) == cost
    assert list(prog.var_lower) == var_lower
    assert list(prog.var_upper) == var_upper


def test_storage_free_flat_load():
    net = one_bus_network(ramp=10.0, with_site=False)
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 0)), load=[[5.0], [5.0]])
    sol = lookahead_dispatch(net, scen, DispatchConfig(), backend="simplex")
    assert sol.pg.ravel() == pytest.approx([5.0, 5.0], abs=1e-8)
    assert sol.s_bar.size == 0
    assert sol.objective == pytest.approx(10.0 * DT * 1.0, abs=1e-8)
    assert sol.generation_cost == pytest.approx(sol.objective, abs=1e-9)


# -- ramp-forcing case, pinned against the brute-force LP oracle -------------


def ramp_case_scenario():
    return Scenario(dt_hours=DT, renewable=[[2.0], [0.0]], load=[[5.0], [5.0]], label="rampy")


def test_ramp_case_minimum_energy_capacity():
    # renewable drops by 2 MW while the generator can only ramp 1 MW/step,
    # so storage must bridge half the gap on each side of the drop
    net = one_bus_network(ramp=1.0)
    scen = ramp_case_scenario()

    # independent reference: minimize s_bar subject to the same physics
    sizing_net = Network(
        net.buses, net.lines, [Generator(0, 0.0, 10.0, 1.0)], net.renewables
    )
    prog, _ = build_dispatch_lp(
        sizing_net,
        scen,
        DispatchConfig(storage_nodes={0}, storage_energy_cost=1.0, storage_power_cost=0.0),
    )
    status, min_s_bar = oracle_solve(prog)
    assert status == "optimal"
    assert min_s_bar == pytest.approx(DT / 2, abs=1e-9)

    cfg = DispatchConfig(storage_nodes={0}, storage_energy_cost=1e4, storage_power_cost=1e3)
    sol = lookahead_dispatch(net, scen, cfg, backend="simplex")
    assert sol.s_bar[0] == pytest.approx(min_s_bar, abs=1e-6)
    assert sol.ps.ravel() == pytest.approx([-0.5, 0.5], abs=1e-6)
    assert sol.s_bar[0] > 0


def test_ramp_case_with_pinned_initial_soc_doubles_capacity():
    # pinning s0 = s_bar/2 forces capacity to cover the swing on both sides
    net = one_bus_network(ramp=1.0)
    cfg = DispatchConfig(
        storage_nodes={0},
        storage_energy_cost=1e4,
        storage_power_cost=1e3,
        initial_soc_free=False,
    )
    sol = lookahead_dispatch(net, ramp_case_scenario(), cfg, backend="simplex")
    assert sol.s_bar[0] == pytest.approx(DT, abs=1e-6)


def test_infeasible_without_storage_raises_with_label():
    net = one_bus_network(ramp=1.0)
    with pytest.raises(InfeasibleScenario) as err:
        lookahead_dispatch(net, ramp_case_scenario(), DispatchConfig(), backend="simplex")
    assert "rampy" in str(err.value)


def _iteration_limit(prog, backend):
    return LpSolution(Status.ITERATION_LIMIT)


def _backend_error(prog, backend):
    raise SolverFailure("HiGHS IPM stopped with status 4: model error")


@pytest.mark.parametrize(
    "solver, detail",
    [
        (_iteration_limit, "dispatch LP ended with status iteration_limit"),
        (_backend_error, "HiGHS IPM stopped with status 4: model error"),
    ],
)
def test_solver_failure_names_scenario_and_backend(monkeypatch, solver, detail):
    monkeypatch.setattr(lpmod, "solve_with_backend", solver)
    net = one_bus_network(ramp=1.0)
    with pytest.raises(SolverFailure) as err:
        lookahead_dispatch(net, ramp_case_scenario(), DispatchConfig(), backend="highs-ipm")
    assert str(err.value) == f"scenario rampy (highs-ipm): {detail}"


# -- physical invariants on random instances ---------------------------------


@pytest.mark.parametrize("backend", ["simplex", "highs"])
def test_invariants_random_instances(backend):
    rng = np.random.default_rng(17 if backend == "simplex" else 18)
    n_cases = 8 if backend == "simplex" else 20
    for _ in range(n_cases):
        net = random_network(rng, n_buses=int(rng.integers(2, 5)))
        scen = random_scenario(rng, net, n_steps=int(rng.integers(3, 7)))
        cfg = DispatchConfig(storage_nodes=set(range(net.n_buses)))
        sol = lookahead_dispatch(net, scen, cfg, backend=backend)
        res = verify_dispatch(net, scen, sol)
        assert res["power_balance"] <= 1e-6
        assert res["energy_bookkeeping"] <= 1e-7
        assert res["terminal"] <= 1e-6
        assert res["soc_bounds"] <= 1e-6
        assert res["ps_bounds"] <= 1e-6


def test_no_fluctuation_collapses_storage_to_zero():
    rng = np.random.default_rng(23)
    for _ in range(5):
        net = random_network(rng, n_buses=3, tight_ramps=False)
        scen = constant_scenario(net)
        cfg = DispatchConfig(storage_nodes=set(range(net.n_buses)))
        sol = lookahead_dispatch(net, scen, cfg, backend="simplex")
        assert np.all(np.abs(sol.s_bar) <= 1e-7)
        assert np.all(np.abs(sol.ps) <= 1e-6)


def test_widening_limits_never_raises_cost():
    rng = np.random.default_rng(31)
    for _ in range(6):
        net = random_network(rng, n_buses=3, tight_ramps=True)
        scen = random_scenario(rng, net, n_steps=4)
        cfg = DispatchConfig(storage_nodes={0})
        try:
            base = lookahead_dispatch(net, scen, cfg, backend="highs")
        except InfeasibleScenario:
            continue
        wider = Network(
            net.buses,
            tuple(
                Line(l.from_bus, l.to_bus, l.reactance, None if l.flow_limit is None else 2 * l.flow_limit)
                for l in net.lines
            ),
            tuple(
                Generator(g.bus, g.cost, g.p_max, 2 * g.ramp_limit) for g in net.generators
            ),
            net.renewables,
        )
        relaxed = lookahead_dispatch(wider, scen, cfg, backend="highs")
        assert relaxed.objective <= base.objective + 1e-7


def test_single_period_equals_plain_dcopf():
    # with one step and no storage the horizon LP is an ordinary DC-OPF;
    # cross-check against a directly built one-shot program
    rng = np.random.default_rng(41)
    for _ in range(5):
        net = random_network(rng, n_buses=4, tight_ramps=False)
        scen = random_scenario(rng, net, n_steps=1)
        sol = lookahead_dispatch(net, scen, DispatchConfig(), backend="simplex")

        from gridstore.lp import LinearProgram
        from gridstore.network import build_laplacian

        n = net.n_buses
        gens = net.generators
        slack = net.slack
        non_slack = [i for i in range(n) if i != slack]
        nv = len(gens) + len(non_slack)
        cost = np.array([g.cost * scen.dt_hours for g in gens] + [0.0] * len(non_slack))
        lo = np.array([0.0] * len(gens) + [-np.inf] * len(non_slack))
        hi = np.array([g.p_max for g in gens] + [np.inf] * len(non_slack))
        lap = build_laplacian(net)
        tpos = {b: len(gens) + k for k, b in enumerate(non_slack)}
        A = np.zeros((n, nv))
        rhs = np.zeros(n)
        for i in range(n):
            for j in non_slack:
                if lap[i, j] != 0.0:
                    A[i, tpos[j]] = lap[i, j]
            for g, gen in enumerate(gens):
                if gen.bus == i:
                    A[i, g] = -1.0
            rhs[i] = float(-scen.load[0, i] + scen.interchange[0, i])
            for s, site in enumerate(net.renewables):
                if site.bus == i:
                    rhs[i] += float(scen.renewable[0, s])
        prog = LinearProgram(
            n_vars=nv, cost=cost, A=A, row_lower=rhs, row_upper=rhs, var_lower=lo, var_upper=hi
        )
        direct = lp_solve(prog)
        assert direct.objective == pytest.approx(sol.objective, abs=1e-8)


# -- fluctuation energy -------------------------------------------------------


def test_fluctuation_energy_constant_site_is_zero():
    scen = Scenario(dt_hours=0.5, renewable=np.full((4, 1), 3.0), load=np.zeros((4, 1)))
    assert np.allclose(renewable_fluctuation_energy(scen), 0.0)


def test_fluctuation_energy_two_step_example():
    scen = Scenario(dt_hours=1.0, renewable=[[2.0], [0.0]], load=np.zeros((2, 1)))
    s_r = renewable_fluctuation_energy(scen)
    assert s_r[:, 0] == pytest.approx([0.0, 1.0, 0.0])


def test_fluctuation_energy_against_second_implementation():
    rng = np.random.default_rng(77)
    ren = rng.uniform(0, 5, (10, 3))
    scen = Scenario(dt_hours=0.25, renewable=ren, load=np.zeros((10, 1)))
    s_r = renewable_fluctuation_energy(scen)
    # independent loop-based accumulation
    for s in range(3):
        mean = sum(ren[:, s]) / 10
        acc, series = 0.0, [0.0]
        for t in range(10):
            acc += (ren[t, s] - mean) * 0.25
            series.append(acc)
        assert s_r[:, s] == pytest.approx(series, abs=1e-12)
        assert s_r[0, s] == 0.0
        assert abs(s_r[-1, s]) < 1e-12
    span = s_r.max(axis=0) - s_r.min(axis=0)
    assert np.all(span >= 0)


def test_backends_agree_on_dispatch_objective():
    # the solver seam: every backend returns the same optimal cost
    rng = np.random.default_rng(61)
    for _ in range(5):
        net = random_network(rng, n_buses=3)
        scen = random_scenario(rng, net, n_steps=4)
        cfg = DispatchConfig(storage_nodes=set(range(net.n_buses)))
        objectives = [
            lookahead_dispatch(net, scen, cfg, backend=b).objective
            for b in ("simplex", "highs", "highs-ipm")
        ]
        assert objectives[1] == pytest.approx(objectives[0], rel=1e-7, abs=1e-6)
        assert objectives[2] == pytest.approx(objectives[0], rel=1e-7, abs=1e-6)


@pytest.mark.parametrize("backend", ["highs", "highs-ipm"])
def test_dispatch_carries_the_lp_iterations_and_residual(backend, monkeypatch):
    rng = np.random.default_rng(3)
    net = random_network(rng, n_buses=4, flow_limits=True)
    seen = []
    solve = lpmod.solve_with_backend

    def record(prog, name):
        seen.append(solve(prog, name))
        return seen[-1]

    monkeypatch.setattr(lpmod, "solve_with_backend", record)
    sol = lookahead_dispatch(net, random_scenario(rng, net), DispatchConfig({1, 2}), backend)
    (lp_sol,) = seen
    assert sol.iterations == lp_sol.iterations > 0
    assert sol.max_violation == lp_sol.max_violation


# -- curtailment and interchange ------------------------------------------------


def test_curtailment_restores_feasibility_on_surplus():
    # renewable energy exceeds load energy: unservable without spilling
    net = Network(
        buses=[Bus(0, is_slack=True)],
        lines=[],
        generators=[Generator(bus=0, cost=1.0, p_max=10.0)],
        renewables=[RenewableSite(bus=0, p_max=8.0)],
    )
    scen = Scenario(dt_hours=DT, renewable=[[8.0], [8.0]], load=[[5.0], [5.0]], label="surplus")
    cfg = DispatchConfig(storage_nodes={0})
    with pytest.raises(InfeasibleScenario):
        lookahead_dispatch(net, scen, cfg, backend="simplex")
    relaxed = DispatchConfig(storage_nodes={0}, allow_curtailment=True)
    sol = lookahead_dispatch(net, scen, relaxed, backend="simplex")
    assert sol.curtailed is not None
    assert sol.curtailed.sum() == pytest.approx(6.0, abs=1e-6)  # 3 MW spilled each step


def test_interchange_is_fixed_injection():
    net = one_bus_network(ramp=10.0, with_site=False)
    inter = np.full((2, 1), 2.0)  # 2 MW imported every step
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 0)), load=[[5.0], [5.0]], interchange=inter)
    sol = lookahead_dispatch(net, scen, DispatchConfig(), backend="simplex")
    assert sol.pg.ravel() == pytest.approx([3.0, 3.0], abs=1e-8)


def lp_bytes(prog) -> list[tuple]:
    arrays = (
        prog.A.indptr,
        prog.A.indices,
        prog.A.data,
        prog.row_lower,
        prog.row_upper,
        prog.cost,
        prog.var_lower,
        prog.var_upper,
    )
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("storage", ["everywhere", "subset", "none"])
@pytest.mark.parametrize("caps", ["sized"])  # the only capacity mode; kept in the case ids
@pytest.mark.parametrize("curtail", [False, True])
@pytest.mark.parametrize("soc_free", [True, False])
def test_retargeted_lp_equals_fresh_build(storage, caps, curtail, soc_free, monkeypatch):
    rng = np.random.default_rng(17)
    net = random_network(rng, n_buses=5, flow_limits=True, n_sites=2)
    scens = [random_scenario(rng, net, label=f"s{i}") for i in range(5)]
    nodes = {"everywhere": range(5), "subset": {1, 3}, "none": ()}[storage]
    cfg = DispatchConfig(
        storage_nodes=frozenset(nodes), allow_curtailment=curtail, initial_soc_free=soc_free
    )
    built = record_assembly(monkeypatch)
    first, idx = build_dispatch_lp(net, scens[0], cfg)
    before = lp_bytes(first)
    for scen in scens:
        fresh, _ = build_dispatch_lp(net, scen, cfg)
        assert lp_bytes(retarget_dispatch_lp(first, idx, scen)) == lp_bytes(fresh)
        assert_matches_scipy(fresh, built[-1][1])
    assert lp_bytes(first) == before  # the template is left as built
    assert len(built) == 1 + len(scens)


# per case: the network and scenario keywords that change one dimension, and the message
RESHAPED = {
    "n_steps": ({}, dict(n_steps=7), "has 7 steps"),
    "dt_hours": ({}, dict(dt_hours=0.25), "steps of 0.25 h"),
    "n_buses": (dict(n_buses=5), {}, "covers 5 buses, network has 4"),
    "n_sites": (dict(n_sites=2), {}, "covers 2 sites, network has 1"),
}


@pytest.mark.parametrize("field", list(RESHAPED))
def test_retarget_rejects_other_step_grid(field):
    net_kw, scen_kw, message = RESHAPED[field]
    rng = np.random.default_rng(4)
    net = random_network(rng)
    cfg = DispatchConfig(storage_nodes={0})
    prog, idx = build_dispatch_lp(net, random_scenario(rng, net, n_steps=6), cfg)
    other = random_network(rng, **net_kw) if net_kw else net
    with pytest.raises(InconsistentDimensions, match=message):
        retarget_dispatch_lp(prog, idx, random_scenario(rng, other, **scen_kw))


def test_rts_sized_case_builds_and_solves():
    from pathlib import Path

    from gridstore.matpower import import_matpower_document

    doc = import_matpower_document(Path(__file__).resolve().parent.parent / "cases" / "rts96_3area.m")
    net = doc.network
    T = 24
    scen = Scenario(
        dt_hours=DT,
        renewable=np.zeros((T, 0)),
        load=np.tile(doc.base_load, (T, 1)),
        label="flat-no-wind",
    )
    cfg = DispatchConfig(storage_nodes=set(range(net.n_buses)))
    prog, idx = build_dispatch_lp(net, scen, cfg)
    assert prog.n_vars == idx.n_vars
    sol = lookahead_dispatch(net, scen, cfg, backend="highs-ipm")
    assert sol.pg.sum(axis=1) == pytest.approx(np.full(T, doc.base_load.sum()), abs=1e-4)
    assert np.all(sol.s_bar <= 1e-6)  # nothing fluctuates, storage stays empty


# -- validation ----------------------------------------------------------------


@pytest.mark.parametrize("series", ["renewable", "load", "interchange"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scenario_rejects_non_finite_series(series, bad):
    arrays = {"renewable": np.ones((2, 1)), "load": np.ones((2, 1)), "interchange": np.ones((2, 1))}
    arrays[series][1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        Scenario(dt_hours=DT, **arrays)


def test_dimension_mismatch_rejected():
    net = one_bus_network()
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 3)), load=[[1.0], [1.0]])
    with pytest.raises(InconsistentDimensions):
        build_dispatch_lp(net, scen, DispatchConfig())


def test_storage_node_outside_network_rejected():
    net = one_bus_network()
    scen = ramp_case_scenario()
    with pytest.raises(InconsistentDimensions):
        build_dispatch_lp(net, scen, DispatchConfig(storage_nodes={5}))

import inspect
import itertools
import json
import logging
import multiprocessing
import signal
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import dispatch_threads
from gridstore import dispatch as dispatchmod
from gridstore import lp as lpmod
from gridstore import placement, runners
from gridstore.config import load_run_config
from gridstore.dispatch import (
    DispatchConfig,
    Dispatcher,
    DispatchSolution,
    Scenario,
    build_dispatch_lp,
    decode_solution,
    lookahead_dispatch,
)
from gridstore.errors import (
    AllScenariosInfeasible,
    SolverFailure,
    ValidationError,
    ZeroFluctuationDenominator,
)
from gridstore.lp import LpSolution, Status
from gridstore.network import Bus, Generator, Line, Network, RenewableSite
from gridstore.placement import (
    PerfWeights,
    SubsetEvaluation,
    baseline_nodes,
    candidate_thresholds,
    evaluate_fixed_placement,
    evaluate_subset,
    greedy_placement,
    normalized_energy_capacity,
    normalized_power_capacity,
    perf,
    solve_all_scenarios,
    threshold_scan,
)
from gridstore.scenarios import ScenarioSet, SyntheticParams, generate_synthetic
from netgen import random_network, random_scenario

DT = 1.0 / 12.0


def fake_solution(ps, soc, nodes=(0,)):
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    soc = np.atleast_2d(np.asarray(soc, dtype=float))
    T = ps.shape[0]
    return DispatchSolution(
        status=Status.OPTIMAL,
        pg=np.zeros((T, 0)),
        ps=ps,
        soc=soc,
        flows=np.zeros((T, 0)),
        s_bar=soc.max(axis=0) - soc.min(axis=0),
        ps_bar=np.abs(ps).max(axis=0),
        storage_nodes=tuple(nodes),
        generation_cost=0.0,
        storage_cost=0.0,
    )


# -- metric formulas -----------------------------------------------------------


def test_power_metric_direct_formula():
    # |ps| peaks at 1 MW; the site swings between 1 and 3 MW
    scen = Scenario(dt_hours=1.0, renewable=[[3.0], [1.0]], load=np.zeros((2, 1)))
    sol = fake_solution(ps=[[1.0], [-1.0]], soc=[[0.0], [1.0]])
    assert normalized_power_capacity([sol], [scen]) == pytest.approx(0.5)


def test_power_metric_zero_when_unused():
    scen = Scenario(dt_hours=1.0, renewable=[[3.0], [1.0]], load=np.zeros((2, 1)))
    sol = fake_solution(ps=[[0.0], [0.0]], soc=[[0.0], [0.0]])
    assert normalized_power_capacity([sol], [scen]) == 0.0


def test_energy_metric_direct_formula():
    # soc swing 1 MWh against a 2 MWh fluctuation-energy swing
    scen = Scenario(dt_hours=2.0, renewable=[[2.0], [0.0]], load=np.zeros((2, 1)))
    # s^r = [0, 2, 0] -> swing 2 MWh
    sol = fake_solution(ps=[[0.5], [-0.5]], soc=[[0.5], [1.5]])
    assert normalized_energy_capacity([sol], [scen]) == pytest.approx(0.5)


def test_metrics_raise_on_flat_renewables():
    scen = Scenario(dt_hours=1.0, renewable=np.full((3, 1), 2.0), load=np.zeros((3, 1)))
    sol = fake_solution(ps=np.zeros((3, 1)), soc=np.zeros((4, 1)))
    with pytest.raises(ZeroFluctuationDenominator):
        normalized_power_capacity([sol], [scen])
    with pytest.raises(ZeroFluctuationDenominator):
        normalized_energy_capacity([sol], [scen])


def test_colocated_storage_absorbing_fluctuation_hits_unity():
    # a ramp-frozen generator forces storage to mirror the renewable exactly,
    # which is the definition of the fluctuation-absorbing battery
    net = Network(
        buses=[Bus(0, is_slack=True)],
        lines=[],
        generators=[Generator(bus=0, cost=1.0, p_max=10.0, ramp_limit=0.0)],
        renewables=[RenewableSite(bus=0, p_max=4.0)],
    )
    scen = Scenario(dt_hours=1.0, renewable=[[2.0], [0.0]], load=[[5.0], [5.0]], label="island")
    cfg = DispatchConfig(storage_nodes={0}, storage_energy_cost=100.0, storage_power_cost=10.0)
    sol = lookahead_dispatch(net, scen, cfg, backend="simplex")
    assert sol.ps.ravel() == pytest.approx([-1.0, 1.0], abs=1e-7)
    assert normalized_energy_capacity([sol], [scen]) == pytest.approx(1.0, abs=1e-6)
    assert normalized_power_capacity([sol], [scen]) == pytest.approx(0.5, abs=1e-6)


# -- perf ----------------------------------------------------------------------


def test_perf_weighted_sum():
    assert perf(range(10), 0.5, PerfWeights()) == pytest.approx(0.7)


def test_perf_empty_set_zero_metric():
    assert perf((), 0.0, PerfWeights()) == 0.0


def test_perf_site_cost_linearity():
    w1 = PerfWeights(site_cost=0.02)
    w2 = PerfWeights(site_cost=0.04)
    base = perf(range(5), 0.3, w1)
    doubled = perf(range(5), 0.3, w2)
    assert doubled - base == pytest.approx(0.02 * 5)


# -- threshold candidates --------------------------------------------------------


def ev_from_caps(caps, nodes=None, perf=1.0):
    """A one-scenario evaluation whose capacities are ``caps``; every metric is ``perf``."""
    caps = np.asarray(caps, dtype=float)
    nodes = tuple(range(len(caps))) if nodes is None else tuple(nodes)
    return SubsetEvaluation(nodes, caps, caps.copy(), caps[None, :], perf, perf, perf)


def test_candidates_from_distinct_ratios():
    cands = candidate_thresholds(ev_from_caps([10.0, 1.0, 0.0]))
    gammas = [g for g, _ in cands]
    subsets = [sorted(s) for _, s in cands]
    assert gammas == pytest.approx([1.0, 0.1, 0.0])
    assert subsets == [[0], [0, 1], [0, 1, 2]]


def test_equal_caps_yield_single_full_candidate():
    cands = candidate_thresholds(ev_from_caps([2.0, 2.0, 2.0]))
    assert len(cands) == 1
    gamma, keep = cands[0]
    assert gamma == 1.0 and keep == frozenset({0, 1, 2})


def test_scan_no_improvement_on_equal_caps():
    current = ev_from_caps([2.0, 2.0])
    called = []

    def evaluate(nodes):
        called.append(nodes)
        raise AssertionError("must not re-dispatch the unchanged set")

    hit = threshold_scan(current, 0.01, evaluate)
    assert hit is None and called == []


def test_scan_picks_largest_improving_gamma():
    current = ev_from_caps([10.0, 1.0, 0.5])
    perfs = {
        frozenset({0}): 0.97,  # gamma=1.0 candidate: improves by only 0.03
        frozenset({0, 1}): 0.2,  # gamma=0.1: improves
        frozenset({0, 1, 2}): 0.1,  # gamma=0.05: improves more but smaller gamma
    }

    class Ev:
        def __init__(self, p, nodes):
            self.perf = p
            self.nodes = tuple(sorted(nodes))

    hit = threshold_scan(current, 0.05, lambda s: Ev(perfs[s], s))
    assert hit is not None
    gamma, ev = hit
    assert gamma == pytest.approx(0.1)
    assert set(ev.nodes) == {0, 1}


def test_scan_logs_candidates_that_do_not_improve(caplog):
    # the gamma = 0 candidate is the current set {0, 1, 2}, which is skipped unlogged
    current = ev_from_caps([10.0, 1.0, 0.0])

    class Ev:
        perf = 0.99

    with caplog.at_level(logging.INFO, logger="gridstore.placement"):
        hit = threshold_scan(current, 0.05, lambda s: Ev)
    assert hit is None
    assert [r.getMessage() for r in caplog.records] == [
        "threshold 1.0000 rejected: subset [0] perf 0.990000 does not beat 0.950000",
        "threshold 0.1000 rejected: subset [0, 1] perf 0.990000 does not beat 0.950000",
    ]


def test_greedy_dispatches_each_subset_once(monkeypatch):
    # {0} is infeasible and is the gamma = 1 candidate in both rounds; its
    # verdict is remembered, so the second round does not dispatch it again
    caps = {
        frozenset({0, 1, 2, 3}): ([4.0, 3.0, 2.0, 1.0], 1.0),
        frozenset({0, 1}): ([4.0, 3.0], 0.5),
    }
    calls = []

    def counting_stub(network, scenario_set, nodes, weights, dispatch, backend, jobs, order=None):
        nodes = frozenset(nodes)
        calls.append(nodes)
        if nodes not in caps:
            raise AllScenariosInfeasible(f"subset {sorted(nodes)}")
        s_bar, p = caps[nodes]
        return ev_from_caps(s_bar, sorted(nodes), p)

    monkeypatch.setattr(placement, "evaluate_subset", counting_stub)
    net = Network(buses=[Bus(i, is_slack=(i == 0)) for i in range(4)], lines=[])
    scen = Scenario(dt_hours=DT, renewable=np.zeros((1, 0)), load=np.zeros((1, 4)))
    state = greedy_placement(net, ScenarioSet([scen]), epsilon=0.01)
    assert calls == [frozenset({0, 1, 2, 3}), frozenset({0}), frozenset({0, 1})]
    assert [r.nodes for r in state.rounds] == [(0, 1, 2, 3), (0, 1)]
    assert state.gammas == [None, 0.75]
    assert state.rounds[-1].perf == 0.5
    # the state keeps greedy's memo: known verdicts come back without a dispatch
    assert state.evaluate(state.nodes) is state.rounds[-1]
    with pytest.raises(AllScenariosInfeasible):
        state.evaluate(frozenset({0}))
    assert len(calls) == 3


def test_greedy_relative_epsilon_scales_the_initial_perf(monkeypatch):
    # pruning {0, 1} to {0} lowers perf from 1.0 to 0.6: more than 1% of 1.0, less than 50%
    perfs = {frozenset({0, 1}): 1.0, frozenset({0}): 0.6}

    def stub(network, scenario_set, nodes, *args, **kwargs):
        caps = [4.0, 1.0][: len(nodes)]
        p = perfs[frozenset(nodes)]
        return ev_from_caps(caps, sorted(nodes), p)

    monkeypatch.setattr(placement, "evaluate_subset", stub)
    net = Network(buses=[Bus(i, is_slack=(i == 0)) for i in range(2)], lines=[])
    scen = Scenario(dt_hours=DT, renewable=np.zeros((1, 0)), load=np.zeros((1, 2)))
    for epsilon_rel, sizes in ((0.01, [2, 1]), (0.5, [2])):
        state = greedy_placement(net, ScenarioSet([scen]), epsilon_rel=epsilon_rel)
        assert state.epsilon == epsilon_rel
        assert [len(r.nodes) for r in state.rounds] == sizes


# -- chain instance: greedy vs exhaustive ------------------------------------


def chain_network():
    return Network(
        buses=[Bus(0, "wind"), Bus(1, "city"), Bus(2, "plant", is_slack=True)],
        lines=[Line(0, 1, 0.1, None), Line(1, 2, 0.1, 5.2)],
        generators=[Generator(bus=2, cost=5.0, p_max=25.0, ramp_limit=0.5)],
        renewables=[RenewableSite(bus=0, p_max=4.0)],
    )


def chain_scenarios(n=4, seed=2):
    net = chain_network()
    params = SyntheticParams(
        n_scenarios=n, penetration_target=0.3, seed=seed, volatility=0.15, ramp_event_prob=0.5
    )
    return generate_synthetic(net, np.array([0.0, 6.0, 0.0]), params, DT, 6)


def brute_force_best(net, sset, weights, dispatch):
    best = (np.inf, None)
    all_nodes = list(range(net.n_buses))
    for r in range(1, len(all_nodes) + 1):
        for combo in itertools.combinations(all_nodes, r):
            try:
                ev = evaluate_subset(net, sset, combo, weights, dispatch, backend="highs")
            except AllScenariosInfeasible:
                continue
            if ev.perf < best[0]:
                best = (ev.perf, frozenset(combo))
    return best


def test_greedy_within_factor_of_exhaustive_on_chain():
    net = chain_network()
    sset = chain_scenarios()
    weights = PerfWeights(site_cost=0.05)
    dispatch = DispatchConfig()
    best_perf, best_set = brute_force_best(net, sset, weights, dispatch)
    assert best_set is not None
    state = greedy_placement(net, sset, weights, dispatch=dispatch, backend="highs")
    assert state.rounds[-1].perf <= 1.25 * best_perf + 1e-9
    # monotone shrink, improvement accounting
    sizes = [len(r.nodes) for r in state.rounds]
    assert sizes == sorted(sizes, reverse=True)
    for prev, cur in zip(state.rounds, state.rounds[1:]):
        assert cur.perf < prev.perf - state.epsilon + 1e-12
        assert len(cur.nodes) < len(prev.nodes)


def test_round_perf_recomputable_from_metrics():
    net = chain_network()
    sset = chain_scenarios(seed=2)
    weights = PerfWeights(site_cost=0.05)
    state = greedy_placement(net, sset, weights, backend="highs")
    for rec in state.rounds:
        assert rec.perf == pytest.approx(
            weights.energy_weight * rec.energy_metric + weights.site_cost * len(rec.nodes),
            abs=1e-12,
        )
    assert state.evaluate(state.nodes) is state.rounds[-1]  # the placement is its own record


def test_pruned_nodes_were_below_threshold():
    net = chain_network()
    sset = chain_scenarios(seed=5)
    state = greedy_placement(net, sset, PerfWeights(site_cost=0.05), backend="highs")
    for prev, cur, gamma in zip(state.rounds, state.rounds[1:], state.gammas[1:]):
        top = max(prev.s_bar_max, default=0.0) if len(prev.s_bar_max) else 0.0
        removed = set(prev.nodes) - set(cur.nodes)
        caps = dict(zip(prev.nodes, prev.s_bar_max))
        for node in removed:
            assert caps[node] < gamma * top + 1e-9


def test_zero_fluctuation_prunes_to_empty_set():
    # uncongested at rest: no storage needed once nothing fluctuates
    net = Network(
        buses=[Bus(0, "wind"), Bus(1, "city"), Bus(2, "plant", is_slack=True)],
        lines=[Line(0, 1, 0.1, None), Line(1, 2, 0.1, None)],
        generators=[Generator(bus=2, cost=5.0, p_max=25.0, ramp_limit=0.5)],
        renewables=[RenewableSite(bus=0, p_max=4.0)],
    )
    sset = generate_synthetic(
        net,
        np.array([0.0, 6.0, 0.0]),
        SyntheticParams(n_scenarios=3, penetration_target=0.0, seed=1, load_noise=0.0),
        DT,
        4,
    )
    state = greedy_placement(net, sset, PerfWeights(), backend="highs")
    assert state.nodes == frozenset()
    assert state.rounds[-1].perf == pytest.approx(0.0, abs=1e-12)
    assert len(state.rounds) == 2  # initial full set, then the empty set
    assert np.all(state.rounds[0].s_bar_max <= 1e-7)
    assert [len(r.nodes) for r in state.rounds] == [3, 0]
    assert state.gammas[1] == 1.0  # the threshold that emptied the set


def test_fixed_placement_idempotent_with_greedy_output():
    net = chain_network()
    sset = chain_scenarios(seed=9)
    weights = PerfWeights(site_cost=0.05)
    state = greedy_placement(net, sset, weights, backend="highs")
    if not state.nodes:
        pytest.skip("greedy pruned to empty set on this seed")
    ev, metrics = evaluate_fixed_placement(net, sset, state.nodes, weights, backend="highs")
    assert metrics["perf"] == state.rounds[-1].perf  # same code path, bit-identical
    assert np.array_equal(ev.s_bar_max, state.rounds[-1].s_bar_max)


def test_fixed_placement_requires_nodes():
    with pytest.raises(ValidationError):
        evaluate_fixed_placement(chain_network(), chain_scenarios(), frozenset(), PerfWeights())


def test_fixed_placement_infeasible_is_reported_cleanly():
    # the export line out of the wind bus clips its peaks, so the surplus
    # must be absorbed on the spot; storage behind the bottleneck cannot help
    net = Network(
        buses=[Bus(0, "wind"), Bus(1, "city"), Bus(2, "plant", is_slack=True)],
        lines=[Line(0, 1, 0.1, 2.5), Line(1, 2, 0.1, None)],
        generators=[Generator(bus=2, cost=5.0, p_max=25.0, ramp_limit=0.5)],
        renewables=[RenewableSite(bus=0, p_max=4.0)],
    )
    sset = chain_scenarios(seed=13)
    with pytest.raises(AllScenariosInfeasible):
        evaluate_fixed_placement(net, sset, frozenset({2}), PerfWeights(), backend="highs")
    # with storage allowed at the wind bus the same system is fine
    ev, _ = evaluate_fixed_placement(net, sset, frozenset({0}), PerfWeights(), backend="highs")
    assert ev.s_bar_max[0] > 0


def test_sizing_dominance_resolves_feasibly_with_fixed_caps():
    # the elementwise max of the per-scenario capacities serves every scenario:
    # pin the capacity columns of each sized LP there and re-solve
    net = chain_network()
    sset = chain_scenarios(seed=21)
    state = greedy_placement(net, sset, PerfWeights(site_cost=0.05), backend="highs")
    if not state.nodes:
        pytest.skip("greedy pruned to empty set on this seed")
    cfg = DispatchConfig(storage_nodes=frozenset(state.nodes))
    pad = 1e-6  # float headroom on top of the elementwise max
    for scen in sset.scenarios[:10]:
        prog, idx = build_dispatch_lp(net, scen, cfg)
        for col, cap in ((idx.s_bar, state.rounds[-1].s_bar_max), (idx.ps_bar, state.rounds[-1].ps_bar_max)):
            prog.var_lower[col] = prog.var_upper[col] = cap + pad
        sol = decode_solution(idx, cfg, lpmod.solve_with_backend(prog, "highs"))
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.s_bar, state.rounds[-1].s_bar_max + pad)


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("backend", ["simplex", "highs", "highs-ipm"])
def test_parallel_sweep_matches_serial(backend, jobs):
    net = chain_network()
    sset = chain_scenarios(n=6, seed=31)
    weights = PerfWeights(site_cost=0.05)
    serial = greedy_placement(net, sset, weights, backend=backend, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
    try:
        parallel = greedy_placement(net, sset, weights, backend=backend, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert serial.nodes == parallel.nodes
    assert serial.rounds[-1].perf == parallel.rounds[-1].perf  # bitwise, not approx
    assert np.array_equal(serial.rounds[-1].s_bar_max, parallel.rounds[-1].s_bar_max)
    assert np.array_equal(serial.rounds[-1].ps_bar_max, parallel.rounds[-1].ps_bar_max)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("curtail", [False, True])
def test_sweep_assembles_once_and_matches_lookahead(monkeypatch, curtail, jobs):
    net = chain_network()
    sset = chain_scenarios(n=5, seed=31)
    cfg = DispatchConfig(storage_nodes=frozenset({0, 1, 2}), allow_curtailment=curtail)
    assembled = []
    build = dispatchmod.build_dispatch_lp

    def counting_build(*args):
        assembled.append(args[1].label)
        return build(*args)

    monkeypatch.setattr(dispatchmod, "build_dispatch_lp", counting_build)
    solutions, dropped = solve_all_scenarios(net, sset, cfg, backend="highs", jobs=jobs)
    assert assembled == [sset.scenarios[0].label]  # once per sweep, not once per thread
    assert dropped == [] and len(solutions) == len(sset)
    for scen, got in zip(sset, solutions):
        want = lookahead_dispatch(net, scen, cfg, backend="highs")
        for name in ("s_bar", "ps_bar", "soc"):
            assert np.array_equal(getattr(got, name), getattr(want, name))  # bitwise
        assert got.objective == want.objective


def read_only_build(network, scenario, config):
    """``build_dispatch_lp`` with every array of the program made read-only."""
    prog, idx = build_dispatch_lp(network, scenario, config)
    for array in (
        prog.A.indptr,
        prog.A.indices,
        prog.A.data,
        prog.cost,
        prog.row_lower,
        prog.row_upper,
        prog.var_lower,
        prog.var_upper,
    ):
        array.flags.writeable = False
    return prog, idx


@pytest.mark.parametrize("backend", ["simplex", "highs", "highs-ipm"])
@pytest.mark.parametrize("curtail", [False, True])
def test_shared_sweep_lp_is_never_written(monkeypatch, tmp_path, backend, curtail):
    run_cfg, net, sset = quickstart_case(tmp_path, 7)
    cfg = replace(run_cfg.dispatch, storage_nodes=frozenset({0, 1, 2}), allow_curtailment=curtail)
    want, want_dropped = solve_all_scenarios(net, sset, cfg, backend=backend, jobs=1)
    monkeypatch.setattr(dispatchmod, "build_dispatch_lp", read_only_build)
    got, dropped = solve_all_scenarios(net, sset, cfg, backend=backend, jobs=2)
    assert dropped == want_dropped and len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("pg", "ps", "soc", "s_bar", "ps_bar"):
            assert np.array_equal(getattr(a, field), getattr(b, field))  # bitwise
        assert a.objective == b.objective


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_scenario_set_dispatches_nothing(jobs):
    net, empty = chain_network(), ScenarioSet([])
    cfg = DispatchConfig(storage_nodes=frozenset({0, 1}))
    assert solve_all_scenarios(net, empty, cfg, jobs=jobs) == ([], [])
    weights = PerfWeights(site_cost=0.05)
    ev, metrics = evaluate_fixed_placement(net, empty, {0, 1}, weights, jobs=jobs)
    assert ev.nodes == (0, 1) and ev.s_bar_max.size == 0
    assert ev.ps_bar_max.size == 0 and ev.per_scenario_ps_bar.shape == (0, 0)
    assert metrics == {"energy_metric": 0.0, "power_metric": 0.0, "perf": 0.1, "dropped": 0}


def quickstart_config(tmp_path, seed):
    return load_run_config(
        Path(__file__).resolve().parent.parent / "cases" / "quickstart_place.json",
        {"seed": seed, "jobs": 1, "out_dir": str(tmp_path)},
    )


def quickstart_case(tmp_path, seed):
    cfg = quickstart_config(tmp_path, seed)
    network, base_load = runners.load_network_document(cfg.network_path)
    return cfg, network, runners.build_scenarios(cfg, network, base_load)


def orders_to_try(network, sset, nodes):
    """Index, reversed and binding-first order for a sweep over ``nodes``."""
    n = len(sset)
    parent = evaluate_subset(
        network, sset, range(network.n_buses), PerfWeights(), DispatchConfig()
    )
    binding = placement._binding_first_order(parent, frozenset(nodes), set(), n)
    return {"index": None, "reversed": list(range(n))[::-1], "binding": binding}


def assert_sweep_ignores_order(network, sset, nodes):
    cfg = DispatchConfig(storage_nodes=frozenset(nodes))
    want, want_dropped = solve_all_scenarios(network, sset, cfg, backend="highs")
    for jobs in (1, 2):
        for name, order in orders_to_try(network, sset, nodes).items():
            got, dropped = solve_all_scenarios(
                network, sset, cfg, backend="highs", jobs=jobs, order=order
            )
            assert dropped == want_dropped, (jobs, name)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                for field in ("pg", "ps", "soc", "s_bar", "ps_bar"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (jobs, name)
                assert a.objective == b.objective
    return want_dropped


@pytest.mark.parametrize("seed", [3, 8])
def test_sweep_ignores_dispatch_order_random(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_buses=5, flow_limits=bool(seed % 2))
    sset = ScenarioSet(
        [random_scenario(rng, net, fluctuation=3.0, label=f"r{k}") for k in range(6)]
    )
    assert assert_sweep_ignores_order(net, sset, {0, 2, 4}) == []


@pytest.mark.parametrize("seed, nodes, dropped", [(7, {0}, []), (15, {1}, [2])])
def test_sweep_ignores_dispatch_order_quickstart(tmp_path, seed, nodes, dropped):
    # each draw's final set; draw 15's drops scenario s00002
    _, net, sset = quickstart_case(tmp_path, seed)
    assert assert_sweep_ignores_order(net, sset, nodes) == dropped


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluation_records_its_sweep(tmp_path, jobs):
    # draw 15 drops scenario s00002 at {1}; the record keeps the other rows
    cfg, net, sset = quickstart_case(tmp_path, 15)
    config = replace(cfg.dispatch, storage_nodes=frozenset({1}))
    solutions, dropped = solve_all_scenarios(net, sset, config, cfg.solver, jobs)
    ev = evaluate_subset(net, sset, {1}, cfg.weights, cfg.dispatch, cfg.solver, jobs)
    assert sset.scenarios[2].label == "s00002"
    assert dropped == [2] and ev.dropped_indices == (2,) and ev.nodes == (1,)
    rows = np.vstack([sol.ps_bar for sol in solutions])
    assert np.array_equal(ev.per_scenario_ps_bar, rows)  # bitwise, kept scenarios in index order
    assert np.array_equal(ev.ps_bar_max, rows.max(axis=0))
    assert np.array_equal(ev.s_bar_max, np.vstack([sol.s_bar for sol in solutions]).max(axis=0))


@pytest.mark.parametrize("jobs", [1, 2])
def test_aborted_sweep_verdict_ignores_order(tmp_path, jobs):
    _, net, sset = quickstart_case(tmp_path, 13)  # {1} fails on 3 or more of 30
    cfg = DispatchConfig(storage_nodes=frozenset({1}))
    messages = set()
    for order in orders_to_try(net, sset, {1}).values():
        with pytest.raises(AllScenariosInfeasible) as err:
            solve_all_scenarios(net, sset, cfg, backend="highs", jobs=jobs, order=order)
        assert dispatch_threads() == []  # the dropped solves were stopped and joined
        assert len(err.value.infeasible) == 3
        messages.add(str(err.value))
    assert messages == {"3 of 30 scenarios infeasible for storage set [1] (stopped early)"}


def test_sweep_rejects_an_order_that_is_not_a_permutation():
    cfg = DispatchConfig(storage_nodes=frozenset({0}))
    with pytest.raises(ValidationError):
        solve_all_scenarios(chain_network(), chain_scenarios(n=3), cfg, order=[0, 0, 1])


def test_binding_first_order_ranks_by_dropped_ps_bar():
    # scenarios 0, 1, 3 were kept by the parent round; 2 was dropped there
    ps_bar = np.array([[1.0, 0.5, 9.0], [1.0, 2.0, 0.0], [1.0, 0.0, 0.5]])
    parent = SubsetEvaluation((0, 4, 7), ps_bar[0], ps_bar[0], ps_bar, 1, 1, 1, (2,))
    # dropping nodes 4 and 7 leaves loads 9.5, 2.0, 0 and 0.5 on scenarios 0, 1, 2, 3
    assert placement._binding_first_order(parent, frozenset({0}), set(), 4) == [0, 1, 3, 2]
    assert placement._binding_first_order(parent, frozenset({0}), {2, 3}, 4) == [3, 2, 0, 1]


def test_greedy_stops_infeasible_candidate_at_its_threshold(monkeypatch, tmp_path):
    # {1} is infeasible for several of the 30 scenarios and is tried after
    # the storage-everywhere round; ranked first, three of them end its sweep
    cfg, net, sset = quickstart_case(tmp_path, 13)
    solved = []
    solve = Dispatcher.__call__

    def counting_solve(self, scenario):
        solved.append(self.config.storage_nodes)
        return solve(self, scenario)

    monkeypatch.setattr(Dispatcher, "__call__", counting_solve)
    state = greedy_placement(
        net, sset, cfg.weights, epsilon_prime=cfg.epsilon_prime, dispatch=cfg.dispatch
    )
    assert isinstance(state.verdicts[frozenset({1})], AllScenariosInfeasible)
    assert solved.count(frozenset({1})) == 3  # ceil(10% of 30)
    assert solved.count(frozenset({0, 1, 2})) == 30


def test_worker_failure_ends_the_sweep_at_once(monkeypatch):
    # the first LP any thread solves fails; every other one waits until its sweep stops it
    net = chain_network()
    sset = chain_scenarios(n=6, seed=31)
    lock, calls = threading.Lock(), []
    solve = lpmod.solve_with_backend

    def failing_once(prog, backend, stop=None):
        with lock:
            calls.append(prog)
            mine = len(calls) == 1
        if mine:
            return LpSolution(Status.ITERATION_LIMIT)
        stop.wait(60)
        return solve(prog, backend, stop=stop)

    monkeypatch.setattr(lpmod, "solve_with_backend", failing_once)
    cfg = DispatchConfig(storage_nodes=frozenset({0, 1, 2}))
    start = time.monotonic()
    with pytest.raises(SolverFailure, match=r"^scenario s\d+ \(highs\): .* iteration_limit$"):
        solve_all_scenarios(net, sset, cfg, backend="highs", jobs=2)
    assert time.monotonic() - start < 10
    assert dispatch_threads() == []
    assert len(calls) == 2  # the failed LP and the one left running: none started after the failure
    assert multiprocessing.active_children() == []


def test_aborting_pool_sweeps_do_not_hang():
    # the export line out of the wind bus clips its peaks; storage behind it cannot help
    net = Network(
        buses=[Bus(0, "wind"), Bus(1, "city"), Bus(2, "plant", is_slack=True)],
        lines=[Line(0, 1, 0.1, 2.5), Line(1, 2, 0.1, None)],
        generators=[Generator(bus=2, cost=5.0, p_max=25.0, ramp_limit=0.5)],
        renewables=[RenewableSite(bus=0, p_max=4.0)],
    )
    sset = chain_scenarios(seed=13)
    cfg = DispatchConfig(storage_nodes=frozenset({2}))

    def hung(signum, frame):
        raise TimeoutError("aborting sweeps hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        for _ in range(30):
            with pytest.raises(AllScenariosInfeasible):
                solve_all_scenarios(net, sset, cfg, backend="highs", jobs=2)
            assert multiprocessing.active_children() == []
            assert dispatch_threads() == []  # no join: the sweep joined its threads
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def count_evaluations(monkeypatch) -> list[frozenset]:
    """Record the node set of every evaluate_subset call from here on."""
    calls = []
    evaluate = placement.evaluate_subset

    def counting_evaluate(network, scenario_set, nodes, *args, **kwargs):
        calls.append(frozenset(nodes))
        return evaluate(network, scenario_set, nodes, *args, **kwargs)

    monkeypatch.setattr(placement, "evaluate_subset", counting_evaluate)
    return calls


def test_place_baseline_reuses_greedy_evaluation(monkeypatch, tmp_path):
    cfg = quickstart_config(tmp_path, seed=7)  # its baseline {0} is the greedy final set
    calls = count_evaluations(monkeypatch)
    report = runners.run_place(cfg)
    network, base_load = runners.load_network_document(cfg.network_path)
    sset = runners.build_scenarios(cfg, network, base_load)
    nodes = placement.baseline_nodes(network, sset)
    assert nodes in calls and len(calls) == len(set(calls))

    ev, metrics = evaluate_fixed_placement(
        network, sset, nodes, cfg.weights, cfg.dispatch, cfg.solver, cfg.jobs
    )
    assert report.baseline["nodes"] == sorted(nodes)
    for key in ("energy_metric", "power_metric", "perf"):
        assert report.baseline[key] == metrics[key]
    caps = report.baseline["capacities"]
    assert [row["s_bar_mwh"] for row in caps] == ev.s_bar_max.tolist()
    assert [row["ps_bar_mw"] for row in caps] == ev.ps_bar_max.tolist()


def test_place_dispatches_an_untried_baseline_once_after_greedy(monkeypatch, tmp_path):
    cfg = quickstart_config(tmp_path, seed=15)  # greedy never tries the baseline {0}
    calls = count_evaluations(monkeypatch)
    states = []

    def keep_state(*args, **kwargs):
        states.append(greedy_placement(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(runners, "greedy_placement", keep_state)
    report = runners.run_place(cfg)
    nodes = frozenset(report.baseline["nodes"])
    assert calls[-1] == nodes and calls.count(nodes) == 1
    assert len(calls) == len(set(calls))
    assert list(states[0].verdicts) == calls  # the baseline's verdict joins greedy's

    network, base_load = runners.load_network_document(cfg.network_path)
    sset = runners.build_scenarios(cfg, network, base_load)
    assert nodes == placement.baseline_nodes(network, sset)
    _, metrics = evaluate_fixed_placement(
        network, sset, nodes, cfg.weights, cfg.dispatch, cfg.solver
    )
    for key in ("energy_metric", "power_metric", "perf"):
        assert report.baseline[key] == metrics[key]


def test_place_passes_every_placement_setting_to_greedy(monkeypatch, tmp_path):
    # every placement field at a non-default value; baseline is run_place's own, not greedy's
    case = Path(__file__).resolve().parent.parent / "cases"
    doc = json.loads((case / "quickstart_place.json").read_text())
    doc["network"] = str(case / doc["network"])
    doc["placement"] = {
        "energy_weight": 2.0,
        "site_cost": 0.5,
        "epsilon": 0.03,
        "epsilon_rel": 0.5,
        "epsilon_prime": 0.2,
        "baseline": False,
    }
    (tmp_path / "run.json").write_text(json.dumps(doc))
    cfg = load_run_config(tmp_path / "run.json", {"out_dir": str(tmp_path)})
    seen = {}

    class Captured(Exception):
        pass

    def capture(*args, **kwargs):
        seen.update(inspect.signature(greedy_placement).bind(*args, **kwargs).arguments)
        raise Captured

    monkeypatch.setattr(runners, "greedy_placement", capture)
    with pytest.raises(Captured):
        runners.run_place(cfg)
    assert seen["weights"] == PerfWeights(energy_weight=2.0, site_cost=0.5)
    assert (seen["epsilon"], seen["epsilon_rel"], seen["epsilon_prime"]) == (0.03, 0.5, 0.2)


def test_place_baseline_reuses_greedy_infeasibility(monkeypatch, tmp_path):
    # greedy finds {0} infeasible on the way to {0, 1}; the baseline {0}
    # then reports the same error record a fresh dispatch would have raised
    calls = []

    def stub(network, scenario_set, nodes, weights, dispatch, backend, jobs, order=None):
        nodes = frozenset(nodes)
        calls.append(nodes)
        if nodes == frozenset({0}):
            raise AllScenariosInfeasible("3 of 30 scenarios infeasible for storage set [0]")
        caps = {3: [4.0, 3.0, 2.0], 2: [4.0, 3.0]}[len(nodes)]
        p = 1.0 if len(nodes) == 3 else 0.5
        return ev_from_caps(caps, sorted(nodes), p)

    monkeypatch.setattr(placement, "evaluate_subset", stub)
    report = runners.run_place(quickstart_config(tmp_path, seed=7))
    assert calls == [frozenset({0, 1, 2}), frozenset({0}), frozenset({0, 1})]
    assert report.baseline == {
        "error": "AllScenariosInfeasible: 3 of 30 scenarios infeasible for storage set [0]"
    }


def test_baseline_nodes_renewables_and_interties():
    net = chain_network()
    inter = np.zeros((2, 3))
    inter[:, 1] = [1.0, -1.0]
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 1)), load=np.ones((2, 3)), interchange=inter)
    sset = ScenarioSet(scenarios=[scen])
    assert baseline_nodes(net, sset) == frozenset({0, 1})

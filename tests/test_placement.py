import gc
import inspect
import itertools
import json
import logging
import multiprocessing
import signal
import sys
import threading
import time
import types
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
    Scenario,
    StorageUse,
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


NO_LP = {"objective": 0.0, "iterations": 0, "max_violation": 0.0}  # a record's LP fields


def assert_uses_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)  # the same scenarios dropped
        if a is None:
            continue
        assert np.array_equal(a.s_bar, b.s_bar) and np.array_equal(a.ps_bar, b.ps_bar)  # bitwise
        assert (a.energy, a.power, a.objective) == (b.energy, b.power, b.objective)
        assert (a.iterations, a.max_violation) == (b.iterations, b.max_violation)


# -- metric formulas -----------------------------------------------------------


def test_power_metric_direct_formula():
    # |ps| peaks at 1 MW; the site swings between 1 and 3 MW
    scen = Scenario(dt_hours=1.0, renewable=[[3.0], [1.0]], load=np.zeros((2, 1)))
    use = StorageUse(np.ones(1), np.ones(1), energy=1.0, power=1.0, **NO_LP)
    assert normalized_power_capacity([use], [scen]) == pytest.approx(0.5)


def test_power_metric_zero_when_unused():
    scen = Scenario(dt_hours=1.0, renewable=[[3.0], [1.0]], load=np.zeros((2, 1)))
    use = StorageUse(np.zeros(1), np.zeros(1), energy=0.0, power=0.0, **NO_LP)
    assert normalized_power_capacity([use], [scen]) == 0.0


def test_energy_metric_direct_formula():
    # soc swing 1 MWh against a 2 MWh fluctuation-energy swing
    scen = Scenario(dt_hours=2.0, renewable=[[2.0], [0.0]], load=np.zeros((2, 1)))
    # s^r = [0, 2, 0] -> swing 2 MWh
    use = StorageUse(np.ones(1), np.full(1, 0.5), energy=1.0, power=0.5, **NO_LP)
    assert normalized_energy_capacity([use], [scen]) == pytest.approx(0.5)


def test_metrics_raise_on_flat_renewables():
    scen = Scenario(dt_hours=1.0, renewable=np.full((3, 1), 2.0), load=np.zeros((3, 1)))
    use = StorageUse(np.zeros(1), np.zeros(1), energy=0.0, power=0.0, **NO_LP)
    with pytest.raises(ZeroFluctuationDenominator):
        normalized_power_capacity([use], [scen])
    with pytest.raises(ZeroFluctuationDenominator):
        normalized_energy_capacity([use], [scen])


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
    cfg = DispatchConfig(storage_energy_cost=100.0, storage_power_cost=10.0)
    sol = lookahead_dispatch(net, scen, {0}, cfg, backend="simplex")
    assert sol.ps.ravel() == pytest.approx([-1.0, 1.0], abs=1e-7)
    uses = solve_all_scenarios(net, ScenarioSet([scen]), {0}, cfg, backend="simplex")
    assert normalized_energy_capacity(uses, [scen]) == pytest.approx(1.0, abs=1e-6)
    assert normalized_power_capacity(uses, [scen]) == pytest.approx(0.5, abs=1e-6)


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
    use = StorageUse(caps, caps.copy(), energy=0.0, power=0.0, **NO_LP)
    return SubsetEvaluation(nodes, caps, caps.copy(), (use,), perf, perf, perf)


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


@pytest.mark.parametrize(
    "name, bad",
    [
        ("epsilon_rel", 0.0),
        ("epsilon_rel", -1.0),
        ("epsilon_rel", 1.5),
        ("epsilon_rel", float("nan")),
        ("epsilon", float("nan")),
        ("epsilon_prime", float("nan")),
    ],
)
def test_greedy_rejects_a_tolerance_out_of_range(name, bad):
    # the config loader's ranges; a zero or negative epsilon_rel used to become
    # an epsilon of 1e-12, and a NaN turned pruning off
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        greedy_placement(chain_network(), chain_scenarios(n=1), **{name: bad})


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
    cfg = DispatchConfig()
    pad = 1e-6  # float headroom on top of the elementwise max
    for scen in sset.scenarios[:10]:
        prog, idx = build_dispatch_lp(net, scen, state.nodes, cfg)
        for col, cap in ((idx.s_bar, state.rounds[-1].s_bar_max), (idx.ps_bar, state.rounds[-1].ps_bar_max)):
            prog.var_lower[col] = prog.var_upper[col] = cap + pad
        solved = lpmod.solve_with_backend(prog, "highs")
        assert solved.status is Status.OPTIMAL
        sol = decode_solution(net, idx, cfg, solved)
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


@pytest.mark.parametrize("jobs, n", [(1, 5), (2, 1)])
def test_serial_sweep_solves_on_the_calling_thread_without_stop(monkeypatch, jobs, n):
    # jobs=1, or a single scenario, takes no pool: no thread and no interrupt callback
    net = chain_network()
    sset = chain_scenarios(n=n, seed=31)
    cfg = DispatchConfig()
    calls = []
    solve = lpmod.solve_with_backend

    def recording(prog, backend, stop=None):
        calls.append((threading.current_thread(), stop))
        return solve(prog, backend, stop=stop)

    monkeypatch.setattr(lpmod, "solve_with_backend", recording)
    for order in (None, list(range(n))[::-1]):
        calls.clear()
        slots = solve_all_scenarios(net, sset, {0, 1, 2}, cfg, "highs", jobs, order=order)
        assert len(slots) == n and None not in slots
        assert calls == [(threading.current_thread(), None)] * n


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("curtail", [False, True])
def test_sweep_assembles_once_and_matches_lookahead(monkeypatch, curtail, jobs):
    net = chain_network()
    sset = chain_scenarios(n=5, seed=31)
    nodes, cfg = {0, 1, 2}, DispatchConfig(allow_curtailment=curtail)
    assembled = []
    build = dispatchmod.build_dispatch_lp

    def counting_build(*args):
        assembled.append(args[1].label)
        return build(*args)

    monkeypatch.setattr(dispatchmod, "build_dispatch_lp", counting_build)

    def no_full_decode(*args, **kwargs):
        raise AssertionError("the placement path decoded a full dispatch")

    monkeypatch.setattr(dispatchmod, "decode_solution", no_full_decode)
    monkeypatch.setattr(dispatchmod.DispatchSolution, "__init__", no_full_decode)
    uses = solve_all_scenarios(net, sset, nodes, cfg, backend="highs", jobs=jobs)
    assert assembled == [sset.scenarios[0].label]  # once per sweep, not once per thread
    greedy_placement(net, sset, PerfWeights(site_cost=0.05), dispatch=cfg, jobs=jobs)
    monkeypatch.undo()
    assert len(uses) == len(sset) and None not in uses
    for scen, got in zip(sset, uses):
        want = lookahead_dispatch(net, scen, nodes, cfg, backend="highs")
        assert np.array_equal(got.s_bar, want.s_bar)  # bitwise
        assert np.array_equal(got.ps_bar, want.ps_bar)
        assert got.objective == want.objective
        # the formulas the capacity metrics applied to the full decode
        assert got.energy == float((want.soc.max(axis=0) - want.soc.min(axis=0)).sum())
        assert got.power == float(np.abs(want.ps).max(axis=0).sum())


def read_only_build(network, scenario, nodes, config):
    """``build_dispatch_lp`` with every array of the program made read-only."""
    prog, idx = build_dispatch_lp(network, scenario, nodes, config)
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
    cfg = replace(run_cfg.dispatch, allow_curtailment=curtail)
    want = solve_all_scenarios(net, sset, {0, 1, 2}, cfg, backend=backend, jobs=1)
    monkeypatch.setattr(dispatchmod, "build_dispatch_lp", read_only_build)
    got = solve_all_scenarios(net, sset, {0, 1, 2}, cfg, backend=backend, jobs=2)
    assert_uses_equal(got, want)


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_scenario_set_dispatches_nothing(jobs):
    net, empty = chain_network(), ScenarioSet([])
    assert solve_all_scenarios(net, empty, {0, 1}, DispatchConfig(), jobs=jobs) == ()
    weights = PerfWeights(site_cost=0.05)
    ev, metrics = evaluate_fixed_placement(net, empty, {0, 1}, weights, jobs=jobs)
    assert ev.nodes == (0, 1) and ev.s_bar_max.size == 0
    assert ev.ps_bar_max.size == 0 and ev.per_scenario == ()
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


def orders_to_try(network, sset, nodes, parent_nodes=None):
    """Index, reversed and binding-first order for a sweep over ``nodes``,
    ranked from the sweep over ``parent_nodes`` (every bus by default)."""
    n = len(sset)
    if parent_nodes is None:
        parent_nodes = range(network.n_buses)
    parent = evaluate_subset(network, sset, parent_nodes, PerfWeights(), DispatchConfig())
    binding = placement._binding_first_order(parent, frozenset(nodes), set())
    return {"index": None, "reversed": list(range(n))[::-1], "binding": binding}


def assert_evaluations_equal(a, b):
    assert a.nodes == b.nodes and a.dropped_indices == b.dropped_indices
    for field in ("s_bar_max", "ps_bar_max"):
        assert np.array_equal(getattr(a, field), getattr(b, field))  # bitwise
    assert_uses_equal(a.per_scenario, b.per_scenario)
    assert (a.energy_metric, a.power_metric, a.perf) == (b.energy_metric, b.power_metric, b.perf)


def assert_sweep_ignores_order(network, sset, nodes, parent_nodes=None):
    cfg = DispatchConfig()
    want = solve_all_scenarios(network, sset, nodes, cfg, backend="highs")
    want_ev = evaluate_subset(network, sset, nodes, PerfWeights(), DispatchConfig())
    for jobs in (1, 2):
        for name, order in orders_to_try(network, sset, nodes, parent_nodes).items():
            got = solve_all_scenarios(network, sset, nodes, cfg, "highs", jobs, order=order)
            assert_uses_equal(got, want)
            ev = evaluate_subset(
                network, sset, nodes, PerfWeights(), DispatchConfig(), jobs=jobs, order=order
            )
            assert_evaluations_equal(ev, want_ev)
    return [i for i, use in enumerate(want) if use is None]


@pytest.mark.parametrize("seed", [3, 8])
def test_sweep_ignores_dispatch_order_random(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_buses=5, flow_limits=bool(seed % 2))
    sset = ScenarioSet(
        [random_scenario(rng, net, fluctuation=3.0, label=f"r{k}") for k in range(6)]
    )
    assert assert_sweep_ignores_order(net, sset, {0, 2, 4}) == []


@pytest.mark.parametrize(
    "seed, nodes, dropped, parent",
    [(7, {0}, [], None), (15, {1}, [2], None), (15, {0}, [], {1})],
    ids=["7-nodes0-dropped0", "15-nodes1-dropped1", "15-baseline-ranked-from-1"],
)
def test_sweep_ignores_dispatch_order_quickstart(tmp_path, seed, nodes, dropped, parent):
    # each draw's final set, ranked from storage everywhere; draw 15's drops
    # scenario s00002.  Draw 15's baseline {0} is ranked from greedy's last
    # round {1}, as run_place's memoized evaluation does: no subset of it.
    _, net, sset = quickstart_case(tmp_path, seed)
    assert assert_sweep_ignores_order(net, sset, nodes, parent) == dropped


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluation_records_its_sweep(tmp_path, jobs):
    # draw 15 drops scenario s00002 at {1}; the record keeps the other rows
    cfg, net, sset = quickstart_case(tmp_path, 15)
    slots = solve_all_scenarios(net, sset, {1}, cfg.dispatch, cfg.solver, jobs)
    ev = evaluate_subset(net, sset, {1}, cfg.weights, cfg.dispatch, cfg.solver, jobs)
    assert sset.scenarios[2].label == "s00002"
    assert len(slots) == 30 and slots[2] is None
    assert ev.dropped_indices == (2,) and ev.dropped == 1 and ev.nodes == (1,)
    assert_uses_equal(ev.per_scenario, slots)  # bitwise, one slot per scenario in index order
    uses = [use for use in slots if use is not None]
    assert len(uses) == 29
    assert np.array_equal(ev.ps_bar_max, np.vstack([use.ps_bar for use in uses]).max(axis=0))
    assert np.array_equal(ev.s_bar_max, np.vstack([use.s_bar for use in uses]).max(axis=0))


@pytest.mark.parametrize("jobs", [1, 2])
def test_aborted_sweep_verdict_ignores_order(tmp_path, jobs):
    _, net, sset = quickstart_case(tmp_path, 13)  # {1} fails on 3 or more of 30
    messages = set()
    for order in orders_to_try(net, sset, {1}).values():
        with pytest.raises(AllScenariosInfeasible) as err:
            solve_all_scenarios(net, sset, {1}, DispatchConfig(), "highs", jobs, order=order)
        assert dispatch_threads() == []  # the dropped solves were stopped and joined
        assert len(err.value.infeasible) == 3
        messages.add(str(err.value))
    assert messages == {"3 of 30 scenarios infeasible for storage set [1] (stopped early)"}


def test_sweep_rejects_an_order_that_is_not_a_permutation():
    with pytest.raises(ValidationError):
        solve_all_scenarios(
            chain_network(), chain_scenarios(n=3), {0}, DispatchConfig(), order=[0, 0, 1]
        )


def test_binding_first_order_ranks_by_dropped_ps_bar():
    # scenarios 0, 1, 3 were kept by the parent round; 2 was dropped there
    ps_bar = np.array([[1.0, 0.5, 9.0], [1.0, 2.0, 0.0], [1.0, 0.0, 0.5]])
    uses = [StorageUse(row, row, energy=0.0, power=0.0, **NO_LP) for row in ps_bar]
    slots = (uses[0], uses[1], None, uses[2])
    parent = SubsetEvaluation((0, 4, 7), ps_bar[0], ps_bar[0], slots, 1, 1, 1)
    assert parent.dropped_indices == (2,) and parent.dropped == 1
    # dropping nodes 4 and 7 leaves loads 9.5, 2.0, 0 and 0.5 on scenarios 0, 1, 2, 3
    assert placement._binding_first_order(parent, frozenset({0}), set()) == [0, 1, 3, 2]
    # a set with nodes the parent lacks: only the parent's nodes outside it count
    assert placement._binding_first_order(parent, frozenset({0, 5}), set()) == [0, 1, 3, 2]
    assert placement._binding_first_order(parent, frozenset({0}), {2, 3}) == [3, 2, 0, 1]


def test_greedy_stops_infeasible_candidate_at_its_threshold(monkeypatch, tmp_path):
    # {1} is infeasible for several of the 30 scenarios and is tried after
    # the storage-everywhere round; ranked first, three of them end its sweep
    cfg, net, sset = quickstart_case(tmp_path, 13)
    solved = []
    solve = Dispatcher.__call__

    def counting_solve(self, scenario, stop=None):
        solved.append(frozenset(self.idx.storage))
        return solve(self, scenario, stop)

    monkeypatch.setattr(Dispatcher, "__call__", counting_solve)
    state = greedy_placement(
        net, sset, cfg.weights, epsilon_prime=cfg.epsilon_prime, dispatch=cfg.dispatch
    )
    assert isinstance(state.verdicts[frozenset({1})], AllScenariosInfeasible)
    assert solved.count(frozenset({1})) == 3  # ceil(10% of 30)
    assert solved.count(frozenset({0, 1, 2})) == 30


def place_and_evaluate_baseline(cfg, net, sset, jobs):
    """Greedy plus its baseline, in a frame of its own: nothing of the run outlives it."""
    state = greedy_placement(
        net,
        sset,
        cfg.weights,
        epsilon_prime=cfg.epsilon_prime,
        dispatch=cfg.dispatch,
        backend=cfg.solver,
        jobs=jobs,
    )
    try:
        state.evaluate(baseline_nodes(net, sset))
    except AllScenariosInfeasible:
        pass


def gridstore_objects(objects) -> list:
    """The objects of a gridstore type, and the frames of gridstore code."""
    package = str(Path(placement.__file__).parent)
    return [
        obj
        for obj in objects
        if type(obj).__module__.startswith("gridstore.")
        or isinstance(obj, types.FrameType) and obj.f_code.co_filename.startswith(package)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_placement_leaves_no_reference_cycles(tmp_path, jobs):
    # draw 5 has infeasible candidates, so greedy's memo keeps verdicts as well as records
    cfg, net, sset = quickstart_case(tmp_path, 5)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # every object a collection frees lands in gc.garbage
    try:
        place_and_evaluate_baseline(cfg, net, sset, jobs)
        gc.collect()
        left = gridstore_objects(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    if jobs == 1:
        assert left == []
    else:
        # an interrupted solve's cycle depends on timing; it holds no placement value
        kept = (StorageUse, SubsetEvaluation, AllScenariosInfeasible)
        assert [obj for obj in left if isinstance(obj, kept)] == []


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
    start = time.monotonic()
    with pytest.raises(SolverFailure, match=r"^scenario s\d+ \(highs\): .* iteration_limit$"):
        solve_all_scenarios(net, sset, {0, 1, 2}, DispatchConfig(), backend="highs", jobs=2)
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

    def hung(signum, frame):
        raise TimeoutError("aborting sweeps hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        for _ in range(30):
            with pytest.raises(AllScenariosInfeasible):
                solve_all_scenarios(net, sset, {2}, DispatchConfig(), backend="highs", jobs=2)
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


def test_place_baseline_programming_error_fails_the_run(monkeypatch, tmp_path):
    # only a toolkit error becomes the baseline's error record; a bug propagates
    cfg = quickstart_config(tmp_path, seed=15)  # greedy never tries the baseline {0}
    evaluate = placement.evaluate_subset

    def broken_on_baseline(network, scenario_set, nodes, *args, **kwargs):
        if frozenset(nodes) == frozenset({0}):
            raise TypeError("bug in the baseline path")
        return evaluate(network, scenario_set, nodes, *args, **kwargs)

    monkeypatch.setattr(placement, "evaluate_subset", broken_on_baseline)
    with pytest.raises(TypeError, match="bug in the baseline path"):
        runners.run_place(cfg)


def test_baseline_nodes_renewables_and_interties():
    net = chain_network()
    inter = np.zeros((2, 3))
    inter[:, 1] = [1.0, -1.0]
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 1)), load=np.ones((2, 3)), interchange=inter)
    sset = ScenarioSet(scenarios=[scen])
    assert baseline_nodes(net, sset) == frozenset({0, 1})

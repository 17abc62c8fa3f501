import itertools

import numpy as np
import pytest

from gridstore import placement
from gridstore.dispatch import DispatchConfig, DispatchSolution, Scenario, lookahead_dispatch
from gridstore.errors import AllScenariosInfeasible, ValidationError, ZeroFluctuationDenominator
from gridstore.lp import Status
from gridstore.network import Bus, Generator, Line, Network, RenewableSite
from gridstore.placement import (
    CapacityStats,
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
    threshold_scan,
)
from gridstore.scenarios import ScenarioSet, SyntheticParams, generate_synthetic

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
        theta=np.zeros((T, 1)),
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


def stats_from_caps(caps, nodes=None):
    caps = np.asarray(caps, dtype=float)
    nodes = tuple(range(len(caps))) if nodes is None else tuple(nodes)
    return CapacityStats(nodes, caps, caps.copy(), caps[None, :], caps[None, :])


def test_candidates_from_distinct_ratios():
    cands = candidate_thresholds(stats_from_caps([10.0, 1.0, 0.0]))
    gammas = [g for g, _ in cands]
    subsets = [sorted(s) for _, s in cands]
    assert gammas == pytest.approx([1.0, 0.1, 0.0])
    assert subsets == [[0], [0, 1], [0, 1, 2]]


def test_equal_caps_yield_single_full_candidate():
    cands = candidate_thresholds(stats_from_caps([2.0, 2.0, 2.0]))
    assert len(cands) == 1
    gamma, keep = cands[0]
    assert gamma == 1.0 and keep == frozenset({0, 1, 2})


def test_scan_no_improvement_on_equal_caps():
    stats = stats_from_caps([2.0, 2.0])
    called = []

    def evaluate(nodes):
        called.append(nodes)
        raise AssertionError("must not re-dispatch the unchanged set")

    hit = threshold_scan(stats, frozenset({0, 1}), PerfWeights(), 0.01, 1.0, evaluate)
    assert hit is None and called == []


def test_scan_picks_largest_improving_gamma():
    stats = stats_from_caps([10.0, 1.0, 0.5])
    perfs = {
        frozenset({0}): 0.97,  # gamma=1.0 candidate: improves by only 0.03
        frozenset({0, 1}): 0.2,  # gamma=0.1: improves
        frozenset({0, 1, 2}): 0.1,  # gamma=0.05: improves more but smaller gamma
    }

    class Ev:
        def __init__(self, p, nodes):
            self.perf = p
            self.nodes = tuple(sorted(nodes))

    hit = threshold_scan(
        stats, frozenset({0, 1, 2, 9}), PerfWeights(), 0.05, 1.0, lambda s: Ev(perfs[s], s)
    )
    assert hit is not None
    gamma, ev = hit
    assert gamma == pytest.approx(0.1)
    assert set(ev.nodes) == {0, 1}


def test_greedy_dispatches_each_subset_once(monkeypatch):
    # {0} is infeasible and is the gamma = 1 candidate in both rounds; its
    # verdict is remembered, so the second round does not dispatch it again
    caps = {
        frozenset({0, 1, 2, 3}): ([4.0, 3.0, 2.0, 1.0], 1.0),
        frozenset({0, 1}): ([4.0, 3.0], 0.5),
    }
    calls = []

    def counting_stub(network, scenario_set, nodes, weights, dispatch, backend, jobs):
        nodes = frozenset(nodes)
        calls.append(nodes)
        if nodes not in caps:
            raise AllScenariosInfeasible(f"subset {sorted(nodes)}")
        s_bar, p = caps[nodes]
        return SubsetEvaluation(
            tuple(sorted(nodes)), stats_from_caps(s_bar, sorted(nodes)), p, p, p, 0
        )

    monkeypatch.setattr(placement, "evaluate_subset", counting_stub)
    net = Network(buses=[Bus(i, is_slack=(i == 0)) for i in range(4)], lines=[])
    scen = Scenario(dt_hours=DT, renewable=np.zeros((1, 0)), load=np.zeros((1, 4)))
    state = greedy_placement(net, ScenarioSet([scen]), epsilon=0.01)
    assert calls == [frozenset({0, 1, 2, 3}), frozenset({0}), frozenset({0, 1})]
    assert [r.nodes for r in state.rounds] == [(0, 1, 2, 3), (0, 1)]
    assert [r.gamma for r in state.rounds] == [None, 0.75]
    assert state.perf_value == 0.5


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
    assert state.perf_value <= 1.25 * best_perf + 1e-9
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
    assert state.perf_value == state.rounds[-1].perf


def test_pruned_nodes_were_below_threshold():
    net = chain_network()
    sset = chain_scenarios(seed=5)
    state = greedy_placement(net, sset, PerfWeights(site_cost=0.05), backend="highs")
    for prev, cur in zip(state.rounds, state.rounds[1:]):
        top = max(prev.stats.s_bar_max, default=0.0) if len(prev.stats.s_bar_max) else 0.0
        removed = set(prev.nodes) - set(cur.nodes)
        caps = dict(zip(prev.stats.nodes, prev.stats.s_bar_max))
        for node in removed:
            assert caps[node] < cur.gamma * top + 1e-9


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
    assert state.perf_value == pytest.approx(0.0, abs=1e-12)
    assert len(state.rounds) == 2  # initial full set, then the empty set
    assert np.all(state.rounds[0].stats.s_bar_max <= 1e-7)
    history = state.iteration_history
    assert [h[0] for h in history] == [3, 0]
    assert history[1][4] == 1.0  # the threshold that emptied the set


def test_fixed_placement_idempotent_with_greedy_output():
    net = chain_network()
    sset = chain_scenarios(seed=9)
    weights = PerfWeights(site_cost=0.05)
    state = greedy_placement(net, sset, weights, backend="highs")
    if not state.nodes:
        pytest.skip("greedy pruned to empty set on this seed")
    stats, metrics = evaluate_fixed_placement(net, sset, state.nodes, weights, backend="highs")
    assert metrics["perf"] == state.perf_value  # same code path, bit-identical
    assert np.array_equal(stats.s_bar_max, state.stats.s_bar_max)


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
    stats, _ = evaluate_fixed_placement(net, sset, frozenset({0}), PerfWeights(), backend="highs")
    assert stats.s_bar_max[0] > 0


def test_sizing_dominance_resolves_feasibly_with_fixed_caps():
    net = chain_network()
    sset = chain_scenarios(seed=21)
    state = greedy_placement(net, sset, PerfWeights(site_cost=0.05), backend="highs")
    if not state.nodes:
        pytest.skip("greedy pruned to empty set on this seed")
    nodes = tuple(sorted(state.nodes))
    pad = 1e-6  # float headroom on top of the elementwise max
    cfg = DispatchConfig(
        storage_nodes=frozenset(nodes),
        s_bar_fixed=tuple(float(v) + pad for v in state.stats.s_bar_max),
        ps_bar_fixed=tuple(float(v) + pad for v in state.stats.ps_bar_max),
    )
    for scen in sset.scenarios[:10]:
        sol = lookahead_dispatch(net, scen, cfg, backend="highs")
        assert sol.status is Status.OPTIMAL


def test_parallel_sweep_matches_serial():
    net = chain_network()
    sset = chain_scenarios(n=6, seed=31)
    weights = PerfWeights(site_cost=0.05)
    serial = greedy_placement(net, sset, weights, backend="highs", jobs=1)
    parallel = greedy_placement(net, sset, weights, backend="highs", jobs=2)
    assert serial.nodes == parallel.nodes
    assert serial.perf_value == parallel.perf_value  # bitwise, not approx
    assert np.array_equal(serial.stats.s_bar_max, parallel.stats.s_bar_max)
    assert np.array_equal(serial.stats.ps_bar_max, parallel.stats.ps_bar_max)


def test_baseline_nodes_renewables_and_interties():
    net = chain_network()
    inter = np.zeros((2, 3))
    inter[:, 1] = [1.0, -1.0]
    scen = Scenario(dt_hours=DT, renewable=np.zeros((2, 1)), load=np.ones((2, 3)), interchange=inter)
    sset = ScenarioSet(scenarios=[scen])
    assert baseline_nodes(net, sset) == frozenset({0, 1})

"""Storage placement: usage metrics, greedy pruning, and baselines.

The pruning loop starts with storage allowed everywhere, dispatches every
scenario, and keeps shrinking the storage node set to the nodes whose
worst-case energy capacity clears a threshold gamma * max(s_bar), taking
the largest gamma whose re-dispatched performance improves by more than
epsilon.  Re-dispatch per candidate matters: restricting storage changes
how the remaining nodes get used.

Performance is a cost (lower is better): the normalized energy capacity of
the placement plus a fixed charge per occupied site.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dispatch import (
    DispatchConfig,
    DispatchSolution,
    Scenario,
    lookahead_dispatch,
    renewable_fluctuation_energy,
)
from .errors import (
    AllScenariosInfeasible,
    InfeasibleScenario,
    ValidationError,
    ZeroFluctuationDenominator,
)
from .network import Network
from .scenarios import ScenarioSet

logger = logging.getLogger(__name__)

_ZERO_CAP_TOL = 1e-9
_MAX_INFEASIBLE_FRACTION = 0.10


@dataclass(frozen=True)
class PerfWeights:
    energy_weight: float = 1.0
    site_cost: float = 0.02  # in normalized-energy units per occupied node

    def __post_init__(self):
        if self.energy_weight < 0 or self.site_cost < 0:
            raise ValidationError("weights must be nonnegative")


@dataclass(eq=False)
class CapacityStats:
    """Worst-case storage usage per node across a scenario collection."""

    nodes: tuple[int, ...]
    s_bar_max: np.ndarray  # MWh per node, elementwise max over scenarios
    ps_bar_max: np.ndarray  # MW per node
    per_scenario_s_bar: np.ndarray  # (n_scenarios_ok, n_nodes)
    per_scenario_ps_bar: np.ndarray

    @classmethod
    def from_solutions(cls, nodes, solutions: list[DispatchSolution]) -> "CapacityStats":
        nodes = tuple(sorted(nodes))
        if not solutions or not nodes:
            empty = np.zeros((len(solutions), 0))
            return cls(nodes, np.zeros(0), np.zeros(0), empty, empty)
        per_s = np.vstack([sol.s_bar for sol in solutions])
        per_p = np.vstack([sol.ps_bar for sol in solutions])
        return cls(nodes, per_s.max(axis=0), per_p.max(axis=0), per_s, per_p)


def perf(nodes, energy_metric: float, weights: PerfWeights) -> float:
    """Placement cost: weighted normalized energy capacity plus site charges."""
    return weights.energy_weight * energy_metric + weights.site_cost * len(nodes)


def _power_denominator(scenarios: list[Scenario]) -> float:
    worst = 0.0
    for scen in scenarios:
        span = scen.renewable.max(axis=0) - scen.renewable.min(axis=0)
        worst = max(worst, float(span.sum()))
    return worst


def _energy_denominator(scenarios: list[Scenario]) -> float:
    worst = 0.0
    for scen in scenarios:
        s_r = renewable_fluctuation_energy(scen)
        span = s_r.max(axis=0) - s_r.min(axis=0)
        worst = max(worst, float(span.sum()))
    return worst


def normalized_power_capacity(
    solutions: list[DispatchSolution], scenarios: list[Scenario]
) -> float:
    """Worst-case total storage power use over the worst-case renewable swing.

    Numerator and denominator are each aggregated as the max over scenarios.
    """
    den = _power_denominator(scenarios)
    if den <= _ZERO_CAP_TOL:
        raise ZeroFluctuationDenominator("renewables never fluctuate in power")
    num = 0.0
    for sol in solutions:
        if sol.ps.size:
            num = max(num, float(np.abs(sol.ps).max(axis=0).sum()))
    return num / den


def normalized_energy_capacity(
    solutions: list[DispatchSolution], scenarios: list[Scenario]
) -> float:
    """Worst-case total state-of-charge swing over the worst-case fluctuation energy."""
    den = _energy_denominator(scenarios)
    if den <= _ZERO_CAP_TOL:
        raise ZeroFluctuationDenominator("renewables never fluctuate in energy")
    num = 0.0
    for sol in solutions:
        if sol.soc.size:
            num = max(num, float((sol.soc.max(axis=0) - sol.soc.min(axis=0)).sum()))
    return num / den


# ---------------------------------------------------------------------------
# Scenario sweeps
# ---------------------------------------------------------------------------


def _dispatch_task(args):
    network, scenario, config, backend = args
    try:
        return ("ok", lookahead_dispatch(network, scenario, config, backend))
    except InfeasibleScenario:
        return ("infeasible", scenario.label)


def solve_all_scenarios(
    network: Network,
    scenario_set: ScenarioSet,
    config: DispatchConfig,
    backend: str = "highs",
    jobs: int = 1,
) -> tuple[list[DispatchSolution], list[int]]:
    """Dispatch every scenario; returns (solutions, indices of infeasible ones).

    Infeasible scenarios are dropped with a warning as long as they stay
    under 10% of the set; beyond that the sweep aborts, since sizing from a
    heavily censored collection would be misleading.
    """
    tasks = [(network, scen, config, backend) for scen in scenario_set]
    n = len(tasks)
    abort_at = max(1, int(np.ceil(n * _MAX_INFEASIBLE_FRACTION)))

    progress_every = n // 4 if n >= 100 else 0

    def gather(results) -> tuple[list, list[int]]:
        solutions, dropped = [], []
        for i, (tag, payload) in enumerate(results):
            if tag == "ok":
                solutions.append(payload)
            else:
                dropped.append(i)
                if len(dropped) >= abort_at:
                    raise AllScenariosInfeasible(
                        f"{len(dropped)} of {n} scenarios infeasible for storage set "
                        f"{sorted(config.storage_nodes)} (stopped early)"
                    )
            if progress_every and (i + 1) % progress_every == 0 and i + 1 < n:
                logger.info(
                    "dispatched %d/%d scenarios (|S|=%d)", i + 1, n, len(config.storage_nodes)
                )
        return solutions, dropped

    if jobs > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            try:
                solutions, dropped = gather(pool.map(_dispatch_task, tasks, chunksize=2))
            except AllScenariosInfeasible:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    else:
        solutions, dropped = gather(_dispatch_task(t) for t in tasks)

    if dropped:
        labels = [scenario_set.scenarios[i].label for i in dropped]
        logger.warning(
            "dropping %d/%d infeasible scenarios: %s", len(dropped), n, ", ".join(labels)
        )
    return solutions, dropped


@dataclass(eq=False)
class SubsetEvaluation:
    nodes: tuple[int, ...]
    stats: CapacityStats
    energy_metric: float
    power_metric: float
    perf: float
    dropped: int


def _metric_or_zero(metric_fn, solutions, scenarios, stats) -> float:
    try:
        return metric_fn(solutions, scenarios)
    except ZeroFluctuationDenominator:
        # nothing fluctuates, so nothing gets stored; define the ratio as 0
        if stats.s_bar_max.sum() <= _ZERO_CAP_TOL:
            return 0.0
        raise


def evaluate_subset(
    network: Network,
    scenario_set: ScenarioSet,
    nodes,
    weights: PerfWeights,
    dispatch: DispatchConfig,
    backend: str = "highs",
    jobs: int = 1,
) -> SubsetEvaluation:
    """One full dispatch round with storage restricted to ``nodes``."""
    config = replace(dispatch, storage_nodes=frozenset(nodes))
    solutions, dropped = solve_all_scenarios(network, scenario_set, config, backend, jobs)
    dropped_set = set(dropped)
    kept = [s for i, s in enumerate(scenario_set.scenarios) if i not in dropped_set]
    stats = CapacityStats.from_solutions(nodes, solutions)
    energy = _metric_or_zero(normalized_energy_capacity, solutions, kept, stats)
    power = _metric_or_zero(normalized_power_capacity, solutions, kept, stats)
    return SubsetEvaluation(
        nodes=tuple(sorted(nodes)),
        stats=stats,
        energy_metric=energy,
        power_metric=power,
        perf=perf(nodes, energy, weights),
        dropped=len(dropped),
    )


def evaluate_fixed_placement(
    network: Network,
    scenario_set: ScenarioSet,
    nodes,
    weights: PerfWeights,
    dispatch: DispatchConfig = DispatchConfig(),
    backend: str = "highs",
    jobs: int = 1,
) -> tuple[CapacityStats, dict]:
    """Size storage for a fixed node set; no pruning.

    Returns the capacity stats plus a metrics dict for comparison against
    greedy output.
    """
    if not nodes:
        raise ValidationError("fixed placement needs at least one node")
    ev = evaluate_subset(network, scenario_set, nodes, weights, dispatch, backend, jobs)
    return ev.stats, {
        "energy_metric": ev.energy_metric,
        "power_metric": ev.power_metric,
        "perf": ev.perf,
        "dropped": ev.dropped,
    }


# ---------------------------------------------------------------------------
# Threshold scan and the greedy loop
# ---------------------------------------------------------------------------


def candidate_thresholds(stats: CapacityStats) -> list[tuple[float, frozenset]]:
    """Distinct (gamma, surviving subset) pairs in decreasing gamma order.

    Gammas are the distinct ratios s_bar_i / max(s_bar).  When no node
    stores anything the only candidate is pruning to the empty set.
    """
    cap = stats.s_bar_max
    nodes = np.array(stats.nodes)
    top = float(cap.max()) if cap.size else 0.0
    if top <= _ZERO_CAP_TOL:
        return [(1.0, frozenset())]
    ratios = sorted({float(c) / top for c in cap}, reverse=True)
    out = []
    prev = None
    for gamma in ratios:
        keep = frozenset(int(b) for b, c in zip(nodes, cap) if c >= gamma * top - 1e-12 * top)
        if keep != prev:
            out.append((gamma, keep))
            prev = keep
    return out


def threshold_scan(
    stats: CapacityStats,
    nodes: frozenset,
    weights: PerfWeights,
    epsilon: float,
    current_perf: float,
    evaluate,
):
    """Largest gamma whose re-dispatched subset beats current_perf by > epsilon.

    ``evaluate(frozenset) -> SubsetEvaluation`` runs the full re-dispatch.
    Candidates are tried from the largest gamma down and the first winner is
    returned, which is exactly the max over improving gammas.  Candidates
    whose sweep aborts on infeasibility are skipped.  Returns
    (gamma, SubsetEvaluation) or None when no threshold improves.
    """
    for gamma, keep in candidate_thresholds(stats):
        if keep == nodes:
            continue  # same set, same perf by determinism: cannot improve
        try:
            ev = evaluate(keep)
        except AllScenariosInfeasible:
            logger.info("threshold %.4f rejected: subset %s infeasible", gamma, sorted(keep))
            continue
        if ev.perf < current_perf - epsilon:
            return gamma, ev
    return None


@dataclass(eq=False)
class RoundRecord:
    nodes: tuple[int, ...]
    stats: CapacityStats
    perf: float
    energy_metric: float
    power_metric: float
    gamma: float | None  # threshold that produced this round's set (None for the first)
    dropped: int


@dataclass(eq=False)
class PlacementState:
    nodes: frozenset
    stats: CapacityStats
    perf_value: float
    rounds: list[RoundRecord]
    epsilon: float
    epsilon_prime: float

    @property
    def iteration_history(self) -> list[tuple]:
        return [
            (len(r.nodes), r.perf, r.energy_metric, r.power_metric, r.gamma)
            for r in self.rounds
        ]


def greedy_placement(
    network: Network,
    scenario_set: ScenarioSet,
    weights: PerfWeights = PerfWeights(),
    epsilon: float | None = None,
    epsilon_prime: float = 0.05,
    dispatch: DispatchConfig = DispatchConfig(),
    backend: str = "highs",
    jobs: int = 1,
    initial_nodes=None,
) -> PlacementState:
    """Greedy pruning of the storage node set under repeated re-dispatch.

    Starts from storage at every bus, keeps the subset of nodes whose
    worst-case capacity clears the best improving threshold, and stops when
    no threshold improves perf by more than epsilon or the chosen threshold
    is within epsilon_prime of 1.  ``epsilon=None`` uses 1% of the initial
    perf value.
    """
    if len(scenario_set) == 0:
        raise ValidationError("scenario set is empty")
    if epsilon is not None and epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if epsilon_prime <= 0:
        raise ValidationError("epsilon_prime must be positive")

    # one verdict per subset: an evaluation, or the infeasibility that ended it
    memo: dict[frozenset, SubsetEvaluation | AllScenariosInfeasible] = {}

    def evaluate(nodes: frozenset) -> SubsetEvaluation:
        if nodes not in memo:
            try:
                memo[nodes] = evaluate_subset(
                    network, scenario_set, nodes, weights, dispatch, backend, jobs
                )
            except AllScenariosInfeasible as exc:
                memo[nodes] = exc
        if isinstance(memo[nodes], AllScenariosInfeasible):
            raise memo[nodes]
        return memo[nodes]

    current = frozenset(
        initial_nodes if initial_nodes is not None else range(network.n_buses)
    )
    ev = evaluate(current)
    eps = epsilon if epsilon is not None else max(0.01 * ev.perf, 1e-12)
    rounds = [
        RoundRecord(ev.nodes, ev.stats, ev.perf, ev.energy_metric, ev.power_metric, None, ev.dropped)
    ]

    while current:
        hit = threshold_scan(ev.stats, current, weights, eps, ev.perf, evaluate)
        if hit is None:
            break
        gamma, ev = hit
        current = frozenset(ev.nodes)
        rounds.append(
            RoundRecord(
                ev.nodes, ev.stats, ev.perf, ev.energy_metric, ev.power_metric, gamma, ev.dropped
            )
        )
        logger.info(
            "pruned to %d nodes at gamma=%.4f, perf=%.6f", len(current), gamma, ev.perf
        )
        if 1.0 - gamma <= epsilon_prime:
            break

    return PlacementState(
        nodes=current,
        stats=ev.stats,
        perf_value=ev.perf,
        rounds=rounds,
        epsilon=eps,
        epsilon_prime=epsilon_prime,
    )


def baseline_nodes(network: Network, scenario_set: ScenarioSet) -> frozenset:
    """The obvious placement: at renewable sites and intertie buses."""
    nodes = {site.bus for site in network.renewables}
    for scen in scenario_set:
        active = np.flatnonzero(np.abs(scen.interchange).max(axis=0) > 0)
        nodes.update(int(b) for b in active)
    return frozenset(nodes)

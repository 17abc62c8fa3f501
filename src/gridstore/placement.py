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
import threading
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .dispatch import DispatchConfig, Dispatcher, Scenario, StorageUse, storage_use
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
        for name in ("energy_weight", "site_cost"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative, got {getattr(self, name)}")


def perf(nodes, energy_metric: float, weights: PerfWeights) -> float:
    """Placement cost: weighted normalized energy capacity plus site charges."""
    return weights.energy_weight * energy_metric + weights.site_cost * len(nodes)


def _normalized_capacity(uses, scenarios: list[Scenario], span: int, quantity: str) -> float:
    """The worst of ``uses`` over the worst ``fluctuation_spans[span]`` of ``scenarios``."""
    den = max([0.0] + [scen.fluctuation_spans[span] for scen in scenarios])
    if den <= _ZERO_CAP_TOL:
        raise ZeroFluctuationDenominator(f"renewables never fluctuate in {quantity}")
    return max([0.0, *uses]) / den


def normalized_power_capacity(uses: list[StorageUse], scenarios: list[Scenario]) -> float:
    """Worst-case total storage power use over the worst-case renewable swing.

    Numerator and denominator are each aggregated as the max over scenarios.
    """
    return _normalized_capacity([use.power for use in uses], scenarios, 0, "power")


def normalized_energy_capacity(uses: list[StorageUse], scenarios: list[Scenario]) -> float:
    """Worst-case total state-of-charge swing over the worst-case fluctuation energy."""
    return _normalized_capacity([use.energy for use in uses], scenarios, 1, "energy")


# ---------------------------------------------------------------------------
# Scenario sweeps
# ---------------------------------------------------------------------------


def _outcome(
    dispatch: Dispatcher, scenario: Scenario, stop: threading.Event | None = None
) -> StorageUse | Exception:
    """The scenario's storage use, or the exception its dispatch raised."""
    try:
        return storage_use(dispatch.idx, dispatch(scenario, stop))
    except Exception as exc:
        return exc


def _pool_arrivals(dispatch: Dispatcher, scenarios, jobs: int, order):
    """Yield (i, outcome) from ``jobs`` threads sharing ``dispatch``, as their
    results arrive.

    A thread gets its next scenario only once its last result has been
    yielded, so when the generator closes, on the sweep's verdict, an error
    or its last result, at most ``jobs - 1`` solves are still running.
    Closing sets the sweep's ``stop`` event, which every solve of the sweep
    carries, so those solves end at their next interrupt check, and then
    joins the threads: none is alive once the generator has closed.
    """
    stop = threading.Event()

    def run(i):
        return i, _outcome(dispatch, scenarios[i], stop)

    todo = iter(order)
    pool = ThreadPoolExecutor(jobs, "gridstore-dispatch")
    try:
        running = {pool.submit(run, i) for i in islice(todo, jobs)}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
                running.update(pool.submit(run, i) for i in islice(todo, 1))
    finally:
        stop.set()
        pool.shutdown(wait=True)


def solve_all_scenarios(
    network: Network,
    scenario_set: ScenarioSet,
    config: DispatchConfig,
    backend: str = "highs",
    jobs: int = 1,
    order=None,
) -> tuple[list[StorageUse], list[int]]:
    """Dispatch every scenario; returns (records, indices of infeasible ones),
    the records being the kept scenarios' :class:`StorageUse`, in index order.

    Scenarios are dispatched in ``order``, a permutation of their indices
    (index order by default), and infeasible results are counted as they
    arrive.  Infeasible scenarios are dropped with a warning as long as they
    stay under 10% of the set; once they reach it the sweep stops and raises
    AllScenariosInfeasible, since sizing from a heavily censored collection
    would be misleading.  Dispatching likely-infeasible scenarios first
    reaches that verdict after fewer LPs.  The results are put back in
    index order before anything is computed from them, so no output depends
    on ``order``.

    The sweep builds one :class:`Dispatcher` from its first scenario before
    any scenario is dispatched, so the LP is assembled once, and every
    scenario, on this thread or on any of ``jobs`` pool threads, re-targets
    that one LP.  Every scenario arrives as (i, outcome): its record, taken
    from the LP's solution on the thread that solved it, or the exception
    its dispatch raised.  An InfeasibleScenario counts toward
    the abort; any other exception is raised here.  When the sweep ends
    early, by its verdict or by any error, no further scenario starts; the
    at most ``jobs - 1`` solves still running are interrupted and their
    results dropped.  Every pool thread has ended by the time this returns
    or raises.
    """
    scenarios = scenario_set.scenarios
    n = len(scenarios)
    order = list(range(n) if order is None else order)
    if sorted(order) != list(range(n)):
        raise ValidationError("dispatch order must be a permutation of the scenario indices")
    abort_at = max(1, int(np.ceil(n * _MAX_INFEASIBLE_FRACTION)))
    n_store = len(config.storage_nodes)
    progress_every = n // 4 if n >= 100 else 0

    dispatch = Dispatcher(network, scenarios[order[0]], config, backend) if n else None
    if jobs > 1 and n > 1:
        arrivals = _pool_arrivals(dispatch, scenarios, min(jobs, n), order)
    else:
        arrivals = ((i, _outcome(dispatch, scenarios[i])) for i in order)
    results, n_infeasible = {}, 0
    try:
        for i, outcome in arrivals:
            infeasible = isinstance(outcome, InfeasibleScenario)
            if isinstance(outcome, Exception) and not infeasible:
                raise outcome
            results[i] = outcome
            n_infeasible += infeasible
            if n_infeasible >= abort_at:
                break
            done = len(results)
            if progress_every and done % progress_every == 0 and done < n:
                logger.info("dispatched %d/%d scenarios (|S|=%d)", done, n, n_store)
    finally:
        arrivals.close()

    dropped = sorted(i for i, out in results.items() if isinstance(out, InfeasibleScenario))
    aborted = len(dropped) >= abort_at
    if aborted:
        summary = f"infeasible after {len(results)} LPs"
    else:
        summary = f"{len(dropped)} dropped" if dropped else "complete"
    logger.info("sweep |S|=%d: %d/%d LPs solved, %s", n_store, len(results), n, summary)
    if aborted:
        raise AllScenariosInfeasible(
            f"{len(dropped)} of {n} scenarios infeasible for storage set "
            f"{sorted(config.storage_nodes)} (stopped early)",
            dropped,
        )
    uses = [results[i] for i in range(n) if i not in dropped]
    if dropped:
        labels = [scenarios[i].label for i in dropped]
        logger.warning(
            "dropping %d/%d infeasible scenarios: %s", len(dropped), n, ", ".join(labels)
        )
    return uses, dropped


@dataclass(eq=False)
class SubsetEvaluation:
    """One dispatched node set: its worst-case capacities, metrics and perf,
    and the :class:`StorageUse` record its sweep kept for each kept scenario."""

    nodes: tuple[int, ...]  # sorted
    s_bar_max: np.ndarray  # MWh per node, elementwise max over the kept scenarios
    ps_bar_max: np.ndarray  # MW per node
    per_scenario: tuple[StorageUse, ...]  # kept scenarios in index order
    energy_metric: float
    power_metric: float
    perf: float
    dropped_indices: tuple[int, ...] = ()  # the dropped scenarios, in index order

    @property
    def dropped(self) -> int:
        return len(self.dropped_indices)


def _metric_or_zero(metric_fn, uses, scenarios, s_bar_max) -> float:
    try:
        return metric_fn(uses, scenarios)
    except ZeroFluctuationDenominator:
        # nothing fluctuates, so nothing gets stored; define the ratio as 0
        if s_bar_max.sum() <= _ZERO_CAP_TOL:
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
    order=None,
) -> SubsetEvaluation:
    """One full dispatch round with storage restricted to ``nodes``.

    ``order`` is the scenario dispatch order :func:`solve_all_scenarios` takes.
    """
    config = replace(dispatch, storage_nodes=frozenset(nodes))
    uses, dropped = solve_all_scenarios(network, scenario_set, config, backend, jobs, order=order)
    dropped_set = set(dropped)
    kept = [s for i, s in enumerate(scenario_set.scenarios) if i not in dropped_set]
    nodes = tuple(sorted(nodes))
    if uses:
        s_bar_max = np.vstack([use.s_bar for use in uses]).max(axis=0)
        ps_bar_max = np.vstack([use.ps_bar for use in uses]).max(axis=0)
    else:
        s_bar_max, ps_bar_max = np.zeros(0), np.zeros(0)
    energy = _metric_or_zero(normalized_energy_capacity, uses, kept, s_bar_max)
    power = _metric_or_zero(normalized_power_capacity, uses, kept, s_bar_max)
    return SubsetEvaluation(
        nodes,
        s_bar_max,
        ps_bar_max,
        tuple(uses),
        energy,
        power,
        perf(nodes, energy, weights),
        tuple(dropped),
    )


def evaluate_fixed_placement(
    network: Network,
    scenario_set: ScenarioSet,
    nodes,
    weights: PerfWeights,
    dispatch: DispatchConfig = DispatchConfig(),
    backend: str = "highs",
    jobs: int = 1,
) -> tuple[SubsetEvaluation, dict]:
    """Size storage for a fixed node set; no pruning.

    Returns the node set's :class:`SubsetEvaluation` plus a metrics dict
    for comparison against greedy output.
    """
    if not nodes:
        raise ValidationError("fixed placement needs at least one node")
    ev = evaluate_subset(network, scenario_set, nodes, weights, dispatch, backend, jobs)
    return ev, {
        "energy_metric": ev.energy_metric,
        "power_metric": ev.power_metric,
        "perf": ev.perf,
        "dropped": ev.dropped,
    }


# ---------------------------------------------------------------------------
# Threshold scan and the greedy loop
# ---------------------------------------------------------------------------


def candidate_thresholds(ev: SubsetEvaluation) -> list[tuple[float, frozenset]]:
    """Distinct (gamma, surviving subset) pairs of ``ev``'s node set, in
    decreasing gamma order.

    Gammas are the distinct ratios s_bar_i / max(s_bar) over ``ev.s_bar_max``.
    When no node stores anything the only candidate is pruning to the empty
    set.
    """
    cap = ev.s_bar_max
    nodes = np.array(ev.nodes)
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


def threshold_scan(current: SubsetEvaluation, epsilon: float, evaluate):
    """Largest gamma whose re-dispatched subset beats ``current.perf`` by > epsilon.

    The candidates are :func:`candidate_thresholds` of ``current``, the
    evaluation of the node set being pruned.  ``evaluate(frozenset) ->
    SubsetEvaluation`` runs the full re-dispatch.  Candidates are tried from
    the largest gamma down and the first winner is returned, which is
    exactly the max over improving gammas.  Candidates whose sweep aborts on
    infeasibility are skipped.  Every rejected candidate is logged at info
    level with its reason.  Returns (gamma, SubsetEvaluation) or None when
    no threshold improves.
    """
    nodes, current_perf = frozenset(current.nodes), current.perf
    for gamma, keep in candidate_thresholds(current):
        if keep == nodes:
            continue  # same set, same perf by determinism: cannot improve
        try:
            ev = evaluate(keep)
        except AllScenariosInfeasible:
            logger.info("threshold %.4f rejected: subset %s infeasible", gamma, sorted(keep))
            continue
        if ev.perf < current_perf - epsilon:
            return gamma, ev
        logger.info(
            "threshold %.4f rejected: subset %s perf %.6f does not beat %.6f",
            gamma,
            sorted(keep),
            ev.perf,
            current_perf - epsilon,
        )
    return None


def _binding_first_order(
    parent: SubsetEvaluation, nodes: frozenset, infeasible: set[int], n_scenarios: int
) -> list[int]:
    """Dispatch order for a sweep over ``nodes``, any node set (a candidate or the baseline).

    Scenarios in ``infeasible`` (found infeasible by an earlier sweep) go
    first.  The rest rank by the total ps_bar they placed in the parent round
    (their records in ``parent.per_scenario``) on the parent's nodes outside
    ``nodes``, which count as dropped, largest first: they lean hardest on the
    storage taken away.  Ties, and scenarios the parent round dropped, go in
    index order.  No output depends on the order.
    """
    kept = np.setdiff1d(np.arange(n_scenarios), parent.dropped_indices)
    gone = [k for k, b in enumerate(parent.nodes) if b not in nodes]
    load = np.zeros(n_scenarios)
    load[kept] = [use.ps_bar[gone].sum() for use in parent.per_scenario]
    return sorted(range(n_scenarios), key=lambda i: (i not in infeasible, -load[i], i))


@dataclass(eq=False)
class PlacementState:
    rounds: list[SubsetEvaluation]  # one per pruning round; the last is the placement
    gammas: list[float | None]  # threshold that produced each round's set (None for the first)
    epsilon: float
    # every subset evaluated so far: its evaluation, or the infeasibility that ended it
    verdicts: dict[frozenset, SubsetEvaluation | AllScenariosInfeasible]
    # greedy's memoized evaluation; it raises a remembered infeasibility again
    # and records each new subset in verdicts
    evaluate: Callable[[frozenset], SubsetEvaluation]

    @property
    def nodes(self) -> frozenset:
        return frozenset(self.rounds[-1].nodes)


def greedy_placement(
    network: Network,
    scenario_set: ScenarioSet,
    weights: PerfWeights = PerfWeights(),
    epsilon: float | None = None,
    epsilon_rel: float = 0.01,
    epsilon_prime: float = 0.05,
    dispatch: DispatchConfig = DispatchConfig(),
    backend: str = "highs",
    jobs: int = 1,
) -> PlacementState:
    """Greedy pruning of the storage node set under repeated re-dispatch.

    Starts from storage at every bus, keeps the subset of nodes whose
    worst-case capacity clears the best improving threshold, and stops when
    no threshold improves perf by more than epsilon or the chosen threshold
    is within epsilon_prime of 1.  ``epsilon=None`` uses ``epsilon_rel``
    times the initial perf value.  Each candidate's sweep dispatches its
    scenarios in :func:`_binding_first_order`, so an infeasible candidate
    reaches its verdict early; the results do not depend on that order.
    The returned state's ``evaluate`` is the same memoized evaluation, so
    later callers reuse every verdict greedy reached.
    """
    if len(scenario_set) == 0:
        raise ValidationError("scenario set is empty")
    if epsilon is not None and epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if epsilon_prime <= 0:
        raise ValidationError("epsilon_prime must be positive")

    # one verdict per subset: an evaluation, or the infeasibility that ended it
    memo: dict[frozenset, SubsetEvaluation | AllScenariosInfeasible] = {}
    infeasible: set[int] = set()  # scenarios any sweep so far found infeasible
    parent: SubsetEvaluation | None = None  # the round whose candidates are scanned

    def evaluate(nodes: frozenset) -> SubsetEvaluation:
        if nodes not in memo:
            order = None
            if parent is not None:
                order = _binding_first_order(parent, nodes, infeasible, len(scenario_set))
            try:
                memo[nodes] = evaluate_subset(
                    network, scenario_set, nodes, weights, dispatch, backend, jobs, order=order
                )
                infeasible.update(memo[nodes].dropped_indices)
            except AllScenariosInfeasible as exc:
                memo[nodes] = exc
                infeasible.update(exc.infeasible)
        if isinstance(memo[nodes], AllScenariosInfeasible):
            raise memo[nodes]
        return memo[nodes]

    ev = evaluate(frozenset(range(network.n_buses)))
    eps = epsilon if epsilon is not None else max(epsilon_rel * ev.perf, 1e-12)
    rounds, gammas = [ev], [None]

    while ev.nodes:
        parent = ev
        hit = threshold_scan(ev, eps, evaluate)
        if hit is None:
            break
        gamma, ev = hit
        rounds.append(ev)
        gammas.append(gamma)
        logger.info(
            "pruned to %d nodes at gamma=%.4f, perf=%.6f", len(ev.nodes), gamma, ev.perf
        )
        if 1.0 - gamma <= epsilon_prime:
            break

    return PlacementState(rounds, gammas, eps, memo, evaluate)


def baseline_nodes(network: Network, scenario_set: ScenarioSet) -> frozenset:
    """The obvious placement: at renewable sites and intertie buses."""
    nodes = {site.bus for site in network.renewables}
    for scen in scenario_set:
        active = np.flatnonzero(np.abs(scen.interchange).max(axis=0) > 0)
        nodes.update(int(b) for b in active)
    return frozenset(nodes)

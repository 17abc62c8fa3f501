"""Experiment drivers: placement runs, penetration sweeps, debug dispatch."""

from __future__ import annotations

import logging
import time
from dataclasses import replace

import numpy as np

from .config import RunConfig
from .dispatch import lookahead_dispatch, verify_dispatch
from .errors import GridstoreError, ValidationError
from .fileio import load_network_document
from .placement import (
    PlacementState,
    SubsetEvaluation,
    baseline_nodes,
    evaluate_subset,
    greedy_placement,
)
from .reporting import Report, emit_report
from .scenarios import ScenarioSet, compute_penetration, generate_synthetic, load_scenarios_csv

logger = logging.getLogger(__name__)


def build_scenarios(cfg: RunConfig, network, base_load) -> ScenarioSet:
    if cfg.synthetic is None:
        return load_scenarios_csv(cfg.csv_paths, network, cfg.dt_hours)
    if base_load.sum() <= 0:
        raise ValidationError(
            "synthetic scenarios need base_load_mw entries in the network file"
        )
    return generate_synthetic(network, base_load, cfg.synthetic, cfg.dt_hours, cfg.n_steps)


def _iteration_rows(state: PlacementState) -> list[dict]:
    rows = []
    for i, (ev, gamma) in enumerate(zip(state.rounds, state.gammas)):
        rows.append(
            {
                "round": i,
                "set_size": len(ev.nodes),
                "perf": float(ev.perf),
                "energy_metric": float(ev.energy_metric),
                "power_metric": float(ev.power_metric),
                "gamma": None if gamma is None else float(gamma),
                "dropped": ev.dropped,
            }
        )
    return rows


def _capacity_rows(ev: SubsetEvaluation) -> list[dict]:
    return [
        {"bus": int(b), "s_bar_mwh": float(s), "ps_bar_mw": float(p)}
        for b, s, p in zip(ev.nodes, ev.s_bar_max, ev.ps_bar_max)
    ]


def run_place(cfg: RunConfig) -> Report:
    """Full pipeline: scenarios, greedy pruning, baseline comparison, report."""
    t_start = time.perf_counter()
    network, base_load = load_network_document(cfg.network_path)
    sset = build_scenarios(cfg, network, base_load)
    t_scen = time.perf_counter()

    state = greedy_placement(
        network,
        sset,
        cfg.weights,
        epsilon=cfg.epsilon,
        epsilon_rel=cfg.epsilon_rel,
        epsilon_prime=cfg.epsilon_prime,
        dispatch=cfg.dispatch,
        backend=cfg.solver,
        jobs=cfg.jobs,
    )
    t_greedy = time.perf_counter()

    baseline = None
    if cfg.baseline:
        nodes = baseline_nodes(network, sset)
        if not nodes:
            baseline = {"note": "no renewable or intertie buses to place at"}
        else:
            try:
                ev = state.evaluate(nodes)  # greedy may have dispatched it already
                greedy = state.rounds[-1]
                baseline = {
                    "nodes": sorted(int(b) for b in nodes),
                    "energy_metric": ev.energy_metric,
                    "power_metric": ev.power_metric,
                    "perf": ev.perf,
                    "energy_ratio_vs_greedy": (
                        ev.energy_metric / greedy.energy_metric if greedy.energy_metric > 0 else None
                    ),
                    "power_ratio_vs_greedy": (
                        ev.power_metric / greedy.power_metric if greedy.power_metric > 0 else None
                    ),
                    "capacities": _capacity_rows(ev),
                }
            except GridstoreError as exc:  # an infeasible or failed baseline does not end the run
                baseline = {"error": f"{type(exc).__name__}: {exc}"}
                logger.warning("baseline evaluation failed: %s", exc)
    t_done = time.perf_counter()

    return Report(
        config=cfg.raw,
        iterations=_iteration_rows(state),
        final_placement=_capacity_rows(state.rounds[-1]),
        baseline=baseline,
        histograms={str(i): _capacity_rows(ev) for i, ev in enumerate(state.rounds)},
        sweep=[],
        timing={
            "scenario_seconds": t_scen - t_start,
            "greedy_seconds": t_greedy - t_scen,
            "baseline_seconds": t_done - t_greedy,
            "total_seconds": t_done - t_start,
        },
    )


def run_sweep(cfg: RunConfig, levels=None) -> Report:
    """Storage-at-all-nodes metrics across renewable penetration levels."""
    levels = list(levels) if levels is not None else list(cfg.sweep_levels)
    if not levels:
        raise ValidationError("sweep needs at least one penetration level")
    if sorted(levels) != levels or any(not 0.0 < v < 1.0 for v in levels):
        raise ValidationError("sweep levels must be ascending and strictly inside (0, 1)")
    if cfg.synthetic is None:
        raise ValidationError("sweep requires a synthetic scenario source")

    t_start = time.perf_counter()
    network, base_load = load_network_document(cfg.network_path)
    all_nodes = frozenset(range(network.n_buses))

    rows = []
    for level in levels:
        params = replace(cfg.synthetic, penetration_target=level)
        sset = generate_synthetic(network, base_load, params, cfg.dt_hours, cfg.n_steps)
        ev = evaluate_subset(
            network, sset, all_nodes, cfg.weights, cfg.dispatch, cfg.solver, cfg.jobs
        )
        rows.append(
            {
                "penetration_target": level,
                "penetration_mean": float(np.mean([compute_penetration(s) for s in sset])),
                "energy_metric": float(ev.energy_metric),
                "power_metric": float(ev.power_metric),
                "perf": float(ev.perf),
            }
        )
        logger.info("sweep level %.3f: energy=%.4f power=%.4f", level, rows[-1]["energy_metric"], rows[-1]["power_metric"])

    return Report(
        config=dict(cfg.raw, sweep={"levels": levels}),
        sweep=rows,
        timing={"total_seconds": time.perf_counter() - t_start},
    )


def run_dispatch_debug(cfg: RunConfig, scenario_index: int) -> dict:
    """Solve one scenario with storage everywhere and report the physics."""
    network, base_load = load_network_document(cfg.network_path)
    sset = build_scenarios(cfg, network, base_load)
    if not 0 <= scenario_index < len(sset):
        raise ValidationError(
            f"scenario index {scenario_index} out of range (set has {len(sset)})"
        )
    scen = sset.scenarios[scenario_index]
    config = replace(cfg.dispatch, storage_nodes=frozenset(range(network.n_buses)))
    sol = lookahead_dispatch(network, scen, config, backend=cfg.solver)
    residuals = verify_dispatch(network, scen, sol)
    used = [
        {"bus": int(b), "s_bar_mwh": float(s), "ps_bar_mw": float(p)}
        for b, s, p in zip(sol.storage_nodes, sol.s_bar, sol.ps_bar)
        if s > 1e-9 or p > 1e-9
    ]
    return {
        "scenario": scen.label,
        "objective": float(sol.objective),
        "generation_cost": float(sol.generation_cost),
        "storage_cost": float(sol.storage_cost),
        "penetration": compute_penetration(scen),
        "storage_used": used,
        "max_abs_flow_mw": float(np.abs(sol.flows).max(initial=0.0)),
        "residuals": residuals,
    }


"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Every call into gridstore goes through a module attribute
(``gs_placement.greedy_placement(...)``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gridstore.config as gs_config
import gridstore.dispatch as gs_dispatch
import gridstore.errors as gs_errors
import gridstore.lp as gs_lp
import gridstore.matpower as gs_matpower
import gridstore.network as gs_network
import gridstore.placement as gs_placement
import gridstore.reporting as gs_reporting
import gridstore.runners as gs_runners
import gridstore.scenarios as gs_scenarios

RECORD_SEED = 42  # the seed record_references.py runs; no workload's outputs depend on it
REFERENCES = Path(__file__).resolve().parent / "references.json"
DT_HOURS = 1.0 / 12.0
# the criterion-6 network: three wind buses attached to rts96_3area.m
RTS_WIND = (("107", 600.0), ("215", 1800.0), ("317", 1200.0))
REL_TOL = 1e-6  # relative and absolute tolerance on the recorded perf values

# The pipeline's own infeasibility verdicts.  No workload's draws end in one,
# so an operation that does has not given the outputs references.json holds.
VERDICTS = (gs_errors.AllScenariosInfeasible, gs_errors.InfeasibleScenario)


def _compare(path: str, got, want) -> list[str]:
    """Differences between outputs and their references; floats compare to REL_TOL."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: fields {sorted(got)} != reference {sorted(want)}"]
        return [f for k in want for f in _compare(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} values, reference has {len(want)}"]
        return [f for g, w in zip(got, want) for f in _compare(path, g, w)]
    if isinstance(want, float):
        same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL)
    else:
        same = got == want
    return [] if same else [f"{path}: {got!r} != reference {want!r}"]


def _perf_checks(perfs: list[float], epsilon: float) -> list[str]:
    return [
        f"round {i} perf {cur!r} not below round {i - 1} perf {prev!r} by more than {epsilon!r}"
        for i, (prev, cur) in enumerate(zip(perfs, perfs[1:]), start=1)
        if not cur < prev - epsilon
    ]


class Workload:
    name = ""
    jobs = 1  # workers for the untraced operations; the traced run uses 1
    backend = "highs"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        """Build the inputs; timed as part of set-up."""

    def warm_up(self) -> None:
        """Load the solver's lazy imports with a one-variable LP."""
        tiny = gs_lp.LinearProgram(
            n_vars=1, cost=np.ones(1), var_lower=np.zeros(1), var_upper=np.ones(1)
        )
        gs_lp.solve_with_backend(tiny, self.backend)

    def run(self, jobs: int):
        """One operation; its result goes to ``outputs`` and ``check``."""
        raise NotImplementedError

    def outputs(self, result) -> dict:
        """The values references.json records."""
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Failed output checks, empty when the operation's result is right."""
        raise NotImplementedError

    def check_reference(self, result) -> list[str]:
        refs = json.loads(REFERENCES.read_text())[self.name]
        return _compare(self.name, self.outputs(result), refs)


class QuickstartPlace(Workload):
    """``run_place`` plus ``emit_report`` on the quickstart case, once per draw.

    One operation places each of a fixed set of scenario draws (config
    seeds), in an order that --seed permutes.  How long one placement takes
    depends on its draw, through how many subsets the greedy loop tries, in
    a few discrete levels; with the draws fixed every operation does the
    same work on every seed, and the outputs are checked on every seed.
    """

    name = "qs_place"
    # the case's own seed; three rounds; two buses kept; an infeasible scenario dropped
    draws = (7, 5, 13, 15)

    def setup(self) -> None:
        out_dir = self.root / ".bench_out" / self.name
        order = np.random.default_rng(self.seed).permutation(len(self.draws))
        self.configs = [
            gs_config.load_run_config(
                self.root / "cases" / "quickstart_place.json",
                {
                    "seed": self.draws[i],
                    "jobs": 1,
                    "solver": self.backend,
                    "out_dir": str(out_dir / str(self.draws[i])),
                },
            )
            for i in order
        ]

    def run(self, jobs: int) -> list:
        reports = []
        for cfg in self.configs:
            reports.append(gs_runners.run_place(cfg))
            gs_reporting.emit_report(reports[-1], cfg.out_dir)
        return reports

    def outputs(self, reports) -> dict:
        return {
            str(cfg.seed): {
                "perf": [row["perf"] for row in report.iterations],
                "final_nodes": sorted(row["bus"] for row in report.final_placement),
                "baseline_perf": report.baseline["perf"],
            }
            for cfg, report in zip(self.configs, reports)
        }

    def check(self, reports) -> list[str]:
        failed = []
        for cfg, report in zip(self.configs, reports):
            draw = f"draw {cfg.seed}"
            perfs = [row["perf"] for row in report.iterations]
            eps = cfg.epsilon if cfg.epsilon is not None else cfg.epsilon_rel * perfs[0]
            failed += [f"{draw}: {f}" for f in _perf_checks(perfs, eps)]
            _, rows = gs_reporting.read_table(cfg.out_dir / "iterations.csv")
            if len(rows) != len(report.iterations):
                n = len(report.iterations)
                failed.append(f"{draw}: iterations.csv has {len(rows)} rows, report {n}")
            if "perf" not in (report.baseline or {}):
                failed.append(f"{draw}: baseline missing: {report.baseline}")
        return failed


class RtsGreedy(Workload):
    """Greedy pruning plus the wind-site baseline on the criterion-6 network.

    The pruning path flips between one and three rounds from one scenario
    draw to the next, because per-node s_bar is not unique on the optimal
    face; that would swamp any timing.  So the draw is fixed and
    --seed permutes the order in which the scenarios are dispatched.  The
    outputs do not depend on the order; which scenarios share a worker, and
    how many LPs an infeasible subset solves before its sweep stops, do.
    """

    name = "rts_greedy"
    jobs = 2
    backend = "highs-ipm"
    n_scenarios = 4
    n_steps = 12
    draw = 1  # two rounds, four infeasible subsets, two of them dispatched twice

    def setup(self) -> None:
        doc = gs_matpower.import_matpower_document(self.root / "cases" / "rts96_3area.m")
        net = doc.network
        self.wind_buses = []
        for bus_name, cap in RTS_WIND:
            at = next(b.id for b in net.buses if b.name == bus_name)
            net = gs_network.with_renewable_node(
                net, at, cap, line_reactance=0.02, line_limit=1.2 * cap
            )
            self.wind_buses.append(net.n_buses - 1)
        self.network = net
        base_load = np.concatenate([doc.base_load, np.zeros(len(RTS_WIND))])
        params = gs_scenarios.SyntheticParams(
            n_scenarios=self.n_scenarios,
            penetration_target=0.25,
            seed=self.draw,
            volatility=0.07,
            ramp_event_prob=0.4,
        )
        drawn = gs_scenarios.generate_synthetic(
            net, base_load, params, dt_hours=DT_HOURS, n_steps=self.n_steps
        )
        order = np.random.default_rng(self.seed).permutation(len(drawn))
        self.scenarios = gs_scenarios.ScenarioSet(
            [drawn.scenarios[i] for i in order], dict(drawn.provenance, order=order.tolist())
        )

    def run(self, jobs: int):
        weights = gs_placement.PerfWeights(site_cost=0.02)
        dispatch = gs_dispatch.DispatchConfig()
        state = gs_placement.greedy_placement(
            self.network,
            self.scenarios,
            weights,
            dispatch=dispatch,
            backend=self.backend,
            jobs=jobs,
        )
        _, baseline = gs_placement.evaluate_fixed_placement(
            self.network,
            self.scenarios,
            frozenset(self.wind_buses),
            weights,
            dispatch,
            backend=self.backend,
            jobs=jobs,
        )
        return state, baseline

    def outputs(self, result) -> dict:
        state, baseline = result
        return {
            "perf": [float(r.perf) for r in state.rounds],
            "round_sizes": [len(r.nodes) for r in state.rounds],
            "final_nodes": sorted(int(b) for b in state.nodes),
            "baseline_perf": float(baseline["perf"]),
        }

    def check(self, result) -> list[str]:
        state, _ = result
        return _perf_checks([r.perf for r in state.rounds], state.epsilon)


WORKLOADS = {w.name: w for w in (QuickstartPlace, RtsGreedy)}

"""A vertex-free oracle for the dispatch LP on the quickstart case.

The optimal vertex of a scenario's LP need not be unique, but its optimal
cost is, and every optimal point is a physically valid dispatch.  So for
every storage node set of the quickstart network at four scenario draws,
and every scenario, this checks properties that hold whatever vertex a
backend returns:

- the three backends agree on feasibility, and their optimal costs agree
  to 1e-9 relative;
- restricting storage never helps: for node sets C ⊂ A, cost(C) is at
  least cost(A), and C is infeasible wherever A is;
- each optimal dispatch passes :func:`verify_dispatch` and keeps every
  generator inside its output and ramp limits and every line inside its
  flow limit.

Each LP is built and re-targeted the way a placement sweep does it, through
one :class:`Dispatcher` per node set and backend.
"""

from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from gridstore import runners
from gridstore.config import load_run_config
from gridstore.dispatch import Dispatcher, decode_solution, verify_dispatch
from gridstore.errors import InfeasibleScenario

BACKENDS = ("simplex", "highs", "highs-ipm")
REL_TOL = 1e-9
PHYSICS_TOL = 1e-6  # MW and MWh


def limit_excess(network, sol) -> float:
    """How far a dispatch exceeds its generator and line limits."""
    gens = network.generators
    p_max = np.array([gen.p_max for gen in gens])
    ramp = np.array([gen.ramp_limit for gen in gens], dtype=float)
    flow_max = np.array([np.inf if ln.flow_limit is None else ln.flow_limit for ln in network.lines])
    return max(
        float(np.max(-sol.pg, initial=0.0)),
        float(np.max(sol.pg - p_max, initial=0.0)),
        float(np.max(np.abs(np.diff(sol.pg, axis=0)) - ramp, initial=0.0)),
        float(np.max(np.abs(sol.flows) - flow_max, initial=0.0)),
    )


def costs(network, sset, config, backend) -> list[float | None]:
    """Each scenario's optimal cost, or None where its LP is infeasible;
    asserts that each optimal dispatch is physically valid."""
    dispatch = Dispatcher(network, sset.scenarios[0], config, backend)
    out = []
    for scen in sset:
        try:
            lp_sol = dispatch(scen)
        except InfeasibleScenario:
            out.append(None)
            continue
        sol = decode_solution(network, dispatch.idx, config, lp_sol)
        residuals = verify_dispatch(network, scen, sol)
        residuals["limits"] = limit_excess(network, sol)
        assert max(residuals.values()) <= PHYSICS_TOL, (backend, scen.label, residuals)
        out.append(lp_sol.objective)
    return out


@pytest.mark.parametrize("seed", [7, 5, 13, 15])
def test_optimal_costs_agree_and_fall_as_storage_grows(tmp_path, seed):
    case = Path(__file__).resolve().parent.parent / "cases" / "quickstart_place.json"
    cfg = load_run_config(case, {"seed": seed, "jobs": 1, "out_dir": str(tmp_path)})
    network, base_load = runners.load_network_document(cfg.network_path)
    sset = runners.build_scenarios(cfg, network, base_load)
    buses = range(network.n_buses)
    node_sets = [frozenset(c) for k in range(len(buses) + 1) for c in combinations(buses, k)]
    table = {
        (nodes, backend): costs(network, sset, replace(cfg.dispatch, storage_nodes=nodes), backend)
        for nodes in node_sets
        for backend in BACKENDS
    }

    for nodes in node_sets:
        ref = table[nodes, "highs"]
        for backend in BACKENDS:
            for i, (cost, want) in enumerate(zip(table[nodes, backend], ref)):
                where = (sorted(nodes), backend, sset.scenarios[i].label)
                assert (cost is None) == (want is None), where
                if cost is not None:
                    assert abs(cost - want) <= REL_TOL * max(1.0, abs(want)), (where, cost, want)

    for a in node_sets:
        for c in node_sets:
            if not c < a:
                continue
            for backend in BACKENDS:
                for i, (cost_c, cost_a) in enumerate(zip(table[c, backend], table[a, backend])):
                    where = (sorted(c), sorted(a), backend, sset.scenarios[i].label)
                    if cost_a is None:
                        assert cost_c is None, where  # C feasible where its superset A is not
                    elif cost_c is not None:
                        assert cost_c >= cost_a - REL_TOL * max(1.0, abs(cost_a)), where

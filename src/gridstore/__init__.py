"""Storage siting and sizing for transmission grids.

Simulates optimal lookahead dispatch of generation and storage over many
renewable/load scenarios, accumulates per-node storage usage statistics,
and greedily prunes the set of storage nodes while the placement metric
keeps improving.
"""

__version__ = "0.1.0"

from .dispatch import (
    DispatchConfig,
    DispatchSolution,
    Scenario,
    build_dispatch_lp,
    lookahead_dispatch,
    renewable_fluctuation_energy,
)
from .errors import GridstoreError
from .lp import LinearProgram, LpSolution, Status, solve, solve_with_backend
from .network import (
    Bus,
    Generator,
    Line,
    Network,
    RenewableSite,
    build_laplacian,
    check_connected,
    dc_power_flow,
)
from .placement import (
    PerfWeights,
    PlacementState,
    SubsetEvaluation,
    evaluate_fixed_placement,
    greedy_placement,
    normalized_energy_capacity,
    normalized_power_capacity,
    perf,
    threshold_scan,
)
from .scenarios import (
    ScenarioSet,
    SyntheticParams,
    compute_penetration,
    generate_synthetic,
    load_scenarios_csv,
    write_scenarios_csv,
)

__all__ = [
    "Bus",
    "DispatchConfig",
    "DispatchSolution",
    "Generator",
    "GridstoreError",
    "Line",
    "LinearProgram",
    "LpSolution",
    "Network",
    "PerfWeights",
    "PlacementState",
    "RenewableSite",
    "Scenario",
    "ScenarioSet",
    "Status",
    "SubsetEvaluation",
    "SyntheticParams",
    "build_dispatch_lp",
    "build_laplacian",
    "check_connected",
    "compute_penetration",
    "dc_power_flow",
    "evaluate_fixed_placement",
    "generate_synthetic",
    "greedy_placement",
    "load_scenarios_csv",
    "lookahead_dispatch",
    "normalized_energy_capacity",
    "normalized_power_capacity",
    "perf",
    "renewable_fluctuation_energy",
    "solve",
    "solve_with_backend",
    "threshold_scan",
    "write_scenarios_csv",
]

"""Network data model, graph Laplacian, and deterministic DC power flow.

Conventions: power in MW, reactance in per-unit on ``base_mva``, angles in
radians.  Flow on a line from i to j is (theta_i - theta_j) / x_ij, positive
toward j.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DisconnectedNetwork, UnbalancedInjection, ValidationError


@dataclass(frozen=True)
class Bus:
    id: int
    name: str = ""
    is_slack: bool = False


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: float
    flow_limit: float | None = None  # MW; None means unbounded


@dataclass(frozen=True)
class Generator:
    bus: int
    cost: float  # $/MWh
    p_max: float  # MW
    ramp_limit: float = float("inf")  # MW per dispatch step; inf = unconstrained


@dataclass(frozen=True)
class RenewableSite:
    bus: int
    p_max: float  # MW nameplate, used for clipping synthetic output


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...] = ()
    renewables: tuple[RenewableSite, ...] = ()
    base_mva: float = 100.0

    def __post_init__(self):
        # Tolerate lists from callers; store immutable tuples.
        for name in ("buses", "lines", "generators", "renewables"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slack(self) -> int:
        for bus in self.buses:
            if bus.is_slack:
                return bus.id
        raise ValidationError("network has no slack bus")

    def validate(self) -> None:
        """Check structural invariants; raises ValidationError on the first breach."""
        # each range test is written so that NaN fails it
        n = len(self.buses)
        if n == 0:
            raise ValidationError("network has no buses")
        ids = [b.id for b in self.buses]
        if sorted(ids) != list(range(n)):
            raise ValidationError(f"bus ids must be 0..{n - 1} without gaps, got {sorted(ids)}")
        if len(set(ids)) != n:
            raise ValidationError("duplicate bus ids")
        n_slack = sum(1 for b in self.buses if b.is_slack)
        if n_slack != 1:
            raise ValidationError(f"exactly one slack bus required, found {n_slack}")
        for k, line in enumerate(self.lines):
            if line.from_bus == line.to_bus:
                raise ValidationError(f"line {k} is a self-loop at bus {line.from_bus}")
            for end in (line.from_bus, line.to_bus):
                if not 0 <= end < n:
                    raise ValidationError(f"line {k} references unknown bus {end}")
            if not line.reactance > 0:
                raise ValidationError(f"line {k} reactance must be > 0, got {line.reactance}")
            if line.flow_limit is not None and not line.flow_limit > 0:
                raise ValidationError(f"line {k} flow limit must be > 0, got {line.flow_limit}")
        for k, gen in enumerate(self.generators):
            if not 0 <= gen.bus < n:
                raise ValidationError(f"generator {k} references unknown bus {gen.bus}")
            if not (gen.cost >= 0 and gen.p_max >= 0 and gen.ramp_limit >= 0):
                raise ValidationError(f"generator {k} has a negative cost/capacity/ramp")
        for k, site in enumerate(self.renewables):
            if not 0 <= site.bus < n:
                raise ValidationError(f"renewable site {k} references unknown bus {site.bus}")
            if not site.p_max >= 0:
                raise ValidationError(f"renewable site {k} nameplate must be >= 0")
        if not self.base_mva > 0:
            raise ValidationError("base_mva must be positive")


def build_laplacian(network: Network) -> np.ndarray:
    """Weighted graph Laplacian with line weights 1/x; parallel lines add."""
    n = network.n_buses
    lap = np.zeros((n, n))
    for line in network.lines:
        w = 1.0 / line.reactance
        i, j = line.from_bus, line.to_bus
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def check_connected(network: Network) -> bool:
    """True iff the undirected line graph spans every bus."""
    n = network.n_buses
    if n == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in network.lines:
        adj[line.from_bus].append(line.to_bus)
        adj[line.to_bus].append(line.from_bus)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


def dc_power_flow(network: Network, injections) -> tuple[np.ndarray, np.ndarray]:
    """Solve the linearized flow problem L theta = p with the slack angle at 0.

    ``injections`` is MW per bus and must sum to zero within
    1e-6 * (sum|p| + 1).  Returns (angles in rad per bus, MW flow per line).
    """
    p = np.asarray(injections, dtype=float)
    n = network.n_buses
    if p.shape != (n,):
        raise ValidationError(f"injection vector has shape {p.shape}, expected ({n},)")
    imbalance = abs(p.sum())
    if imbalance > 1e-6 * (np.abs(p).sum() + 1.0):
        raise UnbalancedInjection(f"injections sum to {p.sum():.6g} MW")
    if not check_connected(network):
        raise DisconnectedNetwork("dc power flow requires a connected network")

    slack = network.slack
    keep = [i for i in range(n) if i != slack]
    lap = build_laplacian(network)
    theta = np.zeros(n)
    if keep:
        reduced = lap[np.ix_(keep, keep)]
        theta[keep] = np.linalg.solve(reduced, p[keep])

    flows = np.array(
        [(theta[ln.from_bus] - theta[ln.to_bus]) / ln.reactance for ln in network.lines]
    )
    return theta, flows


def injections_from_flows(network: Network, flows) -> np.ndarray:
    """Per-bus net injection implied by line flows (for conservation checks)."""
    p = np.zeros(network.n_buses)
    for flow, line in zip(np.asarray(flows, dtype=float), network.lines):
        p[line.from_bus] += flow
        p[line.to_bus] -= flow
    return p


def with_renewable_node(
    network: Network,
    at_bus: int,
    nameplate: float,
    line_reactance: float = 0.02,
    line_limit: float | None = None,
) -> Network:
    """Attach a new bus carrying a renewable site to ``at_bus``.

    The connecting line defaults to a limit above nameplate so it never binds
    before the site's own output does.
    """
    if not 0 <= at_bus < network.n_buses:
        raise ValidationError(f"unknown attachment bus {at_bus}")
    new_id = network.n_buses
    if line_limit is None:
        line_limit = 1.2 * nameplate if nameplate > 0 else None
    network = replace(
        network,
        buses=network.buses + (Bus(id=new_id, name=f"ren{new_id}"),),
        lines=network.lines + (Line(at_bus, new_id, line_reactance, line_limit),),
        renewables=network.renewables + (RenewableSite(bus=new_id, p_max=nameplate),),
    )
    network.validate()
    return network

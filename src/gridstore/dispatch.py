"""Time-coupled lookahead dispatch of generation and storage.

One scenario plus one candidate storage node set becomes a single LP over
the whole horizon.  Decision variables are generator setpoints pg(t),
storage injections ps(t) (positive = discharging into the grid), non-slack
bus angles theta(t), and per-node storage sizing variables: energy capacity
s_bar (MWh), power rating ps_bar (MW), and the initial state of charge s0.

Constraints per step: nodal flow balance through the network Laplacian,
line flow limits, generator ramp limits between consecutive steps, state of
charge kept inside [0, s_bar] at every step boundary via the running sum of
injections, |ps| <= ps_bar, and zero net storage energy over the horizon.
Generation cost is integrated over time (multiplied by the step length) so
it shares units with the capacity cost terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .errors import (
    DisconnectedNetwork,
    InconsistentDimensions,
    InfeasibleScenario,
    SolverFailure,
    ValidationError,
)
from .lp import LinearProgram, Status
from .network import Network, build_laplacian, check_connected

CURTAIL_PENALTY = 1e4  # $/MWh, large against any sane fuel cost


@dataclass(eq=False)
class Scenario:
    """Known time profiles driving one dispatch: all arrays are MW.

    ``renewable`` is (n_steps, n_sites), ``load`` and ``interchange`` are
    (n_steps, n_buses).  Loads are stored as nonnegative consumption and
    applied as negative injections; interchange is a signed fixed injection.
    """

    dt_hours: float
    renewable: np.ndarray
    load: np.ndarray
    interchange: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        self.renewable = np.atleast_2d(np.asarray(self.renewable, dtype=float))
        self.load = np.atleast_2d(np.asarray(self.load, dtype=float))
        if self.interchange is None:
            self.interchange = np.zeros_like(self.load)
        else:
            self.interchange = np.atleast_2d(np.asarray(self.interchange, dtype=float))
        if self.dt_hours <= 0:
            raise ValidationError("dt_hours must be positive")
        if self.n_steps < 1:
            raise ValidationError("scenario needs at least one step")
        if self.load.shape[0] != self.n_steps or self.interchange.shape != self.load.shape:
            raise ValidationError("scenario series disagree on the number of steps")
        if np.any(self.renewable < 0) or np.any(self.load < 0):
            raise ValidationError("renewable and load series must be nonnegative")

    @property
    def n_steps(self) -> int:
        return self.renewable.shape[0]


@dataclass(frozen=True)
class DispatchConfig:
    storage_nodes: frozenset[int] = frozenset()
    storage_energy_cost: float = 200.0  # $ per MWh of s_bar
    storage_power_cost: float = 20.0  # $ per MW of ps_bar
    allow_curtailment: bool = False
    initial_soc_free: bool = True  # False pins s0 at s_bar / 2
    # operational re-solve mode: pin capacities instead of optimizing them
    s_bar_fixed: tuple[float, ...] | None = None  # per sorted storage node, MWh
    ps_bar_fixed: tuple[float, ...] | None = None  # per sorted storage node, MW

    def __post_init__(self):
        object.__setattr__(self, "storage_nodes", frozenset(self.storage_nodes))
        if self.storage_energy_cost < 0 or self.storage_power_cost < 0:
            raise ValidationError("storage capacity costs must be nonnegative")


class DispatchIndex:
    """Column layout of the dispatch LP: one contiguous block per variable family.

    Blocks in column order: ``pg`` (T, n_gen), ``ps`` (T, n_store), ``theta``
    (T, n_buses - 1, over ``non_slack``), ``s_bar`` and ``ps_bar`` (n_store
    each, empty when capacities are fixed), ``s0`` (n_store) and ``curtail``
    (T, n_sites, empty without curtailment).  Each attribute holds its
    block's column numbers in that shape, so ``x[idx.pg]`` is the generator
    schedule.  Storage columns follow ``storage``, the sorted node list.
    """

    def __init__(self, network: Network, scenario: Scenario, config: DispatchConfig):
        self.T = T = scenario.n_steps
        self.n_gen = len(network.generators)
        self.n_buses = network.n_buses
        self.slack = network.slack
        self.storage = sorted(config.storage_nodes)
        self.n_store = K = len(self.storage)
        self.n_sites = len(network.renewables)
        self.curtail_on = config.allow_curtailment
        self.sized = config.s_bar_fixed is None  # capacities are variables
        self.non_slack = np.delete(np.arange(self.n_buses), self.slack)

        self.n_vars = 0

        def block(*shape: int) -> np.ndarray:
            cols = np.arange(self.n_vars, self.n_vars + math.prod(shape)).reshape(shape)
            self.n_vars += cols.size
            return cols

        n_cap = K if self.sized else 0
        self.pg = block(T, self.n_gen)
        self.ps = block(T, K)
        self.theta = block(T, self.n_buses - 1)
        self.s_bar = block(n_cap)
        self.ps_bar = block(n_cap)
        self.s0 = block(K)
        self.curtail = block(T, self.n_sites if self.curtail_on else 0)


class _Rows:
    """Constraint rows gathered family by family as COO index blocks.

    No two blocks set the same coefficient and none sets a zero, so the CSR
    matrix holds exactly the entries set, columns sorted within each row.
    """

    def __init__(self):
        self.n = 0
        self.lower: list[np.ndarray] = []
        self.upper: list[np.ndarray] = []
        self.entries: list[tuple[np.ndarray, ...]] = []

    def add(self, lower, upper) -> np.ndarray:
        """Append rows with these bounds; returns their numbers in the same shape."""
        lower, upper = np.broadcast_arrays(np.asarray(lower, float), np.asarray(upper, float))
        self.lower.append(lower.ravel())
        self.upper.append(upper.ravel())
        first, self.n = self.n, self.n + lower.size
        return np.arange(first, self.n).reshape(lower.shape)

    def set(self, rows, cols, values) -> None:
        """Coefficients ``A[rows, cols] = values``, the three broadcast together."""
        self.entries.append(np.broadcast_arrays(rows, cols, np.asarray(values, float)))

    def program(self, cost, var_lower, var_upper) -> LinearProgram:
        """The LP over these rows, with one CSR matrix built from every block."""
        r, c, v = (np.concatenate([e[k].ravel() for e in self.entries]) for k in range(3))
        return LinearProgram(
            n_vars=len(cost),
            cost=cost,
            A=sp.csr_matrix((v, (r, c)), shape=(self.n, len(cost))),
            row_lower=np.concatenate(self.lower),
            row_upper=np.concatenate(self.upper),
            var_lower=var_lower,
            var_upper=var_upper,
        )


@dataclass(eq=False)
class DispatchSolution:
    status: Status
    pg: np.ndarray  # (T, n_gen) MW
    ps: np.ndarray  # (T, n_store) MW, positive discharging
    soc: np.ndarray  # (T+1, n_store) MWh
    theta: np.ndarray  # (T, n_buses) rad
    flows: np.ndarray  # (T, n_lines) MW
    s_bar: np.ndarray  # (n_store,) MWh
    ps_bar: np.ndarray  # (n_store,) MW
    storage_nodes: tuple[int, ...]
    generation_cost: float
    storage_cost: float
    curtailed: np.ndarray | None = None  # (T, n_sites) MW when enabled
    objective: float = 0.0


def _check_shapes(network: Network, scenario: Scenario, config: DispatchConfig) -> None:
    if scenario.load.shape[1] != network.n_buses:
        raise InconsistentDimensions(
            f"load series covers {scenario.load.shape[1]} buses, network has {network.n_buses}"
        )
    if scenario.renewable.shape[1] != len(network.renewables):
        raise InconsistentDimensions(
            f"renewable series covers {scenario.renewable.shape[1]} sites, "
            f"network has {len(network.renewables)}"
        )
    bad = [b for b in config.storage_nodes if not 0 <= b < network.n_buses]
    if bad:
        raise InconsistentDimensions(f"storage nodes {bad} not in network")
    for name in ("s_bar_fixed", "ps_bar_fixed"):
        fixed = getattr(config, name)
        if fixed is not None and len(fixed) != len(config.storage_nodes):
            raise InconsistentDimensions(f"{name} length does not match storage node count")


def build_dispatch_lp(
    network: Network, scenario: Scenario, config: DispatchConfig
) -> tuple[LinearProgram, DispatchIndex]:
    """Assemble the horizon LP; returns the program and its variable map."""
    _check_shapes(network, scenario, config)
    if not check_connected(network):
        raise DisconnectedNetwork("dispatch requires a connected network")

    idx = DispatchIndex(network, scenario, config)
    T, dt, K = idx.T, scenario.dt_hours, idx.n_store
    gens = network.generators
    gen_bus = np.array([gen.bus for gen in gens], dtype=int)
    site_bus = np.array([site.bus for site in network.renewables], dtype=int)

    cost = np.zeros(idx.n_vars)
    lower = np.full(idx.n_vars, -np.inf)
    upper = np.full(idx.n_vars, np.inf)
    cost[idx.pg] = [gen.cost * dt for gen in gens]
    lower[idx.pg] = 0.0
    upper[idx.pg] = [gen.p_max for gen in gens]
    lower[idx.s0] = 0.0
    if idx.sized:
        cost[idx.s_bar] = config.storage_energy_cost
        cost[idx.ps_bar] = config.storage_power_cost
        lower[idx.s_bar] = lower[idx.ps_bar] = 0.0
    else:
        s_cap = np.asarray(config.s_bar_fixed, dtype=float)
        p_cap = np.asarray(
            config.ps_bar_fixed if config.ps_bar_fixed is not None else np.full(K, np.inf),
            dtype=float,
        )
        upper[idx.s0] = s_cap
        lower[idx.ps], upper[idx.ps] = -p_cap, p_cap
    if idx.curtail_on:
        cost[idx.curtail] = CURTAIL_PENALTY * dt
        lower[idx.curtail] = 0.0
        upper[idx.curtail] = scenario.renewable

    rows = _Rows()

    # nodal balance: L theta - pg - ps (+ curtail) = p_r - load + interchange
    rhs = scenario.interchange - scenario.load
    np.add.at(rhs, (slice(None), site_bus), scenario.renewable)  # site by site, in order
    balance = rows.add(rhs, rhs)  # (T, n_buses)
    lap = build_laplacian(network)
    bus, pos = np.nonzero(lap[:, idx.non_slack])
    rows.set(balance[:, bus], idx.theta[:, pos], lap[bus, idx.non_slack[pos]])
    rows.set(balance[:, gen_bus], idx.pg, -1.0)
    rows.set(balance[:, idx.storage], idx.ps, -1.0)
    if idx.curtail_on:
        rows.set(balance[:, site_bus], idx.curtail, 1.0)

    # line flow limits: (theta_from - theta_to) / x, slack angle fixed at 0
    limited = [line for line in network.lines if line.flow_limit is not None]
    limit = np.array([line.flow_limit for line in limited], dtype=float)
    weight = np.array([1.0 / line.reactance for line in limited])
    flow = rows.add(np.broadcast_to(-limit, (T, len(limited))), limit)  # (T, n_limited)
    from_bus = np.array([line.from_bus for line in limited], dtype=int)
    to_bus = np.array([line.to_bus for line in limited], dtype=int)
    theta_pos = np.full(idx.n_buses, -1)
    theta_pos[idx.non_slack] = np.arange(idx.n_buses - 1)
    for bus, coef in ((from_bus, weight), (to_bus, -weight)):
        keep = bus != idx.slack
        rows.set(flow[:, keep], idx.theta[:, theta_pos[bus[keep]]], coef[keep])

    # generator ramping between consecutive steps
    ramp = np.array([gen.ramp_limit for gen in gens], dtype=float)
    ramped = np.flatnonzero(np.isfinite(ramp))
    ramps = rows.add(np.broadcast_to(-ramp[ramped], (T - 1, len(ramped))), ramp[ramped])
    rows.set(ramps, idx.pg[1:, ramped], 1.0)
    rows.set(ramps, idx.pg[:-1, ramped], -1.0)

    # state of charge inside [0, s_bar] at every boundary, via running sums.
    # Per node: s0 <= s_bar when sized, s0 = s_bar / 2 when pinned, then a
    # (soc >= 0, soc <= s_bar) pair per step.  Every row carries s0.
    if K:
        pinned = not config.initial_soc_free
        head = int(idx.sized) + int(pinned)
        lo = np.empty((K, head + 2 * T))
        hi = np.empty((K, head + 2 * T))
        lo[:, head::2], hi[:, head::2] = 0.0, np.inf
        lo[:, head + 1 :: 2] = -np.inf
        hi[:, head + 1 :: 2] = 0.0 if idx.sized else s_cap[:, None]
        if idx.sized:
            lo[:, 0], hi[:, 0] = -np.inf, 0.0
        if pinned:
            lo[:, head - 1] = hi[:, head - 1] = 0.0 if idx.sized else 0.5 * s_cap
        soc = rows.add(lo, hi)  # (K, head + 2T)
        rows.set(soc, idx.s0[:, None], 1.0)
        if idx.sized:
            rows.set(soc[:, 0], idx.s_bar, -1.0)
            if pinned:
                rows.set(soc[:, 1], idx.s_bar, -0.5)
            rows.set(soc[:, head + 1 :: 2], idx.s_bar[:, None], -1.0)
        step, tau = np.tril_indices(T)  # soc after step+1 sums ps over tau <= step
        for side in (0, 1):
            rows.set(soc[:, head + 2 * step + side], idx.ps[tau].T, -dt)

    # |ps| <= ps_bar when the rating is a variable: ps - ps_bar <= 0 <= ps + ps_bar
    if idx.sized:
        rating = rows.add(np.broadcast_to([-np.inf, 0.0], (T, K, 2)), [0.0, np.inf])
        rows.set(rating, idx.ps[:, :, None], 1.0)
        rows.set(rating, idx.ps_bar[:, None], [-1.0, 1.0])

    # zero net energy exchanged with storage over the horizon
    if K:
        rows.set(rows.add(0.0, 0.0), idx.ps, dt)

    return rows.program(cost, lower, upper), idx


def decode_solution(
    network: Network,
    scenario: Scenario,
    config: DispatchConfig,
    idx: DispatchIndex,
    sol: lpmod.LpSolution,
) -> DispatchSolution:
    x = sol.x
    T = idx.T
    dt = scenario.dt_hours
    pg = x[idx.pg]
    ps = x[idx.ps]
    s0 = x[idx.s0]
    soc = np.vstack([s0, s0 - dt * np.cumsum(ps, axis=0)]) if idx.n_store else np.zeros((T + 1, 0))
    theta = np.zeros((T, idx.n_buses))
    theta[:, idx.non_slack] = x[idx.theta]
    lines = network.lines
    from_bus = np.array([ln.from_bus for ln in lines], dtype=int)
    to_bus = np.array([ln.to_bus for ln in lines], dtype=int)
    flows = (theta[:, from_bus] - theta[:, to_bus]) / np.array([ln.reactance for ln in lines])
    if idx.sized:
        s_bar = x[idx.s_bar]
        ps_bar = x[idx.ps_bar]
    else:
        s_bar = np.asarray(config.s_bar_fixed, dtype=float)
        ps_bar = (
            np.asarray(config.ps_bar_fixed, dtype=float)
            if config.ps_bar_fixed is not None
            else np.max(np.abs(ps), axis=0, initial=0.0) * np.ones(idx.n_store)
        )
    curtailed = x[idx.curtail] if idx.curtail_on else None
    # each generator's energy summed over its own schedule, then the costs
    # totalled left to right (the float order the reports have always used)
    energy = np.ascontiguousarray(pg.T).sum(axis=1)
    rate = np.array([gen.cost for gen in network.generators], dtype=float)
    gen_cost = float(sum((rate * dt * energy).tolist()))
    store_cost = float(
        config.storage_energy_cost * s_bar.sum() + config.storage_power_cost * ps_bar.sum()
    ) if idx.sized else 0.0
    return DispatchSolution(
        status=sol.status,
        pg=pg,
        ps=ps,
        soc=soc,
        theta=theta,
        flows=flows,
        s_bar=s_bar,
        ps_bar=ps_bar,
        storage_nodes=tuple(idx.storage),
        generation_cost=gen_cost,
        storage_cost=store_cost,
        curtailed=curtailed,
        objective=sol.objective,
    )


def lookahead_dispatch(
    network: Network,
    scenario: Scenario,
    config: DispatchConfig,
    backend: str = "highs",
) -> DispatchSolution:
    """Build and solve the horizon LP for one scenario.

    Raises InfeasibleScenario (with the scenario label) when no dispatch
    satisfies the constraints, SolverFailure on any other non-optimal stop.
    """
    prog, idx = build_dispatch_lp(network, scenario, config)
    sol = lpmod.solve_with_backend(prog, backend)
    if sol.status is Status.INFEASIBLE:
        raise InfeasibleScenario(scenario.label or "<unnamed>")
    if sol.status is not Status.OPTIMAL:
        raise SolverFailure(f"dispatch LP ended with status {sol.status.value}")
    return decode_solution(network, scenario, config, idx, sol)


def verify_dispatch(
    network: Network,
    scenario: Scenario,
    sol: DispatchSolution,
) -> dict[str, float]:
    """Residuals of the physical identities on a decoded solution.

    Keys: power_balance (MW), energy_bookkeeping (MWh), terminal (MWh),
    soc_bounds (MWh), ps_bounds (MW).  All should be ~0 for an optimal point.
    """
    T = scenario.n_steps
    dt = scenario.dt_hours
    store_pos = {b: k for k, b in enumerate(sol.storage_nodes)}
    balance = 0.0
    for t in range(T):
        inj = np.zeros(network.n_buses)
        for g, gen in enumerate(network.generators):
            inj[gen.bus] += sol.pg[t, g]
        for s, site in enumerate(network.renewables):
            out = scenario.renewable[t, s]
            if sol.curtailed is not None:
                out -= sol.curtailed[t, s]
            inj[site.bus] += out
        for b, k in store_pos.items():
            inj[b] += sol.ps[t, k]
        inj += scenario.interchange[t] - scenario.load[t]
        # flows must carry exactly the nodal injections
        carried = np.zeros(network.n_buses)
        for ln, line in enumerate(network.lines):
            carried[line.from_bus] += sol.flows[t, ln]
            carried[line.to_bus] -= sol.flows[t, ln]
        balance = max(balance, float(np.max(np.abs(inj - carried), initial=0.0)))
        balance = max(balance, abs(float(inj.sum())))
    book = 0.0
    for t in range(T):
        drift = sol.soc[t + 1] - sol.soc[t] + dt * sol.ps[t]
        if drift.size:
            book = max(book, float(np.max(np.abs(drift))))
    terminal = abs(float(sol.soc[-1].sum() - sol.soc[0].sum())) if sol.soc.size else 0.0
    soc_bounds = 0.0
    ps_bounds = 0.0
    if sol.soc.size:
        soc_bounds = float(
            max(
                np.max(np.maximum(-sol.soc, 0.0), initial=0.0),
                np.max(np.maximum(sol.soc - sol.s_bar[None, :], 0.0), initial=0.0),
            )
        )
        ps_bounds = float(np.max(np.maximum(np.abs(sol.ps) - sol.ps_bar[None, :], 0.0), initial=0.0))
    return {
        "power_balance": balance,
        "energy_bookkeeping": book,
        "terminal": terminal,
        "soc_bounds": soc_bounds,
        "ps_bounds": ps_bounds,
    }


def renewable_fluctuation_energy(scenario: Scenario) -> np.ndarray:
    """Energy absorbed by a hypothetical co-located battery, per site.

    Cumulative sum of the mean-centered renewable output times the step
    length; shape (n_steps + 1, n_sites) with zeros at both ends.
    """
    dev = scenario.renewable - scenario.renewable.mean(axis=0, keepdims=True)
    cum = np.cumsum(dev * scenario.dt_hours, axis=0)
    return np.vstack([np.zeros((1, scenario.renewable.shape[1])), cum])

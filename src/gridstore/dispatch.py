"""Time-coupled lookahead dispatch of generation and storage.

One scenario plus one candidate storage node set becomes a single LP over
the whole horizon.  Decision variables are generator setpoints pg(t),
storage injections ps(t) (positive = discharging into the grid), non-slack
bus angles theta(t), and per-node storage sizing variables: energy capacity
s_bar (MWh), power rating ps_bar (MW), and the initial state of charge s0.
The capacities are always decision variables: each scenario's LP sizes the
storage it needs, and placement takes the worst case over scenarios.

Constraints per step: nodal flow balance through the network Laplacian,
line flow limits, generator ramp limits between consecutive steps, state of
charge kept inside [0, s_bar] at every step boundary via the running sum of
injections, |ps| <= ps_bar, and zero net storage energy over the horizon.
Generation cost is integrated over time (multiplied by the step length) so
it shares units with the capacity cost terms.

For a fixed network, storage node set and step grid the LP differs between
scenarios only in the nodal-balance right-hand side and, with curtailment,
the curtailment upper bounds.  A :class:`Dispatcher` therefore assembles it
once, when constructed, with :func:`build_dispatch_lp`; each call re-targets
that program at the call's scenario with :func:`retarget_dispatch_lp`, then
solves and decodes it.  No call writes into the assembled program, so one
Dispatcher serves every thread of a sweep; :func:`lookahead_dispatch` is a
Dispatcher's single call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .errors import (
    DisconnectedNetwork,
    InconsistentDimensions,
    InfeasibleScenario,
    SolverFailure,
    ValidationError,
)
from .lp import CsrMatrix, LinearProgram, Status
from .network import Network, build_laplacian, check_connected, injections_from_flows

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
        if not all(np.isfinite(a).all() for a in (self.renewable, self.load, self.interchange)):
            raise ValidationError("scenario series must be finite")
        if np.any(self.renewable < 0) or np.any(self.load < 0):
            raise ValidationError("renewable and load series must be nonnegative")

    @property
    def n_steps(self) -> int:
        return self.renewable.shape[0]

    @functools.cached_property
    def fluctuation_spans(self) -> tuple[float, float]:
        """Summed over sites, the range of renewable output (MW) and of
        :func:`renewable_fluctuation_energy` (MWh).

        Placement divides its metrics by their max over the kept scenarios
        of every node set it evaluates, so each scenario computes them once.
        """
        s_r = renewable_fluctuation_energy(self)
        power = self.renewable.max(axis=0) - self.renewable.min(axis=0)
        energy = s_r.max(axis=0) - s_r.min(axis=0)
        return float(power.sum()), float(energy.sum())


@dataclass(frozen=True)
class DispatchConfig:
    storage_nodes: frozenset[int] = frozenset()
    storage_energy_cost: float = 200.0  # $ per MWh of s_bar
    storage_power_cost: float = 20.0  # $ per MW of ps_bar
    allow_curtailment: bool = False
    initial_soc_free: bool = True  # False pins s0 at s_bar / 2

    def __post_init__(self):
        object.__setattr__(self, "storage_nodes", frozenset(self.storage_nodes))
        for name in ("storage_energy_cost", "storage_power_cost"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative, got {getattr(self, name)}")


class DispatchIndex:
    """Column layout of the dispatch LP: one contiguous block per variable family.

    Blocks in column order: ``pg`` (T, n_gen), ``ps`` (T, n_store), ``theta``
    (T, n_buses - 1, over ``non_slack``), ``s_bar``, ``ps_bar`` and ``s0``
    (n_store each) and ``curtail`` (T, n_sites, empty without curtailment).
    Each attribute holds its block's column numbers in that shape, so
    ``x[idx.pg]`` is the generator schedule.  Storage columns follow
    ``storage``, the sorted node list.  ``balance`` holds the (T, n_buses)
    row numbers of the nodal balance, set by :func:`build_dispatch_lp`;
    ``T`` and ``dt_hours`` are the step grid the LP was built for.
    ``site_bus`` (per renewable site) places each site's output in the
    balance.  ``line_from``, ``line_to`` and ``reactance`` (per line) and
    ``gen_rate`` (per generator, $/MWh) are the network data
    :func:`decode_solution` reads.
    """

    balance: np.ndarray

    def __init__(self, network: Network, scenario: Scenario, config: DispatchConfig):
        self.T = T = scenario.n_steps
        self.dt_hours = scenario.dt_hours
        self.n_gen = len(network.generators)
        self.n_buses = network.n_buses
        self.slack = network.slack
        self.storage = sorted(config.storage_nodes)
        self.n_store = K = len(self.storage)
        self.n_sites = len(network.renewables)
        self.curtail_on = config.allow_curtailment
        self.non_slack = np.delete(np.arange(self.n_buses), self.slack)
        self.site_bus = np.array([site.bus for site in network.renewables], dtype=int)
        lines = network.lines
        self.line_from = np.array([ln.from_bus for ln in lines], dtype=int)
        self.line_to = np.array([ln.to_bus for ln in lines], dtype=int)
        self.reactance = np.array([ln.reactance for ln in lines])
        self.gen_rate = np.array([gen.cost for gen in network.generators], dtype=float)

        self.n_vars = 0

        def block(*shape: int) -> np.ndarray:
            cols = np.arange(self.n_vars, self.n_vars + math.prod(shape)).reshape(shape)
            self.n_vars += cols.size
            return cols

        self.pg = block(T, self.n_gen)
        self.ps = block(T, K)
        self.theta = block(T, self.n_buses - 1)
        self.s_bar = block(K)
        self.ps_bar = block(K)
        self.s0 = block(K)
        self.curtail = block(T, self.n_sites if self.curtail_on else 0)

    def check(self, scenario: Scenario) -> None:
        """Raise InconsistentDimensions unless ``scenario`` fits this LP: one
        load column per bus, one renewable column per site, and its step grid."""
        if scenario.load.shape[1] != self.n_buses:
            raise InconsistentDimensions(
                f"load series covers {scenario.load.shape[1]} buses, network has {self.n_buses}"
            )
        if scenario.renewable.shape[1] != self.n_sites:
            raise InconsistentDimensions(
                f"renewable series covers {scenario.renewable.shape[1]} sites, "
                f"network has {self.n_sites}"
            )
        if scenario.n_steps != self.T or scenario.dt_hours != self.dt_hours:
            raise InconsistentDimensions(
                f"scenario has {scenario.n_steps} steps of {scenario.dt_hours} h, "
                f"the LP was built for {self.T} of {self.dt_hours} h"
            )


class _Rows:
    """Constraint rows gathered family by family as COO index blocks.

    No two blocks set the same coefficient and none sets a zero, so
    :meth:`CsrMatrix.from_coo` holds exactly the entries set, columns sorted
    within each row, in the arrays ``scipy.sparse.csr_matrix`` would build.
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
            A=CsrMatrix.from_coo(r, c, v, (self.n, len(cost))),
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
    flows: np.ndarray  # (T, n_lines) MW
    s_bar: np.ndarray  # (n_store,) MWh
    ps_bar: np.ndarray  # (n_store,) MW
    storage_nodes: tuple[int, ...]
    generation_cost: float
    storage_cost: float
    curtailed: np.ndarray | None = None  # (T, n_sites) MW when enabled
    objective: float = 0.0
    iterations: int = 0  # the LP's, as its backend reported them
    max_violation: float = 0.0  # the LP's worst residual


def _balance_rhs(idx: DispatchIndex, scenario: Scenario) -> np.ndarray:
    """(T, n_buses) fixed injections: renewables - load + interchange."""
    rhs = scenario.interchange - scenario.load
    np.add.at(rhs, (slice(None), idx.site_bus), scenario.renewable)  # site by site, in order
    return rhs


def build_dispatch_lp(
    network: Network, scenario: Scenario, config: DispatchConfig
) -> tuple[LinearProgram, DispatchIndex]:
    """Assemble the horizon LP; returns the program and its variable map."""
    idx = DispatchIndex(network, scenario, config)
    idx.check(scenario)
    bad = [b for b in config.storage_nodes if not 0 <= b < network.n_buses]
    if bad:
        raise InconsistentDimensions(f"storage nodes {bad} not in network")
    if not check_connected(network):
        raise DisconnectedNetwork("dispatch requires a connected network")

    T, dt, K = idx.T, idx.dt_hours, idx.n_store
    gens = network.generators
    gen_bus = np.array([gen.bus for gen in gens], dtype=int)

    cost = np.zeros(idx.n_vars)
    lower = np.full(idx.n_vars, -np.inf)
    upper = np.full(idx.n_vars, np.inf)
    cost[idx.pg] = [gen.cost * dt for gen in gens]
    lower[idx.pg] = 0.0
    upper[idx.pg] = [gen.p_max for gen in gens]
    cost[idx.s_bar] = config.storage_energy_cost
    cost[idx.ps_bar] = config.storage_power_cost
    lower[idx.s_bar] = lower[idx.ps_bar] = lower[idx.s0] = 0.0
    if idx.curtail_on:
        cost[idx.curtail] = CURTAIL_PENALTY * dt
        lower[idx.curtail] = 0.0
        upper[idx.curtail] = scenario.renewable

    rows = _Rows()

    # nodal balance: L theta - pg - ps (+ curtail) = p_r - load + interchange
    rhs = _balance_rhs(idx, scenario)
    idx.balance = balance = rows.add(rhs, rhs)  # (T, n_buses)
    lap = build_laplacian(network)
    bus, pos = np.nonzero(lap[:, idx.non_slack])
    rows.set(balance[:, bus], idx.theta[:, pos], lap[bus, idx.non_slack[pos]])
    rows.set(balance[:, gen_bus], idx.pg, -1.0)
    rows.set(balance[:, idx.storage], idx.ps, -1.0)
    if idx.curtail_on:
        rows.set(balance[:, idx.site_bus], idx.curtail, 1.0)

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
    # Per node: s0 <= s_bar, s0 = s_bar / 2 when pinned, then a
    # (soc >= 0, soc <= s_bar) pair per step.  Every row carries s0.
    if K:
        pinned = not config.initial_soc_free
        head = 1 + int(pinned)
        lo = np.empty((K, head + 2 * T))
        hi = np.empty((K, head + 2 * T))
        lo[:, head::2], hi[:, head::2] = 0.0, np.inf
        lo[:, head + 1 :: 2], hi[:, head + 1 :: 2] = -np.inf, 0.0
        lo[:, 0], hi[:, 0] = -np.inf, 0.0
        if pinned:
            lo[:, 1] = hi[:, 1] = 0.0
        soc = rows.add(lo, hi)  # (K, head + 2T)
        rows.set(soc, idx.s0[:, None], 1.0)
        rows.set(soc[:, 0], idx.s_bar, -1.0)
        if pinned:
            rows.set(soc[:, 1], idx.s_bar, -0.5)
        rows.set(soc[:, head + 1 :: 2], idx.s_bar[:, None], -1.0)
        step, tau = np.tril_indices(T)  # soc after step+1 sums ps over tau <= step
        for side in (0, 1):
            rows.set(soc[:, head + 2 * step + side], idx.ps[tau].T, -dt)

    # |ps| <= ps_bar: ps - ps_bar <= 0 <= ps + ps_bar
    rating = rows.add(np.broadcast_to([-np.inf, 0.0], (T, K, 2)), [0.0, np.inf])
    rows.set(rating, idx.ps[:, :, None], 1.0)
    rows.set(rating, idx.ps_bar[:, None], [-1.0, 1.0])

    # zero net energy exchanged with storage over the horizon
    if K:
        rows.set(rows.add(0.0, 0.0), idx.ps, dt)

    return rows.program(cost, lower, upper), idx


def retarget_dispatch_lp(
    prog: LinearProgram, idx: DispatchIndex, scenario: Scenario
) -> LinearProgram:
    """The LP ``build_dispatch_lp`` returns for ``scenario``, from one built for another.

    ``prog`` and ``idx`` come from ``build_dispatch_lp`` on the same network
    and config.  The result shares ``A``, ``cost`` and ``var_lower`` with
    ``prog`` and gets fresh balance-row bounds, plus fresh curtailment upper
    bounds when curtailment is on; ``prog`` itself is left unchanged.
    """
    idx.check(scenario)
    rhs = _balance_rhs(idx, scenario)
    row_lower, row_upper = prog.row_lower.copy(), prog.row_upper.copy()
    row_lower[idx.balance] = row_upper[idx.balance] = rhs
    var_upper = prog.var_upper
    if idx.curtail_on:
        var_upper = var_upper.copy()
        var_upper[idx.curtail] = scenario.renewable
    return LinearProgram(
        n_vars=prog.n_vars,
        cost=prog.cost,
        A=prog.A,
        row_lower=row_lower,
        row_upper=row_upper,
        var_lower=prog.var_lower,
        var_upper=var_upper,
    )


def decode_solution(
    idx: DispatchIndex, config: DispatchConfig, sol: lpmod.LpSolution
) -> DispatchSolution:
    x = sol.x
    T = idx.T
    dt = idx.dt_hours
    pg = x[idx.pg]
    ps = x[idx.ps]
    s0 = x[idx.s0]
    soc = np.vstack([s0, s0 - dt * np.cumsum(ps, axis=0)]) if idx.n_store else np.zeros((T + 1, 0))
    theta = np.zeros((T, idx.n_buses))
    theta[:, idx.non_slack] = x[idx.theta]
    flows = (theta[:, idx.line_from] - theta[:, idx.line_to]) / idx.reactance
    s_bar = x[idx.s_bar]
    ps_bar = x[idx.ps_bar]
    curtailed = x[idx.curtail] if idx.curtail_on else None
    # each generator's energy summed over its own schedule, then the costs
    # totalled left to right (the float order the reports have always used)
    energy = np.ascontiguousarray(pg.T).sum(axis=1)
    gen_cost = float(sum((idx.gen_rate * dt * energy).tolist()))
    store_cost = float(
        config.storage_energy_cost * s_bar.sum() + config.storage_power_cost * ps_bar.sum()
    )
    return DispatchSolution(
        status=sol.status,
        pg=pg,
        ps=ps,
        soc=soc,
        flows=flows,
        s_bar=s_bar,
        ps_bar=ps_bar,
        storage_nodes=tuple(idx.storage),
        generation_cost=gen_cost,
        storage_cost=store_cost,
        curtailed=curtailed,
        objective=sol.objective,
        iterations=sol.iterations,
        max_violation=sol.max_violation,
    )


class Dispatcher:
    """Dispatches scenarios against one network, storage config and backend.

    Construction assembles the horizon LP for ``scenario`` with
    :func:`build_dispatch_lp`.  Calling the Dispatcher on a scenario of the
    same shape re-targets that LP at it, solves, and returns the decoded
    :class:`DispatchSolution`.  A call only reads the assembled LP, so
    threads may share one Dispatcher.  Raises InfeasibleScenario (with the
    scenario label) when no dispatch satisfies the constraints,
    SolverFailure (naming the scenario and the backend) on any other
    non-optimal stop.
    """

    def __init__(
        self, network: Network, scenario: Scenario, config: DispatchConfig, backend: str = "highs"
    ):
        self.config = config
        self.backend = backend
        self.template, self.idx = build_dispatch_lp(network, scenario, config)

    def __call__(self, scenario: Scenario) -> DispatchSolution:
        prog = retarget_dispatch_lp(self.template, self.idx, scenario)
        label = scenario.label or "<unnamed>"
        try:
            sol = lpmod.solve_with_backend(prog, self.backend)
        except SolverFailure as exc:
            raise SolverFailure(f"scenario {label} ({self.backend}): {exc}") from exc
        if sol.status is Status.INFEASIBLE:
            raise InfeasibleScenario(label)
        if sol.status is not Status.OPTIMAL:
            raise SolverFailure(
                f"scenario {label} ({self.backend}): "
                f"dispatch LP ended with status {sol.status.value}"
            )
        return decode_solution(self.idx, self.config, sol)


def lookahead_dispatch(
    network: Network,
    scenario: Scenario,
    config: DispatchConfig,
    backend: str = "highs",
) -> DispatchSolution:
    """Assemble, solve and decode one scenario's LP; raises as :class:`Dispatcher` does."""
    return Dispatcher(network, scenario, config, backend)(scenario)


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
        carried = injections_from_flows(network, sol.flows[t])
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

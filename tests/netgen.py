"""Seeded random networks and scenarios shared across test modules."""

from __future__ import annotations

import numpy as np

from gridstore.dispatch import Scenario
from gridstore.network import Bus, Generator, Line, Network, RenewableSite
from gridstore.scenarios import ScenarioSet, SyntheticParams, generate_synthetic


def random_network(
    rng: np.random.Generator,
    n_buses: int = 4,
    tight_ramps: bool = True,
    flow_limits: bool = False,
    n_sites: int = 1,
) -> Network:
    """Connected random network that is dispatchable for mild scenarios.

    Bus 0 carries a large cheap generator; a second mid-cost unit lands on a
    random other bus.  Ramp limits are tight enough to make storage matter
    when ``tight_ramps`` is set.
    """
    buses = tuple(Bus(i, f"b{i}", is_slack=(i == 0)) for i in range(n_buses))
    lines = []
    for i in range(1, n_buses):
        j = int(rng.integers(0, i))  # random spanning tree
        lines.append(Line(j, i, float(rng.uniform(0.05, 0.25))))
    n_extra = int(rng.integers(0, max(1, n_buses - 1)))
    for _ in range(n_extra):
        i, j = rng.choice(n_buses, size=2, replace=False)
        lines.append(Line(int(i), int(j), float(rng.uniform(0.05, 0.25))))
    if flow_limits:
        lines = [
            Line(ln.from_bus, ln.to_bus, ln.reactance, float(rng.uniform(8.0, 20.0)))
            for ln in lines
        ]

    total_load_scale = 10.0
    ramp = float(rng.uniform(0.3, 1.0)) if tight_ramps else float("inf")
    gens = [Generator(bus=0, cost=5.0, p_max=4.0 * total_load_scale, ramp_limit=ramp)]
    if n_buses > 2:
        other = int(rng.integers(1, n_buses))
        gens.append(
            Generator(
                bus=other,
                cost=15.0,
                p_max=total_load_scale,
                ramp_limit=ramp if tight_ramps else float("inf"),
            )
        )
    site_buses = rng.choice(n_buses, size=min(n_sites, n_buses), replace=False)
    sites = [RenewableSite(bus=int(b), p_max=6.0) for b in site_buses]
    return Network(buses=buses, lines=tuple(lines), generators=tuple(gens), renewables=tuple(sites))


def random_scenario(
    rng: np.random.Generator,
    network: Network,
    n_steps: int = 6,
    dt_hours: float = 1.0 / 12.0,
    fluctuation: float = 2.0,
    label: str = "",
) -> Scenario:
    n = network.n_buses
    n_sites = len(network.renewables)
    base_load = rng.uniform(1.0, 4.0, n)
    load = base_load[None, :] * (1.0 + 0.02 * rng.standard_normal((n_steps, n)))
    load = np.clip(load, 0.0, None)
    level = np.array([0.5 * s.p_max for s in network.renewables])
    ren = level[None, :] + fluctuation * rng.standard_normal((n_steps, n_sites))
    for s, site in enumerate(network.renewables):
        ren[:, s] = np.clip(ren[:, s], 0.0, site.p_max)
    # keep horizon renewable energy below load energy: without curtailment a
    # system-wide surplus is unservable no matter where storage sits
    total_ren = ren.sum()
    if total_ren > 0:
        ren *= min(1.0, 0.8 * load.sum() / total_ren)
    return Scenario(dt_hours=dt_hours, renewable=ren, load=load, label=label)


def constant_scenario(
    network: Network, n_steps: int = 4, dt_hours: float = 1.0 / 12.0, load_mw: float = 3.0
) -> Scenario:
    n = network.n_buses
    ren = np.full((n_steps, len(network.renewables)), 1.0)
    if not network.renewables:
        ren = np.zeros((n_steps, 0))
    load = np.full((n_steps, n), load_mw)
    return Scenario(dt_hours=dt_hours, renewable=ren, load=load, label="flat")


def six_bus_instance(seed: int) -> tuple[Network, ScenarioSet]:
    """Acceptance criterion 5's instance ``seed``: a 6-bus meshed network with
    two renewable sites, and 4 synthetic scenarios of 8 five-minute steps."""
    rng = np.random.default_rng(seed)

    def x():
        return float(rng.uniform(0.05, 0.2))

    def lim():
        return float(rng.uniform(2.2, 3.2))

    lines = (
        Line(0, 1, x(), lim()),
        Line(1, 2, x(), lim()),
        Line(2, 3, x(), None),
        Line(3, 4, x(), lim()),
        Line(4, 5, x(), lim()),
        Line(5, 0, x(), None),
        Line(0, 3, x(), None),
    )
    gens = (
        Generator(0, 5.0, 30.0, float(rng.uniform(0.3, 0.6))),
        Generator(3, 12.0, 15.0, float(rng.uniform(0.3, 0.6))),
    )
    sites = (RenewableSite(1, 5.0), RenewableSite(4, 5.0))
    buses = tuple(Bus(i, f"b{i}", is_slack=(i == 0)) for i in range(6))
    net = Network(buses, lines, gens, sites)
    base_load = np.zeros(6)
    base_load[2] = float(rng.uniform(3, 5))
    base_load[5] = float(rng.uniform(3, 5))
    params = SyntheticParams(
        n_scenarios=4,
        penetration_target=0.4,
        seed=seed,
        volatility=0.15,
        ramp_event_prob=0.6,
    )
    sset = generate_synthetic(net, base_load, params, 1.0 / 12.0, 8)
    return net, sset

"""Scenario collections: synthetic wind/load profiles and CSV ingestion.

The synthetic process is a stand-in for historical data: each site follows
a mean-reverting walk around a level chosen so the expected renewable
energy matches the requested penetration, clipped to [0, nameplate] after
every step.  A fraction of scenarios additionally contains one monotone
ramp event (a front passing a single site) spread over three steps.

Streams are drawn from the counter-based Philox generator keyed by
(seed, scenario index), so any scenario can be regenerated independently
and the whole set is reproducible across platforms and worker counts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dispatch import Scenario
from .errors import (
    ParseError,
    RaggedSeries,
    UnknownBusId,
    UnreachablePenetration,
    ValidationError,
    ZeroLoad,
)
from .network import Network

SCENARIO_CSV_HEADER = ["scenario", "step", "kind", "target_id", "value_mw"]
_KINDS = ("renewable", "load", "interchange")
_RAMP_STEPS = 3


@dataclass(frozen=True)
class SyntheticParams:
    n_scenarios: int = 100
    penetration_target: float = 0.2
    seed: int = 0
    mean_reversion: float = 0.2
    volatility: float = 0.05
    ramp_event_prob: float = 0.3
    ramp_depth: float = 0.5
    load_noise: float = 0.01

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValidationError("n_scenarios must be >= 1")
        for name in (
            "penetration_target",
            "mean_reversion",
            "volatility",
            "ramp_event_prob",
            "ramp_depth",
            "load_noise",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


@dataclass(eq=False)
class ScenarioSet:
    scenarios: list[Scenario]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenarios:
            dt = self.scenarios[0].dt_hours
            steps = self.scenarios[0].n_steps
            shape = self.scenarios[0].load.shape
            for s in self.scenarios:
                if s.dt_hours != dt or s.n_steps != steps or s.load.shape != shape:
                    raise ValidationError("scenarios disagree on step length or universe")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def dt_hours(self) -> float:
        return self.scenarios[0].dt_hours

    @property
    def n_steps(self) -> int:
        return self.scenarios[0].n_steps


def _scenario_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def generate_synthetic(
    network: Network,
    base_load,
    params: SyntheticParams,
    dt_hours: float,
    n_steps: int,
) -> ScenarioSet:
    """Deterministic-in-seed scenario collection for one network."""
    base_load = np.asarray(base_load, dtype=float)
    if base_load.shape != (network.n_buses,):
        raise ValidationError(
            f"base_load covers {base_load.shape} buses, network has {network.n_buses}"
        )
    if np.any(base_load < 0):
        raise ValidationError("base_load must be nonnegative")
    if n_steps < 1 or dt_hours <= 0:
        raise ValidationError("need n_steps >= 1 and dt_hours > 0")

    caps = np.array([s.p_max for s in network.renewables], dtype=float)
    n_sites = len(caps)
    if params.penetration_target > 0:
        if n_sites == 0:
            raise UnreachablePenetration("no renewable sites in the network")
        want = params.penetration_target * base_load.sum()
        if want > caps.sum() + 1e-12:
            raise UnreachablePenetration(
                f"target needs {want:.1f} MW average renewable output, "
                f"nameplate total is {caps.sum():.1f} MW"
            )
        level_frac = want / caps.sum() if caps.sum() > 0 else 0.0
    else:
        level_frac = 0.0

    scenarios = []
    ramp_events = []
    for k in range(params.n_scenarios):
        rng = _scenario_rng(params.seed, k)
        if level_frac > 0:
            mu = level_frac * caps
            ren = np.empty((n_steps, n_sites))
            ramp_here = bool(rng.random() < params.ramp_event_prob)
            onset = int(rng.integers(0, n_steps)) if ramp_here else -1
            ramp_site = int(rng.integers(0, n_sites)) if ramp_here else -1
            ramp_sign = 1.0 if rng.random() < 0.5 else -1.0
            level = mu.copy()
            for t in range(n_steps):
                if t > 0:
                    noise = params.volatility * caps * rng.standard_normal(n_sites)
                    level = level + params.mean_reversion * (mu - level) + noise
                if ramp_here and onset <= t < onset + _RAMP_STEPS:
                    level[ramp_site] += ramp_sign * params.ramp_depth * caps[ramp_site] / _RAMP_STEPS
                level = np.clip(level, 0.0, caps)
                ren[t] = level
        else:
            ren = np.zeros((n_steps, n_sites))
            ramp_here = False
        load = base_load[None, :] * (
            1.0 + params.load_noise * rng.standard_normal((n_steps, network.n_buses))
        )
        np.clip(load, 0.0, None, out=load)
        scenarios.append(
            Scenario(dt_hours=dt_hours, renewable=ren, load=load, label=f"s{k:05d}")
        )
        ramp_events.append(ramp_here)

    return ScenarioSet(
        scenarios=scenarios,
        provenance={
            "kind": "synthetic",
            "params": asdict(params),
            "dt_hours": dt_hours,
            "n_steps": n_steps,
            "ramp_events": ramp_events,
        },
    )


def compute_penetration(scenario: Scenario) -> float:
    """Fraction of load energy served by renewables over the horizon."""
    load_mwh = float(scenario.load.sum()) * scenario.dt_hours
    if load_mwh <= 0:
        raise ZeroLoad("total load energy is zero")
    return float(scenario.renewable.sum()) * scenario.dt_hours / load_mwh


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------
#
# Format: optional '#' comment lines, then a header row
#   scenario,step,kind,target_id,value_mw
# with kind in {renewable, load, interchange}.  target_id is a renewable
# site index for kind=renewable and a bus id otherwise.  Entries absent for
# a (step, target) pair are zero; a step with no other entry gets one zero
# load row at bus 0.  A whole set round-trips bit-exactly.


def write_scenarios_csv(sset: ScenarioSet, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# gridstore scenarios schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(SCENARIO_CSV_HEADER)
        for scen in sset:
            for t in range(scen.n_steps):
                rows = [("renewable", s, v) for s, v in enumerate(scen.renewable[t])]
                rows += [("load", b, v) for b, v in enumerate(scen.load[t]) if v != 0.0]
                rows += [("interchange", b, v) for b, v in enumerate(scen.interchange[t]) if v != 0.0]
                # a step with no entry still gets a row, or it would be read back short
                for kind, target, value in rows or [("load", 0, 0.0)]:
                    writer.writerow([scen.label, t, kind, target, repr(float(value))])


def load_scenarios_csv(paths, network: Network, dt_hours: float) -> ScenarioSet:
    """Read one or more scenario CSV files against a network's universe."""
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    n_sites = len(network.renewables)
    n_buses = network.n_buses
    entries: dict[str, dict[tuple[str, int, int], float]] = {}
    order: list[str] = []

    for path in paths:
        with open(path, newline="") as fh:
            lineno = 0
            header_seen = False
            for raw in csv.reader(fh):
                lineno += 1
                if not raw or raw[0].startswith("#"):
                    continue
                if not header_seen:
                    if [c.strip() for c in raw] != SCENARIO_CSV_HEADER:
                        raise ParseError(
                            f"expected header {','.join(SCENARIO_CSV_HEADER)}", path, lineno
                        )
                    header_seen = True
                    continue
                if len(raw) != 5:
                    raise ParseError(f"expected 5 columns, got {len(raw)}", path, lineno)
                label, step_s, kind, target_s, value_s = raw
                if kind not in _KINDS:
                    raise ParseError(f"unknown kind {kind!r}", path, lineno)
                try:
                    step = int(step_s)
                    target = int(target_s)
                    value = float(value_s)
                except ValueError as exc:
                    raise ParseError(f"bad numeric field: {exc}", path, lineno) from None
                if not math.isfinite(value):
                    raise ParseError(f"{kind} value must be finite, got {value_s}", path, lineno)
                if step < 0:
                    raise ParseError(f"negative step {step}", path, lineno)
                if kind == "renewable":
                    if not 0 <= target < n_sites:
                        raise UnknownBusId(
                            f"renewable site {target} not in network (has {n_sites})", path, lineno
                        )
                elif not 0 <= target < n_buses:
                    raise UnknownBusId(
                        f"bus {target} not in network (has {n_buses})", path, lineno
                    )
                if kind != "interchange" and value < 0:
                    raise ParseError(f"{kind} value must be >= 0, got {value}", path, lineno)
                if label not in entries:
                    entries[label] = {}
                    order.append(label)
                key = (kind, target, step)
                if key in entries[label]:
                    raise ParseError(
                        f"duplicate entry for scenario {label!r} {kind} {target} step {step}",
                        path,
                        lineno,
                    )
                entries[label][key] = value

    if not entries:
        raise ParseError("no scenario rows found", paths[0] if paths else "<none>")

    n_steps = None
    scenarios = []
    for label in order:
        rows = entries[label]
        steps_here = 1 + max(step for (_, _, step) in rows)
        if n_steps is None:
            n_steps = steps_here
        elif steps_here != n_steps:
            raise RaggedSeries(
                f"scenario {label!r} has {steps_here} steps, expected {n_steps}"
            )
        ren = np.zeros((n_steps, n_sites))
        load = np.zeros((n_steps, n_buses))
        inter = np.zeros((n_steps, n_buses))
        for (kind, target, step), value in rows.items():
            if kind == "renewable":
                ren[step, target] = value
            elif kind == "load":
                load[step, target] = value
            else:
                inter[step, target] = value
        scenarios.append(
            Scenario(dt_hours=dt_hours, renewable=ren, load=load, interchange=inter, label=label)
        )
    return ScenarioSet(
        scenarios=scenarios,
        provenance={"kind": "csv", "paths": [str(p) for p in paths]},
    )

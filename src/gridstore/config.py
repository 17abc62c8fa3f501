"""Run configuration: JSON file, environment overrides, CLI overrides.

Precedence, lowest to highest: config file, GRIDSTORE_* environment
variables, command-line flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .dispatch import DispatchConfig
from .errors import ParseError, ValidationError
from .placement import PerfWeights
from .scenarios import SyntheticParams

ENV_PREFIX = "GRIDSTORE_"
SOLVERS = ("highs", "highs-ipm", "simplex")


@dataclass(eq=False)
class RunConfig:
    network_path: Path
    scenario_spec: dict
    dispatch: DispatchConfig
    weights: PerfWeights
    epsilon: float | None  # absolute; None -> epsilon_rel * initial perf
    epsilon_rel: float
    epsilon_prime: float
    baseline: bool
    sweep_levels: list[float]
    solver: str
    jobs: int
    out_dir: Path
    seed: int
    raw: dict = field(default_factory=dict)  # resolved echo for reports

    def synthetic_params(self) -> tuple[SyntheticParams, float, int]:
        """(params, dt_hours, n_steps) for a synthetic scenario spec."""
        spec = self.scenario_spec
        params = SyntheticParams(
            n_scenarios=int(spec.get("n_scenarios", 100)),
            penetration_target=float(spec.get("penetration_target", 0.2)),
            seed=self.seed,
            mean_reversion=float(spec.get("mean_reversion", 0.2)),
            volatility=float(spec.get("volatility", 0.05)),
            ramp_event_prob=float(spec.get("ramp_event_prob", 0.3)),
            ramp_depth=float(spec.get("ramp_depth", 0.5)),
            load_noise=float(spec.get("load_noise", 0.01)),
        )
        dt = float(spec.get("dt_hours", 1.0 / 12.0))
        n_steps = int(spec.get("n_steps", 24))
        return params, dt, n_steps


def _env_overrides() -> dict:
    out = {}
    mapping = {
        "SEED": ("seed", int),
        "JOBS": ("jobs", int),
        "OUT": ("out_dir", str),
        "SOLVER": ("solver", str),
    }
    for suffix, (key, cast) in mapping.items():
        value = os.environ.get(ENV_PREFIX + suffix)
        if value is not None:
            try:
                out[key] = cast(value)
            except ValueError:
                raise ValidationError(f"bad {ENV_PREFIX}{suffix} value {value!r}") from None
    return out


def _flag(value, name: str, path) -> bool:
    """``value`` if it is a JSON boolean; ``bool("false")`` would be True."""
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: {name} must be true or false, got {value!r}")
    return value


def _integer(value, name: str, path) -> int:
    """``value`` if it is a JSON integer, not a float that ``int`` would truncate."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: {name} must be an integer, got {value!r}")
    return value


def load_run_config(path, cli_overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path, exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object", path)

    merged: dict = dict(doc)
    for key, value in _env_overrides().items():
        merged[key] = value
    for key, value in (cli_overrides or {}).items():
        if value is not None:
            merged[key] = value

    if "network" not in merged:
        raise ValidationError(f"{path}: config is missing 'network'")
    network_path = Path(merged["network"])
    if not network_path.is_absolute():
        network_path = path.parent / network_path
    if not network_path.exists():
        raise ValidationError(f"{path}: network file {network_path} does not exist")

    spec = merged.get("scenarios", {"type": "synthetic"})
    kind = spec.get("type", "synthetic")
    if kind not in ("synthetic", "csv"):
        raise ValidationError(f"{path}: unknown scenario source type {kind!r}")
    if kind == "csv":
        paths = [Path(p) if Path(p).is_absolute() else path.parent / p for p in spec.get("paths", [])]
        if not paths:
            raise ValidationError(f"{path}: csv scenario source needs 'paths'")
        for p in paths:
            if not p.exists():
                raise ValidationError(f"{path}: scenario file {p} does not exist")
        spec = dict(spec, paths=paths)
        if "dt_hours" not in spec:
            raise ValidationError(f"{path}: csv scenario source needs 'dt_hours'")
    else:
        if _integer(spec.get("n_scenarios", 100), "n_scenarios", path) < 1:
            raise ValidationError(f"{path}: n_scenarios must be >= 1")

    disp = merged.get("dispatch", {})
    dispatch = DispatchConfig(
        storage_energy_cost=float(disp.get("storage_energy_cost", 200.0)),
        storage_power_cost=float(disp.get("storage_power_cost", 20.0)),
        allow_curtailment=_flag(disp.get("allow_curtailment", False), "allow_curtailment", path),
        initial_soc_free=_flag(disp.get("initial_soc_free", True), "initial_soc_free", path),
    )

    place = merged.get("placement", {})
    weights = PerfWeights(
        energy_weight=float(place.get("energy_weight", 1.0)),
        site_cost=float(place.get("site_cost", 0.02)),
    )
    epsilon = place.get("epsilon")
    epsilon = None if epsilon is None else float(epsilon)
    epsilon_rel = float(place.get("epsilon_rel", 0.01))
    epsilon_prime = float(place.get("epsilon_prime", 0.05))
    if epsilon is not None and epsilon <= 0:
        raise ValidationError(f"{path}: epsilon must be positive")
    if not 0 < epsilon_rel <= 1 or epsilon_prime <= 0:
        raise ValidationError(f"{path}: bad epsilon_rel or epsilon_prime")

    levels = [float(v) for v in merged.get("sweep", {}).get("levels", [])]
    if levels:
        if sorted(levels) != levels:
            raise ValidationError(f"{path}: sweep levels must be sorted ascending")
        if any(not 0.0 < v < 1.0 for v in levels):
            raise ValidationError(f"{path}: sweep levels must lie strictly inside (0, 1)")

    solver = merged.get("solver", "highs")
    if solver not in SOLVERS:
        raise ValidationError(f"{path}: solver must be one of {SOLVERS}")
    jobs = _integer(merged.get("jobs", 1), "jobs", path)
    if jobs < 1:
        raise ValidationError(f"{path}: jobs must be >= 1")

    out_dir = Path(merged.get("out_dir", "gridstore-out"))
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir
    seed = _integer(merged.get("seed", spec.get("seed", 0)), "seed", path)

    echo = {
        k: v
        for k, v in merged.items()
        if k in ("scenarios", "dispatch", "placement", "sweep", "solver", "jobs", "seed")
    }
    echo["network"] = str(network_path)
    echo["scenarios"] = {
        k: (str(v) if isinstance(v, Path) else [str(p) for p in v] if k == "paths" else v)
        for k, v in spec.items()
    }
    echo["seed"] = seed

    return RunConfig(
        network_path=network_path,
        scenario_spec=spec,
        dispatch=dispatch,
        weights=weights,
        epsilon=epsilon,
        epsilon_rel=epsilon_rel,
        epsilon_prime=epsilon_prime,
        baseline=_flag(place.get("baseline", True), "baseline", path),
        sweep_levels=levels,
        solver=solver,
        jobs=jobs,
        out_dir=out_dir,
        seed=seed,
        raw=echo,
    )

"""Run configuration: JSON file, environment overrides, CLI overrides.

Precedence, lowest to highest: config file, GRIDSTORE_* environment
variables, command-line flags.

Every field is read once, here, through :func:`fileio.json_value`: a value
of the wrong JSON type is a ValidationError naming the file and the field,
raised before anything is solved.  The ``dispatch`` and ``placement``
sections and a synthetic ``scenarios`` section fill DispatchConfig,
PerfWeights and SyntheticParams field by field, so a field the file leaves
out keeps its dataclass default, which is stated nowhere else, and a value
out of a dataclass's range is reported with the file and the field too.  A
key the loader does not read, such as a misspelled field, is a
ValidationError naming it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dispatch import DispatchConfig
from .errors import ValidationError
from .fileio import json_value, read_json
from .lp import BACKENDS
from .matpower import DEFAULT_DT_HOURS
from .placement import PerfWeights
from .scenarios import SyntheticParams

ENV_PREFIX = "GRIDSTORE_"

TOP_LEVEL_KEYS = (
    "network", "scenarios", "dispatch", "placement", "sweep", "solver", "jobs", "seed", "out_dir"
)
# read from a scenarios section of either type; a csv one adds "paths", a
# synthetic one the SyntheticParams fields
SCENARIO_KEYS = ("type", "seed", "dt_hours", "n_steps")


@dataclass(eq=False)
class RunConfig:
    network_path: Path
    synthetic: SyntheticParams | None  # None when the scenarios come from csv_paths
    csv_paths: list[Path]
    dt_hours: float
    n_steps: int  # of a synthetic set; a CSV set's length comes from its files
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


def _check_keys(section: dict, known, name: str, path) -> None:
    """Reject every key of ``section`` (named ``name``, "" at the top level) not in ``known``."""
    unknown = [f"{name}.{k}" if name else k for k in section if k not in known]
    if unknown:
        raise ValidationError(f"{path}: unknown config key {', '.join(unknown)}")


def _from_json(cls, section: dict, name: str, path, extra=(), **fixed):
    """``cls(**fixed)`` with every other field that ``section`` states read from it.

    ``section`` may hold only those fields and the ``extra`` keys its caller
    reads.  Each dataclass range message starts with the field's name, so a
    rejected value is reported as ``<path>: <name>.<field> ...``.
    """
    settable = [f for f in fields(cls) if f.name not in fixed]
    _check_keys(section, [f.name for f in settable] + list(extra), name, path)
    stated = {
        f.name: json_value(section[f.name], f.type, f"{name}.{f.name}", path)
        for f in settable
        if f.name in section
    }
    try:
        return cls(**fixed, **stated)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {name}.{exc}") from None


def load_run_config(path, cli_overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    merged = read_json(path)
    _check_keys(merged, TOP_LEVEL_KEYS, "", path)
    merged.update(_env_overrides())
    merged.update({k: v for k, v in (cli_overrides or {}).items() if v is not None})

    if "network" not in merged:
        raise ValidationError(f"{path}: config is missing 'network'")
    # an absolute path on the right of / replaces the config's directory
    network_path = path.parent / json_value(merged["network"], "str", "network", path)
    if not network_path.exists():
        raise ValidationError(f"{path}: network file {network_path} does not exist")

    spec = json_value(merged.get("scenarios", {"type": "synthetic"}), "dict", "scenarios", path)
    kind = json_value(spec.get("type", "synthetic"), "str", "scenarios.type", path)
    if kind not in ("synthetic", "csv"):
        raise ValidationError(f"{path}: unknown scenario source type {kind!r}")
    seed = json_value(merged.get("seed", spec.get("seed", 0)), "int", "seed", path)
    synthetic, csv_paths = None, []
    if kind == "csv":
        _check_keys(spec, SCENARIO_KEYS + ("paths",), "scenarios", path)
        paths = json_value(spec.get("paths", []), "list[str]", "scenarios.paths", path)
        csv_paths = [path.parent / p for p in paths]
        if not csv_paths:
            raise ValidationError(f"{path}: csv scenario source needs 'paths'")
        for p in csv_paths:
            if not p.exists():
                raise ValidationError(f"{path}: scenario file {p} does not exist")
        if "dt_hours" not in spec:
            raise ValidationError(f"{path}: csv scenario source needs 'dt_hours'")
    else:
        synthetic = _from_json(SyntheticParams, spec, "scenarios", path, SCENARIO_KEYS, seed=seed)
    dt_hours = json_value(spec.get("dt_hours", DEFAULT_DT_HOURS), "float", "scenarios.dt_hours", path)
    n_steps = json_value(spec.get("n_steps", 24), "int", "scenarios.n_steps", path)

    disp = json_value(merged.get("dispatch", {}), "dict", "dispatch", path)
    # placement varies storage_nodes; every other field is the user's to set
    if "storage_nodes" in disp:
        raise ValidationError(
            f"{path}: dispatch.storage_nodes cannot be set; placement chooses the storage nodes"
        )
    dispatch = _from_json(DispatchConfig, disp, "dispatch", path, storage_nodes=frozenset())

    place = json_value(merged.get("placement", {}), "dict", "placement", path)
    weights = _from_json(
        PerfWeights, place, "placement", path, ("epsilon", "epsilon_rel", "epsilon_prime", "baseline")
    )
    epsilon = place.get("epsilon")
    if epsilon is not None:
        epsilon = json_value(epsilon, "float", "placement.epsilon", path)
        if epsilon <= 0:
            raise ValidationError(f"{path}: placement.epsilon must be positive, got {epsilon}")
    epsilon_rel = json_value(place.get("epsilon_rel", 0.01), "float", "placement.epsilon_rel", path)
    epsilon_prime = json_value(
        place.get("epsilon_prime", 0.05), "float", "placement.epsilon_prime", path
    )
    if not 0 < epsilon_rel <= 1:
        raise ValidationError(f"{path}: placement.epsilon_rel must be in (0, 1], got {epsilon_rel}")
    if epsilon_prime <= 0:
        raise ValidationError(f"{path}: placement.epsilon_prime must be positive, got {epsilon_prime}")

    sweep = json_value(merged.get("sweep", {}), "dict", "sweep", path)
    _check_keys(sweep, ("levels",), "sweep", path)
    levels = json_value(sweep.get("levels", []), "list[float]", "sweep.levels", path)
    if sorted(levels) != levels:
        raise ValidationError(f"{path}: sweep levels must be sorted ascending")
    if any(not 0.0 < v < 1.0 for v in levels):
        raise ValidationError(f"{path}: sweep levels must lie strictly inside (0, 1)")

    solver = json_value(merged.get("solver", "highs"), "str", "solver", path)
    if solver not in BACKENDS:
        raise ValidationError(f"{path}: solver must be one of {sorted(BACKENDS)}")
    jobs = json_value(merged.get("jobs", 1), "int", "jobs", path)
    if jobs < 1:
        raise ValidationError(f"{path}: jobs must be >= 1")
    out_dir = json_value(merged.get("out_dir", "gridstore-out"), "str", "out_dir", path)

    echo = {
        k: v
        for k, v in merged.items()
        if k in ("scenarios", "dispatch", "placement", "sweep", "solver", "jobs", "seed")
    }
    echo["network"] = str(network_path)
    echo["scenarios"] = dict(spec, paths=[str(p) for p in csv_paths]) if csv_paths else dict(spec)
    echo["seed"] = seed

    return RunConfig(
        network_path=network_path,
        synthetic=synthetic,
        csv_paths=csv_paths,
        dt_hours=dt_hours,
        n_steps=n_steps,
        dispatch=dispatch,
        weights=weights,
        epsilon=epsilon,
        epsilon_rel=epsilon_rel,
        epsilon_prime=epsilon_prime,
        baseline=json_value(place.get("baseline", True), "bool", "placement.baseline", path),
        sweep_levels=levels,
        solver=solver,
        jobs=jobs,
        out_dir=path.parent / out_dir,
        seed=seed,
        raw=echo,
    )

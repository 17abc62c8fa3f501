import dataclasses
import json
import re
from pathlib import Path

import pytest

from gridstore.cli import main
from gridstore.config import load_run_config
from gridstore.dispatch import DispatchConfig
from gridstore.errors import ValidationError
from gridstore.placement import PerfWeights
from gridstore.scenarios import SyntheticParams

CASES = Path(__file__).resolve().parent.parent / "cases"


def other_value(default):
    """A value unlike ``default`` that a JSON config can state and every field accepts."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float) and default:
        return default / 2  # a halved default stays inside every [0, 1] range
    raise TypeError(f"a run config cannot state a value for a field defaulting to {default!r}")


# each dataclass a run config fills: its section, and the RunConfig field holding it
SECTIONS = {
    DispatchConfig: ("dispatch", "dispatch"),
    PerfWeights: ("placement", "weights"),
    SyntheticParams: ("scenarios", "synthetic"),
}


@pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda cls: cls.__name__)
def test_run_config_sets_every_dataclass_field(tmp_path, cls):
    # placement varies storage_nodes and the run's seed draws the scenarios;
    # every other field is the user's to set, and defaults to its dataclass default
    section, attr = SECTIONS[cls]
    chosen = {
        f.name: other_value(f.default)
        for f in dataclasses.fields(cls)
        if f.name not in ("storage_nodes", "seed")
    }
    assert getattr(load_run_config(write_config(tmp_path)), attr) == cls()
    parsed = getattr(load_run_config(write_config(tmp_path, **{section: chosen})), attr)
    assert {name: getattr(parsed, name) for name in chosen} == chosen


def write_config(tmp_path, **fields):
    doc = {"network": str(CASES / "quickstart3.json")}
    doc.update(fields)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


BAD_FIELDS = {
    # bool("false") is True, so a string flag used to load as True
    "allow_curtailment": {"dispatch": {"allow_curtailment": "false"}},
    "initial_soc_free": {"dispatch": {"initial_soc_free": "false"}},
    "baseline": {"placement": {"baseline": "no"}},
    # int(2.7) is 2, so a fractional count used to load truncated
    "jobs": {"jobs": 2.7},
    "seed": {"seed": 1.5},
    "n_scenarios": {"scenarios": {"type": "synthetic", "n_scenarios": 30.5}},
    "n_steps": {"scenarios": {"n_steps": 12.7}},
    # float("x") used to raise a raw ValueError, and float(True) is 1.0
    "volatility": {"scenarios": {"volatility": "x"}},
    "dt_hours": {"scenarios": {"dt_hours": "x"}},
    "epsilon_rel": {"placement": {"epsilon_rel": "x"}},
    "site_cost": {"placement": {"site_cost": True}},
    # a section that is no object used to end in a raw AttributeError
    "scenarios": {"scenarios": [1]},
}


@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
def test_run_config_rejects_a_field_of_the_wrong_type(tmp_path, name):
    path = write_config(tmp_path, **BAD_FIELDS[name])
    with pytest.raises(ValidationError, match=name):
        load_run_config(path)


def test_run_config_keeps_json_booleans_and_integers(tmp_path):
    path = write_config(
        tmp_path,
        dispatch={"allow_curtailment": True, "initial_soc_free": False},
        placement={"baseline": False},
        scenarios={"type": "synthetic", "n_scenarios": 7},
        jobs=3,
        seed=11,
    )
    cfg = load_run_config(path)
    assert cfg.dispatch.allow_curtailment is True and cfg.dispatch.initial_soc_free is False
    assert cfg.baseline is False
    assert (cfg.jobs, cfg.seed, cfg.synthetic.n_scenarios) == (3, 11, 7)


def test_non_numeric_jobs_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, jobs="two")
    assert main(["validate", "--config", str(path)]) == 2
    assert "jobs" in capsys.readouterr().err


UNKNOWN_KEYS = {
    "slover": {"slover": "highs"},
    "scenarios.volatilty": {"scenarios": {"volatilty": 0.1}},
    # a csv source reads no synthetic parameter
    "scenarios.n_scenarios": {
        "scenarios": {"type": "csv", "paths": ["s.csv"], "dt_hours": 1.0, "n_scenarios": 5}
    },
    "dispatch.alow_curtailment": {"dispatch": {"alow_curtailment": True}},
    "placement.site_cots": {"placement": {"site_cots": 5.0}},
    "sweep.level": {"sweep": {"level": [0.1]}},
}


@pytest.mark.parametrize("key", sorted(UNKNOWN_KEYS))
def test_run_config_rejects_an_unknown_key(tmp_path, key):
    path = write_config(tmp_path, **UNKNOWN_KEYS[key])
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: unknown config key {key}$"):
        load_run_config(path)


def test_validate_names_a_misspelled_key(tmp_path, capsys):
    path = write_config(tmp_path, dispatch={"alow_curtailment": True}, placment={"site_cost": 5.0})
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "placment" in err


def test_run_config_rejects_storage_nodes(tmp_path):
    path = write_config(tmp_path, dispatch={"storage_nodes": [0, 1]})
    with pytest.raises(ValidationError, match="dispatch.storage_nodes .*placement chooses"):
        load_run_config(path)


OUT_OF_RANGE = {
    "scenarios.volatility": {"scenarios": {"volatility": 2.0}},
    "scenarios.n_scenarios": {"scenarios": {"n_scenarios": 0}},
    "dispatch.storage_power_cost": {"dispatch": {"storage_power_cost": -1.0}},
    "placement.energy_weight": {"placement": {"energy_weight": -0.5}},
    "placement.epsilon": {"placement": {"epsilon": 0.0}},
    "placement.epsilon_rel": {"placement": {"epsilon_rel": 1.5}},
    "placement.epsilon_prime": {"placement": {"epsilon_prime": -1.0}},
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_run_config_names_the_file_and_field_out_of_range(tmp_path, name):
    path = write_config(tmp_path, **OUT_OF_RANGE[name])
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {name} must be"):
        load_run_config(path)

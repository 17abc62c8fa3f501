import dataclasses
import json
from pathlib import Path

from gridstore.config import load_run_config
from gridstore.dispatch import DispatchConfig

CASES = Path(__file__).resolve().parent.parent / "cases"


def other_value(default):
    """A value unlike ``default`` that a JSON config can state."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, float):
        return 2.0 * default + 1.0
    raise TypeError(f"a run config cannot state a value for a field defaulting to {default!r}")


def test_run_config_sets_every_dispatch_field(tmp_path):
    # storage_nodes is what placement varies; every other field is the user's to set
    chosen = {
        f.name: other_value(f.default)
        for f in dataclasses.fields(DispatchConfig)
        if f.name != "storage_nodes"
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"network": str(CASES / "quickstart3.json"), "dispatch": chosen}))
    dispatch = load_run_config(path).dispatch
    assert {name: getattr(dispatch, name) for name in chosen} == chosen

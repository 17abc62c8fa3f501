import json
from pathlib import Path

import pytest

from gridstore.cli import main
from gridstore.fileio import load_network_document
from gridstore.reporting import read_table
from gridstore.scenarios import load_scenarios_csv

CASES = Path(__file__).resolve().parent.parent / "cases"

NETWORK = {
    "schema_version": 1,
    "base_mva": 100.0,
    "buses": [
        {"id": 0, "name": "wind"},
        {"id": 1, "name": "city"},
        {"id": 2, "name": "plant", "slack": True},
    ],
    "lines": [
        {"from": 0, "to": 1, "reactance": 0.1, "flow_limit": 4.0},
        {"from": 1, "to": 2, "reactance": 0.1, "flow_limit": 7.0},
    ],
    "generators": [{"bus": 2, "cost": 5.0, "p_max": 25.0, "ramp_limit": 0.4}],
    "renewables": [{"bus": 0, "p_max": 6.0}],
    "base_load_mw": [{"bus": 1, "mw": 6.0}],
}


def setup_run(tmp_path, **config_extra):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(NETWORK))
    config = {
        "network": "net.json",
        "scenarios": {
            "type": "synthetic",
            "n_scenarios": 6,
            "penetration_target": 0.3,
            "dt_hours": 1.0 / 12.0,
            "n_steps": 6,
        },
        "placement": {"site_cost": 0.02},
        "solver": "highs",
        "jobs": 1,
        "seed": 3,
        "out_dir": "out",
    }
    config.update(config_extra)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def test_validate_ok(tmp_path, capsys):
    cfg = setup_run(tmp_path)
    assert main(["validate", "--config", str(cfg), "--network", str(tmp_path / "net.json")]) == 0
    out = capsys.readouterr().out
    assert "network ok" in out and "config ok" in out


def test_validate_missing_network_exits_2(tmp_path):
    cfg = setup_run(tmp_path)
    (tmp_path / "net.json").unlink()
    assert main(["validate", "--config", str(cfg)]) == 2


def test_validate_invalid_network_exits_2(tmp_path):
    bad = dict(NETWORK, lines=[])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "--network", str(path)]) == 2


def test_place_writes_report(tmp_path, capsys):
    cfg = setup_run(tmp_path)
    assert main(["place", "--config", str(cfg)]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "report.json").exists()
    header, rows = read_table(out_dir / "iterations.csv")
    assert len(rows) >= 1
    assert int(rows[0]["set_size"]) == 3


def test_place_deterministic_reruns(tmp_path):
    cfg = setup_run(tmp_path)
    assert main(["place", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert main(["place", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    for name in ("iterations.csv", "placement.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_zero_scenarios_rejected_before_solving(tmp_path):
    cfg = setup_run(tmp_path, scenarios={"type": "synthetic", "n_scenarios": 0})
    assert main(["place", "--config", str(cfg)]) == 2


def test_validate_rejects_an_out_of_range_scenario_field(tmp_path, capsys):
    # place rejects this before solving, so validate must too
    cfg = setup_run(tmp_path, scenarios={"type": "synthetic", "volatility": 2.0})
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "volatility" in capsys.readouterr().err


def test_infeasible_run_exits_3(tmp_path):
    # generation capacity below load: no dispatch can balance energy
    starved = dict(NETWORK, generators=[{"bus": 2, "cost": 5.0, "p_max": 4.0, "ramp_limit": None}])
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(starved))
    cfg = setup_run(tmp_path, scenarios={
        "type": "synthetic", "n_scenarios": 3, "penetration_target": 0.0,
        "dt_hours": 1.0 / 12.0, "n_steps": 4,
    })
    net_path.write_text(json.dumps(starved))
    assert main(["place", "--config", str(cfg)]) == 3
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["exit_code"] == 3


def test_sweep_monotone_quickstart(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(CASES / "quickstart_place.json"),
        "--out", str(out), "--levels", "0.2,0.4",
    ])
    assert code == 0
    header, rows = read_table(out / "sweep.csv")
    assert len(rows) == 2
    assert float(rows[0]["energy_metric"]) <= float(rows[1]["energy_metric"])


def test_sweep_level_zero_rejected(tmp_path):
    cfg = setup_run(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--levels", "0.0,0.2"]) == 2


def test_sweep_unsorted_levels_rejected(tmp_path):
    cfg = setup_run(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--levels", "0.3,0.2"]) == 2


def test_dispatch_debug_prints_summary(tmp_path, capsys):
    cfg = setup_run(tmp_path)
    assert main(["dispatch", "--config", str(cfg), "--scenario", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "s00001"
    assert doc["residuals"]["power_balance"] <= 1e-6


@pytest.mark.parametrize("backend", ["simplex", "highs", "highs-ipm"])
def test_dispatch_of_a_nan_load_exits_2(tmp_path, capsys, backend):
    rows = ["scenario,step,kind,target_id,value_mw"]
    rows += [f"{label},{step},load,1,6.0" for label in ("a", "b") for step in range(3)]
    rows[5] = "b,1,load,1,nan"  # line 6 of the file
    (tmp_path / "scens.csv").write_text("\n".join(rows) + "\n")
    scenarios = {"type": "csv", "paths": ["scens.csv"], "dt_hours": 1.0 / 12.0}
    cfg = setup_run(tmp_path, scenarios=scenarios, solver=backend)
    assert main(["dispatch", "--config", str(cfg), "--scenario", "1"]) == 2
    assert "scens.csv:6: load value must be finite" in capsys.readouterr().err


def test_dispatch_bad_index_exits_2(tmp_path):
    cfg = setup_run(tmp_path)
    assert main(["dispatch", "--config", str(cfg), "--scenario", "99"]) == 2


def test_gen_scenarios_round_trip(tmp_path):
    cfg = setup_run(tmp_path)
    assert main(["gen-scenarios", "--config", str(cfg)]) == 0
    out = tmp_path / "out" / "scenarios.csv"
    network, _ = load_network_document(tmp_path / "net.json")
    sset = load_scenarios_csv(out, network, 1.0 / 12.0)
    assert len(sset) == 6


def test_relative_out_is_relative_to_the_working_directory(tmp_path, monkeypatch):
    # the config file's own out_dir stays relative to the file's folder
    case, work = tmp_path / "case", tmp_path / "work"
    case.mkdir()
    work.mkdir()
    cfg = setup_run(case)
    monkeypatch.chdir(work)
    assert main(["gen-scenarios", "--config", str(cfg), "--out", "runs/scen"]) == 0
    assert (work / "runs" / "scen" / "scenarios.csv").exists()
    monkeypatch.setenv("GRIDSTORE_OUT", "runs/env")
    assert main(["gen-scenarios", "--config", str(cfg)]) == 0
    assert (work / "runs" / "env" / "scenarios.csv").exists()
    monkeypatch.delenv("GRIDSTORE_OUT")
    assert main(["gen-scenarios", "--config", str(cfg)]) == 0
    assert (case / "out" / "scenarios.csv").exists()
    assert not (case / "runs").exists()


def test_place_from_csv_scenarios(tmp_path):
    cfg = setup_run(tmp_path)
    assert main(["gen-scenarios", "--config", str(cfg)]) == 0
    csv_cfg = setup_run(
        tmp_path,
        scenarios={
            "type": "csv",
            "paths": ["out/scenarios.csv"],
            "dt_hours": 1.0 / 12.0,
        },
    )
    out = tmp_path / "csv_run"
    assert main(["place", "--config", str(csv_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["scenarios"]["type"] == "csv"
    header, rows = read_table(out / "iterations.csv")
    assert int(rows[0]["set_size"]) == 3


def test_import_matpower_cli(tmp_path):
    out = tmp_path / "rts.json"
    code = main([
        "import-matpower", str(CASES / "rts96_3area.m"),
        "--out", str(out), "--renewable", "107:900", "--renewable", "215:900",
    ])
    assert code == 0
    net, base = load_network_document(out)
    assert net.n_buses == 73
    assert len(net.renewables) == 2
    assert base.sum() == pytest.approx(3 * 2850.0)


def test_import_matpower_bad_renewable_flag(tmp_path):
    assert main([
        "import-matpower", str(CASES / "rts96_3area.m"),
        "--out", str(tmp_path / "x.json"), "--renewable", "oops",
    ]) == 2


def test_env_override_seed(tmp_path, monkeypatch):
    cfg = setup_run(tmp_path)
    monkeypatch.setenv("GRIDSTORE_SEED", "99")
    assert main(["place", "--config", str(cfg), "--out", str(tmp_path / "env_run")]) == 0
    report = json.loads((tmp_path / "env_run" / "report.json").read_text())
    assert report["config"]["seed"] == 99
    # explicit flag beats the environment
    monkeypatch.setenv("GRIDSTORE_SEED", "77")
    assert main([
        "place", "--config", str(cfg), "--seed", "55", "--out", str(tmp_path / "flag_run")
    ]) == 0
    report = json.loads((tmp_path / "flag_run" / "report.json").read_text())
    assert report["config"]["seed"] == 55

import numpy as np
import pytest

from gridstore.errors import (
    ParseError,
    RaggedSeries,
    UnknownBusId,
    UnreachablePenetration,
    ZeroLoad,
)
from gridstore.network import Bus, Generator, Line, Network, RenewableSite
from gridstore.scenarios import (
    ScenarioSet,
    SyntheticParams,
    compute_penetration,
    generate_synthetic,
    load_scenarios_csv,
    write_scenarios_csv,
)
from gridstore.dispatch import Scenario

DT = 1.0 / 12.0


def small_net(n_sites=2):
    sites = [RenewableSite(bus=1, p_max=8.0), RenewableSite(bus=2, p_max=4.0)][:n_sites]
    return Network(
        buses=[Bus(0, is_slack=True), Bus(1), Bus(2)],
        lines=[Line(0, 1, 0.1), Line(1, 2, 0.1)],
        generators=[Generator(bus=0, cost=5.0, p_max=30.0)],
        renewables=sites,
    )


BASE_LOAD = np.array([2.0, 3.0, 1.0])


def test_zero_target_means_identically_zero_output():
    params = SyntheticParams(n_scenarios=5, penetration_target=0.0, seed=1)
    sset = generate_synthetic(small_net(), BASE_LOAD, params, DT, 8)
    for scen in sset:
        assert np.all(scen.renewable == 0.0)


def test_same_seed_bitwise_identical():
    params = SyntheticParams(n_scenarios=6, penetration_target=0.3, seed=42)
    a = generate_synthetic(small_net(), BASE_LOAD, params, DT, 10)
    b = generate_synthetic(small_net(), BASE_LOAD, params, DT, 10)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.renewable, sb.renewable)
        assert np.array_equal(sa.load, sb.load)
    assert a.provenance == b.provenance


def test_output_respects_nameplate_bounds():
    params = SyntheticParams(n_scenarios=30, penetration_target=0.5, seed=3, volatility=0.2)
    sset = generate_synthetic(small_net(), BASE_LOAD, params, DT, 12)
    caps = np.array([8.0, 4.0])
    for scen in sset:
        assert np.all(scen.renewable >= 0.0)
        assert np.all(scen.renewable <= caps[None, :] + 1e-12)


def test_sample_mean_penetration_near_target():
    params = SyntheticParams(n_scenarios=500, penetration_target=0.3, seed=7)
    sset = generate_synthetic(small_net(), BASE_LOAD, params, DT, 12)
    pens = [compute_penetration(s) for s in sset]
    assert 0.27 <= float(np.mean(pens)) <= 0.33


def test_ramp_event_frequency_matches_probability():
    params = SyntheticParams(n_scenarios=1000, penetration_target=0.3, seed=11)
    sset = generate_synthetic(small_net(), BASE_LOAD, params, DT, 10)
    freq = float(np.mean(sset.provenance["ramp_events"]))
    assert abs(freq - params.ramp_event_prob) <= 0.05


def test_unreachable_target_rejected():
    params = SyntheticParams(n_scenarios=2, penetration_target=0.9, seed=1)
    # total nameplate 12 MW cannot serve 90% of 60 MW load
    with pytest.raises(UnreachablePenetration):
        generate_synthetic(small_net(), BASE_LOAD * 10, params, DT, 4)


def test_target_without_sites_rejected():
    params = SyntheticParams(n_scenarios=1, penetration_target=0.2, seed=1)
    net = small_net(n_sites=0)
    with pytest.raises(UnreachablePenetration):
        generate_synthetic(net, BASE_LOAD, params, DT, 4)


def test_penetration_formula():
    scen = Scenario(
        dt_hours=0.5,
        renewable=np.full((4, 1), 10.0),  # 20 MWh
        load=np.full((4, 2), 25.0),  # 100 MWh
    )
    assert compute_penetration(scen) == pytest.approx(0.2)


def test_penetration_zero_renewables():
    scen = Scenario(dt_hours=1.0, renewable=np.zeros((3, 1)), load=np.ones((3, 1)))
    assert compute_penetration(scen) == 0.0


def test_penetration_zero_load_rejected():
    scen = Scenario(dt_hours=1.0, renewable=np.ones((3, 1)), load=np.zeros((3, 1)))
    with pytest.raises(ZeroLoad):
        compute_penetration(scen)


# -- CSV round trip -----------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    params = SyntheticParams(n_scenarios=4, penetration_target=0.25, seed=5)
    sset = generate_synthetic(small_net(), BASE_LOAD, params, DT, 6)
    path = tmp_path / "scens.csv"
    write_scenarios_csv(sset, path)
    loaded = load_scenarios_csv(path, small_net(), DT)
    assert len(loaded) == len(sset)
    for a, b in zip(sset, loaded):
        assert a.label == b.label
        assert np.array_equal(a.renewable, b.renewable)
        assert np.array_equal(a.load, b.load)
        assert np.array_equal(a.interchange, b.interchange)


def test_csv_round_trip_keeps_steps_without_entries(tmp_path):
    # no renewable site, and steps with zero load and interchange: nothing but
    # an explicit zero row says such a step, or a whole scenario, exists
    load = np.zeros((3, 3))
    load[0, 1] = 2.5
    inter = np.zeros((3, 3))
    inter[1, 2] = -1.0
    sset = ScenarioSet(
        [
            Scenario(DT, np.zeros((3, 0)), load, inter, label="last-step-empty"),
            Scenario(DT, np.zeros((3, 0)), np.zeros((3, 3)), label="all-steps-empty"),
        ]
    )
    path = tmp_path / "scens.csv"
    write_scenarios_csv(sset, path)
    loaded = load_scenarios_csv(path, small_net(n_sites=0), DT)
    assert [scen.label for scen in loaded] == ["last-step-empty", "all-steps-empty"]
    for a, b in zip(sset, loaded):
        assert np.array_equal(a.renewable, b.renewable)
        assert np.array_equal(a.load, b.load)
        assert np.array_equal(a.interchange, b.interchange)


def test_csv_single_scenario_24_rows(tmp_path):
    lines = ["scenario,step,kind,target_id,value_mw"]
    for t in range(24):
        lines.append(f"w1,{t},renewable,0,{1.0 + 0.1 * t}")
    path = tmp_path / "one.csv"
    path.write_text("\n".join(lines) + "\n")
    sset = load_scenarios_csv(path, small_net(n_sites=1), DT)
    assert len(sset) == 1
    assert sset.n_steps == 24
    assert sset.scenarios[0].renewable[3, 0] == pytest.approx(1.3)


def test_csv_unknown_bus_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scenario,step,kind,target_id,value_mw\nw,0,load,99,5.0\n")
    with pytest.raises(UnknownBusId):
        load_scenarios_csv(path, small_net(), DT)


def test_csv_ragged_scenarios_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "scenario,step,kind,target_id,value_mw\n"
        "a,0,load,0,1.0\na,1,load,0,1.0\n"
        "b,0,load,0,1.0\n"
    )
    with pytest.raises(RaggedSeries):
        load_scenarios_csv(path, small_net(), DT)


def test_csv_duplicate_entry_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "scenario,step,kind,target_id,value_mw\n"
        "a,0,load,0,1.0\na,0,load,0,2.0\n"
    )
    with pytest.raises(ParseError):
        load_scenarios_csv(path, small_net(), DT)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_rejected(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"scenario,step,kind,target_id,value_mw\na,0,load,0,1.0\na,1,interchange,0,{value}\n"
    )
    want = rf"bad\.csv:3: interchange value must be finite, got {value}"
    with pytest.raises(ParseError, match=want):
        load_scenarios_csv(path, small_net(), DT)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ParseError):
        load_scenarios_csv(path, small_net(), DT)


def test_scenario_set_rejects_mixed_steps():
    s1 = Scenario(dt_hours=1.0, renewable=np.zeros((2, 1)), load=np.zeros((2, 1)))
    s2 = Scenario(dt_hours=1.0, renewable=np.zeros((3, 1)), load=np.zeros((3, 1)))
    with pytest.raises(Exception):
        ScenarioSet(scenarios=[s1, s2])

from pathlib import Path

import pytest

from gridstore.errors import UnsupportedFeature, ValidationError
from gridstore.matpower import (
    add_renewable_sites,
    import_matpower_document,
)

CASES = Path(__file__).resolve().parent.parent / "cases"

MINI_CASE = """function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t20\t5\t0\t0\t1\t1.0\t0\t138\t1\t1.05\t0.95;
\t2\t1\t30\t8\t0\t0\t1\t1.0\t0\t138\t1\t1.05\t0.95;
];
mpc.gen = [
\t1\t25\t0\t20\t-10\t1.0\t100\t1\t60\t0\t0\t0\t0\t0\t0\t0\t12\t12\t12\t0\t0;
];
mpc.branch = [
\t1\t2\t0.01\t0.1\t0\t50\t50\t50\t0\t0\t1\t-360\t360;
];
mpc.gencost = [
\t2\t0\t0\t2\t14\t0;
];
"""


def write_case(tmp_path, text, name="case.m"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_two_bus_case(tmp_path):
    doc = import_matpower_document(write_case(tmp_path, MINI_CASE))
    net = doc.network
    assert net.n_buses == 2
    assert net.slack == 0 and net.buses[0].name == "1"
    assert len(net.lines) == 1
    assert net.lines[0].reactance == pytest.approx(0.1)
    assert net.lines[0].flow_limit == pytest.approx(50.0)
    assert net.generators[0].p_max == pytest.approx(60.0)
    assert net.generators[0].cost == pytest.approx(14.0)
    # RAMP_10 of 12 MW over a 5-minute step
    assert net.generators[0].ramp_limit == pytest.approx(6.0)
    assert doc.base_load.tolist() == [20.0, 30.0]


def test_rate_a_zero_means_unlimited(tmp_path):
    text = MINI_CASE.replace("\t0.1\t0\t50\t50\t50", "\t0.1\t0\t0\t0\t0")
    net = import_matpower_document(write_case(tmp_path, text)).network
    assert net.lines[0].flow_limit is None


def test_out_of_service_branch_and_gen_skipped(tmp_path):
    text = MINI_CASE.replace(
        "mpc.branch = [\n\t1\t2\t0.01\t0.1\t0\t50\t50\t50\t0\t0\t1\t-360\t360;",
        "mpc.branch = [\n\t1\t2\t0.01\t0.1\t0\t50\t50\t50\t0\t0\t1\t-360\t360;\n"
        "\t1\t2\t0.01\t0.2\t0\t50\t50\t50\t0\t0\t0\t-360\t360;",
    ).replace(
        "mpc.gen = [\n",
        "mpc.gen = [\n\t2\t0\t0\t0\t0\t1.0\t100\t0\t99\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;\n",
    )
    net = import_matpower_document(write_case(tmp_path, text)).network
    assert len(net.lines) == 1
    assert len(net.generators) == 1


def test_phase_shift_rejected(tmp_path):
    text = MINI_CASE.replace("\t0\t0\t1\t-360\t360", "\t0\t30\t1\t-360\t360")
    with pytest.raises(UnsupportedFeature):
        import_matpower_document(write_case(tmp_path, text))


def test_dcline_rejected(tmp_path):
    text = MINI_CASE + "\nmpc.dcline = [\n\t1\t2\t1\t10\t-10\t0\t0;\n];\n"
    with pytest.raises(UnsupportedFeature):
        import_matpower_document(write_case(tmp_path, text))


def test_tap_ratio_scales_reactance(tmp_path):
    text = MINI_CASE.replace("\t50\t0\t0\t1\t-360", "\t50\t0.9\t0\t1\t-360")
    net = import_matpower_document(write_case(tmp_path, text)).network
    assert net.lines[0].reactance == pytest.approx(0.1 * 0.9)


def test_default_ramp_when_column_zero(tmp_path):
    text = MINI_CASE.replace("\t12\t12\t12\t0\t0;", "\t0\t0\t0\t0\t0;")
    net = import_matpower_document(write_case(tmp_path, text), dt_hours=1.0 / 12.0).network
    # documented default: 20% of PMAX per 5-minute step
    assert net.generators[0].ramp_limit == pytest.approx(0.2 * 60.0)


def test_quadratic_cost_fallback(tmp_path):
    text = MINI_CASE.replace("\t2\t0\t0\t2\t14\t0;", "\t2\t0\t0\t3\t0.05\t0\t0;")
    net = import_matpower_document(write_case(tmp_path, text)).network
    assert net.generators[0].cost == pytest.approx(0.05 * 60.0)


def test_piecewise_cost_average_slope(tmp_path):
    text = MINI_CASE.replace("\t2\t0\t0\t2\t14\t0;", "\t1\t0\t0\t2\t0\t0\t60\t900;")
    net = import_matpower_document(write_case(tmp_path, text)).network
    assert net.generators[0].cost == pytest.approx(15.0)


def test_two_slack_buses_rejected(tmp_path):
    text = MINI_CASE.replace(
        "\t2\t1\t30\t8", "\t2\t3\t30\t8"
    )
    with pytest.raises(ValidationError):
        import_matpower_document(write_case(tmp_path, text))


def test_add_renewable_sites_by_bus_number(tmp_path):
    doc = import_matpower_document(write_case(tmp_path, MINI_CASE))
    doc = add_renewable_sites(doc, [(2, 40.0)])
    assert len(doc.network.renewables) == 1
    assert doc.network.renewables[0].bus == 1  # dense id of bus number 2
    with pytest.raises(ValidationError):
        add_renewable_sites(doc, [(99, 1.0)])


def test_three_area_case_counts():
    doc = import_matpower_document(CASES / "rts96_3area.m")
    net = doc.network
    assert net.n_buses == 73
    assert len(net.lines) == 120
    assert len(net.generators) == 99
    assert sum(1 for b in net.buses if b.is_slack) == 1
    assert net.buses[net.slack].name == "113"
    assert doc.base_load.sum() == pytest.approx(3 * 2850.0)
    caps = sum(g.p_max for g in net.generators)
    assert caps == pytest.approx(3 * 3405.0)

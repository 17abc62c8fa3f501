import pytest

from gridstore.errors import ParseError
from gridstore.reporting import Report, emit_report, load_report, read_table


def sample_report():
    return Report(
        config={"seed": 7, "solver": "highs"},
        iterations=[
            {"round": 0, "set_size": 3, "perf": 0.5, "energy_metric": 0.44,
             "power_metric": 0.3, "gamma": None, "dropped": 0},
            {"round": 1, "set_size": 1, "perf": 0.4, "energy_metric": 0.38,
             "power_metric": 0.25, "gamma": 1.0, "dropped": 0},
        ],
        final_placement=[{"bus": 0, "s_bar_mwh": 1.25, "ps_bar_mw": 2.5}],
        baseline={"nodes": [0], "energy_metric": 0.5, "power_metric": 0.4,
                  "perf": 0.52, "energy_ratio_vs_greedy": 1.3157894736842106,
                  "power_ratio_vs_greedy": 1.6, "capacities": []},
        histograms={"0": [{"bus": 0, "s_bar_mwh": 1.0, "ps_bar_mw": 2.0}]},
        sweep=[],
        timing={"total_seconds": 1.23},
    )


def test_emit_writes_all_tables(tmp_path):
    paths = emit_report(sample_report(), tmp_path)
    names = {p.name for p in paths}
    assert {"report.json", "iterations.csv", "placement.csv", "histogram_0.csv", "sweep.csv"} <= names
    for p in paths:
        if p.suffix == ".csv":
            first = p.read_text().splitlines()[0]
            assert "schema_version" in first


def test_emit_removes_histograms_of_rounds_not_in_the_report(tmp_path):
    report = sample_report()
    rows = report.histograms["0"]
    report.histograms = {str(k): rows for k in range(3)}
    emit_report(report, tmp_path)
    (tmp_path / "histogram_notes.csv").write_text("not a round's table\n")
    report.histograms = {str(k): rows for k in range(2)}
    emit_report(report, tmp_path)
    names = sorted(p.name for p in tmp_path.glob("histogram_*.csv"))
    assert names == ["histogram_0.csv", "histogram_1.csv", "histogram_notes.csv"]


def test_report_json_round_trip(tmp_path):
    report = sample_report()
    emit_report(report, tmp_path)
    loaded = load_report(tmp_path / "report.json")
    assert loaded == report
    assert loaded.table_equal(report)


def test_table_equal_ignores_timing(tmp_path):
    a = sample_report()
    b = sample_report()
    b.timing = {"total_seconds": 99.0}
    assert a.table_equal(b)
    assert a != b


def test_csv_round_trip_values(tmp_path):
    report = sample_report()
    emit_report(report, tmp_path)
    header, rows = read_table(tmp_path / "iterations.csv")
    assert header[0] == "round"
    assert len(rows) == 2
    assert float(rows[0]["perf"]) == 0.5
    assert rows[0]["gamma"] == ""  # None round-trips as empty
    assert float(rows[1]["gamma"]) == 1.0


def test_empty_report_headers_only(tmp_path):
    emit_report(Report(), tmp_path)
    header, rows = read_table(tmp_path / "iterations.csv")
    assert rows == []
    header, rows = read_table(tmp_path / "sweep.csv")
    assert rows == [] and header[0] == "penetration_target"


def test_reader_requires_schema_marker(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        read_table(path)

import json
import re
from pathlib import Path

import numpy as np
import pytest

from gridstore.errors import ParseError, ValidationError
from gridstore.fileio import (
    load_network_document,
    network_document,
    write_network_document,
)
from gridstore.network import Bus, Generator, Line, Network, RenewableSite

CASES = Path(__file__).resolve().parent.parent / "cases"

TWO_BUS = {
    "schema_version": 1,
    "base_mva": 100.0,
    "buses": [
        {"id": 0, "name": "a", "slack": True},
        {"id": 1, "name": "b"},
    ],
    "lines": [{"from": 0, "to": 1, "reactance": 0.2, "flow_limit": 10.0}],
    "generators": [{"bus": 0, "cost": 3.0, "p_max": 12.0, "ramp_limit": None}],
    "renewables": [{"bus": 1, "p_max": 5.0}],
    "base_load_mw": [{"bus": 1, "mw": 4.0}],
}


def write_doc(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_golden_two_bus(tmp_path):
    net = load_network_document(write_doc(tmp_path, TWO_BUS))[0]
    assert net.n_buses == 2
    assert len(net.lines) == 1
    assert net.lines[0].flow_limit == 10.0
    assert net.generators[0].ramp_limit == float("inf")


def test_base_load_extraction(tmp_path):
    _, base_load = load_network_document(write_doc(tmp_path, TWO_BUS))
    assert base_load.tolist() == [0.0, 4.0]


def test_duplicate_bus_id_rejected(tmp_path):
    doc = dict(TWO_BUS, buses=[{"id": 0, "slack": True}, {"id": 0}])
    with pytest.raises(ValidationError):
        load_network_document(write_doc(tmp_path, doc))


def test_negative_reactance_rejected(tmp_path):
    doc = dict(TWO_BUS, lines=[{"from": 0, "to": 1, "reactance": -0.2}])
    with pytest.raises(ValidationError):
        load_network_document(write_doc(tmp_path, doc))


def test_disconnected_rejected(tmp_path):
    doc = dict(TWO_BUS, lines=[])
    with pytest.raises(ValidationError):
        load_network_document(write_doc(tmp_path, doc))


BAD_VALUES = {
    # bool("false") is True, so a string flag used to make a second slack bus
    "buses[1].slack": {"buses": [{"id": 0, "slack": True}, {"id": 1, "slack": "false"}]},
    # int() used to truncate a fractional id and read true as bus 1
    "buses[1].id": {"buses": [{"id": 0, "slack": True}, {"id": 1.9}]},
    "lines[0].from": {"lines": [{"from": True, "to": 0, "reactance": 0.2}]},
    "lines[0].reactance": {"lines": [{"from": 0, "to": 1, "reactance": "0.2"}]},
    "base_load_mw[0].bus": {"base_load_mw": [{"bus": 1.5, "mw": 4.0}]},
    # Python's json reads NaN, which used to pass every range check
    "generators[0].cost": {"generators": [{"bus": 0, "cost": float("nan"), "p_max": 12.0}]},
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_field_of_the_wrong_type_rejected(tmp_path, name):
    doc = dict(TWO_BUS, **BAD_VALUES[name])
    with pytest.raises(ValidationError, match=re.escape(name)):
        load_network_document(write_doc(tmp_path, doc))


def test_missing_key_is_parse_error(tmp_path):
    doc = dict(TWO_BUS, lines=[{"from": 0, "reactance": 0.2}])
    with pytest.raises(ParseError):
        load_network_document(write_doc(tmp_path, doc))


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "buses": [,]\n}')
    with pytest.raises(ParseError) as err:
        load_network_document(path)
    assert err.value.line == 2


def test_round_trip(tmp_path):
    net = Network(
        buses=[Bus(0, "x", is_slack=True), Bus(1, "y")],
        lines=[Line(0, 1, 0.15, None)],
        generators=[Generator(0, 2.0, 9.0, 1.5)],
        renewables=[RenewableSite(1, 3.0)],
    )
    path = tmp_path / "rt.json"
    write_network_document(path, net, base_load=[1.0, 2.0], name="rt")
    loaded, base = load_network_document(path)
    assert loaded == net
    assert base.tolist() == [1.0, 2.0]


def test_document_serializes_infinite_ramp_as_null():
    net = Network(
        buses=[Bus(0, is_slack=True), Bus(1)],
        lines=[Line(0, 1, 0.1)],
        generators=[Generator(0, 1.0, 5.0)],
    )
    doc = network_document(net)
    assert doc["generators"][0]["ramp_limit"] is None
    json.dumps(doc)  # must be serializable


def test_quickstart_case_parses():
    net, base_load = load_network_document(CASES / "quickstart3.json")
    assert net.n_buses == 3
    assert base_load.sum() == pytest.approx(6.0)
    net.validate()

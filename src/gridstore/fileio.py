"""Native network file format (JSON with explicit units).

Schema (version 1): top-level object with ``base_mva``, ``buses``
(id/name/slack), ``lines`` (from/to/reactance per-unit/flow_limit MW or
null), ``generators`` (bus/cost $ per MWh/p_max MW/ramp_limit MW per step
or null), ``renewables`` (bus/p_max MW), and an optional ``base_load_mw``
table used by the synthetic scenario generator.  This format carries the
fields MATPOWER cases lack; the importer converts into it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError, ValidationError
from .network import Bus, Generator, Line, Network, RenewableSite, check_connected

SCHEMA_VERSION = 1
_REQUIRED = object()  # marks a key that has no default

# the Python types each kind of field accepts, and its name in messages
_JSON_KINDS = {
    "float": ((int, float), "a number"),
    "int": (int, "an integer"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "list": (list, "a list"),
    "dict": (dict, "an object"),
}


def read_json(path) -> dict:
    """Parse the JSON file at ``path``, whose top level must be an object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path, exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object", path)
    return doc


def json_value(value, kind: str, name: str, path):
    """``value`` if it is a JSON value of ``kind``: a key of ``_JSON_KINDS``,
    or ``list[k]`` for a list of values of kind ``k``.

    A float takes any finite number and returns a float, an int no fraction,
    and only a bool takes ``true``, which ``float()`` and ``int()`` read as 1.
    Python's ``json`` reads ``NaN`` and ``Infinity``, which RFC 8259 does not
    have; a float rejects both, and ``null`` is how a file says "unlimited".
    """
    if kind.startswith("list["):
        items = json_value(value, "list", name, path)
        return [json_value(v, kind[5:-1], f"{name}[{i}]", path) for i, v in enumerate(items)]
    types, wanted = _JSON_KINDS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ValidationError(f"{path}: {name} must be {wanted}, got {value!r}")
    if kind == "float" and not math.isfinite(value):
        raise ValidationError(f"{path}: {name} must be a finite number, got {value!r}")
    return float(value) if kind == "float" else value


def load_network_document(path) -> tuple[Network, np.ndarray]:
    """Parse a network file; returns (network, base load MW per bus)."""
    doc = read_json(path)
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}", path)

    def field(row: dict, where: str, key: str, kind: str, default=_REQUIRED):
        """``row[key]`` of ``kind``; ``default`` when an optional key is absent or null."""
        if default is not _REQUIRED and row.get(key) is None:
            return default
        if key not in row:
            raise ParseError(f"missing required key {key!r}", path)
        return json_value(row[key], kind, where + key, path)

    def rows(key: str, default=_REQUIRED) -> list[tuple[dict, str]]:
        """The objects listed under ``key``, each with the prefix naming it in messages."""
        items = field(doc, "", key, "list[dict]", default)
        return [(item, f"{key}[{i}].") for i, item in enumerate(items)]

    buses = tuple(
        Bus(
            id=field(b, at, "id", "int"),
            name=str(b.get("name", b["id"])),
            is_slack=field(b, at, "slack", "bool", Bus.is_slack),
        )
        for b, at in rows("buses")
    )
    lines = tuple(
        Line(
            from_bus=field(l, at, "from", "int"),
            to_bus=field(l, at, "to", "int"),
            reactance=field(l, at, "reactance", "float"),
            flow_limit=field(l, at, "flow_limit", "float", Line.flow_limit),
        )
        for l, at in rows("lines", [])
    )
    gens = tuple(
        Generator(
            bus=field(g, at, "bus", "int"),
            cost=field(g, at, "cost", "float"),
            p_max=field(g, at, "p_max", "float"),
            ramp_limit=field(g, at, "ramp_limit", "float", Generator.ramp_limit),
        )
        for g, at in rows("generators", [])
    )
    sites = tuple(
        RenewableSite(bus=field(r, at, "bus", "int"), p_max=field(r, at, "p_max", "float"))
        for r, at in rows("renewables", [])
    )
    base_mva = field(doc, "", "base_mva", "float", Network.base_mva)

    network = Network(
        buses=buses, lines=lines, generators=gens, renewables=sites, base_mva=base_mva
    )
    network.validate()
    if not check_connected(network):
        raise ValidationError(f"{path}: network line graph is not connected")

    base_load = np.zeros(network.n_buses)
    for entry, at in rows("base_load_mw", []):
        bus = field(entry, at, "bus", "int")
        if not 0 <= bus < network.n_buses:
            raise ValidationError(f"{path}: base_load_mw references unknown bus {bus}")
        mw = field(entry, at, "mw", "float")
        if mw < 0:
            raise ValidationError(f"{path}: base load at bus {bus} is negative")
        base_load[bus] = mw
    return network, base_load


def network_document(network: Network, base_load=None, name: str = "") -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "units": {"power": "MW", "energy": "MWh", "reactance": "per-unit"},
        "base_mva": network.base_mva,
        "buses": [
            {"id": b.id, "name": b.name, "slack": b.is_slack} for b in network.buses
        ],
        "lines": [
            {
                "from": l.from_bus,
                "to": l.to_bus,
                "reactance": l.reactance,
                "flow_limit": l.flow_limit,
            }
            for l in network.lines
        ],
        "generators": [
            {
                "bus": g.bus,
                "cost": g.cost,
                "p_max": g.p_max,
                "ramp_limit": None if not np.isfinite(g.ramp_limit) else g.ramp_limit,
            }
            for g in network.generators
        ],
        "renewables": [{"bus": r.bus, "p_max": r.p_max} for r in network.renewables],
    }
    if base_load is not None:
        base_load = np.asarray(base_load, dtype=float)
        doc["base_load_mw"] = [
            {"bus": i, "mw": mw} for i, mw in enumerate(base_load) if mw != 0.0
        ]
    return doc


def write_network_document(path, network: Network, base_load=None, name: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(network_document(network, base_load, name), fh, indent=2)
        fh.write("\n")

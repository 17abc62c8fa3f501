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

import numpy as np

from .errors import ParseError, ValidationError
from .network import Bus, Generator, Line, Network, RenewableSite, check_connected

SCHEMA_VERSION = 1


def _require(obj: dict, key: str, path) -> object:
    if key not in obj:
        raise ParseError(f"missing required key {key!r}", path)
    return obj[key]


def load_network_document(path) -> tuple[Network, np.ndarray]:
    """Parse a network file; returns (network, base load MW per bus)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path, exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", path)
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}", path)

    try:
        buses = tuple(
            Bus(
                id=int(_require(b, "id", path)),
                name=str(b.get("name", b.get("id"))),
                is_slack=bool(b.get("slack", False)),
            )
            for b in _require(doc, "buses", path)
        )
        lines = tuple(
            Line(
                from_bus=int(_require(l, "from", path)),
                to_bus=int(_require(l, "to", path)),
                reactance=float(_require(l, "reactance", path)),
                flow_limit=None if l.get("flow_limit") is None else float(l["flow_limit"]),
            )
            for l in doc.get("lines", [])
        )
        gens = tuple(
            Generator(
                bus=int(_require(g, "bus", path)),
                cost=float(_require(g, "cost", path)),
                p_max=float(_require(g, "p_max", path)),
                ramp_limit=float("inf")
                if g.get("ramp_limit") is None
                else float(g["ramp_limit"]),
            )
            for g in doc.get("generators", [])
        )
        sites = tuple(
            RenewableSite(bus=int(_require(r, "bus", path)), p_max=float(_require(r, "p_max", path)))
            for r in doc.get("renewables", [])
        )
        base_mva = float(doc.get("base_mva", 100.0))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad field value: {exc}", path) from None

    network = Network(
        buses=buses, lines=lines, generators=gens, renewables=sites, base_mva=base_mva
    )
    network.validate()
    if not check_connected(network):
        raise ValidationError(f"{path}: network line graph is not connected")

    base_load = np.zeros(network.n_buses)
    for entry in doc.get("base_load_mw", []):
        bus = int(_require(entry, "bus", path))
        if not 0 <= bus < network.n_buses:
            raise ValidationError(f"{path}: base_load_mw references unknown bus {bus}")
        mw = float(_require(entry, "mw", path))
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
            {"id": b.id, "name": b.name, "slack": bool(b.is_slack)} for b in network.buses
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
            {"bus": i, "mw": float(mw)} for i, mw in enumerate(base_load) if mw != 0.0
        ]
    return doc


def write_network_document(path, network: Network, base_load=None, name: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(network_document(network, base_load, name), fh, indent=2)
        fh.write("\n")

"""MATPOWER case text importer.

Reads the ``mpc.baseMVA``, ``mpc.bus``, ``mpc.gen``, ``mpc.branch`` and
``mpc.gencost`` tables from a ``.m`` case file and converts them into the
native network model:

* slack bus: the single type-3 bus;
* line reactance: branch X (scaled by the tap ratio when one is set, the
  usual DC treatment of transformers), out-of-service branches skipped;
* flow limit: rateA in MW, 0 meaning unlimited;
* generator cost: the linear term of a polynomial cost row; a purely
  quadratic row falls back to its marginal cost at nameplate (c2 * PMAX);
  piecewise rows use the end-to-end average slope; missing gencost rows
  cost 1 $/MWh;
* ramp limit: RAMP_10 rescaled to the dispatch step, defaulting to
  20% of PMAX per 5-minute step when the column is absent or zero.

Bus numbers are remapped onto dense 0-based ids; original numbers are kept
as bus names.  Phase-shifted branches and dcline tables are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedFeature, ValidationError
from .network import Bus, Generator, Line, Network, RenewableSite

DEFAULT_DT_HOURS = 1.0 / 12.0  # 5-minute dispatch steps
DEFAULT_COST = 1.0  # $/MWh for a generator without a gencost row
DEFAULT_RAMP_FRACTION_PER_5MIN = 0.20


@dataclass(eq=False)
class MatpowerDocument:
    network: Network
    base_load: np.ndarray  # PD column, MW per dense bus id
    bus_numbers: list[int]  # original MATPOWER bus numbers by dense id


def _read_matrix(text: str, name: str, path) -> list[list[float]]:
    match = re.search(rf"mpc\.{name}\s*=\s*\[", text)
    if match is None:
        return []
    start = match.end()
    end = text.find("];", start)
    if end < 0:
        raise ParseError(f"unterminated mpc.{name} table", path)
    body = text[start:end]
    rows = []
    for chunk in re.split(r"[;\n]", body):
        chunk = chunk.split("%", 1)[0].strip()
        if not chunk:
            continue
        try:
            rows.append([float(tok) for tok in chunk.replace(",", " ").split()])
        except ValueError:
            raise ParseError(f"non-numeric entry in mpc.{name}: {chunk!r}", path) from None
    return rows


def _scalar(text: str, name: str, path, default=None) -> float:
    match = re.search(rf"mpc\.{name}\s*=\s*([0-9eE+\.\-]+)\s*;", text)
    if match is None:
        if default is None:
            raise ParseError(f"missing mpc.{name}", path)
        return default
    return float(match.group(1))


def _linear_cost(row: list[float], p_max: float, path) -> float:
    model = int(row[0])
    n = int(row[3])
    coeffs = row[4 : 4 + (2 * n if model == 1 else n)]
    if model == 2:
        # polynomial c_{n-1} .. c_0; the linear term sits second from the end
        if n >= 2:
            linear = coeffs[-2]
            if linear == 0.0 and n >= 3 and coeffs[-3] > 0.0 and p_max > 0:
                return coeffs[-3] * p_max  # marginal cost of the pure quadratic at nameplate
            return linear
        return 0.0
    if model == 1:
        xs, ys = coeffs[0::2], coeffs[1::2]
        if len(xs) >= 2 and xs[-1] > xs[0]:
            return (ys[-1] - ys[0]) / (xs[-1] - xs[0])
        raise ParseError("degenerate piecewise cost row", path)
    raise UnsupportedFeature(f"gencost model {model}", path)


def import_matpower_document(path, dt_hours: float = DEFAULT_DT_HOURS) -> MatpowerDocument:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path) from None

    if re.search(r"mpc\.dcline\s*=", text):
        raise UnsupportedFeature("dcline table is not modeled", path)

    base_mva = _scalar(text, "baseMVA", path, default=100.0)
    bus_rows = _read_matrix(text, "bus", path)
    gen_rows = _read_matrix(text, "gen", path)
    branch_rows = _read_matrix(text, "branch", path)
    cost_rows = _read_matrix(text, "gencost", path)
    if not bus_rows:
        raise ParseError("case has no bus table", path)

    bus_numbers = [int(r[0]) for r in bus_rows]
    if len(set(bus_numbers)) != len(bus_numbers):
        raise ValidationError(f"{path}: duplicate bus numbers in case")
    dense = {num: i for i, num in enumerate(bus_numbers)}

    slack_rows = [i for i, r in enumerate(bus_rows) if int(r[1]) == 3]
    if len(slack_rows) != 1:
        raise ValidationError(f"{path}: expected exactly one type-3 bus, found {len(slack_rows)}")

    buses = tuple(
        Bus(id=i, name=str(bus_numbers[i]), is_slack=(i == slack_rows[0]))
        for i in range(len(bus_rows))
    )
    base_load = np.array([r[2] for r in bus_rows], dtype=float)

    lines = []
    for k, row in enumerate(branch_rows):
        if len(row) >= 11 and row[10] == 0.0:
            continue  # out of service
        f, t = int(row[0]), int(row[1])
        if f not in dense or t not in dense:
            raise ValidationError(f"{path}: branch {k} references unknown bus {f} or {t}")
        x = row[3]
        tap = row[8] if len(row) > 8 else 0.0
        shift = row[9] if len(row) > 9 else 0.0
        if shift != 0.0:
            raise UnsupportedFeature(f"branch {k} has a phase shift of {shift} degrees", path)
        if tap not in (0.0, 1.0):
            x = x * tap
        if x <= 0:
            raise UnsupportedFeature(f"branch {k} has non-positive reactance {x}", path)
        rate_a = row[5] if len(row) > 5 else 0.0
        lines.append(Line(dense[f], dense[t], float(x), None if rate_a <= 0 else float(rate_a)))

    gens = []
    for k, row in enumerate(gen_rows):
        if len(row) >= 8 and row[7] <= 0:
            continue  # out of service
        bus_num = int(row[0])
        if bus_num not in dense:
            raise ValidationError(f"{path}: generator {k} references unknown bus {bus_num}")
        p_max = float(row[8]) if len(row) > 8 else 0.0
        cost = DEFAULT_COST
        if k < len(cost_rows):
            cost = float(_linear_cost(cost_rows[k], p_max, path))
        ramp_10 = row[17] if len(row) > 17 else 0.0
        if ramp_10 > 0:
            ramp = ramp_10 * (dt_hours * 60.0) / 10.0
        else:
            ramp = DEFAULT_RAMP_FRACTION_PER_5MIN * p_max * (dt_hours * 60.0) / 5.0
        gens.append(Generator(bus=dense[bus_num], cost=cost, p_max=p_max, ramp_limit=float(ramp)))

    network = Network(
        buses=buses,
        lines=tuple(lines),
        generators=tuple(gens),
        renewables=(),
        base_mva=float(base_mva),
    )
    network.validate()
    return MatpowerDocument(network=network, base_load=base_load, bus_numbers=bus_numbers)


def add_renewable_sites(doc: MatpowerDocument, additions: list[tuple[int, float]]) -> MatpowerDocument:
    """Attach renewable sites at existing buses given (original bus number, MW)."""
    dense = {num: i for i, num in enumerate(doc.bus_numbers)}
    sites = list(doc.network.renewables)
    for bus_num, p_max in additions:
        if bus_num not in dense:
            raise ValidationError(f"unknown bus number {bus_num} for renewable site")
        sites.append(RenewableSite(bus=dense[bus_num], p_max=float(p_max)))
    network = Network(
        buses=doc.network.buses,
        lines=doc.network.lines,
        generators=doc.network.generators,
        renewables=tuple(sites),
        base_mva=doc.network.base_mva,
    )
    network.validate()
    return MatpowerDocument(network=network, base_load=doc.base_load, bus_numbers=doc.bus_numbers)

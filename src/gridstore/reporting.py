"""Structured run reports and their on-disk formats.

A run emits ``report.json`` (everything, including timing) plus plot-ready
CSV tables: ``iterations.csv``, ``placement.csv``, ``histogram_<round>.csv``
and ``sweep.csv``.  Every file starts with a schema_version marker; CSV
floats are written with shortest round-trip precision so identical runs
produce byte-identical tables (timing lives only in report.json).
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ParseError
from .fileio import read_json

SCHEMA_VERSION = 1

ITERATIONS_COLUMNS = ["round", "set_size", "perf", "energy_metric", "power_metric", "gamma", "dropped"]
PLACEMENT_COLUMNS = ["bus", "s_bar_mwh", "ps_bar_mw"]
SWEEP_COLUMNS = ["penetration_target", "penetration_mean", "energy_metric", "power_metric", "perf"]
_HISTOGRAM = re.compile(r"histogram_(0|[1-9][0-9]*)\.csv")  # one round's table


@dataclass(eq=True)
class Report:
    config: dict = field(default_factory=dict)
    iterations: list[dict] = field(default_factory=list)
    final_placement: list[dict] = field(default_factory=list)
    baseline: dict | None = None
    histograms: dict[str, list[dict]] = field(default_factory=dict)
    sweep: list[dict] = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})

    def table_equal(self, other: "Report") -> bool:
        """Equality of everything except timing."""
        a, b = self.to_dict(), other.to_dict()
        a.pop("timing"), b.pop("timing")
        return a == b


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path: Path, name: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# gridstore {name} schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def read_table(path) -> tuple[list[str], list[dict]]:
    """Read back any table this module writes: (columns, rows of strings)."""
    with open(path, newline="") as fh:
        lineno = 0
        header = None
        rows = []
        saw_marker = False
        for raw in csv.reader(fh):
            lineno += 1
            if raw and raw[0].startswith("#"):
                saw_marker = saw_marker or "schema_version" in raw[0]
                continue
            if not raw:
                continue
            if header is None:
                header = raw
                continue
            if len(raw) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(raw)}", path, lineno)
            rows.append(dict(zip(header, raw)))
        if header is None:
            raise ParseError("missing header row", path)
        if not saw_marker:
            raise ParseError("missing schema_version marker", path)
    return header, rows


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write report.json and the CSV tables; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "report.json"
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    written.append(path)

    path = out / "iterations.csv"
    _write_table(path, "iterations", ITERATIONS_COLUMNS, report.iterations)
    written.append(path)

    path = out / "placement.csv"
    _write_table(path, "placement", PLACEMENT_COLUMNS, report.final_placement)
    written.append(path)

    for round_key, rows in report.histograms.items():
        path = out / f"histogram_{round_key}.csv"
        _write_table(path, f"histogram_{round_key}", PLACEMENT_COLUMNS, rows)
        written.append(path)
    # an earlier run in out_dir may have had more rounds
    for path in out.glob("histogram_*.csv"):
        stale = _HISTOGRAM.fullmatch(path.name)
        if stale and stale[1] not in report.histograms:
            path.unlink()

    path = out / "sweep.csv"
    _write_table(path, "sweep", SWEEP_COLUMNS, report.sweep)
    written.append(path)
    return written


def load_report(path) -> Report:
    doc = read_json(path)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')}", path)
    return Report.from_dict(doc)

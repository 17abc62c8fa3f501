"""Command-line entry point.

Subcommands: place, sweep, dispatch (single-scenario debug), gen-scenarios,
import-matpower, validate.  Exit codes are a stable scripting contract:
0 success, 2 configuration or validation problem, 3 infeasibility abort,
4 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .config import load_run_config
from .errors import (
    AllScenariosInfeasible,
    GridstoreError,
    InfeasibleScenario,
    ParseError,
    SolverFailure,
    UnreachablePenetration,
    ValidationError,
    ZeroFluctuationDenominator,
    ZeroLoad,
)
from .fileio import load_network_document, write_network_document
from .lp import BACKENDS
from .matpower import DEFAULT_DT_HOURS, add_renewable_sites, import_matpower_document
from .reporting import emit_report
from .runners import build_scenarios, run_dispatch_debug, run_place, run_sweep
from .scenarios import write_scenarios_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

_CONFIG_ERRORS = (
    ParseError,
    ValidationError,
    UnreachablePenetration,
    ZeroLoad,
    ZeroFluctuationDenominator,
    FileNotFoundError,
)
_INFEASIBLE_ERRORS = (AllScenariosInfeasible, InfeasibleScenario)

logger = logging.getLogger("gridstore")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--jobs", type=int, default=None, help="parallel dispatch threads")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--solver", default=None, choices=sorted(BACKENDS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstore",
        description="Size and place grid storage by simulating lookahead dispatch "
        "over renewable scenarios and greedily pruning the storage node set.",
    )
    parser.add_argument("--version", action="version", version=f"gridstore {__version__}")
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="stderr logging verbosity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="run the greedy placement pipeline")
    _add_common(p)

    p = sub.add_parser("sweep", help="metrics vs renewable penetration")
    _add_common(p)
    p.add_argument("--levels", default=None, help="comma-separated penetration levels in (0,1)")

    p = sub.add_parser("dispatch", help="solve one scenario and print a summary")
    _add_common(p)
    p.add_argument("--scenario", type=int, default=0, help="scenario index to dispatch")

    p = sub.add_parser("gen-scenarios", help="generate synthetic scenarios to CSV")
    _add_common(p)

    p = sub.add_parser("import-matpower", help="convert a MATPOWER case to the native format")
    p.add_argument("case", help="input .m case file")
    p.add_argument("--out", required=True, help="output network JSON path")
    p.add_argument(
        "--dt-hours", type=float, default=DEFAULT_DT_HOURS, help="dispatch step used to scale RAMP_10"
    )
    p.add_argument(
        "--renewable",
        action="append",
        default=[],
        metavar="BUS:MW",
        help="attach a renewable site at an original bus number (repeatable)",
    )

    p = sub.add_parser("validate", help="check a config or network file")
    p.add_argument("--config", default=None)
    p.add_argument("--network", default=None)
    return parser


def _overrides(args) -> dict:
    return {
        "seed": getattr(args, "seed", None),
        "jobs": getattr(args, "jobs", None),
        "out_dir": getattr(args, "out", None),
        "solver": getattr(args, "solver", None),
    }


@contextlib.contextmanager
def _error_record(out_dir):
    """Write ``error.json`` to ``out_dir`` for a failure with an exit code, then re-raise.

    The record is best effort: a directory that cannot be written is logged.
    """
    try:
        yield
    except Exception as exc:
        code = _classify(exc)
        if code is not None:
            record = {"error_type": type(exc).__name__, "message": str(exc), "exit_code": code}
            try:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")
            except OSError:
                logger.warning("could not write error record to %s", out_dir)
        raise


def _cmd_place(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    with _error_record(cfg.out_dir):
        report = run_place(cfg)
    emit_report(report, cfg.out_dir)
    final = report.iterations[-1]
    print(
        f"placed storage at {final['set_size']} of "
        f"{report.iterations[0]['set_size']} nodes in {len(report.iterations)} rounds; "
        f"perf {report.iterations[0]['perf']:.4f} -> {final['perf']:.4f}"
    )
    print(f"report written to {cfg.out_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    levels = None
    if args.levels:
        try:
            levels = [float(tok) for tok in args.levels.split(",") if tok.strip()]
        except ValueError:
            raise ValidationError(f"bad --levels value {args.levels!r}") from None
    with _error_record(cfg.out_dir):
        report = run_sweep(cfg, levels)
    emit_report(report, cfg.out_dir)
    for row in report.sweep:
        print(
            f"penetration {row['penetration_target']:.2f}: "
            f"energy {row['energy_metric']:.4f}, power {row['power_metric']:.4f}"
        )
    print(f"report written to {cfg.out_dir}")
    return EXIT_OK


def _cmd_dispatch(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    summary = run_dispatch_debug(cfg, args.scenario)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_gen_scenarios(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    network, base_load = load_network_document(cfg.network_path)
    sset = build_scenarios(cfg, network, base_load)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "scenarios.csv"
    write_scenarios_csv(sset, out)
    print(f"wrote {len(sset)} scenarios ({sset.n_steps} steps of {sset.dt_hours:.4f} h) to {out}")
    return EXIT_OK


def _cmd_import_matpower(args) -> int:
    doc = import_matpower_document(args.case, dt_hours=args.dt_hours)
    additions = []
    for spec in args.renewable:
        try:
            bus_s, mw_s = spec.split(":")
            additions.append((int(bus_s), float(mw_s)))
        except ValueError:
            raise ValidationError(f"bad --renewable value {spec!r}, expected BUS:MW") from None
    if additions:
        doc = add_renewable_sites(doc, additions)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_network_document(out, doc.network, doc.base_load, name=Path(args.case).stem)
    net = doc.network
    print(
        f"imported {net.n_buses} buses, {len(net.lines)} lines, "
        f"{len(net.generators)} generators, {len(net.renewables)} renewable sites -> {out}"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    if not args.config and not args.network:
        raise ValidationError("validate needs --config and/or --network")
    if args.network:
        network, base_load = load_network_document(args.network)
        print(
            f"network ok: {network.n_buses} buses, {len(network.lines)} lines, "
            f"{len(network.generators)} generators, base load {base_load.sum():.1f} MW"
        )
    if args.config:
        cfg = load_run_config(args.config, _overrides(args))
        build_scenarios(cfg, *load_network_document(cfg.network_path))
        print(f"config ok: solver={cfg.solver}, jobs={cfg.jobs}, seed={cfg.seed}")
    return EXIT_OK


def _classify(exc: Exception) -> int | None:
    if isinstance(exc, _INFEASIBLE_ERRORS):
        return EXIT_INFEASIBLE
    if isinstance(exc, SolverFailure):
        return EXIT_SOLVER
    if isinstance(exc, _CONFIG_ERRORS):
        return EXIT_CONFIG
    return None


COMMANDS = {
    "place": _cmd_place,
    "sweep": _cmd_sweep,
    "dispatch": _cmd_dispatch,
    "gen-scenarios": _cmd_gen_scenarios,
    "import-matpower": _cmd_import_matpower,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return COMMANDS[args.command](args)
    except (GridstoreError, FileNotFoundError) as exc:
        code = _classify(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

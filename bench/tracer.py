"""Spans around calls into gridstore, recorded from outside the package.

The tracer swaps a public function for a wrapper in every ``gridstore``
module that holds it, so callers that imported the name directly are
covered too, and puts the originals back on ``uninstall``.  Spans live in
memory; ``summarize`` turns them into the per-layer metrics.

Spans nest by call order on one thread.  Calls made inside pool workers
are not seen, so the traced run uses jobs=1.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import stats

# (module, function, span name)
INSTRUMENTED = (
    ("gridstore.fileio", "load_network_document", "network.load"),
    ("gridstore.matpower", "import_matpower_document", "network.load"),
    ("gridstore.scenarios", "generate_synthetic", "scenarios.generate"),
    ("gridstore.dispatch", "build_dispatch_lp", "dispatch.assemble"),
    ("gridstore.dispatch", "decode_solution", "dispatch.decode"),
    ("gridstore.dispatch", "lookahead_dispatch", "dispatch.lookahead"),
    ("gridstore.lp", "solve_with_backend", "lp.solve"),
    ("gridstore.placement", "evaluate_subset", "placement.evaluate"),
    ("gridstore.placement", "evaluate_fixed_placement", "placement.fixed"),
    ("gridstore.placement", "greedy_placement", "placement.greedy"),
    ("gridstore.runners", "run_place", "runners.place"),
    ("gridstore.reporting", "emit_report", "reporting.emit"),
)
BOOKKEEPING = "bench.trace"  # the tracer's own work after a call returns


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


def _lp_size(prog) -> dict:
    rows = prog.rows if isinstance(getattr(prog, "rows", None), list) else None
    nnz = len(rows) if rows is not None else prog.matrix().nnz
    return {"rows": int(prog.n_rows), "cols": int(prog.n_vars), "nnz": int(nnz)}


def _annotate(span_name: str, attrs: dict, bound: dict, result) -> None:
    if span_name == "dispatch.assemble" and result is not None:
        attrs.update(_lp_size(result[0]))
    elif span_name == "lp.solve" and result is not None:
        attrs["status"] = result.status.value
        attrs["iterations"] = int(result.iterations)
        attrs["max_violation"] = float(result.max_violation)
    elif span_name in ("placement.evaluate", "placement.fixed"):
        attrs["nodes"] = frozenset(int(b) for b in bound["nodes"])
    elif span_name == "placement.greedy" and result is not None:
        attrs["rounds"] = [frozenset(r.nodes) for r in result.rounds]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def _wrap(self, original, span_name: str):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            index = self.begin(span_name)
            result, error = None, None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.end(index)
                book = self.begin(BOOKKEEPING)
                attrs = self.spans[index].attrs
                if error is not None:
                    attrs["error"] = type(error).__name__
                bound = signature.bind(*args, **kwargs).arguments
                _annotate(span_name, attrs, bound, result)
                self.end(book)

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        """Wrap every INSTRUMENTED function wherever gridstore holds it."""
        for module_name, _, _ in INSTRUMENTED:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("gridstore")]
        for module_name, func_name, span_name in INSTRUMENTED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    self._patches.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches.clear()


# -- summary -----------------------------------------------------------------


def _subtrees(spans: list[Span], root_name: str) -> list[list[int]]:
    """Span indices under each root span called ``root_name``, root first."""
    out, current = [], None
    for i, span in enumerate(spans):
        if span.parent is None:
            current = [i] if span.name == root_name else None
            if current is not None:
                out.append(current)
        elif current is not None:
            current.append(i)
    return out


def _self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {i: [] for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in children:
            children[parent].append((spans[i].start, spans[i].end))
    return {i: stats.self_time(spans[i].start, spans[i].end, children[i]) for i in indices}


def _ancestor(spans: list[Span], i: int, name: str) -> int | None:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def _placement_run(spans: list[Span], i: int, root: int) -> int:
    """The placement a span belongs to: its ``runners.place`` span, else the operation."""
    run = _ancestor(spans, i, "runners.place")
    return root if run is None else run


def _is_dispatch(name: str) -> bool:
    return name.startswith("dispatch.") or name == "lp.solve"


def op_tally(spans: list[Span], indices: list[int]) -> dict:
    """Per-layer seconds and counts for one traced operation."""
    own = _self_times(spans, indices)
    t: dict = {
        "wall_s": spans[indices[0]].end - spans[indices[0]].start,
        "self_by_name": {},
        "solve_s": [],
        "lp_sizes": [],
        "iterations": 0,
        "infeasible": 0,
        "failed": 0,
        "max_violation": 0.0,
        "evaluate_s": 0.0,
        "dispatch_s": 0.0,
    }
    for i in indices:
        name = spans[i].name
        t["self_by_name"][name] = t["self_by_name"].get(name, 0.0) + own[i]

    root = indices[0]
    evaluations = [i for i in indices if spans[i].name == "placement.evaluate"]
    lps_under = {i: 0 for i in evaluations}
    useful_sets: dict[int, set] = {}  # per placement run: subsets that became its output
    n_lps = useful_lps = 0
    for i in indices:
        span = spans[i]
        parent_name = spans[span.parent].name if span.parent is not None else ""
        if _is_dispatch(span.name) and not _is_dispatch(parent_name):
            t["dispatch_s"] += span.end - span.start
        if span.name == "placement.evaluate" and _ancestor(spans, i, "placement.evaluate") is None:
            t["evaluate_s"] += span.end - span.start
        if span.name == "dispatch.assemble" and "rows" in span.attrs:
            t["lp_sizes"].append((span.attrs["rows"], span.attrs["cols"], span.attrs["nnz"]))
        if span.name == "placement.greedy":
            run = useful_sets.setdefault(_placement_run(spans, i, root), set())
            run.update(span.attrs.get("rounds", []))
        if span.name == "placement.fixed" and "error" not in span.attrs:
            run = useful_sets.setdefault(_placement_run(spans, i, root), set())
            run.add(span.attrs["nodes"])
        if span.name != "lp.solve":
            continue
        n_lps += 1
        t["solve_s"].append(span.end - span.start)
        status = span.attrs.get("status", "error")
        t["iterations"] += span.attrs.get("iterations", 0)
        t["max_violation"] = max(t["max_violation"], span.attrs.get("max_violation", 0.0))
        if status == "infeasible":
            t["infeasible"] += 1
        elif status != "optimal":
            t["failed"] += 1
        owner = _ancestor(spans, i, "placement.evaluate")
        if owner is None:
            useful_lps += 1  # a dispatch outside any subset evaluation is not a retry
        else:
            lps_under[owner] += 1

    seen: dict[int, set] = {}  # per placement run: subsets evaluated so far
    t["subsets"] = len(evaluations)
    t["subsets_infeasible"] = sum(1 for i in evaluations if "error" in spans[i].attrs)
    t["subsets_repeated"] = 0
    for i in evaluations:
        run = _placement_run(spans, i, root)
        nodes = spans[i].attrs["nodes"]
        t["subsets_repeated"] += nodes in seen.setdefault(run, set())
        seen[run].add(nodes)
        if nodes in useful_sets.get(run, ()):
            useful_lps += lps_under[i]
    greedy = [i for i in indices if spans[i].name == "placement.greedy"]
    t["rounds"] = sum(len(spans[i].attrs.get("rounds", [])) for i in greedy)
    t["lps"] = n_lps
    t["useful_lps"] = useful_lps
    return t


def summarize(spans: list[Span], untraced_walls: list[float], jobs: int) -> dict[str, float]:
    """Per-layer metrics of the fastest traced operation.

    Every traced operation does the same work, so its counts and LP sizes
    repeat exactly from run to run.  Its seconds are compared with the
    fastest untraced operation, out of ``untraced_walls``, run with ``jobs``.
    ``network.load_s`` and ``scenarios.generate_s`` also include the set-up,
    where the rts workloads load their inputs once.
    """
    untraced_wall_s = min(untraced_walls)
    tallies = [op_tally(spans, ix) for ix in _subtrees(spans, "op")]
    if not tallies:
        raise ValueError("no traced operation")
    t = min(tallies, key=lambda tally: tally["wall_s"])
    setup_self: dict[str, float] = {}
    for ix in _subtrees(spans, "setup"):
        for i, s in _self_times(spans, ix).items():
            setup_self[spans[i].name] = setup_self.get(spans[i].name, 0.0) + s

    def self_s(*names) -> float:
        return sum(t["self_by_name"].get(n, 0.0) for n in names)

    solves, sizes, lps = t["solve_s"], t["lp_sizes"], t["lps"]
    tail_pct, tail = stats.tail_percentile(solves) if solves else (50, 0.0)
    return {
        "network.load_s": setup_self.get("network.load", 0.0) + self_s("network.load"),
        "scenarios.generate_s": setup_self.get("scenarios.generate", 0.0)
        + self_s("scenarios.generate"),
        "dispatch.assemble_s": self_s("dispatch.assemble"),
        "dispatch.assemble_calls": len(sizes),
        "dispatch.decode_s": self_s("dispatch.decode"),
        "dispatch.self_s": self_s("dispatch.lookahead"),
        "dispatch.total_s": t["dispatch_s"],
        "lp.rows.max": max((r for r, _, _ in sizes), default=0),
        "lp.rows.sum": sum(r for r, _, _ in sizes),
        "lp.cols.max": max((c for _, c, _ in sizes), default=0),
        "lp.cols.sum": sum(c for _, c, _ in sizes),
        "lp.nnz.max": max((z for _, _, z in sizes), default=0),
        "lp.nnz.sum": sum(z for _, _, z in sizes),
        "lp.solve_s": self_s("lp.solve"),
        "lp.solve_s.p50": stats.nearest_rank(solves, 50) if solves else 0.0,
        "lp.solve_s.tail": tail,
        "lp.solve_s.tail_pct": tail_pct,
        "lp.solve_s.samples": len(solves),
        "lp.solves": lps,
        "lp.iterations": t["iterations"],
        "lp.infeasible": t["infeasible"],
        "lp.failed": t["failed"],
        "lp.max_violation": t["max_violation"],
        "placement.evaluate_s": t["evaluate_s"],
        "placement.self_s": self_s("placement.evaluate", "placement.fixed", "placement.greedy"),
        "placement.subsets": t["subsets"],
        "placement.subsets_infeasible": t["subsets_infeasible"],
        "placement.subsets_repeated": t["subsets_repeated"],
        "placement.rounds": t["rounds"],
        "placement.useful_lp_frac": t["useful_lps"] / lps if lps else 1.0,
        "placement.pool_efficiency": stats.pool_efficiency(t["dispatch_s"], untraced_wall_s, jobs),
        "reporting.emit_s": self_s("reporting.emit"),
        "runners.place_self_s": self_s("runners.place"),
        "bench.self_s": self_s("op", BOOKKEEPING),
        "op.wall_s.p50": stats.nearest_rank(untraced_walls, 50),
        "op.samples": len(untraced_walls),
        "trace.wall_s": t["wall_s"],
        "trace.layer_sum_s": sum(
            v for k, v in t["self_by_name"].items() if k not in ("op", BOOKKEEPING)
        ),
        "trace.overhead_s": t["wall_s"] - untraced_wall_s,
    }

"""One workload in its own process: set up, run timed operations, check them.

Started by ``run.py``; prints ``BENCH-READY`` once set-up is done and a
``BENCH-RESULT <json>`` line at the end.  With ``--setup-only`` it exits
after set-up, so that ``run.py`` can time set-up more than once.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import proctree  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

KERNEL_RUNS = 5  # reference-kernel runs after each untraced operation
IDLE_TIMEOUT_S = 10.0


def run_one(work, jobs: int, trace: tracing.Tracer | None) -> dict:
    """One operation, timed, with its checks outside the timed region."""
    cpu0 = proctree.tree_cpu_s()
    t0 = time.perf_counter()
    span = trace.begin("op") if trace else None
    result, error, checks = None, None, []
    try:
        result = work.run(jobs)
    except workloads.VERDICTS as exc:
        # every workload's draws are feasible, so a verdict is a wrong output
        checks = [f"expected the outputs in references.json, got {type(exc).__name__}: {exc}"]
    except Exception as exc:  # any other exception fails the operation; keep measuring
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        if trace:
            trace.end(span)
    wall = time.perf_counter() - t0
    cpu = proctree.tree_cpu_s() - cpu0
    if result is not None:
        try:
            checks = work.check(result) + work.check_reference(result)
        except Exception as exc:  # a check that cannot run is a failed check
            checks = [f"check raised {type(exc).__name__}: {exc}"]
    for failure in checks:
        print(f"check failed ({work.name}): {failure}", file=sys.stderr)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "error": error,
        "checks": checks,
    }


def peak_rss_kib(jobs: int) -> int:
    """This process's peak plus ``jobs`` workers at the largest worker's peak.

    That is the tree's peak when every worker peaks at once.  Reaped workers
    report through RUSAGE_CHILDREN, workers still alive through /proc.
    Workers that an aborted sweep leaves running while the next pool starts
    are not added: whether they overlap is a matter of timing.
    """
    live = [proctree.hwm_kib(pid) for pid in proctree.descendants(os.getpid())]
    worker = max([resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, *live])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + jobs * worker


def wait_until_children_idle() -> None:
    """Return once live descendants use no CPU, so that none competes with
    the reference kernel; workers an aborted sweep left running finish first."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    deadline = time.perf_counter() + IDLE_TIMEOUT_S
    before = proctree.tree_cpu_s() - own.ru_utime - own.ru_stime
    while time.perf_counter() < deadline:
        time.sleep(0.05)
        own = resource.getrusage(resource.RUSAGE_SELF)
        now = proctree.tree_cpu_s() - own.ru_utime - own.ru_stime
        if now - before < 0.005:
            return
        before = now


def run_for(work, jobs: int, seconds: float, trace=None, kernels=None) -> list[dict]:
    """Operations back to back while one more still fits in ``seconds`` of
    timed operations, judged by the last one; at least one runs.  With a
    ``kernels`` list, the reference kernel runs after each operation and
    its times are appended there."""
    ops, timed = [], 0.0
    while not ops or timed + ops[-1]["wall_s"] <= seconds:
        ops.append(run_one(work, jobs, trace))
        timed += ops[-1]["wall_s"]
        if kernels is not None:
            wait_until_children_idle()
            kernels.extend(speed.kernel_s() for _ in range(KERNEL_RUNS))
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    trace = tracing.Tracer() if args.trace else None
    if trace:
        trace.install()
        span = trace.begin("setup")
    work.setup()
    work.warm_up()
    if trace:
        trace.end(span)
        trace.uninstall()
    print("BENCH-READY", flush=True)
    if args.setup_only:
        return 0

    # a traced run gives half its seconds to untraced operations, half to traced ones
    seconds = args.seconds / 2 if trace else args.seconds
    kernels: list[float] = []
    ops = run_for(work, work.jobs, seconds, kernels=kernels)
    out = {"ops": ops, "traced": [], "jobs": work.jobs, "kernel_s": kernels}
    if trace:
        trace.install()
        traced = run_for(work, 1, seconds, trace)
        trace.uninstall()
        out["traced"] = traced
        walls = [op["wall_s"] for op in ops]
        out["per_layer"] = tracing.summarize(trace.spans, walls, work.jobs)
        out["per_layer"]["machine.kernel_s"] = statistics.median(kernels)
    out["peak_rss_kib"] = peak_rss_kib(work.jobs)
    print("BENCH-RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""gridstore benchmark: time to placement end to end, and per layer when traced.

    python3 bench/run.py --workload qs_place --seed 42 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``.  Each workload runs in its own process (``worker.py``), so memory
high-water marks do not carry over.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced jobs=1 run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402

WORKLOADS = ("qs_place", "rts_greedy")
REQUIRED = (
    "BENCHMARK.json",
    "src/gridstore/__init__.py",
    "cases/quickstart_place.json",
    "cases/rts96_3area.m",
)
SETUP_SAMPLES = 5  # set-up is timed this many times, the last one in the measured process
NOTE_GREEDY = (
    "note: rts_greedy traces at jobs=1 against an untraced jobs=2 run, so its "
    "trace.overhead_s is mostly the pool's speed-up; placement.pool_efficiency measures it"
)
NOTE_ITERATIONS = (
    "note: lp.iterations is what LpSolution.iterations reports (0 for both HiGHS backends)"
)


def with_units(values: dict, section: str) -> dict:
    """Attach the units that BENCHMARK.json declares for ``section``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in doc[section]}
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


class Worker:
    """One worker process; times its set-up from start to BENCH-READY."""

    def __init__(self, args, setup_only: bool):
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        env = {k: v for k, v in os.environ.items() if not k.startswith("GRIDSTORE_")}
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.setup_s = None
        self.result = None

    def finish(self) -> int:
        try:
            for line in self.proc.stdout:
                if line.startswith("BENCH-READY") and self.setup_s is None:
                    self.setup_s = time.perf_counter() - self.start
                elif line.startswith("BENCH-RESULT "):
                    self.result = json.loads(line[len("BENCH-RESULT ") :])
                else:
                    sys.stdout.write(line)
        finally:
            self.proc.wait()
        return self.proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a gridstore checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    setup_times = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(args, setup_only=True)
            if probe.finish() != 0 or probe.setup_s is None:
                print("benchmark: set-up failed", file=sys.stderr)
                return 1
            setup_times.append(probe.setup_s)
    worker = Worker(args, setup_only=False)
    code = worker.finish()
    if code != 0 or worker.result is None:
        print(f"benchmark: workload process exited with {code}", file=sys.stderr)
        return 1
    setup_times.append(worker.setup_s)

    res = worker.result
    timed = res["ops"]
    ops = timed + res["traced"]
    outcomes = [(op["error"], op["checks"]) for op in ops]
    failed, fail_frac = stats.count_failed(outcomes), stats.fail_frac(outcomes)
    print(
        f"{args.workload} seed={args.seed}: {len(ops)} operations, {failed} failed "
        f"(fail_frac={fail_frac:.4f}), jobs={res['jobs']}, "
        f"set-up seconds {' '.join(f'{t:.3f}' for t in setup_times)}"
    )
    if args.trace:
        metrics = with_units(res["per_layer"], "per_layer")
        print(NOTE_ITERATIONS)
        if res["jobs"] > 1:
            print(NOTE_GREEDY)
    else:
        kernel = statistics.median(res["kernel_s"])
        wall, cpu = stats.median_operation(timed, "wall"), stats.median_operation(timed, "cpu")
        print(
            f"measured wall_s {wall:.4f}, cpu_s {cpu:.4f}; median reference kernel "
            f"{kernel:.4f} s, so they are scaled by {stats.REFERENCE_KERNEL_S} / {kernel:.4f}"
        )
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": stats.to_reference(wall, kernel),
            "cpu_s": stats.to_reference(cpu, kernel),
        }
        values["peak_rss_mb"] = res["peak_rss_kib"] * 1024 / 1e6
        values["ok_frac"] = 1.0 - fail_frac
        metrics = with_units(values, "end_to_end")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

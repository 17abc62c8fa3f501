"""The benchmark's arithmetic: percentiles, self time, failure and pool ratios.

Pure functions only, so that ``test_bench.py`` can pin every rule down.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie above a reported tail percentile
REFERENCE_KERNEL_S = 0.07  # the speed.py kernel's median run on the reference machine


def nearest_rank(values, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule: the smallest sample
    with at least pct percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values) -> tuple[int, float]:
    """(pct, value) for the highest whole percentile from 99 down to 50 that
    still has at least MIN_BEYOND samples above its rank.

    With too few samples for any of them, the median (pct = 50) is
    returned, which is then no tail at all.
    """
    n = len(values)
    for pct in range(99, 50, -1):
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct, nearest_rank(values, pct)
    return 50, nearest_rank(values, 50)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(child_intervals, start, end)


def count_failed(outcomes) -> int:
    """Operations that raised or failed an output check.

    ``outcomes`` holds one (error, failed_checks) pair per attempted operation.
    """
    return sum(1 for error, checks in outcomes if error or checks)


def fail_frac(outcomes) -> float:
    """Failed operations over attempted ones."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no operations attempted")
    return count_failed(outcomes) / len(outcomes)


def pool_efficiency(dispatch_s_serial: float, wall_s: float, jobs: int) -> float:
    """Serial dispatch seconds over the worker-seconds a pooled run occupied.

    1.0 means ``jobs`` workers cut the dispatch time by ``jobs`` and nothing
    else took time; with jobs=1 it is the share of the run spent dispatching.
    """
    if wall_s <= 0 or jobs < 1:
        raise ValueError("need a positive wall time and at least one job")
    return dispatch_s_serial / (jobs * wall_s)


def median_operation(ops, kind: str) -> float:
    """Median ``<kind>_s`` ("wall" or "cpu") over the operations that did
    not fail (no error, no failed check); over all of them if none passed."""
    passed = [op[f"{kind}_s"] for op in ops if not (op["error"] or op["checks"])]
    return statistics.median(passed or [op[f"{kind}_s"] for op in ops])


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds``, measured while the reference kernel's median run took
    ``kernel_s``, scaled to a machine on which it takes REFERENCE_KERNEL_S."""
    if kernel_s <= 0:
        raise ValueError("need a positive kernel time")
    return seconds * REFERENCE_KERNEL_S / kernel_s

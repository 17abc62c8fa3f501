"""The machine's speed, from a fixed reference kernel that does not use gridstore.

On a shared machine the same code can run 25% to 60% slower for minutes at
a time, with no steal time to show for it.  The kernel, ten HiGHS solves of
one fixed small LP through scipy, slows with it: over six 40-second runs of
``qs_place`` whose median operation ranged over 19%, the ratio of that
median to the kernel's median ranged over 9%.  ``stats.to_reference``
scales measured seconds by it."""

from __future__ import annotations

import time

import numpy as np

SOLVES = 10

_rng = np.random.default_rng(0)
_A = _rng.random((60, 120))
_B = _A.sum(axis=1)
_C = _rng.random(120)


def kernel_s() -> float:
    """Wall seconds of one run of the reference kernel."""
    from scipy.optimize import linprog  # imported here, after set-up is timed

    t0 = time.perf_counter()
    for _ in range(SOLVES):
        res = linprog(_C, A_ub=-_A, b_ub=-_B, bounds=(0.0, 5.0), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference kernel LP ended with status {res.status}")
    return time.perf_counter() - t0


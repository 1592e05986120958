"""Calibration sort: a fixed amount of pure-Python work to time against.

On a shared machine the interpreter's speed drifts by 20-40% over minutes,
and longer runs do not average the drift away. Each timed sorter call is
therefore followed by this merge sort on the same input, and the bounded
end-to-end timings are the ratio of the two times. The calibration code
belongs to the benchmark, not to the library, so no change to entsort can
move it; `entsort.msort` would not do, because sortk's final merge uses it.
Set-up is timed against the same sort of one fixed input, setup_input().
"""

from __future__ import annotations

import random

SETUP_INPUT_M = 8192
# Median seconds of merge_sort(setup_input()) on the machine the bounds were
# set on (2-vCPU Intel Xeon VM, CPython 3.11.7). setup_s is reported in
# these units, so it reads as seconds on that machine.
SETUP_REFERENCE_S = 0.0198


def setup_input() -> list[int]:
    """The fixed input of the set-up calibration; the same on every run."""
    return random.Random(0).choices(range(256), k=SETUP_INPUT_M)


def _leq(a, b) -> bool:
    # One Python-level call per comparison, as the sorter's comparator makes.
    return a <= b


def merge_sort(items) -> list[int]:
    """Stable bottom-up merge sort; 0-based indices in sorted order."""
    n = len(items)
    order = list(range(n))
    buf = [0] * n
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, k, out = lo, mid, lo
            while i < mid and k < hi:
                if _leq(items[order[i]], items[order[k]]):
                    buf[out] = order[i]
                    i += 1
                else:
                    buf[out] = order[k]
                    k += 1
                out += 1
            buf[out:hi] = order[i:mid] if i < mid else order[k:hi]
        order, buf = buf, order
        width *= 2
    return order

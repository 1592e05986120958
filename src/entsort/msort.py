"""Instrumented stable merge sort.

Used as the comparison-count baseline (`bench.baseline_mergesort`).
Bottom-up, stable (ties taken from the left run), and never spends more than
n * ceil(log2 n) calls to leq.
"""

from __future__ import annotations

from typing import Callable, Sequence


def mergesort_perm(items: Sequence, leq: Callable) -> list[int]:
    """0-based indices of *items* in stable non-decreasing order.

    leq(a, b) must return truth of a <= b and is the only comparison used.
    """
    n = len(items)
    order = list(range(n))
    if n < 2:
        return order
    buf = [0] * n
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid >= hi:
                buf[lo:hi] = order[lo:hi]
                continue
            i, k, out = lo, mid, lo
            while i < mid and k < hi:
                if leq(items[order[i]], items[order[k]]):
                    buf[out] = order[i]
                    i += 1
                else:
                    buf[out] = order[k]
                    k += 1
                out += 1
            if i < mid:
                buf[out:hi] = order[i:mid]
            else:
                buf[out:hi] = order[k:hi]
        order, buf = buf, order
        width *= 2
    return order

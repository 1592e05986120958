"""Empirical entropy of a sequence, by context order.

This is measurement code: it may hash and compare elements freely, and none
of its work is charged to a comparison ledger.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count, islice
from math import log2
from operator import itemgetter
from typing import Iterable, Sequence


def h0(counts: Iterable[int]) -> float:
    """Zeroth-order entropy in bits per element, from a frequency multiset."""
    counts = list(counts)
    if not counts:
        raise ValueError("at least one frequency is required")
    if any(c < 1 for c in counts):
        raise ValueError("frequencies must be positive integers")
    return h0_bits(counts, sum(counts))


def h0_bits(counts: Iterable[int], m: int) -> float:
    """The H0 formula over positive counts summing to m, unchecked: for
    callers that built the counts themselves."""
    return sum(c / m * log2(m / c) for c in counts)


def context_sequences(seq: Sequence, order: int) -> dict[tuple, list]:
    """Successor sequence per order-tuple context, in occurrence order.

    This is the reference definition of the per-context split and of the
    summation order of H_k, by hash and `==`: `sortk.budget_breakdown` is
    computed from it, and `profile` and the accounting that a sort reads
    off its forest by the order (hashing nothing) equal it bit for bit. A
    context that only occurs as the sequence's suffix has no entry, so an
    order >= len(seq) gives an empty table, and no slice is built for it.
    """
    if order >= len(seq):
        return {}
    if order == 0:
        return {(): list(seq)}
    table: dict[tuple, list] = defaultdict(list)
    contexts = zip(*(seq[j:] for j in range(order)))
    for ctx, s in zip(contexts, seq[order:]):
        table[ctx].append(s)
    return dict(table)


def h_order(seq: Sequence, order: int) -> float:
    """Order-k entropy: expected uncertainty about an element given the k
    elements preceding it. It is the last entry of `profile`, and 0.0 from
    order m on, where no context has a successor."""
    return profile(seq, min(order, len(seq))).h[-1]


@dataclass
class EntropyProfile:
    """Entropy at orders 0..len(h) - 1 of a sequence of m elements, n of
    them distinct."""

    m: int
    n: int
    h: list[float]


def profile(seq: Sequence, max_order: int) -> EntropyProfile:
    """Entropy profile H0..H_max_order, one O(m) pass per order.

    Contexts are integer classes refined order by order: a window of one
    element is classed by its element, and a window of k + 1 by the pair
    (class of its first k, its last element), numbered as first seen. That
    pair is a context with a successor, so the pass that names the next
    classes also counts H_k's parts. They are summed in the order of
    `context_sequences`, so H_k equals that definition bit for bit.

    An H_k that is exactly 0.0 means that every order-k context has a
    single successor value; every longer context refines one of them and
    keeps that property, so each higher order is 0.0 as well. The profile
    stops computing there and fills the rest with 0.0, which is exact.
    """
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    if not 0 <= max_order <= m:
        raise ValueError(f"order {max_order} is not in [0, m], m = {m}")
    counts = Counter(seq)
    h = [h0_bits(counts.values(), m)]
    cls: Sequence = seq  # at order k, cls[j] names the window seq[j:j+k]
    for k in range(1, max_order + 1):
        if h[-1] == 0.0:
            break
        ids: dict = {}  # (context, successor) -> class of the longer window
        cls = list(map(ids.setdefault, zip(cls, islice(seq, k, None)),
                       count()))
        contexts = list(map(itemgetter(0), ids))  # in class order
        del ids  # its pairs are the largest objects of an order
        # A part of one value adds an exact 0.0, so it is left out.
        parts = {c: [] for c, fan in Counter(contexts).items() if fan > 1}
        for c, size in zip(contexts, Counter(cls).values()):  # by class
            if c in parts:
                parts[c].append(size)
        h.append(sum(sum(p) * h0_bits(p, sum(p)) for p in parts.values()) / m)
    h += [0.0] * (max_order + 1 - len(h))
    return EntropyProfile(m=m, n=len(counts), h=h)

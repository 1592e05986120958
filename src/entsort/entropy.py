"""Empirical entropy of a sequence, by context order.

This is measurement code: it may hash and compare elements freely, and none
of its work is charged to a comparison ledger.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import log2
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


def weighted_h(terms: Sequence[tuple[int, float]], m: int,
               order: int) -> float:
    """H_order from its per-context (|part|, H0(part)) terms: the
    size-weighted mean over m elements. At order 0 the one context is the
    whole input; its H0 is taken as is, because m * H0 / m can differ from
    H0 in the last bit."""
    if order == 0:
        return terms[0][1]
    return sum(size * bits for size, bits in terms) / m


def context_sequences(seq: Sequence, order: int) -> dict[tuple, list]:
    """Successor sequence per order-tuple context, in occurrence order.

    This is the reference definition of the per-context split: `h_order`
    sums |part| * H0(part) over its parts, and the tests check the
    sorter's one-pass accounting (`sortk.budget_breakdown`) against it. A
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
    elements preceding it. A context that only occurs as the sequence's
    suffix contributes nothing (it has no successor)."""
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return h0(Counter(seq).values())
    return weighted_h([(len(part), h0(Counter(part).values()))
                       for part in context_sequences(seq, order).values()],
                      m, order)


@dataclass
class EntropyProfile:
    """Entropy at orders 0..max_order of a sequence of m elements, n of them
    distinct."""

    m: int
    n: int
    h: list[float]

    @property
    def max_order(self) -> int:
        return len(self.h) - 1


def profile(seq: Sequence, max_order: int) -> EntropyProfile:
    """Entropy profile H0..H_max_order.

    An H_k that is exactly 0.0 means that every order-k context has a
    single successor value; every longer context refines one of them and
    keeps that property, so each higher order is 0.0 as well. The profile
    stops computing there and fills the rest with 0.0, which is exact: an
    input with few repeated contexts reaches 0.0 within a few orders, so an
    order near m costs no order-m context tables.
    """
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    if not 0 <= max_order <= m:
        raise ValueError(f"order {max_order} is not in [0, m], m = {m}")
    h: list[float] = []
    for k in range(max_order + 1):
        h.append(h_order(seq, k))
        if h[-1] == 0.0:
            break
    h += [0.0] * (max_order + 1 - len(h))
    return EntropyProfile(m=m, n=len(set(seq)), h=h)

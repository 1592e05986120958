"""Empirical entropy of a sequence, by context order.

This is measurement code: it may hash and compare elements freely, and none
of its work is charged to a comparison ledger.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
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


def context_sequences(seq: Sequence, order: int) -> dict[tuple, list]:
    """Successor sequence per order-tuple context, in occurrence order.

    This is the one per-context table: H_order sums |part| * H0(part) over
    its parts, and the order-k budgets sum per-part sort0 budgets. A
    context that only occurs as the sequence's suffix has no entry.
    """
    if order == 0:
        return {(): list(seq)} if len(seq) else {}
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
    return sum(len(part) * h0(Counter(part).values())
               for part in context_sequences(seq, order).values()) / m


@dataclass
class EntropyProfile:
    """Entropy at orders 0..max_order plus the per-context breakdown.

    context_tables[k] maps each k-tuple context to (successor count, H0 of
    the successor distribution).
    """

    m: int
    n: int
    h: list[float]
    context_tables: list[dict[tuple, tuple[int, float]]] = field(repr=False)

    @property
    def max_order(self) -> int:
        return len(self.h) - 1

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "h": list(self.h),
            "contexts_per_order": [len(t) for t in self.context_tables],
        }


def profile(seq: Sequence, max_order: int) -> EntropyProfile:
    """Entropy profile H0..H_max_order with context tables."""
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    if not 0 <= max_order <= m:
        raise ValueError("max_order must be in [0, len(seq)]")
    h: list[float] = []
    tables: list[dict[tuple, tuple[int, float]]] = []
    for k in range(max_order + 1):
        entry = {ctx: (len(part), h0(Counter(part).values()))
                 for ctx, part in context_sequences(seq, k).items()}
        tables.append(entry)
        # At order 0 the one context is the whole input; its H0 is taken
        # as is, because m * H0 / m can differ from H0 in the last bit.
        h.append(entry[()][1] if k == 0 else
                 sum(size * bits for size, bits in entry.values()) / m)
    return EntropyProfile(m=m, n=len(set(seq)), h=h, context_tables=tables)

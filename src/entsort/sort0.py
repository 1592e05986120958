"""Zero-order sorter: one incrementally maintained statistics tree.

Processes the sequence left to right, searching each element in the implicit
weighted tree over everything seen so far, then updating the tree in place
(weight bump on a hit, positional insert next to the arrival leaf on a miss).
The concatenated index lists give a stable sorting permutation, and the
measured comparison count never exceeds an exactly computable per-input
budget. The loop, `scan`, is shared with the order-k sorter, which moves
between one tree per context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import entropy
from .comparator import ComparisonLedger, CountingComparator, delta
from .intmath import ceil_log2, ceil_log2_ratio
from .kernel import EQUAL, PREDECESSOR, get_kernel


@dataclass(frozen=True)
class SortOutcome:
    """Sorting permutation plus the run's comparison accounting.

    permutation holds 1-based original positions in stable sorted order;
    inverse maps each original position to its sorted position. budget is
    the run's exactly computed comparison bound; binary_count <= budget on
    every input. h0 (and h_order for order > 0) report the sequence's
    entropy for envelope checks.
    """

    permutation: list[int]
    inverse: list[int]
    ledger: ComparisonLedger
    budget: int
    h0: float
    order: int = 0
    context_budget: Optional[int] = None
    h_order: Optional[float] = None
    warnings: tuple[str, ...] = field(default=())

    def sorted_values(self, seq: Sequence) -> list:
        return [seq[p - 1] for p in self.permutation]


def invert(permutation: list[int]) -> list[int]:
    """Inverse of a 1-based permutation."""
    inv = [0] * len(permutation)
    for sorted_pos, original in enumerate(permutation, start=1):
        inv[original - 1] = sorted_pos
    return inv


def comparison_budget(seq: Sequence) -> int:
    """Exact per-input comparison bound for sort0, by one counting scan.

    Each first occurrence after the first element charges
    ceil(log2(i-1)) + 3; each repeat charges ceil(log2((i-1)/c)) + 3 where c
    is the element's count so far.
    """
    total = 0
    counts: dict = {}
    for i, s in enumerate(seq, start=1):
        if i == 1:
            counts[s] = 1
            continue
        c = counts.get(s, 0)
        if c == 0:
            total += ceil_log2(i - 1) + 3
        else:
            total += ceil_log2_ratio(i - 1, c) + 3
        counts[s] = c + 1
    return total


def scan(seq: Sequence, first: int, current, cmp: CountingComparator,
         successor) -> None:
    """The main loop of both sorters, from 1-based position *first* on.

    Each element is searched in *current*. On a hit, the leaf gains the
    element's position and the scan moves to the leaf's next-context handle;
    on a miss, the element is inserted next to the leaf the search reached,
    with handle successor(current, s), and the scan moves to that tree.
    """
    for i in range(first, len(seq) + 1):
        s = seq[i - 1]
        j, rel, _, _ = current.descend(s, cmp)
        if rel == EQUAL:
            current.increment(j)
            current = current.append(i, j)
        else:
            nxt = successor(current, s)
            current.insert(s, i, j + 1 if rel == PREDECESSOR else j, nxt)
            current = nxt


def sort0(seq: Sequence, comparator: Optional[CountingComparator] = None,
          kernel_name: Optional[str] = None) -> SortOutcome:
    """Stable-sort *seq* with entropy-adaptive comparison count.

    The one-context case of `scan`: every handle is the single tree.
    """
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    cmp = comparator if comparator is not None else CountingComparator()
    before = cmp.snapshot()
    tree = get_kernel(kernel_name).StatsTree()
    scan(seq, 1, tree, cmp, lambda current, s: tree)
    permutation: list[int] = []
    for _, _, indices, _ in tree.quadruples():
        permutation.extend(indices)
    budget = comparison_budget(seq)
    bits = entropy.h_order(seq, 0)
    return SortOutcome(
        permutation=permutation,
        inverse=invert(permutation),
        ledger=delta(before, cmp.snapshot()),
        budget=budget,
        h0=bits,
        order=0,
        context_budget=budget,
        h_order=bits,
    )

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

    The +3 covers the descent in a tree of total weight W = i-1. A hit on
    a leaf of weight w = c spends at most ceil(log2(W/w)) + 1 search
    comparisons, one per two-child node on the leaf's code path, and a miss
    at most ceil(log2 W) + 1, the longest code. Verification adds at most 2:
    the leaf asks only what the search left open, but the leftmost and
    rightmost leaves have a single boundary split, and an inner leaf whose
    two boundary splits both compare with its neighbours (each at least as
    heavy as it) has neither answered, so 2 can still occur.
    """
    return budget_and_counts(seq)[0]


def budget_and_counts(seq: Sequence) -> tuple[int, dict]:
    """(comparison_budget(seq), element -> count in first-appearance order).

    Both come from the same scan, so that per-context accounting pays one
    pass per context. With p elements before s and c of them equal to it,
    ceil(log2(p / max(c, 1))) is ((p - 1) // max(c, 1)).bit_length().
    """
    total = 0
    counts: dict = {}
    for p, s in enumerate(seq):
        c = counts.get(s, 0)
        if p:
            total += ((p - 1) // (c or 1)).bit_length() + 3
        counts[s] = c + 1
    return total, counts


def scan(seq: Sequence, first: int, current, cmp: CountingComparator,
         successor) -> None:
    """The main loop of both sorters, from 1-based position *first* on.

    Each element is searched in *current*. On a hit, `append` gives the
    leaf the element's position and one more unit of weight, and the scan
    moves to the leaf's next-context handle, which it returns;
    on a miss, the element is inserted next to the leaf the search reached,
    with handle successor(current, s), and the scan moves to that tree.
    """
    for i in range(first, len(seq) + 1):
        s = seq[i - 1]
        j, rel, _, _ = current.descend(s, cmp)
        if rel == EQUAL:
            current = current.append(i, j)
        else:
            nxt = successor(current, s)
            current.insert(s, i, j + 1 if rel == PREDECESSOR else j, nxt)
            current = nxt


def flatten(tree) -> list[int]:
    """The tree's index lists in positional (key) order, concatenated."""
    permutation: list[int] = []
    for _, _, indices, _ in tree.quadruples():
        permutation.extend(indices)
    return permutation


def sort0(seq: Sequence, comparator: Optional[CountingComparator] = None,
          kernel_name: Optional[str] = None) -> SortOutcome:
    """Stable-sort *seq* with entropy-adaptive comparison count.

    The one-context case of `scan`: every handle is the single tree.
    """
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    cmp = comparator if comparator is not None else CountingComparator()
    # The accounting compares nothing; done first, its tables are freed
    # before the tree is built.
    budget = comparison_budget(seq)
    bits = entropy.h_order(seq, 0)
    before = cmp.snapshot()
    tree = get_kernel(kernel_name).StatsTree()
    scan(seq, 1, tree, cmp, lambda current, s: tree)
    permutation = flatten(tree)
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

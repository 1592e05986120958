"""Order-k sorter: one statistics tree per context, chained by rank codes.

Maintains a statistics tree per distinct k-tuple of preceding elements. Each
element is searched only in its context's tree, so search costs track the
order-k entropy rather than the order-0 entropy. The element loop is
`sort0.scan`. Two dictionaries realize the context lookup on a miss:
RankDictionary (element -> first-appearance rank, the only dictionary that
compares elements) and CodeDictionary (rank tuple -> tree, a hash map that
compares no elements). A repeat (k+1)-tuple never touches either dictionary:
the quadruple found by the search carries a handle to the successor
context's tree.

Finalization compares no elements. At order 0 the one tree is already in
key order, and its index lists are concatenated. Above it, each index list
is filed under its key's B1 rank, and B1's in-order walk, which is the
sorted alphabet, gives the order of the ranks (`_read_off`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import log2
from typing import Optional, Sequence

from . import entropy
from .bst import CodeDictionary, RankDictionary, avl_height_bound
from .comparator import CountingComparator, delta
from .kernel import get_kernel
from .sort0 import SortOutcome, budget_and_counts, flatten, invert, scan

# Not called here: perfbench/spans.py, their only reader, wraps these two
# module attributes by name when it traces a run.
from .gamma import encode_tuple  # noqa: F401
from .msort import mergesort_perm  # noqa: F401


@dataclass(frozen=True)
class BudgetBreakdown:
    """Exactly computable comparison bounds for one (sequence, order) run.

    All fields are derived from the input alone, independent of the sorter,
    in one pass over its context table (`entropy.context_sequences`).
    total = context_total + b1 bounds binary_count; h_order is the input's
    order-k entropy.
    """

    order: int
    context_total: int
    b1_ops: int
    b1: int
    h_order: float

    @property
    def total(self) -> int:
        return self.context_total + self.b1


def budget_breakdown(seq: Sequence, order: int) -> BudgetBreakdown:
    """Budgets and H_order from one context table.

    One scan of each context's successor sequence (`budget_and_counts`)
    gives its sort0 budget (the search+verify bound in that context's
    tree) and its successor counts, which give its number of distinct
    successors (the new (order+1)-tuples, each one B1 lookup) and its
    |part| * H0 term. The min(order, m) warm-up elements are one B1 lookup
    each.
    """
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    context_total = new_tuples = 0
    terms: list[tuple[int, float]] = []  # (|part|, H0(part)) per context
    for part in entropy.context_sequences(seq, order).values():
        budget, counts = budget_and_counts(part)
        context_total += budget
        new_tuples += len(counts)
        size = len(part)
        terms.append((size, entropy.h0_bits(counts.values(), size)))
    # At order 0 the one context is the whole input; its H0 is taken as
    # is, because m * H0 / m can differ from H0 in the last bit.
    h_order = terms[0][1] if order == 0 else \
        sum(size * bits for size, bits in terms) / m
    b1_ops = min(order, m) + new_tuples
    per_op = avl_height_bound(len(set(seq))) + 1
    return BudgetBreakdown(
        order=order,
        context_total=context_total,
        b1_ops=b1_ops,
        b1=b1_ops * per_op,
        h_order=h_order,
    )


def _read_off(b1: RankDictionary, trees, boot: tuple) -> list[int]:
    """The stable permutation at order >= 1, with no comparison.

    Every index list goes to its key's rank: each warm-up position's from
    *boot*, each quadruple's as the last rank of its next context. B1's
    in-order walk then visits the ranks in key order; a rank with several
    lists (one key in several contexts) has them merged by index, so the
    permutation is stable. A function of its own, so that the pools are
    freed before the accounting runs.
    """
    pools: list[list] = [[] for _ in range(len(b1) + 1)]
    for k, rank in enumerate(boot, start=1):
        pools[rank].append([k])
    for tree in trees:
        for _, _, indices, nxt in tree.quadruples():
            pools[nxt.context_ranks[-1]].append(indices)
    permutation: list[int] = []
    for _, rank in b1:
        pool = pools[rank]
        permutation.extend(pool[0] if len(pool) == 1
                           else sorted(chain.from_iterable(pool)))
    return permutation


def sortk(seq: Sequence, order: int = 0,
          comparator: Optional[CountingComparator] = None,
          kernel_name: Optional[str] = None) -> SortOutcome:
    """Stable-sort *seq* using order-*order* context trees."""
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    if order < 0:
        raise ValueError("order must be >= 0")
    cmp = comparator if comparator is not None else CountingComparator()
    before = cmp.snapshot()
    tree_cls = get_kernel(kernel_name).StatsTree

    b1 = RankDictionary(cmp)
    b2 = CodeDictionary()

    def tree_for(ranks: tuple) -> object:
        tree = b2.get(ranks)
        if tree is None:
            tree = tree_cls(context_ranks=ranks)
            b2.insert(ranks, tree)
        return tree

    def query_black_box(current, s):
        """Rank s via the element dictionary, then fetch or create the
        successor context's tree via the context dictionary."""
        rank, _ = b1.lookup_or_insert(s)
        if order == 0:
            return tree_for(())
        return tree_for(current.context_ranks[1:] + (rank,))

    boot = tuple(b1.lookup_or_insert(seq[k])[0]
                 for k in range(min(order, m)))
    if m > order:
        scan(seq, order + 1, tree_for(boot), cmp, query_black_box)

    permutation = flatten(b2[()]) if order == 0 else \
        _read_off(b1, b2.values(), boot)
    breakdown = budget_breakdown(seq, order)
    warnings: tuple[str, ...] = ()
    n = len(b1)
    if n > 1 and (n ** (order + 1)) * log2(n) > m:
        warnings = (
            f"n^(order+1)*log2(n) = {(n ** (order + 1)) * log2(n):.0f} "
            f"exceeds m = {m}; entropy bound not guaranteed",
        )
    return SortOutcome(
        permutation=permutation,
        inverse=invert(permutation),
        ledger=delta(before, cmp.snapshot()),
        budget=breakdown.total,
        h0=entropy.h_order(seq, 0),
        order=order,
        context_budget=breakdown.context_total,
        h_order=breakdown.h_order,
        warnings=warnings,
    )

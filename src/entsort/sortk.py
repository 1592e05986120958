"""Order-k sorter: one statistics tree per context, chained by rank codes.

This is the one sorter; `sort0.sort0` is `sortk(seq, 0)`. It maintains a
statistics tree per distinct k-tuple of preceding elements. Each element is
searched only in its context's tree, so search costs track the order-k
entropy rather than the order-0 entropy. The element loop is `sort0.scan`.
Two dictionaries realize the context lookup on a miss: RankDictionary
(element -> first-appearance rank, the only dictionary that compares
elements) and CodeDictionary (rank tuple -> tree, a hash map that compares
no elements). A repeat (k+1)-tuple never touches either dictionary: the
quadruple found by the search carries a handle to the successor context's
tree. At order 0 there is one context, so there is no lookup at all: every
successor is the one tree, and B1 stays empty.

All context trees of one call share one node store (`StatsTree(nodes=...)`),
so a context costs one tree object, not nine lists. That matters where an
input breaks the premise n^(k+1) log n in O(m) and the contexts are many.
The accounting (budgets and H_0) runs before the scan: it compares nothing,
and its tables are freed before the first tree is built.

Finalization compares no elements. At order 0 the one tree is already in
key order, and its index lists are concatenated (`sort0.flatten`). Above
it, each index list is filed under its key's B1 rank, and B1's in-order
walk, which is the sorted alphabet, gives the order of the ranks
(`_read_off`).
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
    order-k entropy; n is its number of distinct elements.
    """

    order: int
    n: int
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
    b1_ops = min(order, m) + new_tuples if order else 0
    n = len(set(seq))
    return BudgetBreakdown(
        order=order,
        n=n,
        context_total=context_total,
        b1_ops=b1_ops,
        b1=b1_ops * (avl_height_bound(n) + 1),
        h_order=entropy.weighted_h(terms, m, order),
    )


def premise_holds(n: int, m: int, order: int) -> bool:
    """Whether n^(order+1) * log2(n) <= m, the premise of the order-k
    entropy bound. No power past float range is formed: when
    (order+1) * floor(log2 n) exceeds m's bit length, n^(order+1) alone is
    above 2m and the premise fails; otherwise n^(order+1) < 4m^2."""
    if n <= 1:
        return True
    if (order + 1) * (n.bit_length() - 1) > m.bit_length():
        return False
    return (n ** (order + 1)) * log2(n) <= m


def _read_off(b1: RankDictionary, trees, boot: tuple) -> list[int]:
    """The stable permutation at order >= 1, with no comparison.

    Every index list goes to its key's rank: each warm-up position's from
    *boot*, each quadruple's as the last rank of its next context. B1's
    in-order walk then visits the ranks in key order; a rank with several
    lists (one key in several contexts) has them merged by index, so the
    permutation is stable.
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
    if order < 0:
        raise ValueError("order must be >= 0")
    cmp = comparator if comparator is not None else CountingComparator()
    # The accounting compares nothing; done first, its tables are freed
    # before any tree exists.
    breakdown = budget_breakdown(seq, order)
    h0 = entropy.h_order(seq, 0)
    before = cmp.snapshot()
    tree_cls = get_kernel(kernel_name).StatsTree

    b1 = RankDictionary(cmp)
    b2 = CodeDictionary()
    store = None  # the first context tree, whose node store all share

    def tree_for(ranks: tuple) -> object:
        nonlocal store
        tree = b2.get(ranks)
        if tree is None:
            tree = tree_cls(context_ranks=ranks, nodes=store)
            if store is None:  # not `not store`: an empty tree is falsy
                store = tree
            b2.insert(ranks, tree)
        return tree

    def query_black_box(current, s):
        """Rank s via the element dictionary, then fetch or create the
        successor context's tree via the context dictionary."""
        rank, _ = b1.lookup_or_insert(s)
        return tree_for(current.context_ranks[1:] + (rank,))

    boot = tuple(b1.lookup_or_insert(seq[k])[0]
                 for k in range(min(order, m)))
    if m > order:
        scan(seq, order + 1, tree_for(boot), cmp,
             query_black_box if order else lambda current, s: current)

    permutation = _read_off(b1, b2.values(), boot) if order else \
        flatten(b2[()])
    warnings: tuple[str, ...] = ()
    n = breakdown.n
    if not premise_holds(n, m, order):
        exponent = (order + 1) * log2(n)
        lhs = (f"{(n ** (order + 1)) * log2(n):.0f}" if exponent < 1000
               else f"2^{exponent:.6g} * {log2(n):.6g}")
        warnings = (
            f"n^(order+1)*log2(n) = {lhs} exceeds m = {m}; "
            "entropy bound not guaranteed",
        )
    return SortOutcome(
        permutation=permutation,
        inverse=invert(permutation),
        ledger=delta(before, cmp.snapshot()),
        budget=breakdown.total,
        h0=h0,
        order=order,
        context_budget=breakdown.context_total,
        h_order=breakdown.h_order,
        warnings=warnings,
    )

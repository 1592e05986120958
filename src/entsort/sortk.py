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

Finalization visits the contexts in the order of their gamma-coded rank
tuples, collects every quadruple plus one dummy per warm-up position, sorts
the groups by key with the instrumented merge sort, and concatenates index
lists; equal keys' lists are merged in increasing index order so the
permutation is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Optional, Sequence

from . import entropy
from .bst import CodeDictionary, RankDictionary, avl_height_bound
from .comparator import (PHASE_MERGE, CountingComparator, delta)
from .gamma import encode_tuple
from .intmath import ceil_log2
from .kernel import get_kernel
from .msort import mergesort_perm
from .sort0 import SortOutcome, budget_and_counts, invert, scan


@dataclass(frozen=True)
class BudgetBreakdown:
    """Exactly computable comparison bounds for one (sequence, order) run.

    All fields are derived from the input alone, independent of the sorter,
    in one pass over its context table (`entropy.context_sequences`).
    total = context_total + b1 + merge bounds binary_count; h_order is the
    input's order-k entropy.
    """

    order: int
    context_total: int
    b1_ops: int
    b1: int
    merge_groups: int
    merge: int
    h_order: float

    @property
    def total(self) -> int:
        return self.context_total + self.b1 + self.merge


def budget_breakdown(seq: Sequence, order: int) -> BudgetBreakdown:
    """Budgets and H_order from one context table.

    One scan of each context's successor sequence (`budget_and_counts`)
    gives its sort0 budget (the search+verify bound in that context's
    tree) and its successor counts, which give its number of distinct
    successors (the new (order+1)-tuples, each one B1 lookup and one merge
    group) and its |part| * H0 term.
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
    dummies = min(order, m)
    b1_ops = (order if m > order else 0) + new_tuples
    per_op = avl_height_bound(len(set(seq))) + 1
    groups = new_tuples + dummies
    merge = groups * ceil_log2(groups) + groups if groups > 1 else 0
    return BudgetBreakdown(
        order=order,
        context_total=context_total,
        b1_ops=b1_ops,
        b1=b1_ops * per_op,
        merge_groups=groups,
        merge=merge,
        h_order=h_order,
    )


def _merge_groups(groups: list[tuple], cmp: CountingComparator) -> list[int]:
    """Sort (key, index list) groups by key and flatten stably.

    Groups are sorted with the instrumented merge sort; adjacent equal keys
    (one comparison each: sortedness already gives a <= b) get their index
    lists pooled and ordered by position, which is integer bookkeeping, not
    an element comparison.
    """
    def leq(a, b):
        return cmp.leq(a[0], b[0], PHASE_MERGE)

    order = mergesort_perm(groups, leq)
    permutation: list[int] = []
    run: list[int] = []
    prev_key = None
    for gi in order:
        key, indices = groups[gi]
        if run and cmp.leq(key, prev_key, PHASE_MERGE):
            run.extend(indices)
        else:
            run.sort()
            permutation.extend(run)
            run = list(indices)
        prev_key = key
    run.sort()
    permutation.extend(run)
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
            tree = tree_cls(context_ranks=ranks[1:])
            b2.insert(ranks, tree)
        return tree

    def query_black_box(current, s):
        """Rank s via the element dictionary, then fetch or create the
        successor context's tree via the context dictionary."""
        rank, _ = b1.lookup_or_insert(s)
        if order == 0:
            return tree_for(())
        return tree_for(current.context_ranks + (rank,))

    if m > order:
        boot = tuple(b1.lookup_or_insert(seq[k])[0] for k in range(order))
        scan(seq, order + 1, tree_for(boot), cmp, query_black_box)

    groups: list[tuple] = []
    for _, tree in sorted(b2.items(), key=lambda kv: encode_tuple(kv[0])):
        for key, _, indices, _ in tree.quadruples():
            groups.append((key, indices))
    for k in range(min(order, m)):
        groups.append((seq[k], [k + 1]))
    permutation = _merge_groups(groups, cmp)

    breakdown = budget_breakdown(seq, order)
    warnings: tuple[str, ...] = ()
    n = len(b1) if m > order else len(set(seq))
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

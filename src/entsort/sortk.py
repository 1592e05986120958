"""The sorter: one statistics tree per context, chained by context ids.

This is the one sorter; `sort0.sort0` is `sortk(seq, 0)`, and `sortk` reads
top to bottom: the element loop, then the read-off. It maintains
a statistics tree per distinct k-tuple of preceding elements. Each element
is searched only in its context's tree, so search costs track the order-k
entropy rather than the order-0 entropy. Two dictionaries realize the
context lookup on a miss: RankDictionary (element -> first-appearance rank,
the only dictionary that compares elements) and CodeDictionary (rank tuple
-> context id, a hash map that compares no elements, used above order 1
only: at order 1 the context after an element is its B1 rank). A repeat
(k+1)-tuple never touches either dictionary: the quadruple found by the
search carries the successor context's id as its handle, which the
kernel's `scan` follows without returning to the loop. At order 0
there is one context, 0, so there is no lookup at all, and B1 stays empty.

The trees of one call are the contexts of one forest (`kernel.StatsTree`),
so a context costs five list slots, not an object. That matters where an
input breaks the premise n^(k+1) log n in O(m) and the contexts are many.
A sort asks its elements nothing but `<=`: its accounting (budgets,
H_order, H_0 and n) is read off the forest after the loop, and hashes
nothing. `budget_breakdown` gives the same fields by definition, before
a sort and as the tests' reference.

The read-off compares no elements. The forest names the leaf of each
sequence position in one array of machine ints, and the read-off is one
stable counting sort of the positions by their keys' slots, the same at
every order: each node gets its key's slot in key order (at order 0 its
place in the one tree's in-order walk, above it its key's place in B1's
in-order rank walk), the node weights and the warm-up ranks give each
slot's run, and positions 1..m go to their runs in increasing order, so
equal keys keep their order with no merge. B1, B2, the rank tuples and
the forest are dropped before the positions are placed, so the
permutation is built beside the leaf array and the slots alone. The sort
ends with the permutation; `SortOutcome.inverse` is computed from it when
first read.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice
from math import log2
from operator import itemgetter
from typing import Optional, Sequence

from . import entropy
from .bst import CodeDictionary, RankDictionary, avl_height_bound
from .comparator import ComparisonLedger, CountingComparator, delta
from .kernel import PREDECESSOR, StatsTree, get_kernel

# Not called here: perfbench/spans.py, their only reader, wraps these two
# module attributes by name when it traces a run.
from .gamma import encode_tuple  # noqa: F401
from .msort import mergesort_perm  # noqa: F401


@dataclass(frozen=True)
class SortOutcome:
    """Sorting permutation plus the run's comparison accounting.

    permutation holds 1-based original positions in stable sorted order;
    inverse maps each original position to its sorted position; it is
    computed from permutation when first read, then kept, and `==`
    compares the fields only. budget is the run's exactly computed
    comparison bound; binary_count <= budget on every input. h0 and
    h_order report the sequence's entropy for envelope checks.
    """

    permutation: list[int]
    ledger: ComparisonLedger
    budget: int
    h0: float
    order: int
    context_budget: int
    h_order: float
    warnings: tuple[str, ...] = ()

    @cached_property
    def inverse(self) -> list[int]:
        return invert(self.permutation)

    def sorted_values(self, seq: Sequence) -> list:
        return [seq[p - 1] for p in self.permutation]


def invert(permutation: list[int]) -> list[int]:
    """Inverse of a 1-based permutation."""
    inv = [0] * len(permutation)
    for sorted_pos, original in enumerate(permutation, start=1):
        inv[original - 1] = sorted_pos
    return inv


@dataclass(frozen=True)
class BudgetBreakdown:
    """Exactly computable comparison bounds for one (sequence, order) run.

    `budget_breakdown` derives every field from the input alone, and
    `sortk` reads the same fields off its forest. total = context_total
    + b1 bounds binary_count; h_order and h0 are the input's order-k and
    order-0 entropies; n is its number of distinct elements.
    """

    order: int
    n: int
    context_total: int
    b1_ops: int
    b1: int
    h_order: float
    h0: float

    @property
    def total(self) -> int:
        return self.context_total + self.b1


def budget_breakdown(seq: Sequence, order: int) -> BudgetBreakdown:
    """Budgets, H_order, H0 and n of *seq* at *order*, by definition: from
    `entropy.context_sequences`, counting elements by hash and `==`. A
    sort reads the same fields off its forest, by the elements' order.

    The budgets are those of the order-0 sorter in each context's tree:
    the p-th successor of a context (p >= 1 before it), with c of those p
    equal to it, is charged ceil(log2(p / max(c, 1))) + 3, where the
    ceiling is ((p - 1) // max(c, 1)).bit_length(). The +3 covers the
    descent in a tree of total weight W = p. A hit on a leaf of weight
    w = c spends at most ceil(log2(W/w)) + 1 search comparisons, one per
    two-child node on the leaf's code path, and a miss at most
    ceil(log2 W) + 1, the longest code. Verification adds at most 2: the
    leaf asks only what the search left open, but the leftmost and
    rightmost leaves have a single boundary split, and an inner leaf whose
    two boundary splits both compare with its neighbours (each at least as
    heavy as it) has neither answered, so 2 can still occur.

    Each distinct successor of a context is a new (order+1)-tuple and one
    B1 lookup, and the min(order, m) warm-up elements are one B1 lookup
    each; order 0 makes no B1 lookup.
    """
    m = len(seq)
    if m == 0:
        raise ValueError("sequence must be non-empty")
    if order < 0:
        raise ValueError("order must be >= 0")
    total = new_tuples = 0
    parts = []
    for successors in entropy.context_sequences(seq, order).values():
        counts = Counter()
        for p, s in enumerate(successors):
            c = counts[s]
            if p:
                total += ((p - 1) // c if c else p - 1).bit_length() + 3
            counts[s] = c + 1
        new_tuples += len(counts)
        if len(counts) > 1:
            parts.append(list(counts.values()))
    return _breakdown(order, m, list(Counter(seq).values()), total,
                      new_tuples, parts)


def _breakdown(order: int, m: int, counts: list[int], context_total: int,
               new_tuples: int, parts) -> BudgetBreakdown:
    """The `BudgetBreakdown` from what both callers count: each distinct
    element's count, the context budget, the number of distinct (context,
    successor) pairs, and the successor counts of each context with two
    values or more. Counts and contexts come in first-occurrence order,
    the summation order of `entropy.context_sequences`, so all floats agree
    bit for bit. H_order is the size-weighted mean of the contexts' H0 (a
    context of one value adds an exact 0.0, so it may be left out), and
    at order 0 H0 as is (m * H0 / m can differ from it in the last bit)."""
    n = len(counts)
    h0 = entropy.h0_bits(counts, m)
    h_order = (sum(sum(part) * entropy.h0_bits(part, sum(part))
                   for part in parts) / m if order else h0)
    b1_ops = min(order, m) + new_tuples if order else 0
    return BudgetBreakdown(
        order=order,
        n=n,
        context_total=context_total,
        b1_ops=b1_ops,
        b1=b1_ops * (avl_height_bound(n) + 1),
        h_order=h_order,
        h0=h0,
    )


def _context_total(forest: StatsTree, start: int, ctx: int) -> int:
    """The context budget, read off a sort's forest by replaying its leaf
    array from position *start*, whose context is *ctx*; each later
    position's context is the handle of the previous position's leaf. p
    and c count the positions so far of the context and of the leaf."""
    nxt = forest._next
    seen = [0] * len(nxt)  # per node
    so_far = [0] * len(forest._root)  # per context
    total = 0
    for v in islice(forest._leaf, start, None):
        p = so_far[ctx]
        c = seen[v]
        if p:
            total += ((p - 1) // c if c else p - 1).bit_length() + 3
        so_far[ctx] = p + 1
        seen[v] = c + 1
        ctx = nxt[v]
    return total


def _parts(forest: StatsTree):
    """Each context's leaf weights in node-id order, for the contexts of
    two leaves or more."""
    weight = forest._weight
    for root, t in zip(forest._root, forest._len):
        if t > 1:
            yield [weight[v] for v in sorted(forest._inorder(root))]


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


def place(slots, starts: array, m: int) -> list[int]:
    """The stable counting sort's last pass: the m positions 1, 2, ...,
    whose key slots *slots* gives in that order, each to the next free
    place of its slot's run in the result. starts[s] is where slot s's run
    begins (0-based); it moves up as the run fills."""
    out = [0] * m
    for i, slot in enumerate(slots, 1):
        p = starts[slot]
        out[p] = i
        starts[slot] = p + 1
    return out


def sortk(seq: Sequence, order: int = 0,
          comparator: Optional[CountingComparator] = None,
          kernel_name: Optional[str] = None) -> SortOutcome:
    """Stable-sort *seq* using order-*order* context trees.

    The element loop runs from position order + 1 on: each element is
    searched in the current context's tree, from that of the warm-up
    ranks on. The hits stay in the kernel: `forest.scan` records
    each one (the leaf gets the element's position and one more unit of
    weight) and moves on to the leaf's next-context handle, and it returns
    at the next miss, with the context it was searched in. The missed
    element is inserted next to the leaf the search reached, with the
    successor context's id as its handle, and the loop scans on from
    there. At order 1 that id is the element's B1 rank (a new rank adds a
    context; context 0 stays empty), above it B2 maps the rank tuple to it
    (a new tuple adds a context), and at order 0 it is context 0.

    The permutation is then read off with no comparison, by a stable
    counting sort of the positions by key slot. A slot is a key's place in
    key order: at order 0 a node's place in the one tree's in-order walk;
    above it the place, in B1's in-order rank walk, of the last rank of
    the node's next context (at order 1 its handle is that rank), and the
    place of its rank for a warm-up position. The map from ranks to slots
    is sized from that walk. The node weights and one per warm-up position
    count each slot's positions, prefix sums turn the counts into the
    starts of the slots' runs, and `place` puts positions 1..m, in
    increasing order, each at the next free place of its slot's run, so
    equal keys keep their order. When `place` starts, the call holds no
    reference to B1, B2, the rank tuples or the forest.

    The accounting is read off the forest and the slots' counts, by the
    order: ids are in order of first occurrence, so each field equals
    `budget_breakdown`'s bit for bit, with no hash and no `==`.
    """
    m = len(seq)
    if order < 0:
        raise ValueError("order must be >= 0")
    if m == 0:
        raise ValueError("sequence must be non-empty")
    cmp = comparator if comparator is not None else CountingComparator()
    before = cmp.snapshot()
    get_kernel(kernel_name)  # refuses an unknown name
    forest = StatsTree()
    b1 = RankDictionary(cmp)
    b2 = CodeDictionary() if order > 1 else None
    boot = tuple(b1.lookup_or_insert(seq[k])[0]
                 for k in range(min(order, m)))
    ranks_of = [boot]  # context id -> rank tuple, above order 1
    current = forest.add_context() if order == 1 else 0  # seq[0]'s rank, 1
    if order > 1:
        b2.insert(boot, 0)
    first = current  # the context of position min(order, m) + 1
    items = enumerate(islice(seq, min(order, m), None), order + 1)
    while (miss := forest.scan(items, current, cmp)) is not None:
        i, s, current, j, rel = miss
        nxt = current
        if order == 1:
            nxt, new = b1.lookup_or_insert(s)
            if new:
                forest.add_context()
        elif order:
            rank, _ = b1.lookup_or_insert(s)
            ranks = ranks_of[current][1:] + (rank,)
            nxt = b2.get(ranks)
            if nxt is None:
                nxt = forest.add_context()
                ranks_of.append(ranks)
                b2.insert(ranks, nxt)
        forest.insert(s, i, j + 1 if rel == PREDECESSOR else j, nxt, current)
        current = nxt

    # Each structure is dropped once the read-off has taken what it needs,
    # never emptied: a caller may still hold it (perfbench's tracer reads
    # every forest after the call). Key order is B1's in-order rank walk,
    # or at order 0 the one tree's in-order walk.
    walk = list(b1.ranks() if order else forest._inorder(forest._root[0]))
    b1 = b2 = None
    # The replay's two count lists come and go before the slots are built:
    # B2 held more than they do, and the slots will too.
    context_total = _context_total(forest, min(order, m) + 1, first)
    size = len(walk)
    slot_of = [0] * (size + 1)  # a rank (at order 0 a node) -> its slot
    for slot, x in enumerate(walk):
        slot_of[x] = slot
    warm = [slot_of[rank] for rank in ranks_of[0]]  # none at order 0
    node_slot = slot_of
    if order:
        handles = islice(forest._next, 1, None)
        if order > 1:  # handles are context ids, not ranks
            handles = map(itemgetter(-1), map(ranks_of.__getitem__, handles))
        node_slot = [0]
        node_slot += map(slot_of.__getitem__, handles)
    ranks_of = walk = handles = None
    starts = array("I", bytes(4 * size))  # slot -> its number of positions
    for slot, w in zip(node_slot, forest._weight):  # node 0 weighs 0
        starts[slot] += w
    for slot in warm:
        starts[slot] += 1
    # Each key's count, keys in first-occurrence order: a rank's (at order
    # 0 a node's) is its slot's.
    breakdown = _breakdown(
        order, m, list(map(starts.__getitem__, islice(slot_of, 1, None))),
        context_total, len(forest._weight) - 1, _parts(forest))
    slot_of = None
    starts = array("I", accumulate(starts, initial=0))  # -> its run's start
    leaf = forest._leaf
    forest = None
    permutation = place(chain(warm, map(node_slot.__getitem__,
                                        islice(leaf, len(warm) + 1, None))),
                        starts, m)
    warnings = []
    n = breakdown.n
    if not premise_holds(n, m, order):
        exponent = (order + 1) * log2(n)
        lhs = (f"{(n ** (order + 1)) * log2(n):.0f}" if exponent < 1000
               else f"2^{exponent:.6g} * {log2(n):.6g}")
        warnings.append(f"n^(order+1)*log2(n) = {lhs} exceeds m = {m}; "
                        "entropy bound not guaranteed")
    return SortOutcome(
        permutation=permutation,
        ledger=delta(before, cmp.snapshot()),
        budget=breakdown.total,
        h0=breakdown.h0,
        order=order,
        context_budget=breakdown.context_total,
        h_order=breakdown.h_order,
        warnings=tuple(warnings),
    )

"""`StatsTree.scan`, the element loop's hit path, against the loop it
replaces: `descend` per element, then `append` on a hit or `insert` on a
miss. The two must leave the same node store, position -> leaf array and
ledger; a scan stops at the first miss with the forest unchanged for that
item, and a refused hit raises before it changes anything.

The top of each context's tree, which the kernel reads off its weights:
the root split at F = W, a lone leaf that is searched by verification
alone, and a context's first leaf, inserted with no walk."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Spy
from entsort import kernel as kernel_module
from entsort.comparator import SEARCH, VERIFY, CountingComparator
from entsort.kernel import EQUAL, PREDECESSOR, SUCCESSOR, StatsTree
from oracles import from_pairs, quadruples, validate

STORE = ("_left", "_right", "_height", "_rank", "_weight", "_off", "_keys",
         "_next", "_root", "_first", "_last", "_len", "_total")


def state(forest):
    """Copies of every list of the forest, the leaf array included."""
    return ([list(getattr(forest, name)) for name in STORE]
            + [forest._leaf.tolist()])


def replay(forest, items, ctx, cmp, handle=None):
    """The element loop without `scan`: `descend`, then `append` on a hit
    or, on a miss, `insert` with handle(s) as the new leaf's handle. Returns
    the context after the last item."""
    for i, s in items:
        j, rel, _, _ = forest.descend(s, cmp, ctx)
        if rel == EQUAL:
            ctx = forest.append(i, j, ctx)
        else:
            nxt = handle(s)
            forest.insert(s, i, j + 1 if rel == PREDECESSOR else j, nxt, ctx)
            ctx = nxt
    return ctx


def scanned(forest, items, ctx, cmp, handle):
    """The element loop as `sortk` runs it: `scan` to each miss, then
    `insert`."""
    items = iter(items)
    while (miss := forest.scan(items, ctx, cmp)) is not None:
        i, s, ctx, j, rel = miss
        nxt = handle(s)
        forest.insert(s, i, j + 1 if rel == PREDECESSOR else j, nxt, ctx)
        ctx = nxt


def two_contexts(a, b):
    """Context 0 holds key a, whose handle is context 1; context 1 holds
    key b, whose handle is context 0. Positions 1 and 2 are taken."""
    forest = StatsTree()
    other = forest.add_context()
    forest.insert(a, 1, 1, other, 0)
    forest.insert(b, 2, 1, 0, other)
    return forest


def test_scan_records_hits_then_returns_the_first_miss():
    """Three hits are recorded, each moving to its leaf's handle; the
    fourth item misses in context 0, between "a" and "c", and comes back
    with its position, element, context, leaf and relation, while the
    forest holds no trace of it and the iterator still has the rest."""
    forest = StatsTree()
    other = forest.add_context()
    forest.insert("a", 1, 1, other, 0)
    forest.insert("c", 2, 2, 0, 0)
    forest.insert("b", 3, 1, 0, other)
    twin = StatsTree()
    twin.add_context()
    twin.insert("a", 1, 1, other, 0)
    twin.insert("c", 2, 2, 0, 0)
    twin.insert("b", 3, 1, 0, other)
    cmp, twin_cmp = CountingComparator(), CountingComparator()
    items = iter([(4, "a"), (5, "b"), (6, "c"), (7, "b"), (8, "x")])
    i, s, ctx, j, rel = forest.scan(items, 0, cmp)
    assert (i, s, ctx) == (7, "b", 0)
    assert (j, rel) in ((1, PREDECESSOR), (2, SUCCESSOR))
    assert next(items) == (8, "x")
    assert quadruples(forest, 0) == [("a", 2, [1, 4], other),
                                     ("c", 2, [2, 6], 0)]
    assert quadruples(forest, other) == [("b", 2, [3, 5], 0)]
    assert len(forest._leaf) == 7  # positions 0-6: nothing for position 7
    # The same hits, one call each, then the miss's descent alone.
    assert replay(twin, [(4, "a"), (5, "b"), (6, "c")], 0, twin_cmp) == 0
    assert twin.descend("b", twin_cmp, 0)[:2] == (j, rel)
    assert state(forest) == state(twin)
    assert cmp.counts == twin_cmp.counts
    validate(forest, 0)
    validate(forest, other)


def test_scan_returns_none_when_the_items_run_out():
    forest = two_contexts("a", "b")
    cmp = CountingComparator()
    assert forest.scan(iter([(3, "a"), (4, "b")]), 0, cmp) is None
    assert forest.scan(iter([]), 0, cmp) is None
    assert quadruples(forest, 0) == [("a", 2, [1, 3], 1)]
    assert quadruples(forest, 1) == [("b", 2, [2, 4], 0)]


def test_scan_on_an_empty_context_is_a_free_miss():
    forest = StatsTree()
    cmp = CountingComparator()
    assert forest.scan(iter([(1, "q")]), 0, cmp) == (1, "q", 0, 1, SUCCESSOR)
    assert cmp.snapshot().binary_count == 0
    assert state(forest) == state(StatsTree())


@pytest.mark.parametrize("cap, position, error, match", [
    (3, 7, OverflowError, "word width"),
    (None, 6, ValueError, "increasing order"),
    (None, kernel_module.MAX_POSITION + 1, ValueError, "MAX_POSITION"),
])
def test_refused_hit_inside_scan_changes_nothing(monkeypatch, cap, position,
                                                 error, match):
    """Four hits go in; the fifth is refused, by the weight cap (context 0
    then holds 3 units, the cap set here) or by its position, and raises
    before it changes anything: the forest equals one that recorded the
    four hits alone. The refused item's descent is still counted, so the
    ledger equals the Spy's count of order queries."""
    if cap is not None:
        monkeypatch.setattr(kernel_module, "MAX_TOTAL_WEIGHT", cap)
    a, b = Spy("a"), Spy("b")
    hits = [(3, a), (4, b), (5, a), (6, b)]
    items = hits + [(position, a), (position + 1, b)]
    forest = two_contexts(a, b)
    cmp = CountingComparator()
    Spy.reset()
    with pytest.raises(error, match=match):
        forest.scan(iter(items), 0, cmp)
    assert Spy.order_comparisons == cmp.snapshot().binary_count > 0
    twin = two_contexts(a, b)
    twin_cmp = CountingComparator()
    assert replay(twin, hits, 0, twin_cmp) == 0
    twin.descend(a, twin_cmp, 0)  # the refused item's search
    assert state(forest) == state(twin)
    assert cmp.counts == twin_cmp.counts
    validate(forest, 0)
    validate(forest, 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)),
                min_size=1, max_size=120),
       st.booleans())
def test_scan_equals_descend_then_append(pairs, per_key):
    """On random elements, at random increasing positions (gaps make the
    leaf array skip ahead), the scan loop and the element-by-element loop
    build the same node store, leaf array and ledger, with one context
    (order 0) or one context per key, where a new leaf's handle is its
    key's context (as at order 1)."""
    items, i = [], 0
    for s, gap in pairs:
        i += gap
        items.append((i, s))
    forests = StatsTree(), StatsTree()
    if per_key:
        for forest in forests:
            for _ in range(6):
                forest.add_context()
    handle = (lambda s: s + 1) if per_key else (lambda s: 0)
    start = 1 if per_key else 0
    by_scan, by_call = CountingComparator(), CountingComparator()
    scanned(forests[0], items, start, by_scan, handle)
    replay(forests[1], items, start, by_call, handle)
    assert state(forests[0]) == state(forests[1])
    assert by_scan.counts == by_call.counts
    for ctx in range(len(forests[0]._root)):
        validate(forests[0], ctx)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, kernel_module.MAX_TOTAL_WEIGHT // 64),
                min_size=2, max_size=50))
def test_the_root_split_is_the_total_weight(weights):
    """With t >= 2 leaves, F_1 = w_1 < W <= 2W - w_t = F_t, so the p-bit
    end codes, 2^(p-1) <= 2W < 2^p, first differ at bit p - 1, and the
    split that `scan` derives from two codes comes out as W, with the
    split leaf inside the range 1..t-1. So `scan` starts at F = W."""
    total = sum(weights)
    two_w = 2 * total
    p = two_w.bit_length()
    c_first = (weights[0] << p) // two_w
    c_last = ((two_w - weights[-1]) << p) // two_w
    k = (c_first ^ c_last).bit_length() - 1
    assert k == p - 1
    assert -((-(c_last >> k << k) * two_w) >> p) == total
    f, below = 0, 0  # F_j = 2 * S_{j-1} + w_j; leaves with F_j < W
    for w in weights:
        below += f + w < total
        f += 2 * w
    assert 1 <= below < len(weights)


@pytest.mark.parametrize("beside", [False, True])
def test_first_insert_into_an_empty_context(beside):
    """A context's first leaf is written with no walk, after `insert`'s
    checks: a position other than 1, a used or zero position and one past
    MAX_POSITION are refused with the node store and the leaf array
    unchanged. The new node is then the context's root, first and last
    node, and the context grows by `append` and `insert` into the tree
    that `from_pairs` builds from its keys, weights and index lists. Both
    in context 0 of a new forest and in a context added beside a
    non-empty one."""
    forest = StatsTree()
    ctx, refused = 0, [0, kernel_module.MAX_POSITION + 1]
    if beside:
        forest.insert("m", 1, 1, None, 0)
        forest.insert("q", 2, 2, None, 0)
        ctx = forest.add_context()
        refused.append(2)
    before = state(forest)
    with pytest.raises(IndexError):
        forest.insert("k", 5, 2, None, ctx)
    for i in refused:
        with pytest.raises(ValueError, match="increasing order"):
            forest.insert("k", i, 1, None, ctx)
    assert state(forest) == before
    forest.insert("k", 5, 1, None, ctx)
    u = len(forest._keys) - 1
    assert forest._root[ctx] == forest._first[ctx] == forest._last[ctx] == u
    assert forest._leaf[5] == u
    validate(forest, ctx)
    forest.append(6, 1, ctx)
    forest.insert("c", 7, 1, None, ctx)
    if beside:
        forest.append(8, 1, 0)
    forest.insert("t", 9, 3, None, ctx)
    forest.append(10, 2, ctx)
    forest.insert("p", 11, 3, None, ctx)
    built = from_pairs("ckpt", [1, 3, 1, 1], [[7], [5, 6, 10], [11], [9]])
    assert quadruples(forest, ctx) == quadruples(built)
    for c in range(len(forest._root)):
        validate(forest, c)


def test_scan_on_a_lone_leaf():
    """A one-leaf context has no split: a hit costs two verify comparisons
    and no search comparison, and a miss comes back after one (`a <= s`
    fails) or two, with the forest unchanged for it."""
    forest = StatsTree()
    forest.insert("m", 1, 1, 0)
    cmp = CountingComparator()
    assert forest.scan(iter([(2, "m")]), 0, cmp) is None
    assert (cmp.counts[SEARCH], cmp.counts[VERIFY]) == (0, 2)
    assert quadruples(forest) == [("m", 2, [1, 2], 0)]
    validate(forest)
    before = state(forest)
    for s, verify, rel in (("a", 1, SUCCESSOR), ("z", 2, PREDECESSOR)):
        cmp = CountingComparator()
        assert forest.scan(iter([(3, s)]), 0, cmp) == (3, s, 0, 1, rel)
        assert (cmp.counts[SEARCH], cmp.counts[VERIFY]) == (0, verify)
        assert state(forest) == before

import dataclasses
import gc
import json
import random
import sys
import tracemalloc
import types
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Spy, run_capped, sort0_budget, stable_perm
from corpora import correctness_corpus, envelope_corpus
import entsort
from entsort import entropy
from entsort.bench import SourceSpec, generate
from entsort.bst import CodeDictionary, RankDictionary, avl_height_bound
from entsort.comparator import (PHASE_B1, PHASE_MERGE, PHASE_SEARCH,
                                PHASE_VERIFY)
from entsort.kernel import StatsTree
from entsort.sort0 import comparison_budget, sort0
from entsort.sortk import BudgetBreakdown, budget_breakdown, sortk
from oracles import dictionary_size, validate

TORONTO = list("TORONTO")


MARKOV = generate(SourceSpec(kind="markov", n=16, m=3000, seed=5))
# About half of the elements are new: B1 ends with 3,545 keys at height 14.
BIGALPHA = generate(SourceSpec(kind="markov", n=4096, m=8192, noise=0.1,
                               seed=7))

# (sequence, order or None for sort0) -> search, verify, b1, merge, total.
GOLDEN_LEDGERS = [
    (TORONTO, None, (7, 6, 0, 0, 13)),
    (TORONTO, 0, (7, 6, 0, 0, 13)),
    (TORONTO, 1, (0, 3, 14, 0, 17)),
    (TORONTO, 2, (0, 0, 18, 0, 18)),
    (TORONTO, 3, (0, 0, 18, 0, 18)),
    (MARKOV, 1, (2610, 3386, 295, 0, 6291)),
    (MARKOV, 2, (2565, 3337, 522, 0, 6424)),
    (BIGALPHA, 1, (524, 8619, 49284, 0, 58427)),
]


def distinct_tuples(seq, order):
    return len({tuple(seq[i - order:i + 1])
                for i in range(order, len(seq))})


def test_toronto_all_orders(kernel):
    for order in (0, 1, 2, 3):
        out = sortk(TORONTO, order, kernel_name=kernel.KERNEL_NAME)
        assert out.permutation == [5, 2, 4, 7, 3, 1, 6]
        assert "".join(out.sorted_values(TORONTO)) == "NOOORTT"
        assert out.ledger.binary_count <= out.budget
        searches = out.ledger.count(PHASE_SEARCH) \
            + out.ledger.count(PHASE_VERIFY)
        assert searches <= out.context_budget


def test_order_zero_matches_sort0_exactly(kernel):
    """Order 0 is sort0, field by field (permutation, ledger, budget,
    context_budget, h0, h_order, warnings; inverse follows from
    permutation), with no B1 lookup."""
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randrange(1, 200)
        seq = [rng.randrange(rng.choice([1, 2, 9, 60])) for _ in range(m)]
        a = sort0(seq, kernel_name=kernel.KERNEL_NAME)
        b = sortk(seq, 0, kernel_name=kernel.KERNEL_NAME)
        assert b == a
        assert b.ledger.count(PHASE_B1) == 0
        assert b.ledger.count(PHASE_MERGE) == 0
        assert b.budget == b.context_budget == comparison_budget(seq)


def test_golden_ledgers():
    """Exact phase counts, pinned. Finalization reads the key order off
    the rank dictionary, so the final-merge phase is 0 at every order."""
    for seq, order, want in GOLDEN_LEDGERS:
        out = sort0(seq) if order is None else sortk(seq, order)
        report = out.ledger.as_report()
        got = tuple(report[phase]
                    for phase in ("search", "verify", "b1", "merge", "total"))
        assert got == want, (len(seq), order)


def test_periodic_advantage():
    for k in (2, 5, 50, 1000):
        seq = list("abc") * k
        m = len(seq)
        out = sortk(seq, 1)
        assert out.permutation == stable_perm(seq)
        assert out.ledger.binary_count <= 3 * m
        assert out.h_order == 0.0


def test_budget_breakdown_fields():
    bd = budget_breakdown(TORONTO, 1)
    assert bd.order == 1
    assert bd.b1_ops == 1 + distinct_tuples(TORONTO, 1)
    assert bd.total == bd.context_total + bd.b1
    bd0 = budget_breakdown(["z"], 0)
    assert bd0.b1_ops == 0 and bd0.total == bd0.context_total + bd0.b1
    bd_short = budget_breakdown(["z", "y"], 3)
    assert bd_short.b1_ops == 2 and bd_short.context_total == 0
    with pytest.raises(ValueError):
        budget_breakdown([], 1)


def successor_lists(seq, order):
    """Oracle context table: successors of each order-tuple, in order."""
    table = {}
    for i in range(order, len(seq)):
        table.setdefault(tuple(seq[i - order:i]), []).append(seq[i])
    return table


def test_budget_breakdown_matches_oracle():
    """Every breakdown field against its definition, on random inputs:
    per-context sort0 budgets over the successor lists, one B1 lookup per
    warm-up element and per distinct (order+1)-tuple above order 0 and
    none at order 0, and H_order exactly."""
    rng = random.Random(61)
    for _ in range(150):
        m = rng.randrange(1, 160)
        n = rng.choice([1, 2, 3, 7, 40])
        seq = [rng.randrange(n) for _ in range(m)]
        for order in (0, 1, 2, 3):
            bd = budget_breakdown(seq, order)
            parts = successor_lists(seq, order).values()
            tuples = distinct_tuples(seq, order)
            assert bd.order == order
            assert bd.context_total == sum(sort0_budget(p) for p in parts)
            assert bd.b1_ops == (min(order, m) + tuples if order else 0)
            assert bd.b1 == bd.b1_ops * (avl_height_bound(len(set(seq)))
                                         + 1)
            assert bd.total == bd.context_total + bd.b1
            if order == 0:
                assert bd.total == sort0_budget(seq)
            assert bd.h_order == entropy.h_order(seq, order)


def two_pass_breakdown(seq, order):
    """The accounting as two passes over a context table, then separate
    passes for n and H0, with sort0's charge counted up by
    `conftest.sort0_budget`: an oracle for `budget_breakdown`."""
    m = len(seq)
    context_total = new_tuples = 0
    terms = []
    for part in entropy.context_sequences(seq, order).values():
        counts = Counter(part)
        context_total += sort0_budget(part)
        new_tuples += len(counts)
        terms.append((len(part), entropy.h0_bits(counts.values(), len(part))))
    b1_ops = min(order, m) + new_tuples if order else 0
    n = len(set(seq))
    return BudgetBreakdown(
        order=order, n=n, context_total=context_total, b1_ops=b1_ops,
        b1=b1_ops * (avl_height_bound(n) + 1),
        # The size-weighted mean of the parts' H0; at order 0 the one
        # part's H0 as is, since m * H0 / m can differ from it in the last
        # bit.
        h_order=(sum(size * bits for size, bits in terms) / m if order
                 else terms[0][1]),
        h0=entropy.h_order(seq, 0))


# Keys that compare equal across types (1 == 1.0 == True) group as one.
MIXED_POOL = list(range(12)) + [0.0, 1.0, 2.5, True, False]
MIXED_KEYS = st.sampled_from(MIXED_POOL)
# Long inputs have many contexts, so a change in summation order shows.
LONG_MIXED = st.builds(lambda rnd, m: [rnd.choice(MIXED_POOL)
                                       for _ in range(m)],
                       st.randoms(use_true_random=False),
                       st.integers(min_value=100, max_value=400))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_pass_breakdown_equals_two_pass_definition(data):
    """Every field, floats by repr, at every order from 0 to m + 1; the
    sort's own accounting, read off its forest, gives the same entropies
    and budgets."""
    seq = data.draw(st.one_of(st.lists(MIXED_KEYS, min_size=1, max_size=1),
                              st.lists(MIXED_KEYS, min_size=1, max_size=90),
                              LONG_MIXED))
    order = data.draw(st.one_of(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=len(seq) + 1)))
    assert repr(budget_breakdown(seq, order)) == \
        repr(two_pass_breakdown(seq, order))
    out = sortk(seq, order)
    assert repr(out.h0) == repr(entropy.h_order(seq, 0))
    assert repr(out.h_order) == repr(entropy.h_order(seq, order))
    bd = budget_breakdown(seq, order)
    assert (out.budget, out.context_budget) == (bd.total, bd.context_total)


def test_forest_breakdown_equals_definition_on_frozen_corpora():
    """The accounting that a sort reads off its forest is the definition's
    (`budget_breakdown`): budget, context budget, h0 and h_order, floats by
    repr, on the correctness corpus at orders 0-3 and on the envelope
    corpus, whose inputs run to 65,536 elements, at each input's order."""
    runs = [(seq, order) for _, seq in correctness_corpus()
            for order in (0, 1, 2, 3)]
    runs += [(seq, order) for _, seq, order in envelope_corpus()]
    for seq, order in runs:
        out = sortk(seq, order)
        bd = budget_breakdown(seq, order)
        assert (out.budget, out.context_budget, repr(out.h0),
                repr(out.h_order)) == \
            (bd.total, bd.context_total, repr(bd.h0),
             repr(bd.h_order)), (len(seq), order)


def test_inverse_computed_only_when_read(monkeypatch):
    """`sortk` never builds the inverse permutation: `invert` runs only
    when `SortOutcome.inverse` is read, and then gives the inverse of the
    permutation. No context tree and no rank dictionary outlives the
    call."""
    sortk_module = sys.modules["entsort.sortk"]
    original = sortk_module.invert

    def refuse(permutation):
        raise AssertionError("invert called")

    def count(cls):
        return sum(isinstance(obj, cls) for obj in gc.get_objects())

    rng = random.Random(3)
    seq = [rng.randrange(12) for _ in range(400)]
    for order in (0, 1, 2):
        gc.collect()
        before = (count(StatsTree), count(RankDictionary))
        with monkeypatch.context() as patch:
            patch.setattr(sortk_module, "invert", refuse)
            out = sortk(seq, order)
        assert out.permutation == stable_perm(seq)
        assert out.inverse == original(out.permutation)
        assert (count(StatsTree), count(RankDictionary)) == before, order


def test_inverse_computed_once(monkeypatch):
    """Reading `SortOutcome.inverse` again does not run `invert` again: the
    first read keeps the list. Equality still compares the fields only."""
    sortk_module = sys.modules["entsort.sortk"]
    original = sortk_module.invert
    calls = []

    def counted(permutation):
        calls.append(len(permutation))
        return original(permutation)

    monkeypatch.setattr(sortk_module, "invert", counted)
    out = sortk([3, 1, 2, 1, 3], 1)
    fresh = dataclasses.replace(out)
    first = out.inverse
    assert out.inverse is first and calls == [5]
    assert first == original(out.permutation)
    assert out == fresh and "inverse" not in vars(fresh)


def test_black_box_query_count(kernel, monkeypatch):
    """The dictionaries are consulted once per new distinct tuple, never on
    repeats, plus the warm-up lookups; never at order 0, whose one
    context needs no lookup."""
    calls = {"n": 0}
    original = RankDictionary.lookup_or_insert

    def counting(self, elem):
        calls["n"] += 1
        return original(self, elem)

    monkeypatch.setattr(RankDictionary, "lookup_or_insert", counting)
    rng = random.Random(15)
    for order in (0, 1, 2):
        for _ in range(15):
            m = rng.randrange(order + 1, 120)
            n = rng.choice([1, 2, 5])
            seq = [rng.randrange(n) for _ in range(m)]
            calls["n"] = 0
            sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
            expected = order + distinct_tuples(seq, order) if order else 0
            assert calls["n"] == expected
            assert calls["n"] <= order + n ** (order + 1)


def test_every_comparison_flows_through_ledger(kernel):
    """Spy elements see exactly as many order queries as the ledger
    records: nothing bypasses the comparator, and the bit-string
    dictionary contributes zero."""
    rng = random.Random(21)
    for order in (0, 1, 2):
        raw = [rng.randrange(6) for _ in range(300)]
        seq = [Spy(v) for v in raw]
        Spy.reset()
        out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
        assert Spy.order_comparisons == out.ledger.binary_count
        assert [s.value for s in out.sorted_values(seq)] == sorted(raw)


class RaiseOnCall:
    """Element whose `<=` raises TypeError on the k-th call made on any
    element of its sequence, and answers by value before that; it hashes
    and compares equal by value."""

    __slots__ = ("value", "left")

    def __init__(self, value, left: list):
        self.value = value
        self.left = left  # [calls left until the one that raises]

    def __le__(self, other):
        self.left[0] -= 1
        if not self.left[0]:
            raise TypeError("comparison refused")
        return self.value <= other.value

    def __eq__(self, other):
        return isinstance(other, RaiseOnCall) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


# The phase of each comparison that sortk(RAISE_SEQ, 1) makes, in order
# (b: b1, s: search, v: verify). Call 19 is a descent's first verification
# after its search, call 22 the middle one of a three-comparison B1 lookup.
RAISE_SEQ = [5, 3, 5, 3, 5, 4, 5, 3, 4, 5, 3]
RAISE_PHASES = "bbbbbvvvvvvbbbbbbsvvbbbvvsv"


def test_raising_comparison_leaves_the_ledger_exact():
    """A comparison that raises is charged to its phase, with every one
    before it, whether a descent or a B1 lookup asked it."""
    names = {"b": PHASE_B1, "s": PHASE_SEARCH, "v": PHASE_VERIFY}

    def split(k: int) -> dict:
        """Per-phase counts of the first k comparisons."""
        made = Counter(RAISE_PHASES[:k])
        return {names[c]: made[c] for c in names}

    full = sortk(RAISE_SEQ, 1).ledger
    assert full.binary_count == len(RAISE_PHASES)
    assert {p: full.count(p) for p in names.values()} == \
        split(len(RAISE_PHASES))
    for k in range(1, len(RAISE_PHASES) + 1):
        cmp = entsort.CountingComparator()
        left = [k]  # shared by every element
        with pytest.raises(TypeError, match="comparison refused"):
            sortk([RaiseOnCall(v, left) for v in RAISE_SEQ], 1, cmp)
        assert cmp.binary_count == k
        assert {p: cmp.phase_count(p) for p in names.values()} == split(k), k


def test_degenerate_order_at_least_m(kernel):
    """With m <= order there is no scan: every element is a warm-up
    dummy, ranked by one B1 lookup, and nothing else is compared."""
    seq = [3, 1, 2, 1]
    for order in (4, 5, 10):
        out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
        assert out.permutation == stable_perm(seq)
        led = out.ledger
        assert led.count(PHASE_SEARCH) == 0
        assert led.count(PHASE_VERIFY) == 0
        assert led.count(PHASE_MERGE) == 0
        assert led.binary_count == led.count(PHASE_B1) == 8
        assert out.budget == budget_breakdown(seq, order).b1 == 4 * 4


HUGE_ORDER_SCRIPT = """
import json, sys
from conftest import Spy, stable_perm
from entsort.sortk import sortk
raw = json.loads(sys.argv[1])
seq = [Spy(v) for v in raw]
out = sortk(seq, 10 ** 20)
print(json.dumps([out.permutation == stable_perm(raw), out.budget,
                  out.ledger.binary_count, Spy.order_comparisons,
                  list(out.warnings)]))
"""


def test_orders_from_m_up(kernel):
    """Orders m, m + 1 and 10**20 give the stable permutation within the
    budget, and the Spy tally equals the ledger total. The 10**20 case runs
    in a capped subprocess, so that building order-sized tables or powers
    fails cleanly instead of exhausting the machine."""
    raw = [3, 1, 4, 1, 5, 9, 2, 6, 5]
    m = len(raw)
    for order in (m, m + 1):
        seq = [Spy(v) for v in raw]
        Spy.reset()
        out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
        assert out.permutation == stable_perm(raw)
        assert out.ledger.binary_count <= out.budget
        assert Spy.order_comparisons == out.ledger.binary_count
    run = run_capped("-c", HUGE_ORDER_SCRIPT, json.dumps(raw))
    assert run.returncode == 0, run.stderr
    stable, budget, count, spied, warnings = json.loads(run.stdout)
    assert stable and count <= budget and spied == count
    assert len(warnings) == 1 and "not guaranteed" in warnings[0]


def test_warning_on_violated_premise(kernel):
    rng = random.Random(33)
    seq = [rng.randrange(64) for _ in range(100)]  # 64^2 * 6 >> 100
    out = sortk(seq, 1, kernel_name=kernel.KERNEL_NAME)
    assert out.warnings and "not guaranteed" in out.warnings[0]
    big = list(range(4)) * 500  # 4^2 * 2 = 32 <= 2000
    out2 = sortk(big, 1, kernel_name=kernel.KERNEL_NAME)
    assert not out2.warnings


class OrderOnly:
    """An element with an order (`__le__`) but Python's identity `==` and
    hash: a hash and `==` would count apart keys that the order finds
    equal."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __le__(self, other):
        return self.value <= other.value


def test_the_order_decides_the_accounting():
    """30 elements of 3 values whose `==` is identity: a sort accounts by
    the elements' order, so h0 reads log2(3), not the 4.907 of 30 distinct
    elements, the budget is that of the integer keys of the same pattern,
    and no warning is given."""
    values = [(7 * i) % 3 for i in range(30)]
    out = sortk([OrderOnly(v) for v in values], 1)
    plain = sortk(values, 1)
    assert out.permutation == plain.permutation == stable_perm(values)
    assert repr(out.h0) == repr(plain.h0) and abs(out.h0 - 1.585) < 1e-3
    assert out.budget == plain.budget
    assert out.warnings == plain.warnings == ()


def test_lists_sort_like_sorted():
    """A sort hashes nothing, so unhashable elements such as lists sort as
    `sorted()` sorts them, at orders 0-2."""
    rng = random.Random(8)
    seq = [[rng.randrange(3), rng.randrange(2)] for _ in range(60)]
    for order in (0, 1, 2):
        out = sortk(seq, order)
        assert out.permutation == stable_perm(seq)
        assert out.sorted_values(seq) == sorted(seq)


def test_empty_and_bad_order(kernel):
    with pytest.raises(ValueError):
        sortk([], 0, kernel_name=kernel.KERNEL_NAME)
    with pytest.raises(ValueError):
        sortk([1], -1, kernel_name=kernel.KERNEL_NAME)


def test_per_context_budget_inequality(kernel):
    """Search+verify comparisons within one run stay under the summed
    per-context budgets."""
    rng = random.Random(44)
    for _ in range(40):
        m = rng.randrange(1, 250)
        n = rng.choice([2, 4, 16])
        seq = [rng.randrange(n) for _ in range(m)]
        for order in (1, 2):
            out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
            sv = out.ledger.count(PHASE_SEARCH) \
                + out.ledger.count(PHASE_VERIFY)
            assert sv <= budget_breakdown(seq, order).context_total
            assert out.ledger.binary_count <= out.budget


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                max_size=120),
       st.integers(min_value=0, max_value=3))
def test_property_stable_across_orders(seq, order):
    out = sortk(seq, order)
    assert out.permutation == stable_perm(seq)
    assert out.ledger.binary_count <= out.budget


def test_one_forest_per_call(kernel, monkeypatch):
    """sortk builds one StatsTree per call. It holds exactly one context
    per distinct order-tuple that occurs at positions order..m, with as
    many leaves as that context has distinct successors; an input shorter
    than the order has the one empty context of its warm-up ranks. At
    order 1 a context's id is its element's B1 rank, from 1 on, so
    context 0 is there too and stays empty."""
    built = []
    original = kernel.StatsTree.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(kernel.StatsTree, "__init__", counting)
    rng = random.Random(90)
    for order in (0, 1, 2, 3):
        for _ in range(20):
            m = rng.randrange(1, 150)
            n = rng.choice([2, 3, 6])
            seq = [rng.randrange(n) for _ in range(m)]
            successors = {tuple(seq[i - order:i]): set()
                          for i in range(order, m + 1)}
            for i in range(order, m):
                successors[tuple(seq[i - order:i])].add(seq[i])
            built.clear()
            out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
            assert out.permutation == stable_perm(seq)
            assert len(built) == 1
            lengths = [len(s) for s in successors.values()] or [0]
            used = built[0]._len
            if order == 1:
                assert used[0] == 0
                used = used[1:]
            assert sorted(used) == sorted(lengths)
            assert len(successors) <= n ** order + 1


def reachable_nodes(forest, ctx):
    """Node ids reachable from the root of context *ctx*."""
    out, stack = [], [forest._root[ctx]]
    while stack:
        v = stack.pop()
        if v:
            out.append(v)
            stack += (forest._left[v], forest._right[v])
    return out


def test_context_forest_shares_one_node_store(kernel, monkeypatch):
    """The contexts of one sortk call's forest partition its node store:
    every context is valid, the node ids reachable from the roots are
    pairwise disjoint and together are exactly 1..len(store) - 1, and
    every next-context handle is a context id."""
    built = []
    original = kernel.StatsTree.__init__

    def capturing(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kernel.StatsTree, "__init__", capturing)
    rng = random.Random(12)
    runs = [(BIGALPHA, 1)]
    for order in (1, 2, 3):
        for _ in range(15):
            n = rng.choice([2, 3, 6, 40])
            runs.append(([rng.randrange(n)
                          for _ in range(rng.randrange(order + 1, 200))],
                         order))
    for seq, order in runs:
        built.clear()
        out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
        assert out.permutation == stable_perm(seq)
        forest, = built
        contexts = range(len(forest._root))
        for ctx in contexts:
            validate(forest, ctx)
        ids = sorted(v for ctx in contexts
                     for v in reachable_nodes(forest, ctx))
        assert ids == list(range(1, len(forest._keys))), (order, len(seq))
        assert set(forest._next[1:]) <= set(contexts)


def test_every_context_within_its_own_avl_bound(kernel, monkeypatch):
    """Each context of a sortk call's forest is a valid AVL tree, position
    leaf array included, and no taller than the AVL bound of its own leaf count.
    The bound of the forest's leaf total, which perfbench's
    `kernel.height_bound` reports, is far looser than any context's."""
    built = []
    original = kernel.StatsTree.__init__

    def capturing(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kernel.StatsTree, "__init__", capturing)
    rand_bytes = list(random.Random(23).randbytes(6000))
    for seq, order in ((BIGALPHA, 1), (rand_bytes, 2)):
        built.clear()
        out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
        assert out.permutation == stable_perm(seq)
        forest, = built
        for ctx, (root, t) in enumerate(zip(forest._root, forest._len)):
            assert forest._height[root] <= avl_height_bound(t), ctx
            validate(forest, ctx)
        assert len(forest._root) > 1000


def test_peak_memory_per_element():
    """The tracemalloc peak of sortk at order 1, in bytes per element,
    stays below 190 on 20,000 seeded random bytes and below 185 on
    BIGALPHA, where about half of the elements start a context, and below
    115 and 130 on inputs of the same two kinds from other seeds; at order
    3 it stays below 300 on the seeded random bytes. Set on CPython
    3.11.7. On the random bytes at order 1 it reads about 219 with a
    Python list of positions per leaf, 157 with the forest's position
    chain, 143 with order-1 contexts numbered by B1 rank and 4-byte
    position arrays, 130 (both seeds) with the permutation built once the
    forest and B1 are dropped, and 102 (both seeds) with a position ->
    leaf array and a counting sort by key slot, which file no Python list
    per rank. On BIGALPHA it reads about 217 with a rank tuple and a B2
    entry per context and 8-byte position arrays, 153 with a context per
    B1 rank, 4-byte arrays and the budget pass's Counter built after its
    table is freed, 121 (120 on the other seed) with that read-off and one
    dict per context in the budget pass, whose peak then set the call's,
    and 110 with the accounting read off the forest, with no budget pass.
    At order 3 the random bytes read 325 with the budget pass, whose
    k-tuple per element set the peak, and 283 without it."""
    random_bytes = list(random.Random(2022).randbytes(20_000))
    other_bytes = list(random.Random(2023).randbytes(20_000))
    other_bigalpha = generate(SourceSpec(kind="markov", n=4096, m=8192,
                                         noise=0.1, seed=8))
    for seq, order, bound in ((random_bytes, 1, 190), (BIGALPHA, 1, 185),
                              (other_bytes, 1, 115), (other_bigalpha, 1, 130),
                              (random_bytes, 3, 300)):
        sortk(seq[:100], order)
        gc.collect()
        tracemalloc.start()
        try:
            out = sortk(seq, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.permutation == stable_perm(seq)
        assert peak / len(seq) < bound, (order, bound)


def test_order_one_contexts_are_b1_ranks(monkeypatch):
    """At order 1 a context's id is its element's B1 rank: every node's
    handle is its key's rank, there is one context per rank plus the
    empty context 0, and B2 is never asked."""
    made = {}
    for cls in (StatsTree, RankDictionary):
        def record(self, *args, _cls=cls, _init=cls.__init__):
            made[_cls] = self
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", record)
    b2_calls = []
    for name in ("get", "insert"):
        def spy(self, *args, _name=name,
                _original=getattr(CodeDictionary, name)):
            b2_calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(CodeDictionary, name, spy)
    rng = random.Random(23)
    for seq in (TORONTO, MARKOV, BIGALPHA,
                [rng.randrange(40) for _ in range(500)]):
        out = sortk(seq, 1)
        assert out.permutation == stable_perm(seq)
        forest, b1 = made[StatsTree], made[RankDictionary]
        rank_of = {b1._keys[r]: r for r in range(1, dictionary_size(b1) + 1)}
        assert len(forest._root) == dictionary_size(b1) + 1
        assert forest._len[0] == 0
        assert len(forest) > 0
        for v in range(1, len(forest) + 1):
            assert forest._next[v] == rank_of[forest._keys[v]]
    assert b2_calls == []
    sortk(TORONTO, 2)
    assert "get" in b2_calls and "insert" in b2_calls


def test_read_off_starts_after_the_search_structures_are_gone(monkeypatch):
    """When the positions are first placed, no statistics forest and no
    rank dictionary made by the call is alive: the counting sort's last
    pass runs on the position -> leaf array and the key slots alone.
    Slotless subclasses make both weakly referable."""
    module = sys.modules["entsort.sortk"]
    made = []
    for name in ("StatsTree", "RankDictionary"):
        class Watched(getattr(module, name)):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))
        monkeypatch.setattr(module, name, Watched)
    alive = []

    def place(slots, starts, m, _original=module.place):
        alive.append([ref() is not None for ref in made])
        return _original(slots, starts, m)

    monkeypatch.setattr(module, "place", place)
    for seq in (TORONTO, MARKOV, BIGALPHA):
        for order in (0, 1, 2):
            made.clear()
            alive.clear()
            out = sortk(seq, order)
            assert out.permutation == stable_perm(seq)
            assert alive == [[False, False]]


def test_sortk_builds_the_forest_of_its_own_kernel(monkeypatch):
    """sortk uses the StatsTree it imported, not whatever module is
    registered as `entsort.kernel` when it runs, so a second copy of the
    package imported under the same name cannot swap its kernel."""
    monkeypatch.setitem(sys.modules, "entsort.kernel",
                        types.ModuleType("entsort.kernel"))
    for order in (0, 1, 2):
        assert sortk(MARKOV, order).permutation == stable_perm(MARKOV)


def test_no_cyclic_garbage_after_a_call():
    """A call leaves no reference cycle: with the collector off, nothing
    that sort0 or sortk built is found unreachable afterwards."""
    rng = random.Random(20)
    seq = [rng.randrange(20) for _ in range(2000)]
    calls = [lambda: sort0(seq)] + [lambda k=k: sortk(seq, k)
                                    for k in (1, 2, 3)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            out = call()
            assert out.permutation == stable_perm(seq)
            del out
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_mixed_key_types_strings(kernel):
    words = ["pear", "apple", "pear", "fig", "apple", "fig", "fig"]
    for order in (0, 1, 2):
        out = sortk(words, order, kernel_name=kernel.KERNEL_NAME)
        assert out.sorted_values(words) == sorted(words)
        assert out.permutation == stable_perm(words)


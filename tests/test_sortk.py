import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Spy, stable_perm
from entsort import entropy
from entsort.bench import SourceSpec, generate
from entsort.bst import RankDictionary, avl_height_bound
from entsort.comparator import (PHASE_B1, PHASE_MERGE, PHASE_SEARCH,
                                PHASE_VERIFY)
from entsort.sort0 import comparison_budget, sort0
from entsort.sortk import budget_breakdown, sortk

TORONTO = list("TORONTO")


MARKOV = generate(SourceSpec(kind="markov", n=16, m=3000, seed=5))

# (sequence, order or None for sort0) -> search, verify, b1, merge, total.
GOLDEN_LEDGERS = [
    (TORONTO, None, (7, 6, 0, 0, 13)),
    (TORONTO, 0, (7, 6, 8, 0, 21)),
    (TORONTO, 1, (0, 3, 14, 0, 17)),
    (TORONTO, 2, (0, 0, 18, 0, 18)),
    (TORONTO, 3, (0, 0, 18, 0, 18)),
    (MARKOV, 1, (2610, 3386, 295, 0, 6291)),
    (MARKOV, 2, (2565, 3337, 522, 0, 6424)),
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
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randrange(1, 200)
        seq = [rng.randrange(rng.choice([1, 2, 9, 60])) for _ in range(m)]
        a = sort0(seq, kernel_name=kernel.KERNEL_NAME)
        b = sortk(seq, 0, kernel_name=kernel.KERNEL_NAME)
        assert b.permutation == a.permutation
        assert b.ledger.count(PHASE_SEARCH) == a.ledger.count(PHASE_SEARCH)
        assert b.ledger.count(PHASE_VERIFY) == a.ledger.count(PHASE_VERIFY)
        n = len(set(seq))
        assert b.ledger.count(PHASE_B1) <= n * (avl_height_bound(n) + 1)
        assert b.ledger.count(PHASE_MERGE) == 0


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
    assert bd0.b1_ops == 1 and bd0.total == bd0.context_total + bd0.b1
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
    warm-up element and per distinct (order+1)-tuple, and H_order
    exactly."""
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
            assert bd.context_total == sum(comparison_budget(p)
                                           for p in parts)
            assert bd.b1_ops == min(order, m) + tuples
            assert bd.b1 == bd.b1_ops * (avl_height_bound(len(set(seq)))
                                         + 1)
            assert bd.total == bd.context_total + bd.b1
            assert bd.h_order == entropy.h_order(seq, order)


def test_black_box_query_count(kernel, monkeypatch):
    """The dictionaries are consulted once per new distinct tuple, never on
    repeats, plus the warm-up lookups."""
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
            expected = order + distinct_tuples(seq, order)
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


def test_warning_on_violated_premise(kernel):
    rng = random.Random(33)
    seq = [rng.randrange(64) for _ in range(100)]  # 64^2 * 6 >> 100
    out = sortk(seq, 1, kernel_name=kernel.KERNEL_NAME)
    assert out.warnings and "not guaranteed" in out.warnings[0]
    big = list(range(4)) * 500  # 4^2 * 2 = 32 <= 2000
    out2 = sortk(big, 1, kernel_name=kernel.KERNEL_NAME)
    assert not out2.warnings


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


def test_context_tree_count_bound(kernel, monkeypatch):
    """sortk builds exactly one tree per distinct order-tuple context that
    occurs at positions order..m, and none when m <= order."""
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
            distinct_ctx = len({tuple(seq[i - order:i])
                                for i in range(order, m + 1)})
            built.clear()
            out = sortk(seq, order, kernel_name=kernel.KERNEL_NAME)
            assert out.permutation == stable_perm(seq)
            assert len(built) == (distinct_ctx if m > order else 0)
            assert distinct_ctx <= n ** order + 1


def test_mixed_key_types_strings(kernel):
    words = ["pear", "apple", "pear", "fig", "apple", "fig", "fig"]
    for order in (0, 1, 2):
        out = sortk(words, order, kernel_name=kernel.KERNEL_NAME)
        assert out.sorted_values(words) == sorted(words)
        assert out.permutation == stable_perm(words)

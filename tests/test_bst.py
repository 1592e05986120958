import math
import random

import pytest

from conftest import Spy
from entsort.bst import (CodeDictionary, RankDictionary, avl_height_bound)
from entsort.comparator import PHASE_B1, CountingComparator


def test_rank_dictionary_assigns_first_appearance_ranks():
    cmp = CountingComparator()
    d = RankDictionary(cmp)
    seq = list("TORONTO")
    ranks = {}
    for s in seq:
        rank, new = d.lookup_or_insert(s)
        if s in ranks:
            assert not new and rank == ranks[s]
        else:
            assert new
            ranks[s] = rank
    assert ranks == {"T": 1, "O": 2, "R": 3, "N": 4}
    assert len(d) == 4
    assert sorted(ranks.values()) == [1, 2, 3, 4]  # bijection onto 1..n


def checked_height(d, v) -> int:
    """Height of the subtree at node v of d, asserting every stored height
    on the way and the AVL balance at every node."""
    if v == 0:
        return 0
    lh, rh = checked_height(d, d._left[v]), checked_height(d, d._right[v])
    assert abs(lh - rh) <= 1
    assert d._height[v] == 1 + max(lh, rh)
    return d._height[v]


def test_rank_dictionary_cost_bound():
    rng = random.Random(5)
    cmp = CountingComparator()
    d = RankDictionary(cmp)
    for step in range(3000):
        before = cmp.phase_count(PHASE_B1)
        d.lookup_or_insert(rng.randrange(500))
        spent = cmp.phase_count(PHASE_B1) - before
        assert spent <= avl_height_bound(len(d)) + 1
        assert d.height <= avl_height_bound(len(d))
        if step % 50 == 0:
            checked_height(d, d._root)
    assert checked_height(d, d._root) == d.height


def test_rank_dictionary_only_b1_phase():
    cmp = CountingComparator()
    d = RankDictionary(cmp)
    for x in (5, 3, 8, 3, 5, 1):
        d.lookup_or_insert(x)
    led = cmp.snapshot()
    assert led.binary_count == led.count(PHASE_B1)


def test_rank_dictionary_iteration_sorted():
    cmp = CountingComparator()
    d = RankDictionary(cmp)
    rng = random.Random(9)
    values = [rng.randrange(1000) for _ in range(300)]
    ranks = {}
    for v in values:
        ranks.setdefault(v, d.lookup_or_insert(v)[0])
    assert list(d.ranks()) == [ranks[k] for k in sorted(ranks)]


def test_code_dictionary_basics():
    d = CodeDictionary()
    assert d.get("") is None
    d.insert("", "root")
    d.insert("1010", "a")
    d.insert("01", "b")
    assert d.get("") == "root"
    assert d.get("1010") == "a"
    assert d.get("01") == "b"
    assert d.get("111") is None
    assert len(d) == 3
    with pytest.raises(KeyError):
        d.insert("01", "dup")
    assert d.get("01") == "b"  # the refused insert changed nothing
    d.insert((2, 1), "tuple key")
    assert d.get((2, 1)) == "tuple key"


def test_code_dictionary_no_element_comparisons():
    """Context dictionary ops never touch elements."""
    Spy.reset()
    d = CodeDictionary()
    rng = random.Random(3)
    codes = set()
    for _ in range(2000):
        code = "".join(rng.choice("01") for _ in range(rng.randrange(1, 20)))
        if code not in codes:
            codes.add(code)
            d.insert(code, Spy(code))
        d.get(code)
    assert Spy.order_comparisons == 0
    assert len(d) == len(codes)


def test_avl_height_bound_function():
    assert avl_height_bound(0) == 1
    assert avl_height_bound(1) == math.floor(1.4405 * math.log2(3))
    for t in (10, 100, 10 ** 6):
        assert avl_height_bound(t) == math.floor(1.4405 * math.log2(t + 2))

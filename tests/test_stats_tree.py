import math
import random

import pytest

from conftest import FlatStatsTree, Spy, random_op_mix
from entsort import kernel as kernel_module
from entsort.comparator import CountingComparator


def make(kernel, keys, weights):
    return kernel.from_pairs(keys, weights)


def test_search_spec_examples(kernel):
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    # prefix sums are 1, 4, 5, 7
    assert tree.search(4, 1) == 2
    assert tree.search(1, 1) == 1
    assert tree.search(7, 2) == 2  # threshold 3.5
    assert tree.search(0, 1) == 1
    assert tree.search(7, 1) == 4
    assert tree.search(5, 1) == 3


def test_search_errors(kernel):
    tree = make(kernel, list("ab"), [2, 3])
    with pytest.raises(ValueError):
        tree.search(6, 1)  # exceeds total weight
    with pytest.raises(ValueError):
        tree.search(11, 2)
    with pytest.raises(ValueError):
        tree.search(-1, 1)
    with pytest.raises(ValueError):
        tree.search(1, 0)
    with pytest.raises(ValueError):
        kernel.StatsTree().search(0, 1)


def test_sum_spec_examples(kernel):
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    assert tree.sum(3) == 5
    assert tree.sum(4) == tree.total_weight == 7
    assert tree.sum(1) == 1
    with pytest.raises(IndexError):
        tree.sum(0)
    with pytest.raises(IndexError):
        tree.sum(5)


def test_insert_positions(kernel):
    tree = make(kernel, list("ORT"), [1, 1, 1])
    tree.insert("N", 5, 1)
    assert [q[0] for q in tree.quadruples()] == ["N", "O", "R", "T"]
    tree.insert("Z", 6, 5)
    assert [q[0] for q in tree.quadruples()] == ["N", "O", "R", "T", "Z"]
    with pytest.raises(IndexError):
        tree.insert("q", 7, 7)


def test_increment_and_append(kernel):
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    tree.increment(2)
    assert [q[1] for q in tree.quadruples()] == [1, 4, 1, 2]
    tree.append(99, 2)
    assert tree.triple(2)[2][-1] == 99
    with pytest.raises(ValueError):
        tree.append(98, 2)  # not increasing
    with pytest.raises(IndexError):
        tree.increment(5)


def test_append_and_handle_at_return_inserted_handle():
    tree = kernel_module.StatsTree()
    handles = {}
    rng = random.Random(12)
    for i, key in enumerate(rng.sample(range(200), 60), start=1):
        # A handle may be the tree itself, as in the one-context sorter.
        handles[key] = tree if key % 7 == 0 else ("handle", key)
        pos = sum(1 for k in handles if k < key)
        tree.insert(key, i, pos + 1, handles[key])
    tree.insert(500, 61, 61)  # no handle given
    keys = sorted(handles)
    for j, key in enumerate(keys, start=1):
        assert tree.handle_at(j) is handles[key]
        tree.increment(j)
        assert tree.append(100 + j, j) is handles[key]
    assert tree.handle_at(61) is None
    tree.increment(61)
    assert tree.append(200, 61) is None
    tree._validate()


def test_quadruple_view(kernel):
    tree = kernel.StatsTree()
    tree.insert("a", 1, 1, next="handle")
    assert tree.triple(1) == ("a", 1, [1], "handle")


def test_oracle_equivalence_randomized(kernel):
    rng = random.Random(12345)
    for trial in range(4):
        tree = kernel.StatsTree()
        oracle = FlatStatsTree()
        random_op_mix(tree, oracle, rng, 2500)
        got = tree.quadruples()
        want = oracle.quadruples()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[1] == w[1] and list(g[2]) == list(w[2])
        tree._validate()


def test_zero_element_comparisons(kernel):
    """No statistics-tree operation ever compares keys."""
    Spy.reset()
    cmp = CountingComparator()
    before = cmp.snapshot()
    rng = random.Random(7)
    tree = kernel.StatsTree()
    oracle = FlatStatsTree()
    random_op_mix(tree, oracle, rng, 3000,
                  key_pool=[Spy(v) for v in range(100)])
    assert Spy.order_comparisons == 0
    assert cmp.snapshot().binary_count - before.binary_count == 0


def test_balance_bound(kernel):
    """height <= 1.4405 * log2(t + 2) after adversarial insert orders."""
    for style in ("front", "back", "random", "mixed"):
        tree = kernel.StatsTree()
        rng = random.Random(hash(style) & 0xFFFF)
        for i in range(1, 3000):
            t = len(tree)
            if style == "front":
                j = 1
            elif style == "back":
                j = t + 1
            elif style == "random":
                j = rng.randrange(1, t + 2)
            else:
                j = 1 if i % 2 else t + 1
            tree.insert(i, i, j)
        t = len(tree)
        assert tree.height <= 1.4405 * math.log2(t + 2)
        tree._validate()


def test_overflow_guard(kernel):
    tree = kernel.StatsTree()
    tree.insert("a", 1, 1)
    with pytest.raises(OverflowError):
        tree.search(1, 1 << 130)


def test_total_weight_cap(monkeypatch):
    """A tree may reach MAX_TOTAL_WEIGHT exactly; one more unit of weight
    raises OverflowError and leaves the tree as it was."""
    cap = kernel_module.MAX_TOTAL_WEIGHT
    keys = [10, 20, 30, 40]
    # Weights at the real cap, with a weight-1 leaf at the deepest code.
    # Index lists of that length cannot be built, so each key carries one.
    weights = [1, cap // 2, cap // 4, cap // 4 - 1]
    assert sum(weights) == cap
    tree = kernel_module.from_pairs(keys, weights, [[i] for i in range(4)])
    assert tree.total_weight == cap
    before = tree.quadruples()
    with pytest.raises(OverflowError):
        tree.increment(2)
    with pytest.raises(OverflowError):
        tree.insert(50, 9, 5)
    assert tree.quadruples() == before and tree.total_weight == cap
    cmp = CountingComparator()
    for j, key in enumerate(keys, start=1):
        assert tree.descend(key, cmp)[:2] == (j, kernel_module.EQUAL)
    with pytest.raises(OverflowError):
        kernel_module.from_pairs(keys, weights[:-1] + [cap // 4],
                                 [[i] for i in range(4)])
    # The same guard under a small cap, where real index lists fit and
    # every invariant can be checked after the refused update.
    monkeypatch.setattr(kernel_module, "MAX_TOTAL_WEIGHT", 8)
    small = kernel_module.from_pairs("abc", [3, 4, 1])
    for j, key in enumerate("abc", start=1):
        assert small.descend(key, cmp)[:2] == (j, kernel_module.EQUAL)
    before = small.quadruples()
    with pytest.raises(OverflowError):
        small.increment(3)
    with pytest.raises(OverflowError):
        small.insert("d", 9, 4)
    assert small.quadruples() == before
    small._validate()
    with pytest.raises(OverflowError):
        kernel_module.from_pairs("abc", [3, 4, 2])


def test_from_pairs_validation(kernel):
    with pytest.raises(ValueError):
        kernel.from_pairs(["a"], [0])
    with pytest.raises(ValueError):
        kernel.from_pairs(["a", "b"], [1])
    empty = kernel.from_pairs([], [])
    assert len(empty) == 0 and empty.total_weight == 0


def test_context_ranks_attribute(kernel):
    tree = kernel.StatsTree(context_ranks=[3, 1])
    assert tree.context_ranks == [3, 1]
    assert kernel.StatsTree().context_ranks is None

import itertools
import math
import random

import pytest

from conftest import Spy
from entsort import kernel as kernel_module
from entsort.comparator import CountingComparator
from oracles import (FlatStatsTree, from_pairs, prefix_sum, quadruples,
                     random_op_mix, search, total_weight, triple, validate)


def make(kernel, keys, weights):
    return from_pairs(keys, weights)


def test_search_spec_examples(kernel):
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    # prefix sums are 1, 4, 5, 7
    assert search(tree, 4, 1) == 2
    assert search(tree, 1, 1) == 1
    assert search(tree, 7, 2) == 2  # threshold 3.5
    assert search(tree, 0, 1) == 1
    assert search(tree, 7, 1) == 4
    assert search(tree, 5, 1) == 3


def test_search_errors(kernel):
    tree = make(kernel, list("ab"), [2, 3])
    with pytest.raises(ValueError):
        search(tree, 6, 1)  # exceeds total weight
    with pytest.raises(ValueError):
        search(tree, 11, 2)
    with pytest.raises(ValueError):
        search(tree, -1, 1)
    with pytest.raises(ValueError):
        search(tree, 1, 0)
    with pytest.raises(ValueError):
        search(kernel.StatsTree(), 0, 1)


def test_sum_spec_examples(kernel):
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    assert prefix_sum(tree, 3) == 5
    assert prefix_sum(tree, 4) == total_weight(tree) == 7
    assert prefix_sum(tree, 1) == 1
    with pytest.raises(IndexError):
        prefix_sum(tree, 0)
    with pytest.raises(IndexError):
        prefix_sum(tree, 5)


def test_insert_positions(kernel):
    tree = make(kernel, list("ORT"), [1, 1, 1])
    tree.insert("N", 5, 1)
    assert [q[0] for q in quadruples(tree)] == ["N", "O", "R", "T"]
    tree.insert("Z", 6, 5)
    assert [q[0] for q in quadruples(tree)] == ["N", "O", "R", "T", "Z"]
    with pytest.raises(IndexError):
        tree.insert("q", 7, 7)


def test_increment_and_append(kernel):
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    tree.increment(2)  # the weight alone
    assert [q[1] for q in quadruples(tree)] == [1, 4, 1, 2]
    assert triple(tree, 2)[2] == [2, 3, 4]
    with pytest.raises(IndexError):
        tree.increment(5)
    tree = make(kernel, list("abcd"), [1, 3, 1, 2])
    tree.append(99, 2)  # a hit: the weight and the index together
    assert [q[1] for q in quadruples(tree)] == [1, 4, 1, 2]
    assert triple(tree, 2)[2][-1] == 99
    validate(tree)
    sums = [prefix_sum(tree, j) for j in range(1, 5)]
    for i in (98, 99):  # not increasing: refused before anything changes
        with pytest.raises(ValueError):
            tree.append(i, 2)
        assert triple(tree, 2)[1] == 4 and triple(tree, 2)[2][-1] == 99
        assert [prefix_sum(tree, j) for j in range(1, 5)] == sums
    with pytest.raises(IndexError):
        tree.append(100, 5)
    with pytest.raises(IndexError):
        tree.append(100, 0)
    assert [prefix_sum(tree, j) for j in range(1, 5)] == sums
    validate(tree)


def test_out_of_range_reads_and_increments_change_nothing():
    """handle_at and increment refuse positions 0 and t + 1 with
    IndexError before their walk moves any offset."""
    tree = from_pairs("abcdefg", [2, 1, 3, 1, 1, 2, 1])
    t = len(tree)
    before = snapshot(tree)
    for j in (0, t + 1):
        for update in (tree.handle_at, tree.increment):
            with pytest.raises(IndexError, match=f"position {j} out of"):
                update(j)
            assert snapshot(tree) == before
            validate(tree)


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
        assert tree.append(100 + j, j) is handles[key]
    assert tree.handle_at(61) is None
    assert tree.append(200, 61) is None
    validate(tree)


def test_quadruple_view(kernel):
    tree = kernel.StatsTree()
    tree.insert("a", 1, 1, next="handle")
    assert triple(tree, 1) == ("a", 1, [1], "handle")


def test_oracle_equivalence_randomized(kernel):
    rng = random.Random(12345)
    for trial in range(6):
        tree = kernel.StatsTree()
        oracle = FlatStatsTree()
        positions = itertools.count(1)
        if trial >= 4:
            # Start from a balanced tree: its cached end nodes come from
            # from_pairs. The op mix's positions go on above its indices,
            # since positions increase across the forest.
            t = rng.randrange(1, 40)
            keys = sorted(rng.sample(range(10 ** 6), t))
            weights = [rng.randrange(1, 5) for _ in range(t)]
            indices = [[next(positions) for _ in range(w)] for w in weights]
            tree = from_pairs(keys, weights, indices)
            validate(tree)
            oracle.rows = [[k, w, list(ix), None]
                           for k, w, ix in zip(keys, weights, indices)]
        random_op_mix(tree, oracle, rng, 2500, indices=positions)
        got = quadruples(tree)
        want = oracle.quadruples()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[1] == w[1] and list(g[2]) == list(w[2])
        validate(tree)


def test_shared_node_store(kernel):
    """The contexts of one forest share its node store and stay
    independent: operations on four contexts, interleaved one at a time,
    keep each context equal to its own oracle while the others grow and
    rotate in the same lists."""
    rng = random.Random(99)
    forest = kernel.StatsTree()
    for _ in range(3):
        forest.add_context()
    oracles = [FlatStatsTree() for _ in range(4)]
    indices = itertools.count(1)
    for _ in range(1600):
        ctx = rng.randrange(4)
        random_op_mix(forest, oracles[ctx], rng, 1, ctx=ctx, indices=indices)
    for ctx, oracle in enumerate(oracles):
        validate(forest, ctx)
        got = [(k, w, list(ix)) for k, w, ix, _ in quadruples(forest, ctx)]
        assert got == [(k, w, list(ix)) for k, w, ix, _ in
                       oracle.quadruples()]
    assert len(forest) == sum(len(oracle) for oracle in oracles)
    assert total_weight(forest) == sum(o.total_weight for o in oracles)


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
        validate(tree)


def test_overflow_guard(kernel):
    tree = kernel.StatsTree()
    tree.insert("a", 1, 1)
    with pytest.raises(OverflowError):
        search(tree, 1, 1 << 130)


def snapshot(tree, ctx=0):
    """Copies of context *ctx*'s quadruples (index lists included) and of
    every prefix sum, to show that a refused update changed nothing."""
    return ([(k, w, list(ix), n) for k, w, ix, n in quadruples(tree, ctx)],
            [prefix_sum(tree, j, ctx) for j in range(1, tree._len[ctx] + 1)])


def test_total_weight_cap(monkeypatch):
    """A tree may reach MAX_TOTAL_WEIGHT exactly; one more unit of weight
    raises OverflowError and leaves the tree as it was."""
    cap = kernel_module.MAX_TOTAL_WEIGHT
    keys = [10, 20, 30, 40]
    # Weights at the real cap, with a weight-1 leaf at the deepest code.
    # Index lists of that length cannot be built, so each key carries one.
    weights = [1, cap // 2, cap // 4, cap // 4 - 1]
    assert sum(weights) == cap
    tree = from_pairs(keys, weights, [[i] for i in range(1, 5)])
    assert total_weight(tree) == cap
    before = snapshot(tree)
    with pytest.raises(OverflowError):
        tree.increment(2)
    with pytest.raises(OverflowError):
        tree.append(9, 2)
    with pytest.raises(OverflowError):
        tree.insert(50, 9, 5)
    assert snapshot(tree) == before and total_weight(tree) == cap
    cmp = CountingComparator()
    for j, key in enumerate(keys, start=1):
        assert tree.descend(key, cmp)[:2] == (j, kernel_module.EQUAL)
    with pytest.raises(OverflowError):
        from_pairs(keys, weights[:-1] + [cap // 4],
                                 [[i] for i in range(1, 5)])
    # The same guard under a small cap, where real index lists fit and
    # every invariant can be checked after the refused update.
    monkeypatch.setattr(kernel_module, "MAX_TOTAL_WEIGHT", 8)
    small = from_pairs("abc", [3, 4, 1])
    for j, key in enumerate("abc", start=1):
        assert small.descend(key, cmp)[:2] == (j, kernel_module.EQUAL)
    before = snapshot(small)
    with pytest.raises(OverflowError):
        small.increment(3)
    with pytest.raises(OverflowError):
        small.append(9, 3)
    with pytest.raises(OverflowError):
        small.insert("d", 9, 4)
    assert snapshot(small) == before and total_weight(small) == 8
    validate(small)
    with pytest.raises(OverflowError):
        from_pairs("abc", [3, 4, 2])


def test_refused_append_leaves_tree_unchanged(kernel):
    """An append whose position is not above the leaf's last index raises
    ValueError and changes nothing: it is refused before the walk down,
    which would move the offsets of the ancestors where it turns left
    (leaf 1 is reached by left turns only)."""
    tree = from_pairs("abcdefg", [2, 1, 3, 1, 1, 2, 1])
    left, root = tree._left, tree._root[0]
    assert left[left[root]] == tree._node_at(1)
    before = snapshot(tree)
    for j, (_, _, indices, _) in enumerate(quadruples(tree), start=1):
        for i in (indices[-1], indices[0] - 1):
            with pytest.raises(ValueError, match="increasing order"):
                tree.append(i, j)
            assert snapshot(tree) == before
            validate(tree)
    last = quadruples(tree)[0][2][-1]
    tree.append(last + 20, 1)
    validate(tree)
    assert prefix_sum(tree, 1) == 3 and total_weight(tree) == 12


def test_position_arrays_take_four_bytes(kernel):
    """The position -> leaf array is an array of 4-byte unsigned ints, and
    MAX_POSITION fits it. A position past it, or past what 32 bits hold, is
    still refused with ValueError, before the forest or its leaf array
    change."""
    forest = from_pairs(list("ab"), [2, 1])
    other = forest.add_context()
    forest.insert("x", 5, 1, None, other)
    store = forest._leaf
    assert store.typecode == "I" and store.itemsize == 4
    assert kernel.MAX_POSITION < 1 << (8 * store.itemsize)
    before = [snapshot(forest, ctx) for ctx in (0, other)]
    leaf = forest._leaf.tolist()
    for i in (kernel.MAX_POSITION + 1, 1 << 32, (1 << 32) + 6):
        with pytest.raises(ValueError, match="MAX_POSITION"):
            forest.append(i, 1, other)
        with pytest.raises(ValueError, match="MAX_POSITION"):
            forest.insert("c", i, 3)
    assert [snapshot(forest, ctx) for ctx in (0, other)] == before
    assert forest._leaf.tolist() == leaf
    forest.append(6, 1, other)
    assert triple(forest, 1, other) == ("x", 2, [5, 6], None)
    validate(forest, 0)
    validate(forest, other)


def test_refused_positions_leave_the_forest_unchanged(kernel):
    """Sequence positions are >= 1 and strictly increase across the forest.
    `append` and `insert` refuse position 0, a negative position, a
    position already used, whether by the same leaf, another leaf or
    another context, and a skip past MAX_POSITION (the leaf array would
    take 4 bytes per position up to it), with ValueError; the forest, its
    position -> leaf array included, stays as it was, and the next valid
    position is taken."""
    forest = kernel.StatsTree()
    other = forest.add_context()
    forest.insert("a", 1, 1)
    forest.insert("b", 2, 2)
    forest.append(3, 1)
    forest.insert("x", 5, 1, None, other)  # position 4 is skipped
    before = [snapshot(forest, ctx) for ctx in (0, other)]
    leaf = forest._leaf.tolist()
    for i in (0, -1, -6, 1, 2, 3, 4, 5, kernel.MAX_POSITION + 1, 10 ** 10):
        for ctx in (0, other):
            with pytest.raises(ValueError, match="increasing order"):
                forest.append(i, 1, ctx)
            with pytest.raises(ValueError, match="increasing order"):
                forest.insert("c", i, 2, None, ctx)
        assert [snapshot(forest, ctx) for ctx in (0, other)] == before
        assert forest._leaf.tolist() == leaf
    validate(forest, 0)
    validate(forest, other)
    forest.append(6, 2)
    forest.insert("y", 8, 2, None, other)
    assert triple(forest, 2) == ("b", 2, [2, 6], None)
    assert triple(forest, 2, other) == ("y", 1, [8], None)
    assert triple(forest, 1) == ("a", 2, [1, 3], None)
    validate(forest, 0)
    validate(forest, other)


def test_from_pairs_validation(kernel):
    with pytest.raises(ValueError):
        from_pairs(["a"], [0])
    with pytest.raises(ValueError):
        from_pairs(["a", "b"], [1])
    # A given index list increases from 1 on, no position is in two lists,
    # and none is past MAX_POSITION, given or implied by the weights.
    past = kernel.MAX_POSITION + 1
    for indices in ([[0], [1]], [[-2], [1]], [[1, 2], [2]], [[2, 1], [3]],
                    [[3, 3], [5]], [[1]], [[1, 2], [past]]):
        with pytest.raises(ValueError):
            from_pairs(["a", "b"], [2, 1], indices)
    with pytest.raises(ValueError, match="MAX_POSITION"):
        from_pairs(["a", "b"], [2, past - 2])
    tree = from_pairs(["a", "b"], [2, 1], [[3, 5], [7]])
    assert [q[2] for q in quadruples(tree)] == [[3, 5], [7]]
    with pytest.raises(ValueError, match="increasing order"):
        tree.append(7, 2)
    tree.append(8, 2)
    validate(tree)
    empty = from_pairs([], [])
    assert len(empty) == 0 and total_weight(empty) == 0


def test_from_pairs_interleaved_index_lists(kernel):
    """Index lists may interleave, as those of "abab" do; a later append
    or insert records a position above the largest given."""
    tree = from_pairs(["a", "b"], [2, 2], [[1, 3], [2, 4]])
    assert quadruples(tree) == [("a", 2, [1, 3], None),
                                ("b", 2, [2, 4], None)]
    validate(tree)
    tree = from_pairs(["a", "b", "c"], [2, 1, 3], [[3, 7], [5], [1, 2, 9]])
    assert [q[2] for q in quadruples(tree)] == [[3, 7], [5], [1, 2, 9]]
    validate(tree)
    for i in (4, 6, 8, 9):  # skipped or given: not above 9
        with pytest.raises(ValueError, match="increasing order"):
            tree.append(i, 2)
        with pytest.raises(ValueError, match="increasing order"):
            tree.insert("d", i, 4)
    tree.append(10, 2)
    tree.insert("d", 12, 4)
    assert [q[2] for q in quadruples(tree)] == [[3, 7], [5, 10], [1, 2, 9],
                                                [12]]
    validate(tree)


def test_context_ids_are_dense(kernel):
    """A new forest holds the empty context 0, and `add_context` numbers
    the next ones 1, 2, ... Each starts empty, and an operation on one
    changes no other. `len` counts the leaves of every context and
    `height` is the tallest context's."""
    forest = kernel.StatsTree()
    assert [forest.add_context() for _ in range(3)] == [1, 2, 3]
    for ctx in range(4):
        assert quadruples(forest, ctx) == []
        assert forest.descend(0, CountingComparator(), ctx) == \
            (1, kernel.SUCCESSOR, 0, 0)
    forest.insert("a", 1, 1, 2, 3)
    for i, key in enumerate("xyz", start=2):
        forest.insert(key, i, i - 1, 0, 1)
    assert quadruples(forest, 3) == [("a", 1, [1], 2)]
    assert [q[0] for q in quadruples(forest, 1)] == ["x", "y", "z"]
    assert quadruples(forest, 0) == quadruples(forest, 2) == []
    assert len(forest) == 4 and total_weight(forest) == 4
    assert forest.height == 2
    for ctx in range(4):
        validate(forest, ctx)

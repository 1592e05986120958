import math
import random

import pytest

from conftest import FlatStatsTree
from entsort.comparator import (PHASE_SEARCH, PHASE_VERIFY,
                                CountingComparator)
from entsort.errors import NavigationError
from entsort.intmath import ceil_div, ceil_log2
from entsort import kernel as kernel_module
from entsort.lbst import build_explicit, leaf_code

TORONTO_KEYS = list("NORT")
TORONTO_WEIGHTS = [1, 3, 1, 2]


def code_bits(tree, j):
    """Leaf j's path code as a bit string."""
    sig, depth = tree.sigma(j)
    return format(sig, f"0{depth}b")


def test_toronto_depths(kernel):
    tree = kernel.from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    depths = [tree.sigma(j)[1] for j in range(1, 5)]
    assert depths == [4, 3, 4, 3]


def test_single_leaf_code(kernel):
    tree = kernel.from_pairs(["x"], [9])
    assert tree.sigma(1) == (1, 1)
    assert code_bits(tree, 1) == "1"


def test_codes_lexicographically_increase(kernel):
    rng = random.Random(31)
    for _ in range(80):
        t = rng.randrange(1, 40)
        weights = [rng.randrange(1, 60) for _ in range(t)]
        tree = kernel.from_pairs(list(range(t)), weights)
        codes = [code_bits(tree, j) for j in range(1, t + 1)]
        assert codes == sorted(codes)
        assert len(set(codes)) == t
        for a in codes:
            for b in codes:
                if a != b:
                    assert not b.startswith(a)


def test_depth_formula_exact(kernel):
    rng = random.Random(17)
    for _ in range(80):
        t = rng.randrange(1, 50)
        weights = [rng.randrange(1, 100) for _ in range(t)]
        tree = kernel.from_pairs(list(range(t)), weights)
        big_w = sum(weights)
        for j in range(1, t + 1):
            depth = tree.sigma(j)[1]
            assert depth == ceil_log2(ceil_div(big_w, weights[j - 1])) + 1
            assert depth <= ceil_log2(big_w) + 1


def test_sigma_matches_definition_oracle(kernel):
    rng = random.Random(23)
    for _ in range(60):
        t = rng.randrange(1, 30)
        weights = [rng.randrange(1, 40) for _ in range(t)]
        tree = kernel.from_pairs(list(range(t)), weights)
        flat = FlatStatsTree()
        for i, w in enumerate(weights):
            flat.insert(i, 1, i + 1)
            for _ in range(w - 1):
                flat.increment(i + 1)
        for j in range(1, t + 1):
            assert tree.sigma(j) == flat.sigma(j)
            assert tree.sigma(j) == leaf_code(j, weights)


def _walk_and_compare(tree, node, sig: int, depth: int):
    leaf, j, has_left, has_right, split = tree.classify(sig, depth)
    if node.leaf_count() == 1:
        assert leaf
        v = node
        while not v.is_leaf:
            v = v.left if v.left is not None else v.right
        assert j == v.leaf_position
        return 1
    assert not leaf
    assert has_left == (node.left is not None)
    assert has_right == (node.right is not None)
    visited = 1
    if has_left and has_right:
        assert split == node.split_position
    if node.left is not None:
        visited += _walk_and_compare(tree, node.left, 2 * sig, depth + 1)
    if node.right is not None:
        visited += _walk_and_compare(tree, node.right, 2 * sig + 1,
                                     depth + 1)
    return visited


def test_classify_matches_explicit_tree(kernel):
    rng = random.Random(41)
    for _ in range(120):
        t = rng.randrange(1, 33)
        weights = [rng.randrange(1, 64) for _ in range(t)]
        keys = list(range(t))
        tree = kernel.from_pairs(keys, weights)
        explicit = build_explicit(keys, weights)
        _walk_and_compare(tree, explicit, 0, 0)


def test_classify_matches_flat_oracle(kernel):
    rng = random.Random(43)
    for _ in range(60):
        t = rng.randrange(1, 25)
        weights = [rng.randrange(1, 30) for _ in range(t)]
        tree = kernel.from_pairs(list(range(t)), weights)
        flat = FlatStatsTree()
        for i, w in enumerate(weights):
            flat.insert(i, 1, i + 1)
            for _ in range(w - 1):
                flat.increment(i + 1)
        for j in range(1, t + 1):
            sig, depth = tree.sigma(j)
            for length in range(depth + 1):
                prefix = sig >> (depth - length)
                assert tree.classify(prefix, length) == \
                    flat.classify(prefix, length)


def test_classify_single_leaf(kernel):
    tree = kernel.from_pairs(["x"], [5])
    assert tree.classify(0, 0)[0]  # the root is the only leaf
    assert tree.classify(1, 1) == (1, 1, 0, 0, 0)
    with pytest.raises(NavigationError):
        tree.classify(0, 1)  # "0" prefixes no code (f = 1/2 starts with 1)


def test_classify_root_of_multi_leaf(kernel):
    tree = kernel.from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    leaf, _, has_left, has_right, _ = tree.classify(0, 0)
    assert not leaf
    assert has_left or has_right


def test_classify_toronto_shared_prefix(kernel):
    # N and O codes share their first bit; that node is internal and its
    # split names the rightmost leaf of its left subtree.
    tree = kernel.from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    code_n = code_bits(tree, 1)
    code_o = code_bits(tree, 2)
    assert code_n[0] == code_o[0]
    leaf, _, has_left, has_right, split = tree.classify(int(code_n[0]), 1)
    assert not leaf
    explicit = build_explicit(TORONTO_KEYS, TORONTO_WEIGHTS)
    node = explicit.left if code_n[0] == "0" else explicit.right
    if has_left and has_right:
        assert split == node.split_position


def test_descend_toronto_costs(kernel):
    tree = kernel.from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    cmp = CountingComparator()
    j, rel, nsearch, _ = tree.descend("O", cmp)
    assert rel == kernel.EQUAL
    assert j == 2
    assert nsearch <= 3  # ceil(log2(7/3)) + 1


def test_classify_rejects_bad_inputs(kernel):
    tree = kernel.from_pairs(["a", "b"], [1, 1])
    with pytest.raises(ValueError):
        tree.classify(4, 2)  # bits exceed depth
    with pytest.raises(NavigationError):
        kernel.StatsTree().classify(0, 0)


def test_descend_finds_each_key(kernel):
    rng = random.Random(59)
    for _ in range(60):
        t = rng.randrange(1, 30)
        weights = [rng.randrange(1, 20) for _ in range(t)]
        keys = [2 * i for i in range(t)]
        tree = kernel.from_pairs(keys, weights)
        big_w = sum(weights)
        cmp = CountingComparator()
        for j, key in enumerate(keys, start=1):
            before = cmp.snapshot()
            pos, rel, nsearch, nverify = tree.descend(key, cmp)
            assert rel == kernel.EQUAL
            assert pos == j
            d = cmp.snapshot()
            spent = d.binary_count - before.binary_count
            assert spent == nsearch + nverify
            assert nsearch <= ceil_log2(ceil_div(big_w, weights[j - 1])) + 1
            assert nverify == 2


def test_descend_absent_keys(kernel):
    rng = random.Random(61)
    for _ in range(60):
        t = rng.randrange(1, 30)
        weights = [rng.randrange(1, 20) for _ in range(t)]
        keys = [2 * i for i in range(t)]
        tree = kernel.from_pairs(keys, weights)
        big_w = sum(weights)
        cmp = CountingComparator()
        for probe in range(-1, 2 * t, 2):  # all gaps
            j, rel, nsearch, _ = tree.descend(probe, cmp)
            assert rel != kernel.EQUAL
            found = keys[j - 1]
            if rel == kernel.PREDECESSOR:
                assert found < probe
                assert j == t or keys[j] > probe
            else:
                assert rel == kernel.SUCCESSOR
                assert found > probe
                assert j == 1 or keys[j - 2] < probe
            assert nsearch <= ceil_log2(big_w) + 1


class RecordingComparator(CountingComparator):
    """Counting comparator that also logs each query as (phase, x, y)."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = []

    def leq(self, x, y, phase):
        self.calls.append((phase, x, y))
        return super().leq(x, y, phase)


def test_descend_empty_tree_is_free():
    # An empty tree answers "insert at position 1" without a comparison.
    cmp = RecordingComparator()
    for s in ("x", 0, None):
        assert kernel_module.StatsTree().descend(s, cmp) == \
            (1, kernel_module.SUCCESSOR, 0, 0)
    assert cmp.calls == []
    assert cmp.snapshot().binary_count == 0


def _classify_descend(tree, kernel, s, comparator):
    """Reference descent driven by `classify` at every virtual node.

    Compares at two-child nodes only, then verifies at the leaf; this is the
    walk the kernel's one-walk `descend` must reproduce call for call.
    """
    sig = depth = nsearch = 0
    while True:
        leaf, j, has_left, has_right, split = tree.classify(sig, depth)
        if leaf:
            break
        if has_left and has_right:
            nsearch += 1
            bit = 0 if comparator.leq(s, tree.key_at(split),
                                      PHASE_SEARCH) else 1
        else:
            bit = 0 if has_left else 1
        sig, depth = 2 * sig + bit, depth + 1
    a = tree.key_at(j)
    if comparator.leq(a, s, PHASE_VERIFY):
        if comparator.leq(s, a, PHASE_VERIFY):
            return (j, kernel.EQUAL, nsearch, 2)
        return (j, kernel.PREDECESSOR, nsearch, 2)
    return (j, kernel.SUCCESSOR, nsearch, 1)


def _differential_weights(rng):
    """Weight vectors: plain random, powers of two, weight-1 leaves beside
    heavy ones, and uniform vectors of every small size."""
    for _ in range(150):
        t = rng.randrange(1, 40)
        yield [rng.randrange(1, 100) for _ in range(t)]
    for _ in range(100):
        t = rng.randrange(1, 40)
        yield [1 << rng.randrange(0, 12) for _ in range(t)]
    for _ in range(100):
        t = rng.randrange(2, 40)
        yield [rng.choice((1, 1, rng.randrange(500, 5000)))
               for _ in range(t)]
    for t in range(1, 34):
        yield [rng.randrange(1, 4)] * t


def test_descend_matches_classify_walk(kernel):
    rng = random.Random(71)
    for weights in _differential_weights(rng):
        t = len(weights)
        keys = [2 * i for i in range(t)]
        tree = kernel.from_pairs(keys, weights)
        for probe in range(-1, 2 * t):  # every key and every gap
            got_cmp, want_cmp = RecordingComparator(), RecordingComparator()
            got = tree.descend(probe, got_cmp)
            want = _classify_descend(tree, kernel, probe, want_cmp)
            assert got == want, (weights, probe)
            assert got_cmp.calls == want_cmp.calls, (weights, probe)
            assert got_cmp.snapshot().phase_counts == \
                want_cmp.snapshot().phase_counts


def test_descend_inconsistent_tree_raises():
    # A root weight sum that disagrees with the leaf weights must end the
    # walk with NavigationError instead of looping or answering.
    for bad_total in (1, 6):
        tree = kernel_module.from_pairs(["a", "b", "c"], [1, 1, 1])
        tree._wsum[tree._root] = bad_total
        for key in "abc":
            with pytest.raises(NavigationError):
                tree.descend(key, CountingComparator())


def test_descend_single_leaf_costs(kernel):
    tree = kernel.from_pairs([10], [4])
    cmp = CountingComparator()
    assert tree.descend(10, cmp) == (1, kernel.EQUAL, 0, 2)
    # Smaller than the key: one strict answer.
    assert tree.descend(5, cmp) == (1, kernel.SUCCESSOR, 0, 1)
    assert cmp.phase_count(PHASE_SEARCH) == 0
    assert cmp.phase_count(PHASE_VERIFY) == 3


def test_weighted_descent_cost_bound(kernel):
    """Total weighted code length stays below (H0 + 2) * W."""
    rng = random.Random(67)
    for _ in range(60):
        t = rng.randrange(1, 40)
        weights = [rng.randrange(1, 50) for _ in range(t)]
        tree = kernel.from_pairs(list(range(t)), weights)
        big_w = sum(weights)
        total = sum(w * tree.sigma(j)[1]
                    for j, w in enumerate(weights, start=1))
        entropy_bits = sum(w / big_w * math.log2(big_w / w) for w in weights)
        assert total < (entropy_bits + 2) * big_w


def test_build_explicit_toronto():
    root = build_explicit(TORONTO_KEYS, TORONTO_WEIGHTS)

    def depths(node, d=0):
        if node.is_leaf:
            return {node.leaf_position: d}
        out = {}
        for child in (node.left, node.right):
            if child is not None:
                out.update(depths(child, d + 1))
        return out

    assert depths(root) == {1: 4, 2: 3, 3: 4, 4: 3}


def test_build_explicit_uniform_power_of_two():
    for k in (0, 1, 2, 3, 4):
        n = 2 ** k
        root = build_explicit(list(range(n)), [3] * n)

        def depths(node, d=0):
            if node.is_leaf:
                return [d]
            out = []
            for child in (node.left, node.right):
                if child is not None:
                    out.extend(depths(child, d + 1))
            return out

        assert depths(root) == [k + 1] * n


def test_build_explicit_validation():
    with pytest.raises(ValueError):
        build_explicit([], [])
    with pytest.raises(ValueError):
        build_explicit([2, 1], [1, 1])
    with pytest.raises(ValueError):
        build_explicit([1, 2], [1, 0])


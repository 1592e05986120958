import math
import random

import pytest

from conftest import FlatStatsTree
from entsort.comparator import (PHASE_SEARCH, PHASE_VERIFY,
                                CountingComparator)
from entsort.errors import NavigationError
from entsort.intmath import ceil_div, ceil_log2
from entsort import kernel as kernel_module
from entsort.lbst import (build_explicit, classify, from_pairs, leaf_code,
                          sigma)

TORONTO_KEYS = list("NORT")
TORONTO_WEIGHTS = [1, 3, 1, 2]


def code_bits(tree, j):
    """Leaf j's path code as a bit string."""
    sig, depth = sigma(tree, j)
    return format(sig, f"0{depth}b")


def test_toronto_depths(kernel):
    tree = from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    depths = [sigma(tree, j)[1] for j in range(1, 5)]
    assert depths == [4, 3, 4, 3]


def test_single_leaf_code(kernel):
    tree = from_pairs(["x"], [9])
    assert sigma(tree, 1) == (1, 1)
    assert code_bits(tree, 1) == "1"


def test_codes_lexicographically_increase(kernel):
    rng = random.Random(31)
    for _ in range(80):
        t = rng.randrange(1, 40)
        weights = [rng.randrange(1, 60) for _ in range(t)]
        tree = from_pairs(list(range(t)), weights)
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
        tree = from_pairs(list(range(t)), weights)
        big_w = sum(weights)
        for j in range(1, t + 1):
            depth = sigma(tree, j)[1]
            assert depth == ceil_log2(ceil_div(big_w, weights[j - 1])) + 1
            assert depth <= ceil_log2(big_w) + 1


def test_sigma_matches_definition_oracle(kernel):
    rng = random.Random(23)
    for _ in range(60):
        t = rng.randrange(1, 30)
        weights = [rng.randrange(1, 40) for _ in range(t)]
        tree = from_pairs(list(range(t)), weights)
        flat = FlatStatsTree()
        for i, w in enumerate(weights):
            flat.insert(i, 1, i + 1)
            for _ in range(w - 1):
                flat.increment(i + 1)
        for j in range(1, t + 1):
            assert sigma(tree, j) == flat.sigma(j)
            assert sigma(tree, j) == leaf_code(j, weights)


def _walk_and_compare(tree, node, sig: int, depth: int):
    leaf, j, has_left, has_right, split = classify(tree, sig, depth)
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
        tree = from_pairs(keys, weights)
        explicit = build_explicit(keys, weights)
        _walk_and_compare(tree, explicit, 0, 0)


def test_classify_matches_flat_oracle(kernel):
    rng = random.Random(43)
    for _ in range(60):
        t = rng.randrange(1, 25)
        weights = [rng.randrange(1, 30) for _ in range(t)]
        tree = from_pairs(list(range(t)), weights)
        flat = FlatStatsTree()
        for i, w in enumerate(weights):
            flat.insert(i, 1, i + 1)
            for _ in range(w - 1):
                flat.increment(i + 1)
        for j in range(1, t + 1):
            sig, depth = sigma(tree, j)
            for length in range(depth + 1):
                prefix = sig >> (depth - length)
                assert classify(tree, prefix, length) == \
                    flat.classify(prefix, length)


def test_classify_single_leaf(kernel):
    tree = from_pairs(["x"], [5])
    assert classify(tree, 0, 0)[0]  # the root is the only leaf
    assert classify(tree, 1, 1) == (1, 1, 0, 0, 0)
    with pytest.raises(NavigationError):
        classify(tree, 0, 1)  # "0" prefixes no code (f = 1/2 starts with 1)


def test_classify_root_of_multi_leaf(kernel):
    tree = from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    leaf, _, has_left, has_right, _ = classify(tree, 0, 0)
    assert not leaf
    assert has_left or has_right


def test_classify_toronto_shared_prefix(kernel):
    # N and O codes share their first bit; that node is internal and its
    # split names the rightmost leaf of its left subtree.
    tree = from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    code_n = code_bits(tree, 1)
    code_o = code_bits(tree, 2)
    assert code_n[0] == code_o[0]
    leaf, _, has_left, has_right, split = classify(tree, int(code_n[0]), 1)
    assert not leaf
    explicit = build_explicit(TORONTO_KEYS, TORONTO_WEIGHTS)
    node = explicit.left if code_n[0] == "0" else explicit.right
    if has_left and has_right:
        assert split == node.split_position


def test_descend_toronto_costs(kernel):
    tree = from_pairs(TORONTO_KEYS, TORONTO_WEIGHTS)
    cmp = CountingComparator()
    j, rel, nsearch, _ = tree.descend("O", cmp)
    assert rel == kernel.EQUAL
    assert j == 2
    assert nsearch <= 3  # ceil(log2(7/3)) + 1


def test_classify_rejects_bad_inputs(kernel):
    tree = from_pairs(["a", "b"], [1, 1])
    with pytest.raises(ValueError):
        classify(tree, 4, 2)  # bits exceed depth
    with pytest.raises(NavigationError):
        classify(kernel.StatsTree(), 0, 0)


def test_descend_finds_each_key(kernel):
    rng = random.Random(59)
    for _ in range(60):
        t = rng.randrange(1, 30)
        weights = [rng.randrange(1, 20) for _ in range(t)]
        keys = [2 * i for i in range(t)]
        tree = from_pairs(keys, weights)
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
            want = _classify_descend(tree, kernel, key, CountingComparator())
            assert nverify == want[3]


def test_descend_absent_keys(kernel):
    rng = random.Random(61)
    for _ in range(60):
        t = rng.randrange(1, 30)
        weights = [rng.randrange(1, 20) for _ in range(t)]
        keys = [2 * i for i in range(t)]
        tree = from_pairs(keys, weights)
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


class Rec:
    """Key that logs each `<=` asked of it into a shared list, as the pair
    of values compared, and answers by value. It hashes and compares equal
    by value."""

    __slots__ = ("value", "log")

    def __init__(self, value, log: list):
        self.value = value
        self.log = log

    def __le__(self, other):
        self.log.append((self.value, other.value))
        return self.value <= other.value

    def __eq__(self, other):
        return isinstance(other, Rec) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def recording_tree(kernel, keys, weights, log):
    return from_pairs([Rec(k, log) for k in keys], weights)


def labelled(log: list, cmp) -> list:
    """Empty *log* into a list of (phase, x, y), phased by the ledger of
    *cmp*. A descent asks all its search comparisons before its
    verifications, so the first search-count entries are the search
    phase's; the ledger must count every logged comparison."""
    ledger = cmp.snapshot()
    assert ledger.binary_count == len(log)
    nsearch = ledger.count(PHASE_SEARCH)
    calls = [(PHASE_SEARCH if n < nsearch else PHASE_VERIFY, x, y)
             for n, (x, y) in enumerate(log)]
    log.clear()
    return calls


def test_descend_empty_tree_is_free():
    # An empty tree answers "insert at position 1" without a comparison.
    log = []
    cmp = CountingComparator()
    for s in ("x", 0, None):
        assert kernel_module.StatsTree().descend(Rec(s, log), cmp) == \
            (1, kernel_module.SUCCESSOR, 0, 0)
    assert log == []
    assert cmp.snapshot().binary_count == 0


def _classify_descend(tree, kernel, s, comparator):
    """Reference descent driven by `classify` at every virtual node.

    Compares at two-child nodes only, with the heavier of the two leaves
    beside the split (the left one on a tie): `s <= key[split]` or
    `key[split + 1] <= s`. The answer that last moved each end of the leaf
    range is remembered when it compared s with the leaf at that end, and
    the leaf asks only the rest; this is the walk the kernel's one-walk
    `descend` must reproduce call for call.
    """
    sig = depth = nsearch = 0
    knows_le = knows_ge = False  # key[lo] <= s, s <= key[hi]
    while True:
        leaf, j, has_left, has_right, split = classify(tree, sig, depth)
        if leaf:
            break
        if has_left and has_right:
            nsearch += 1
            pred_key, pred_weight = tree.leaf(split)
            succ_key, succ_weight = tree.leaf(split + 1)
            if succ_weight > pred_weight:
                bit = 1 if comparator.leq(succ_key, s, PHASE_SEARCH) else 0
                if bit:
                    knows_le = True
                else:
                    knows_ge = False
            else:
                bit = 0 if comparator.leq(s, pred_key, PHASE_SEARCH) else 1
                if bit:
                    knows_le = False
                else:
                    knows_ge = True
        else:
            bit = 0 if has_left else 1
        sig, depth = 2 * sig + bit, depth + 1
    a = tree.leaf(j)[0]
    if knows_le and knows_ge:
        return (j, kernel.EQUAL, nsearch, 0)
    if knows_ge:
        if comparator.leq(a, s, PHASE_VERIFY):
            return (j, kernel.EQUAL, nsearch, 1)
        return (j, kernel.SUCCESSOR, nsearch, 1)
    if knows_le:
        if comparator.leq(s, a, PHASE_VERIFY):
            return (j, kernel.EQUAL, nsearch, 1)
        return (j, kernel.PREDECESSOR, nsearch, 1)
    if comparator.leq(a, s, PHASE_VERIFY):
        if comparator.leq(s, a, PHASE_VERIFY):
            return (j, kernel.EQUAL, nsearch, 2)
        return (j, kernel.PREDECESSOR, nsearch, 2)
    return (j, kernel.SUCCESSOR, nsearch, 1)


def _differential_weights(rng):
    """Weight vectors: plain random, powers of two, weight-1 leaves beside
    heavy ones, uniform vectors of every small size, and vectors whose
    total is 2^k - 1, 2^k or 2^k + 1."""
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
    for k in range(1, 13):
        for total in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            t = rng.randrange(1, min(total, 40) + 1)
            cuts = [0] + sorted(rng.sample(range(1, total), t - 1)) + [total]
            yield [b - a for a, b in zip(cuts, cuts[1:])]


def test_descend_matches_classify_walk(kernel):
    rng = random.Random(71)
    log = []
    for weights in _differential_weights(rng):
        t = len(weights)
        tree = recording_tree(kernel, [2 * i for i in range(t)], weights, log)
        for probe in range(-1, 2 * t):  # every key and every gap
            s = Rec(probe, log)
            got_cmp, want_cmp = CountingComparator(), CountingComparator()
            got = tree.descend(s, got_cmp)
            got_calls = labelled(log, got_cmp)
            want = _classify_descend(tree, kernel, s, want_cmp)
            assert got == want, (weights, probe)
            assert got_calls == labelled(log, want_cmp), (weights, probe)
            assert got_cmp.snapshot().phase_counts == \
                want_cmp.snapshot().phase_counts


def test_descend_heavy_inner_leaf_needs_no_verify(kernel):
    # Both splits beside the heavy middle leaf compare s with that leaf,
    # once in each direction, so the hit is settled by the search alone.
    log = []
    tree = recording_tree(kernel, [0, 2, 4], [1, 10, 1], log)
    cmp = CountingComparator()
    assert tree.descend(Rec(2, log), cmp) == (2, kernel.EQUAL, 2, 0)
    assert sorted(labelled(log, cmp)) == \
        [(PHASE_SEARCH, 2, 2), (PHASE_SEARCH, 2, 2)]
    assert cmp.phase_count(PHASE_SEARCH) == 2
    assert cmp.phase_count(PHASE_VERIFY) == 0


def test_descend_outer_leaf_hit_verify_counts(kernel):
    # The leftmost leaf has one boundary split. When it is the heavier leaf
    # there, `s <= key[1]` is answered by the search and one verification
    # remains; when its neighbour is heavier, both verifications remain.
    log = []
    heavy = recording_tree(kernel, [0, 2], [5, 1], log)
    cmp = CountingComparator()
    assert heavy.descend(Rec(0, log), cmp) == (1, kernel.EQUAL, 1, 1)
    assert labelled(log, cmp) == [(PHASE_SEARCH, 0, 0), (PHASE_VERIFY, 0, 0)]
    assert (cmp.phase_count(PHASE_SEARCH), cmp.phase_count(PHASE_VERIFY)) \
        == (1, 1)
    light = recording_tree(kernel, [0, 2], [1, 5], log)
    cmp = CountingComparator()
    assert light.descend(Rec(0, log), cmp) == (1, kernel.EQUAL, 1, 2)
    assert labelled(log, cmp) == [(PHASE_SEARCH, 2, 0), (PHASE_VERIFY, 0, 0),
                                  (PHASE_VERIFY, 0, 0)]
    assert (cmp.phase_count(PHASE_SEARCH), cmp.phase_count(PHASE_VERIFY)) \
        == (1, 2)


@pytest.mark.parametrize("weights, probe, want, insert_at", [
    # Last move set hi with `s <= key[2]`: one question, SUCCESSOR.
    ([3, 2, 1], 1, (2, kernel_module.SUCCESSOR, 2, 1), 2),
    # Last move set lo with `key[2] <= s`: one question, PREDECESSOR.
    ([1, 2, 3], 3, (2, kernel_module.PREDECESSOR, 2, 1), 3),
    # Neither end answered: `a <= s` holds, `s <= a` fails, PREDECESSOR.
    ([2, 1, 2], 3, (2, kernel_module.PREDECESSOR, 2, 2), 3),
])
def test_descend_absent_key_leaf_flags(kernel, weights, probe, want,
                                       insert_at):
    log = []
    tree = recording_tree(kernel, [0, 2, 4], weights, log)
    cmp = CountingComparator()
    got = tree.descend(Rec(probe, log), cmp)
    assert got == want
    assert len(log) == cmp.snapshot().binary_count == got[2] + got[3]
    assert got == _classify_descend(tree, kernel, Rec(probe, log),
                                    CountingComparator())
    j, rel, _, _ = got
    assert (j + 1 if rel == kernel.PREDECESSOR else j) == insert_at


def test_descend_inconsistent_tree_raises():
    # A stored total weight that disagrees with the leaf weights must end the
    # walk with NavigationError instead of looping or answering.
    for bad_total in (1, 6):
        tree = from_pairs(["a", "b", "c"], [1, 1, 1])
        tree._total[0] = bad_total
        for key in "abc":
            with pytest.raises(NavigationError):
                tree.descend(key, CountingComparator())


def test_descend_single_leaf_costs(kernel):
    tree = from_pairs([10], [4])
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
        tree = from_pairs(list(range(t)), weights)
        big_w = sum(weights)
        total = sum(w * sigma(tree, j)[1]
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


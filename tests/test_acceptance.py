"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion. Runtime limits hold on the pure-Python kernel. Criterion 3 has
the least slack: on a 2-vCPU Intel Xeon VM (CPython 3.11) its sweep has
taken from 32 s to 59 s against the 60 s bound on different days, and
47-50 s in three runs on one day in October 2026.
"""

import random
import time
from math import log2

import pytest

from conftest import Spy, stable_perm
from corpora import (TORONTO, bounds_corpus, correctness_corpus,
                     envelope_corpus)
from entsort.bench import baseline_mergesort, generate
from entsort.comparator import PHASE_B1, PHASE_MERGE, CountingComparator
from entsort.entropy import h_order, profile
from entsort.gamma import encode_tuple, gamma_decode, gamma_encode
from entsort.kernel import KERNEL_NAME, get_kernel
from entsort.sort0 import sort0
from entsort.sortk import premise_holds, sortk
from oracles import (build_explicit, ceil_div, ceil_log2, classify,
                     from_pairs, leaf, prefix_sum, search, sigma,
                     total_weight, triple)


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS [{detail}]")


@pytest.fixture(scope="module")
def corpus_results():
    """Sorter outcomes over the full correctness corpus (criteria 4, 5)."""
    results = []
    start = time.perf_counter()
    for name, seq in correctness_corpus():
        oracle = stable_perm(seq)
        out0 = sort0(seq)
        outs = {order: sortk(seq, order) for order in (0, 1, 2, 3)}
        cmp = CountingComparator()
        base = baseline_mergesort(seq, cmp)
        results.append((name, seq, oracle, out0, outs, base))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_entropy_fidelity():
    seq = list("TORONTO")
    profile(seq, 2)  # warm up
    start = time.perf_counter()
    prof = profile(seq, 2)
    elapsed = time.perf_counter() - start
    assert abs(prof.h[0] - 1.8424) <= 0.001
    assert abs(prof.h[1] - 2 / 7) <= 1e-9
    assert prof.h[2] == 0.0
    assert elapsed < 1e-3
    report(1, "entropy fidelity",
           f"H0={prof.h[0]:.4f} H1={prof.h[1]:.6f} H2={prof.h[2]} "
           f"in {elapsed * 1e6:.0f}us")


def _walk_match(tree, node, sig, depth):
    """Compare the virtual node against the explicit one, recursively."""
    leaf, j, has_left, has_right, split = classify(tree, sig, depth)
    if node.leaf_count() == 1:
        assert leaf == 1
        v = node
        while not v.is_leaf:
            v = v.left if v.left is not None else v.right
        assert j == v.leaf_position
        return 1
    assert leaf == 0
    assert bool(has_left) == (node.left is not None)
    assert bool(has_right) == (node.right is not None)
    count = 1
    if has_left and has_right:
        assert split == node.split_position
    if node.left is not None:
        count += _walk_match(tree, node.left, sig * 2, depth + 1)
    if node.right is not None:
        count += _walk_match(tree, node.right, sig * 2 + 1, depth + 1)
    return count


def test_criterion_2_depth_formula():
    rng = random.Random(64064)
    start = time.perf_counter()
    nodes_checked = 0
    for _ in range(1000):
        t = rng.randrange(1, 65)
        weights = [rng.randrange(1, 1024) for _ in range(t)]
        keys = list(range(t))
        tree = from_pairs(keys, weights)
        big_w = sum(weights)
        for j in range(1, t + 1):
            _, depth = sigma(tree, j)
            assert depth == ceil_log2(ceil_div(big_w, weights[j - 1])) + 1
        explicit = build_explicit(keys, weights)
        nodes_checked += _walk_match(tree, explicit, 0, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "depth formula",
           f"1000 weight vectors, {nodes_checked} nodes matched, "
           f"{elapsed:.2f}s, kernel={KERNEL_NAME}")


def test_criterion_3_budget_inequality():
    out = sort0(TORONTO)
    assert out.budget == 28
    assert out.ledger.binary_count <= 28
    start = time.perf_counter()
    checked = 0
    total_elems = 0
    for spec in bounds_corpus(10_000):
        seq = generate(spec)
        res = sort0(seq)
        assert res.ledger.binary_count <= res.budget, spec
        checked += 1
        total_elems += len(seq)
    elapsed = time.perf_counter() - start
    assert checked == 10_000
    assert elapsed < 60.0, f"{elapsed:.1f}s, kernel={KERNEL_NAME}"
    report(3, "budget inequality",
           f"TORONTO=28; {checked} sequences / {total_elems} elements, "
           f"zero violations, {elapsed:.1f}s, kernel={KERNEL_NAME}")


def test_criterion_4_correctness_stability(corpus_results):
    results, elapsed = corpus_results
    for name, seq, oracle, out0, outs, base in results:
        assert out0.permutation == oracle, name
        for order, out in outs.items():
            assert out.permutation == oracle, (name, order)
        assert base == oracle, name
    assert elapsed < 60.0
    report(4, "correctness & stability",
           f"{len(results)} sequences x (sort0, orders 0-3, baseline) all "
           f"match the stable oracle, {elapsed:.1f}s")


def test_criterion_5_order_zero_equivalence(corpus_results):
    results, _ = corpus_results
    for name, seq, oracle, out0, outs, _ in results:
        got = outs[0]
        # The whole outcome: permutation, ledger, budget, context_budget,
        # h0, h_order and warnings (inverse follows from permutation).
        # Order 0 has one context, so it makes no B1 lookup; finalization
        # compares nothing.
        assert got == out0, name
        assert got.ledger.count(PHASE_B1) == 0, name
        assert got.ledger.count(PHASE_MERGE) == 0, name
    report(5, "order-0 equivalence",
           f"{len(results)} sequences: sortk(order=0) equals sort0 field "
           f"by field, with no B1 lookup")


def test_criterion_6_higher_order_advantage():
    k = 10_000
    seq = list("abc") * k
    m = len(seq)
    start = time.perf_counter()
    out1 = sortk(seq, 1)
    out0 = sort0(seq)
    elapsed = time.perf_counter() - start
    assert out1.h_order == 0.0
    assert out1.ledger.binary_count <= 3 * m
    assert out0.ledger.binary_count >= m * (log2(3) - 0.5)
    assert elapsed < 1.0
    report(6, "higher-order advantage",
           f"m={m}: order-1 {out1.ledger.binary_count} <= {3 * m}; "
           f"order-0 {out0.ledger.binary_count} >= "
           f"{m * (log2(3) - 0.5):.0f}; {elapsed:.2f}s")


def test_criterion_7_zero_comparison_audit():
    kern = get_kernel()
    # 1e5 randomized statistics-tree operations on spied keys.
    Spy.reset()
    cmp = CountingComparator()
    before = cmp.snapshot()
    rng = random.Random(500)
    tree = kern.StatsTree()
    next_index = 1
    for _ in range(100_000):
        t = len(tree)
        action = rng.random()
        if t == 0 or action < 0.3:
            tree.insert(Spy(rng.randrange(1000)), next_index,
                        rng.randrange(1, t + 2))
            next_index += 1
        elif action < 0.55:
            j = rng.randrange(1, t + 1)
            tree.append(next_index, j)
            next_index += 1
        elif action < 0.8:
            j = rng.randrange(1, t + 1)
            prefix_sum(tree, j)
            triple(tree, j)
            leaf(tree, j)
            sigma(tree, j)
        else:
            total = total_weight(tree)
            den = rng.randrange(1, 4)
            search(tree, rng.randrange(0, den * total + 1), den)
    tree_ops_delta = cmp.snapshot().binary_count - before.binary_count
    assert tree_ops_delta == 0
    assert Spy.order_comparisons == 0

    # Full order-k runs on spied elements: every order query is ledgered,
    # so the code dictionary and tree internals contributed exactly zero.
    rng = random.Random(501)
    audits = []
    for order in (1, 2):
        raw = [rng.randrange(9) for _ in range(4000)]
        seq = [Spy(v) for v in raw]
        Spy.reset()
        out = sortk(seq, order)
        assert Spy.order_comparisons == out.ledger.binary_count
        assert [s.value for s in out.sorted_values(seq)] == sorted(raw)
        audits.append(out.ledger.binary_count)
    report(7, "zero-comparison audit",
           f"1e5 tree ops: delta 0; order-k runs ledger==spied counts "
           f"{audits}")


def test_criterion_8_gamma_code():
    start = time.perf_counter()
    codes = {}
    for x in range(1, 2 ** 16 + 1):
        c = gamma_encode(x)
        assert gamma_decode(c) == (x, "")
        assert gamma_decode(c + "0110") == (x, "0110")
        codes[c] = x
    assert len(codes) == 2 ** 16
    code_set = set(codes)
    for c in codes:
        for cut in range(1, len(c)):
            assert c[:cut] not in code_set
    seen = {}
    stack = [()]
    while stack:
        t = stack.pop()
        enc = encode_tuple(t)
        assert enc not in seen or seen[enc] == t
        seen[enc] = t
        if len(t) < 3:
            stack.extend(t + (r,) for r in range(1, 9))
    assert len(seen) == 1 + 8 + 64 + 512
    elapsed = time.perf_counter() - start
    report(8, "gamma code",
           f"round-trip + prefix-freeness exhaustive to 2^16; tuple "
           f"injectivity over {len(seen)} tuples; {elapsed:.1f}s")


def test_criterion_9_entropy_envelope():
    checked0 = 0
    checkedk = 0
    start = time.perf_counter()
    for name, seq, order in envelope_corpus():
        m = len(seq)
        n = len(set(seq))
        # Preconditions: n * ceil(log2 m) <= m for the order-0 envelope,
        # n^(order+1) * log2(n) <= m for the order-k one.
        if n * max(1, ceil_log2(m)) <= m:
            out0 = sort0(seq)
            assert out0.ledger.binary_count <= (h_order(seq, 0) + 6.0) * m, \
                name
            checked0 += 1
        if order >= 1 and premise_holds(n, m, order):
            outk = sortk(seq, order)
            assert outk.ledger.binary_count <= \
                (h_order(seq, order) + 6.0) * m, name
            checkedk += 1
    elapsed = time.perf_counter() - start
    assert checked0 >= 10 and checkedk >= 10
    report(9, "entropy envelope",
           f"(H+6)m held on {checked0} order-0 and {checkedk} order-k "
           f"runs, {elapsed:.1f}s")

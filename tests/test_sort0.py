import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import sort0_budget, stable_perm
from entsort.comparator import (PHASE_SEARCH, PHASE_VERIFY,
                                CountingComparator)
from entsort.kernel import available_kernels, get_kernel
from entsort.sort0 import comparison_budget, sort0
from entsort.sortk import invert
from oracles import ceil_log2

TORONTO = list("TORONTO")


def test_toronto_permutation(kernel):
    out = sort0(TORONTO, kernel_name=kernel.KERNEL_NAME)
    assert out.permutation == [5, 2, 4, 7, 3, 1, 6]
    assert "".join(out.sorted_values(TORONTO)) == "NOOORTT"
    assert out.budget == 28
    assert out.ledger.binary_count <= 28
    assert out.h0 == pytest.approx(1.84237099, abs=1e-6)


def test_budget_toronto_terms():
    # First occurrences at 2, 3, 5 and repeats at 4, 6, 7.
    assert comparison_budget(TORONTO) == (3 + 4 + 5) + (5 + 6 + 5) == 28


def test_budget_single():
    assert comparison_budget([42]) == 0


def test_single_element(kernel):
    out = sort0([42], kernel_name=kernel.KERNEL_NAME)
    assert out.permutation == [1]
    assert out.inverse == [1]
    assert out.ledger.binary_count == 0
    assert out.budget == 0


def test_constant_sequence_costs(kernel):
    m = 50
    cmp = CountingComparator()
    out = sort0(["a"] * m, comparator=cmp, kernel_name=kernel.KERNEL_NAME)
    # Single-leaf tree: no descent comparisons, two verifications per step.
    assert cmp.phase_count(PHASE_SEARCH) == 0
    assert cmp.phase_count(PHASE_VERIFY) == 2 * (m - 1)
    assert out.budget == 3 * (m - 1)
    assert out.permutation == list(range(1, m + 1))


def test_all_distinct_budget_bounds():
    for m in (1, 2, 5, 20):
        seq = list(range(m))
        budget = comparison_budget(seq)
        closed = sum(ceil_log2(i - 1) + 3 for i in range(2, m + 1))
        assert budget == closed
        if m >= 2:
            log_fact = sum(math.log2(i) for i in range(1, m + 1))
            # Derived by direct summation (holds for small m only).
            assert budget < log_fact + 3 * m
    for m in (2, 10, 100, 1000):
        budget = comparison_budget(list(range(m)))
        log_fact = sum(math.log2(i) for i in range(1, m + 1))
        assert budget < log_fact + 4 * m


def test_inverse_relationship(kernel):
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randrange(1, 120)
        seq = [rng.randrange(8) for _ in range(m)]
        out = sort0(seq, kernel_name=kernel.KERNEL_NAME)
        assert sorted(out.permutation) == list(range(1, m + 1))
        for sorted_pos, orig in enumerate(out.permutation, start=1):
            assert out.inverse[orig - 1] == sorted_pos
        values = out.sorted_values(seq)
        assert values == sorted(seq)


def test_invert_helper():
    assert invert([3, 1, 2]) == [2, 3, 1]
    assert invert([1]) == [1]


def test_empty_rejected(kernel):
    with pytest.raises(ValueError):
        sort0([], kernel_name=kernel.KERNEL_NAME)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                max_size=150))
def test_property_stable_and_budgeted(seq):
    out = sort0(seq)
    assert out.permutation == stable_perm(seq)
    assert out.ledger.binary_count <= out.budget
    assert out.ledger.binary_count == (
        out.ledger.count(PHASE_SEARCH) + out.ledger.count(PHASE_VERIFY))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3),
                min_size=1, max_size=80))
def test_property_string_elements(seq):
    out = sort0(seq)
    assert out.permutation == stable_perm(seq)
    assert out.ledger.binary_count <= out.budget


def test_skewed_and_markov_style_budgets(kernel):
    rng = random.Random(13)
    for trial in range(30):
        m = rng.randrange(1, 600)
        style = trial % 3
        if style == 0:
            seq = [rng.randrange(2) for _ in range(m)]
        elif style == 1:
            seq = [min(int(rng.expovariate(0.7)), 30) for _ in range(m)]
        else:
            seq = []
            state = 0
            for _ in range(m):
                state = (state + 1) % 5 if rng.random() < 0.9 \
                    else rng.randrange(5)
                seq.append(state)
        out = sort0(seq, kernel_name=kernel.KERNEL_NAME)
        assert out.permutation == stable_perm(seq)
        assert out.ledger.binary_count <= out.budget


def test_one_kernel_surface(monkeypatch):
    assert available_kernels() == ("python",)
    module = get_kernel()
    assert get_kernel("python") is module
    assert get_kernel("auto") is module
    # Wrapping the module's StatsTree, as the layer profiler does, must
    # reach the forest that sort0 builds. Every scan starts in context 0,
    # the only one at order 0, and the scans' items cover TORONTO: each
    # element is scanned once, in order. The first element descends the
    # empty tree, which costs no comparison.
    contexts, scanned = [], []
    scan = module.StatsTree.scan

    def spy(tree, items, ctx, comparator):
        contexts.append(ctx)

        def seen():
            for item in items:
                scanned.append(item)
                yield item

        return scan(tree, seen(), ctx, comparator)

    monkeypatch.setattr(module.StatsTree, "scan", spy)
    sort0(TORONTO)
    assert contexts and set(contexts) == {0}
    assert [s for _, s in scanned] == list(TORONTO)


def test_unknown_kernel_raises():
    with pytest.raises(ValueError):
        get_kernel("c")
    with pytest.raises(ValueError):
        sort0(TORONTO, kernel_name="c")


def test_budget_matches_definition():
    """comparison_budget against its definition, `conftest.sort0_budget`:
    the smallest k with 2^k * max(c, 1) >= i - 1, plus 3, for i >= 2."""
    rng = random.Random(19)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 7, 50])
        seq = [rng.randrange(n) for _ in range(rng.randrange(1, 200))]
        assert comparison_budget(seq) == sort0_budget(seq)

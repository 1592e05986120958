import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import sort0_budget
from entsort.entropy import (context_sequences, h0, h0_bits, h_order,
                             profile)
from entsort.sortk import budget_breakdown

TORONTO = list("TORONTO")


def test_h0_toronto():
    assert h0([2, 3, 1, 1]) == pytest.approx(1.84237099, abs=1e-6)


def test_h0_degenerate_cases():
    assert h0([17]) == 0.0
    assert h0([1, 1]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        h0([])
    with pytest.raises(ValueError):
        h0([0, 3])


def test_h_order_toronto():
    assert h_order(TORONTO, 0) == pytest.approx(1.84237099, abs=1e-6)
    assert h_order(TORONTO, 1) == pytest.approx(2 / 7, abs=1e-12)
    assert h_order(TORONTO, 2) == 0.0
    assert h_order(TORONTO, 3) == 0.0


def test_h_order_equals_h0_at_zero():
    rng = random.Random(1)
    for _ in range(20):
        seq = [rng.randrange(5) for _ in range(rng.randrange(1, 60))]
        counts = {}
        for s in seq:
            counts[s] = counts.get(s, 0) + 1
        assert h_order(seq, 0) == pytest.approx(h0(counts.values()))


def test_h_order_at_length_is_zero():
    rng = random.Random(2)
    seq = [rng.randrange(4) for _ in range(37)]
    assert h_order(seq, len(seq)) == 0.0
    assert h_order(seq, len(seq) + 5) == 0.0


def test_single_symbol():
    assert h_order(["a"] * 40, 0) == 0.0
    assert h_order(["a"] * 40, 1) == 0.0


def test_random_permutation_h0_is_log_n():
    for n in (2, 8, 100):
        seq = list(range(n))
        random.Random(n).shuffle(seq)
        assert h_order(seq, 0) == pytest.approx(math.log2(n))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                max_size=80),
       st.integers(min_value=0, max_value=6))
def test_monotone_in_order(seq, k):
    assert h_order(seq, k + 1) <= h_order(seq, k) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=80))
def test_h0_below_log_n(seq):
    n = len(set(seq))
    assert -1e-9 <= h_order(seq, 0) <= math.log2(n) + 1e-9


def test_profile_toronto():
    prof = profile(TORONTO, 2)
    assert prof.m == 7 and prof.n == 4
    assert prof.h[0] == pytest.approx(1.84237099, abs=1e-6)
    assert prof.h[1] == pytest.approx(2 / 7)
    assert prof.h[2] == 0.0
    # H_2 is 0.0, so every higher order is 0.0, up to order m.
    assert profile(TORONTO, 7).h == prof.h + [0.0] * 5


def test_profile_decomposition():
    # Each H_k is the size-weighted mean of its contexts' H0, and the
    # profile gives exactly h_order at every order, those past its first
    # exact 0.0 included.
    rng = random.Random(3)
    for _ in range(25):
        seq = [rng.randrange(6) for _ in range(rng.randrange(1, 120))]
        top = min(8, len(seq))
        prof = profile(seq, top)
        for k in range(top + 1):
            assert prof.h[k] == h_order(seq, k)
            total = sum(len(part) * h0(Counter(part).values())
                        for part in context_sequences(seq, k).values())
            assert prof.m * prof.h[k] == pytest.approx(total, rel=1e-9,
                                                       abs=1e-9)


def reference_h(seq, k):
    """H_k by its definition over `context_sequences`: a `Counter` per
    part, in first-occurrence order, its `h0_bits`, and the size-weighted
    mean of those, with H_0 taken as is."""
    terms = [(len(part), h0_bits(Counter(part).values(), len(part)))
             for part in context_sequences(seq, k).values()]
    if k == 0:
        return terms[0][1]
    return sum(size * bits for size, bits in terms) / len(seq)


NAN = float("nan")
# 1, 1.0 and True are one key, as are 0, 0.0 and False; the one NAN object
# equals itself by identity only, as dicts and tuples compare it.
KEYS = [0, 1, 1.0, True, 2, 2.5, False, 0.0, NAN]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_profile_bit_exact_against_context_sequences(data):
    """Every entry of `profile`, and `h_order` at its top order, equals
    `reference_h` by repr: the same floats, summed in the same order."""
    pool = data.draw(st.lists(st.sampled_from(KEYS), min_size=1,
                              max_size=len(KEYS)))
    rnd = data.draw(st.randoms(use_true_random=False))
    seq = [rnd.choice(pool) for _ in range(data.draw(
        st.integers(min_value=1, max_value=400)))]
    top = data.draw(st.integers(min_value=0, max_value=min(len(seq), 24)))
    prof = profile(seq, top)
    assert prof.m == len(seq) and prof.n == len(set(seq))
    assert [repr(x) for x in prof.h] == \
        [repr(reference_h(seq, k)) for k in range(top + 1)]
    assert repr(h_order(seq, top)) == repr(prof.h[top])


def test_context_budget_decomposition():
    # Per-context budgets sum over the contexts' successor sequences.
    seqs = context_sequences(TORONTO, 1)
    assert set(seqs) == {("T",), ("O",), ("R",), ("N",)}
    assert {k[0]: "".join(v) for k, v in seqs.items()} == \
        {"T": "OO", "O": "RN", "R": "O", "N": "T"}
    total = budget_breakdown(TORONTO, 1).context_total
    assert total == sum(sort0_budget(v) for v in seqs.values())


def test_context_sequences_edges():
    assert context_sequences(TORONTO, 0) == {(): TORONTO}
    assert context_sequences("TORONTO", 2)[("O", "R")] == ["O"]
    for order in (0, 3, 4):
        assert context_sequences([], order) == {}
    assert context_sequences([1, 2, 3], 3) == {}
    assert context_sequences([1, 2, 3], 5) == {}


def test_profile_validation():
    with pytest.raises(ValueError):
        profile([], 0)
    with pytest.raises(ValueError):
        profile([1, 2], 3)
    with pytest.raises(ValueError):
        h_order([], 0)
    with pytest.raises(ValueError):
        h_order([1], -1)

"""Properties of the descent protocol over whole sorts.

The descent picks, at each split, which of the two neighbouring keys to
compare with, and lets those answers settle the leaf. These properties run
both sorters at orders 0-3 under that protocol: with a consistent order,
including keys that compare equal across types and alphabets large enough
to make B1 at least 10 levels high, the result is the stable
permutation within budget and every order query is counted; with
elements whose `<=` answers at random or inconsistently, the result is
still a permutation of 1..m or a clean error, never a lost index, and
every answer was theirs. Elements that compare but cannot be hashed fail
before the first comparison.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Spy, stable_perm
from entsort.comparator import CountingComparator
from entsort.sort0 import sort0
from entsort.sortk import sortk

ORDERS = st.sampled_from([None, 0, 1, 2, 3])  # None runs sort0


def run(seq, order, comparator=None):
    if order is None:
        return sort0(seq, comparator)
    return sortk(seq, order, comparator)


@st.composite
def sequences(draw):
    """Lists over a drawn alphabet size, so that runs range from nearly
    all hits (tiny alphabets) to nearly all misses (large ones)."""
    n = draw(st.sampled_from([1, 2, 3, 8, 40, 1000]))
    return draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=1, max_size=120))


@st.composite
def large_alphabets(draw):
    """Every value of a 512- to 1,500-letter alphabet once, shuffled with
    up to 600 repeats. B1 then holds at least 512 keys, so it is at least
    10 levels high."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    n = draw(st.integers(min_value=512, max_value=1500))
    seq = list(range(n))
    seq += [rng.randrange(n) for _ in range(draw(st.integers(0, 600)))]
    rng.shuffle(seq)
    return seq


# Keys that compare equal but differ in type: each class must stay one key,
# in the stable order, whichever of its members the trees keep.
MIXED_TYPES = st.lists(st.sampled_from([0, 0.0, False, 1, 1.0, True]),
                       min_size=1, max_size=120)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sequences(), MIXED_TYPES, large_alphabets()), ORDERS)
def test_property_sorted_budgeted_and_fully_counted(raw, order):
    seq = [Spy(v) for v in raw]
    Spy.reset()
    out = run(seq, order)
    assert out.permutation == stable_perm(raw)
    assert out.ledger.binary_count <= out.budget
    assert Spy.order_comparisons == out.ledger.binary_count


class Referee:
    """Answers the `<=` of Hostile elements by *mode*: at random, always
    true, always false, or the negation of the true answer; counts every
    question it is asked."""

    def __init__(self, seed: int, mode: str):
        self.rng = random.Random(seed)
        self.mode = mode
        self.calls = 0

    def answer(self, x, y) -> bool:
        self.calls += 1
        if self.mode == "random":
            return self.rng.random() < 0.5
        if self.mode == "negated":
            return not x <= y
        return self.mode == "true"


class Hostile:
    """Element whose `<=` its referee answers; it hashes and compares
    equal by value, so the accounting sees a consistent alphabet."""

    __slots__ = ("value", "referee")

    def __init__(self, value, referee: Referee):
        self.value = value
        self.referee = referee

    def __le__(self, other):
        return self.referee.answer(self.value, other.value)

    def __eq__(self, other):
        return isinstance(other, Hostile) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


@settings(max_examples=200, deadline=None)
@given(sequences(), ORDERS,
       st.sampled_from(["random", "true", "false", "negated"]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_property_inconsistent_comparator_loses_no_index(raw, order, mode,
                                                         seed):
    referee = Referee(seed, mode)
    cmp = CountingComparator()
    try:
        out = run([Hostile(v, referee) for v in raw], order, cmp)
    except ValueError:  # NavigationError included: a clean, typed failure
        out = None
    # Every comparison was asked of the elements, answered by them and
    # counted, in a run that failed too.
    assert referee.calls == cmp.binary_count
    if out is not None:
        assert sorted(out.permutation) == list(range(1, len(raw) + 1))
        assert out.ledger.binary_count == cmp.binary_count


def test_unhashable_elements_fail_before_any_comparison():
    """The accounting counts elements by hashing them, and it runs before
    the scan: an input with an unhashable element raises TypeError from
    either sorter before any comparison is made."""
    seq = [[2], [1], [2]]
    for order in (None, 0, 1, 2):
        cmp = CountingComparator()
        with pytest.raises(TypeError):
            run(seq, order, cmp)
        assert cmp.binary_count == 0, order

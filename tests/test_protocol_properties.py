"""Properties of the descent protocol over whole sorts.

The descent picks, at each split, which of the two neighbouring keys to
compare with, and lets those answers settle the leaf. These properties run
both sorters at orders 0-3 under that protocol: with a consistent order,
including keys that compare equal across types, the result is the stable
permutation within budget and every order query is counted; with a
comparator that answers at random or inconsistently, the result is still a
permutation of 1..m or a clean error, never a lost index.
"""

import random

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


# Keys that compare equal but differ in type: each class must stay one key,
# in the stable order, whichever of its members the trees keep.
MIXED_TYPES = st.lists(st.sampled_from([0, 0.0, False, 1, 1.0, True]),
                       min_size=1, max_size=120)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sequences(), MIXED_TYPES), ORDERS)
def test_property_sorted_budgeted_and_fully_counted(raw, order):
    seq = [Spy(v) for v in raw]
    Spy.reset()
    out = run(seq, order)
    assert out.permutation == stable_perm(raw)
    assert out.ledger.binary_count <= out.budget
    assert Spy.order_comparisons == out.ledger.binary_count


class ArbitraryComparator(CountingComparator):
    """Counts like the real comparator but answers by *mode*: at random,
    always true, always false, or the negation of the true answer."""

    __slots__ = ("rng", "mode")

    def __init__(self, seed: int, mode: str):
        super().__init__()
        self.rng = random.Random(seed)
        self.mode = mode

    def leq(self, x, y, phase):
        super().leq(x, y, phase)
        if self.mode == "random":
            return self.rng.random() < 0.5
        if self.mode == "negated":
            return not x <= y
        return self.mode == "true"


@settings(max_examples=200, deadline=None)
@given(sequences(), ORDERS,
       st.sampled_from(["random", "true", "false", "negated"]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_property_inconsistent_comparator_loses_no_index(raw, order, mode,
                                                         seed):
    cmp = ArbitraryComparator(seed, mode)
    try:
        out = run(raw, order, cmp)
    except ValueError:  # NavigationError included: a clean, typed failure
        return
    assert sorted(out.permutation) == list(range(1, len(raw) + 1))
    assert out.ledger.binary_count == cmp.binary_count

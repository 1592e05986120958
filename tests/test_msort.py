import random

from hypothesis import given, settings, strategies as st

from entsort.msort import mergesort_perm
from oracles import ceil_log2


def run(items):
    count = 0

    def leq(a, b):
        nonlocal count
        count += 1
        return a <= b

    return mergesort_perm(items, leq), count


def test_empty_and_single():
    assert run([])[0] == []
    assert run([7])[0] == [0]


def test_stability():
    items = [(1, "a"), (0, "b"), (1, "c"), (0, "d"), (1, "e")]
    order = mergesort_perm(items, lambda a, b: a[0] <= b[0])
    assert [items[i][1] for i in order] == ["b", "d", "a", "c", "e"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=120))
def test_matches_python_stable_sort(items):
    order, count = run(items)
    assert order == sorted(range(len(items)), key=items.__getitem__)
    if len(items) > 1:
        assert count <= len(items) * ceil_log2(len(items))


def test_comparison_bound_large():
    rng = random.Random(2)
    for n in (100, 1000, 5000):
        items = [rng.random() for _ in range(n)]
        _, count = run(items)
        assert count <= n * ceil_log2(n)

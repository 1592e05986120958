"""The two dictionaries used by the order-k sorter.

RankDictionary maps elements to first-appearance ranks; its lookups are the
only dictionary operations that compare elements, and every comparison is
charged to the b1-dictionary phase. It is an AVL tree on the statistics
tree's flat-array core (`kernel._FlatAVL`), with heights as its only
field; node ids are allocated in first-appearance order, so an element's
node id is its rank; height <= AVL_HEIGHT_FACTOR * log2(t + 2).
CodeDictionary maps rank tuples to context ids, the contexts of the
sorter's statistics-tree forest, above order 1 (at order 1 a context's id
is its element's rank); it is a hash map and compares no elements.
"""

from __future__ import annotations

from math import floor, log2
from typing import Iterator

from .comparator import B1
from .kernel import _FlatAVL

AVL_HEIGHT_FACTOR = 1.4405


def avl_height_bound(t: int) -> int:
    """Upper bound on the height of an AVL tree with t nodes."""
    return floor(AVL_HEIGHT_FACTOR * log2(t + 2))


class RankDictionary(_FlatAVL):
    """Elements seen so far, each with its first-appearance rank.

    An element's rank is the number of distinct elements in the sequence up
    to and including its first occurrence; the ranks of t elements are a
    bijection onto 1..t. Lookups walk down keeping the smallest key >= s as a
    candidate (one comparison per node), then spend one comparison to decide
    equality — at most height + 1 comparisons per operation. They are the
    elements' own `<=`; a lookup counts them as it goes and adds the count
    to the comparator's b1 entry (`counts[B1]`) once, in a `finally`
    clause, so that a comparison that raises is counted too.

    The nodes live in parallel lists (`_keys` and the `_FlatAVL` lists),
    with node 0 as the null sentinel. Nodes are allocated in
    first-appearance order, so a node's id is its element's rank.
    """

    __slots__ = ("_counts", "_keys", "_root")

    def __init__(self, comparator):
        self._counts = comparator.counts
        self._keys = [None]
        self._left = [0]
        self._right = [0]
        self._height = [0]
        self._root = 0

    def lookup_or_insert(self, elem) -> tuple[int, bool]:
        """(rank, was_new) for elem, inserting it with the next rank if new."""
        keys, left, right = self._keys, self._left, self._right
        path = []  # the nodes passed, root first
        candidate = 0
        v = self._root
        try:
            while v:
                path.append(v)
                if elem <= keys[v]:
                    candidate = v
                    v = left[v]
                else:
                    v = right[v]
            if candidate and keys[candidate] <= elem:
                return candidate, False
        finally:
            # v is 0 only once the walk has ended, so the equality check
            # was asked exactly when v is 0 and there is a candidate.
            self._counts[B1] += len(path) + (not v and candidate > 0)
        # Miss: a new leaf at the fall-off point.
        rank = len(keys)
        keys.append(elem)
        left.append(0)
        right.append(0)
        self._height.append(1)
        # The last move went left exactly when it set the candidate.
        leftward = candidate != 0 and candidate == path[-1]
        self._root = self._attach(path, rank, leftward)
        return rank, True

    def ranks(self) -> Iterator[int]:
        """The ranks in key order: the in-order walk, without the keys."""
        return self._inorder(self._root)


class CodeDictionary(dict):
    """Rank tuples -> context ids; never touches elements.

    A dict whose `insert` refuses a key that is already present. The
    read-off never iterates it: it reads every context through the
    forest's node store, and the key order comes from RankDictionary.
    """

    def insert(self, ranks: tuple, value) -> None:
        """Insert a new key; the key must not be present."""
        if ranks in self:
            raise KeyError(f"duplicate key {ranks!r}")
        self[ranks] = value

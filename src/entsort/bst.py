"""The two dictionaries used by the order-k sorter.

RankDictionary maps elements to first-appearance ranks; its lookups are the
only dictionary operations that compare elements, and every comparison is
charged to the b1-dictionary phase. It is an AVL tree on the statistics
tree's flat-array core (`kernel._FlatAVL`), with heights as its only
field; node ids are allocated in first-appearance order, so an element's
node id is its rank; height <= AVL_HEIGHT_FACTOR * log2(t + 2).
CodeDictionary maps rank tuples to statistics trees; it is a hash map and
compares no elements.
"""

from __future__ import annotations

from math import floor, log2
from typing import Iterator

from .comparator import PHASE_B1
from .kernel import _FlatAVL

AVL_HEIGHT_FACTOR = 1.4405


def avl_height_bound(t: int) -> int:
    """Upper bound on the height of an AVL tree with t nodes."""
    return floor(AVL_HEIGHT_FACTOR * log2(t + 2))


class RankDictionary(_FlatAVL):
    """Elements seen so far, each with its first-appearance rank.

    An element's rank is the number of distinct elements in the sequence up
    to and including its first occurrence; ranks are a bijection onto
    1..len(self). Lookups walk down keeping the smallest key >= s as a
    candidate (one comparison per node), then spend one comparison to decide
    equality — at most height + 1 comparisons per operation.

    The nodes live in parallel lists (`_keys` and the `_FlatAVL` lists),
    with node 0 as the null sentinel. Nodes are allocated in
    first-appearance order, so a node's id is its element's rank.
    """

    __slots__ = ("_cmp", "_keys")

    def __init__(self, comparator):
        self._cmp = comparator
        self._keys = [None]
        self._left = [0]
        self._right = [0]
        self._height = [0]
        self._root = 0

    def __len__(self) -> int:
        return len(self._keys) - 1

    def lookup_or_insert(self, elem) -> tuple[int, bool]:
        """(rank, was_new) for elem, inserting it with the next rank if new."""
        leq = self._cmp.leq
        keys, left, right = self._keys, self._left, self._right
        path = []  # the nodes passed, root first
        candidate = 0
        v = self._root
        while v:
            path.append(v)
            if leq(elem, keys[v], PHASE_B1):
                candidate = v
                v = left[v]
            else:
                v = right[v]
        if candidate and leq(keys[candidate], elem, PHASE_B1):
            return candidate, False
        # Miss: a new leaf at the fall-off point.
        rank = len(keys)
        keys.append(elem)
        left.append(0)
        right.append(0)
        self._height.append(1)
        # The last move went left exactly when it set the candidate.
        self._attach(path, rank, candidate != 0 and candidate == path[-1])
        return rank, True

    def ranks(self) -> Iterator[int]:
        """The ranks in key order: the in-order walk, without the keys."""
        return self._inorder()

    def _fix(self, v: int) -> None:
        h = self._height
        lh, rh = h[self._left[v]], h[self._right[v]]
        h[v] = 1 + (lh if lh >= rh else rh)


class CodeDictionary(dict):
    """Rank tuples -> statistics-tree handles; never touches elements.

    A dict whose `insert` refuses a key that is already present. The
    read-off never iterates it: above order 0 it reads every tree through
    their shared node store, at order 0 it takes the one tree as `b2[()]`,
    and the key order comes from RankDictionary.
    """

    def insert(self, ranks: tuple, value) -> None:
        """Insert a new key; the key must not be present."""
        if ranks in self:
            raise KeyError(f"duplicate key {ranks!r}")
        self[ranks] = value

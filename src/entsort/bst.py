"""The two dictionaries used by the order-k sorter.

RankDictionary maps elements to first-appearance ranks; its lookups are the
only dictionary operations that compare elements, and every comparison is
charged to the b1-dictionary phase. It is a plain AVL tree; height <=
AVL_HEIGHT_FACTOR * log2(t + 2). CodeDictionary maps rank tuples to
statistics trees; it is a hash map and compares no elements.
"""

from __future__ import annotations

from math import floor, log2
from typing import Iterator, Optional

from .comparator import PHASE_B1

AVL_HEIGHT_FACTOR = 1.4405


def avl_height_bound(t: int) -> int:
    """Upper bound on the height of an AVL tree with t nodes."""
    return floor(AVL_HEIGHT_FACTOR * log2(t + 2))


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1


def _h(v: Optional[_Node]) -> int:
    return v.height if v is not None else 0


def _fix(v: _Node) -> None:
    v.height = 1 + max(_h(v.left), _h(v.right))


def _rot_right(v: _Node) -> _Node:
    l = v.left
    v.left = l.right
    l.right = v
    _fix(v)
    _fix(l)
    return l


def _rot_left(v: _Node) -> _Node:
    r = v.right
    v.right = r.left
    r.left = v
    _fix(v)
    _fix(r)
    return r


def _balance(v: _Node) -> _Node:
    _fix(v)
    bf = _h(v.left) - _h(v.right)
    if bf > 1:
        if _h(v.left.left) >= _h(v.left.right):
            return _rot_right(v)
        v.left = _rot_left(v.left)
        return _rot_right(v)
    if bf < -1:
        if _h(v.right.right) >= _h(v.right.left):
            return _rot_left(v)
        v.right = _rot_right(v.right)
        return _rot_left(v)
    return v


def _inorder(v: Optional[_Node]) -> Iterator[tuple]:
    if v is None:
        return
    yield from _inorder(v.left)
    yield (v.key, v.value)
    yield from _inorder(v.right)


class RankDictionary:
    """Elements seen so far, each with its first-appearance rank.

    An element's rank is the number of distinct elements in the sequence up
    to and including its first occurrence; ranks are a bijection onto
    1..len(self). Lookups walk down keeping the smallest key >= s as a
    candidate (one comparison per node), then spend one comparison to decide
    equality — at most height + 1 comparisons per operation.
    """

    def __init__(self, comparator):
        self._cmp = comparator
        self._root: Optional[_Node] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        return _h(self._root)

    def lookup_or_insert(self, elem) -> tuple[int, bool]:
        """(rank, was_new) for elem, inserting it with the next rank if new."""
        leq = self._cmp.leq
        path: list[tuple[_Node, bool]] = []  # (node, went_left)
        candidate: Optional[_Node] = None
        v = self._root
        while v is not None:
            if leq(elem, v.key, PHASE_B1):
                candidate = v
                path.append((v, True))
                v = v.left
            else:
                path.append((v, False))
                v = v.right
        if candidate is not None and leq(candidate.key, elem, PHASE_B1):
            return candidate.value, False
        # Miss: attach at the fall-off point and rebalance up the path,
        # stopping at the first ancestor that keeps both its place and its
        # height, since nothing above it changes.
        self._count += 1
        node = _Node(elem, self._count)
        for parent, went_left in reversed(path):
            if went_left:
                parent.left = node
            else:
                parent.right = node
            height = parent.height
            node = _balance(parent)
            if node is parent and node.height == height:
                break
        else:
            self._root = node
        return self._count, True

    def __iter__(self) -> Iterator[tuple]:
        return _inorder(self._root)


class CodeDictionary(dict):
    """Rank tuples -> statistics-tree handles; never touches elements.

    A dict whose `insert` refuses a key that is already present. The
    sorter visits its trees in insertion order at finalization; that order
    does not matter, because the key order comes from RankDictionary.
    """

    def insert(self, ranks: tuple, value) -> None:
        """Insert a new key; the key must not be present."""
        if ranks in self:
            raise KeyError(f"duplicate key {ranks!r}")
        self[ranks] = value

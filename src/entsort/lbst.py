"""Virtual weighted leaf-oriented search tree over a statistics tree.

The tree for leaf weights w_1..w_t (total W) places leaf j at the path given
by the first ceil(log2(W/w_j)) + 1 fraction bits of
f_j = (sum of earlier weights + w_j/2) / W; zero bits go left, one bits go
right. The codes are prefix-free and lexicographically increasing, so the
structure exists implicitly, and `StatsTree.descend` searches it with one
counted comparison per two-child node. No sorter needs anything else from
it. This module holds the oracles the tests check `descend` against:
`leaf_code` computes a leaf's code from a weight list, `sigma` and
`classify` answer single-node queries straight off a statistics tree
through its public operations (`search`, `sum`, `triple`, `total_weight`
and `len`), and `build_explicit` materializes the same tree as linked
nodes. Codes are extracted with exact integer arithmetic: f_j may be a
non-terminating binary fraction, so floating point is unsound.
"""

from __future__ import annotations

from typing import Optional

from .errors import NavigationError
from .intmath import ceil_div, ceil_log2


class ExplicitNode:
    """Linked node of the materialized tree (test oracle)."""

    __slots__ = ("left", "right", "leaf_position", "key", "split_key",
                 "split_position")

    def __init__(self):
        self.left: Optional[ExplicitNode] = None
        self.right: Optional[ExplicitNode] = None
        self.leaf_position: Optional[int] = None
        self.key = None
        self.split_key = None
        self.split_position: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_position is not None

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        total = 0
        if self.left is not None:
            total += self.left.leaf_count()
        if self.right is not None:
            total += self.right.leaf_count()
        return total


def _code(fnum: int, w: int, big_w: int) -> tuple[int, int]:
    """(bits-as-int, depth) of a leaf of weight w with f = fnum / (2W).

    depth = ceil(log2(W/w)) + 1; bit k of the code is
    floor(fnum * 2^k / 2W) mod 2.
    """
    depth = ceil_log2(ceil_div(big_w, w)) + 1
    return (fnum << depth) // (2 * big_w), depth


def leaf_code(position: int, weights: list[int]) -> tuple[int, int]:
    """(bits-as-int, depth) for one leaf, straight from the definition."""
    w = weights[position - 1]
    return _code(2 * sum(weights[:position - 1]) + w, w, sum(weights))


def _f(tree, j: int) -> tuple[int, int]:
    """(2W * f_j, w_j) = (2 * S_{j-1} + w_j, w_j) for leaf j of *tree*."""
    w = tree.triple(j)[1]
    return 2 * tree.sum(j) - w, w


def sigma(tree, j: int) -> tuple[int, int]:
    """Leaf j's path code as (bits-as-int, depth), read off *tree*."""
    fnum, w = _f(tree, j)
    return _code(fnum, w, tree.total_weight)


def _first_leaf_from(tree, num: int, shift: int) -> tuple[int, int]:
    """(j, 2W * f_j) for the first leaf j with f_j >= num / 2^shift.

    That leaf is j' or j' + 1 for j' = search(num * W / 2^shift), since
    S_{j-1} < f_j * W < S_j. Gives (len(tree) + 1, 0) when there is none.
    """
    big_w = tree.total_weight
    j = tree.search(num * big_w, 1 << shift)
    fnum = _f(tree, j)[0]
    if (fnum << shift) < 2 * big_w * num:
        j += 1
        fnum = _f(tree, j)[0] if j <= len(tree) else 0
    return j, fnum


def classify(tree, sig: int, depth: int) -> tuple:
    """Classify the implicit-tree node addressed by path code sig/depth.

    Returns (is_leaf, leaf_position, has_left, has_right, split_position)
    with zeros for absent fields. A node under which only one leaf
    remains is reported as that leaf (the rest of its path spends no
    comparisons, so contraction preserves every count).
    """
    t = len(tree)
    if t == 0:
        raise NavigationError("classify on empty tree")
    if depth < 0 or sig < 0 or sig >> depth:
        raise ValueError("path code bits exceed stated depth")
    big_w = tree.total_weight
    if depth + big_w.bit_length() > 126:
        raise OverflowError("path depth exceeds configured word width")
    two_w = 2 * big_w

    # The leaves under the node are those with sig <= f_j * 2^depth < sig + 1.
    jmin, fnum = _first_leaf_from(tree, sig, depth)
    if jmin > t or (fnum << depth) >= two_w * (sig + 1):
        raise NavigationError("path code matches no leaf")
    if jmin == t or (_f(tree, jmin + 1)[0] << depth) >= two_w * (sig + 1):
        return (1, jmin, 0, 0, 0)

    # >= 2 leaves below: has_left iff the smallest in range starts 0.
    has_left = 1 if (fnum << (depth + 1)) < two_w * (2 * sig + 1) else 0
    jr, fq = _first_leaf_from(tree, 2 * sig + 1, depth + 1)
    has_right = 1 if (jr <= t
                      and (fq << (depth + 1)) < two_w * (2 * sig + 2)) else 0
    split = jr - 1 if (has_left and has_right) else 0
    return (0, 0, has_left, has_right, split)


def build_explicit(keys: list, weights: list[int]) -> ExplicitNode:
    """Materialize the weighted tree as linked nodes.

    Keys must be strictly increasing and weights positive. Leaf depths equal
    ceil(log2(W/w_j)) + 1; each two-child node stores the key and position
    of the rightmost leaf in its left subtree.
    """
    if len(keys) != len(weights):
        raise ValueError("keys and weights must have equal length")
    if not keys:
        raise ValueError("at least one leaf is required")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    if any(not a < b for a, b in zip(keys, keys[1:])):
        raise ValueError("keys must be strictly increasing")

    root = ExplicitNode()
    for j in range(1, len(keys) + 1):
        sig, depth = leaf_code(j, weights)
        v = root
        for k in range(depth - 1, -1, -1):
            if v.is_leaf:
                raise AssertionError("leaf codes are not prefix-free")
            bit = (sig >> k) & 1
            if bit == 0:
                if v.left is None:
                    v.left = ExplicitNode()
                v = v.left
            else:
                if v.right is None:
                    v.right = ExplicitNode()
                v = v.right
        if v.is_leaf or v.left is not None or v.right is not None:
            raise AssertionError("leaf codes are not prefix-free")
        v.leaf_position = j
        v.key = keys[j - 1]

    def annotate(v: ExplicitNode) -> tuple:
        """Return (rightmost leaf position, key) of v's subtree."""
        if v.is_leaf:
            return v.leaf_position, v.key
        left_max = annotate(v.left) if v.left is not None else None
        right_max = annotate(v.right) if v.right is not None else None
        if left_max is not None and right_max is not None:
            v.split_position, v.split_key = left_max
        return right_max if right_max is not None else left_max

    annotate(root)
    return root

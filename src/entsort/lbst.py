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
through its public operations (`search`, `sum`, `leaf`, `total_weight`
and `len`), and `build_explicit` materializes the same tree as linked
nodes. `from_pairs` builds the statistics tree of given keys and weights,
the given-frequencies case that these oracles are checked on. Codes are
extracted with exact integer arithmetic: f_j may be a non-terminating
binary fraction, so floating point is unsound.
"""

from __future__ import annotations

import struct
from itertools import accumulate, repeat
from typing import Optional

from . import kernel
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
    w = tree.leaf(j)[1]
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


def from_pairs(keys, weights, indices=None) -> kernel.StatsTree:
    """A one-context forest whose tree is built balanced from parallel
    (key, weight) lists.

    When *indices* is omitted, leaf j gets the next w_j positions from 1
    on, so the weight == len(indices) invariant holds, and one packed run
    of machine ints links them all (each position to the one before it; a
    leaf's first to 0).
    Given index lists may interleave, as the lists [1, 3] and [2, 4] of the
    sequence "abab" do; each must increase, and no position may appear
    twice or lie outside 1..MAX_POSITION, else ValueError. The position
    chain then spans the largest position given, at 4 bytes per position,
    and a later `append` or `insert` must record a position above it.
    """
    keys = list(keys)
    weights = [int(w) for w in weights]
    if len(keys) != len(weights):
        raise ValueError("keys and weights must have equal length")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    if sum(weights) > kernel.MAX_TOTAL_WEIGHT:
        raise OverflowError("total weight exceeds configured word width")
    tree = kernel.StatsTree()
    chain = tree._chain
    if indices is None:
        tails = list(accumulate(weights))
        total = tails[-1] if tails else 0
        if total > kernel.MAX_POSITION:
            raise ValueError(f"positions 1..{total} pass MAX_POSITION")
        # struct packs the run about twice as fast as array.extend.
        chain.frombytes(struct.pack(f"{total}I", *range(total)))
        for end, w in zip(tails, weights):
            chain[end - w + 1] = 0
    else:
        if len(indices) != len(keys):
            raise ValueError("keys and indices must have equal length")
        indices = [list(ix) for ix in indices]
        top = max((i for ix in indices for i in ix), default=0)
        if top > kernel.MAX_POSITION:
            raise ValueError(f"position {top} is past MAX_POSITION")
        chain.extend(repeat(0, top))
        linked: set = set()
        tails = []
        for ix in indices:
            prev = 0
            for i in ix:
                if i <= prev or i in linked:
                    raise ValueError(
                        f"position {i} refused: each index list increases "
                        "from 1 on, and no position is in two lists")
                chain[i] = prev
                linked.add(i)
                prev = i
            tails.append(prev)
    if not keys:
        return tree

    def build(lo: int, hi: int) -> tuple:
        """(root, weight sum) of a balanced subtree over keys lo..hi."""
        if lo > hi:
            return 0, 0
        mid = (lo + hi) // 2
        u = tree._new_node(keys[mid], weights[mid], tails[mid], None)
        tree._left[u], lw = build(lo, mid - 1)
        tree._right[u], rw = build(mid + 1, hi)
        tree._rank[u] = mid - lo + 1
        tree._off[u] = 2 * lw + weights[mid]
        tree._fix(u)
        return u, lw + weights[mid] + rw

    tree._root[0], tree._total[0] = build(0, len(keys) - 1)
    tree._len[0] = len(keys)
    tree._first[0] = tree._node_at(1)
    tree._last[0] = tree._node_at(len(keys))
    return tree

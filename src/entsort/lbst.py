"""Virtual weighted leaf-oriented search tree over a statistics tree.

The tree for leaf weights w_1..w_t (total W) places leaf j at the path given
by the first ceil(log2(W/w_j)) + 1 fraction bits of
f_j = (sum of earlier weights + w_j/2) / W; zero bits go left, one bits go
right. The codes are prefix-free and lexicographically increasing, so the
structure exists implicitly: `StatsTree.classify` answers node queries
straight off the statistics tree, and `StatsTree.descend` searches with one
counted comparison per two-child node. This module is the explicit-tree
oracle for both: `leaf_code` computes a leaf's code from the definition,
and `build_explicit` materializes the same tree as linked nodes.
"""

from __future__ import annotations

from typing import Optional

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


def leaf_code(position: int, weights: list[int]) -> tuple[int, int]:
    """(bits-as-int, depth) for one leaf, straight from the definition."""
    w = weights[position - 1]
    big_w = sum(weights)
    before = sum(weights[:position - 1])
    depth = ceil_log2(ceil_div(big_w, w)) + 1
    num = 2 * before + w
    return (num << depth) // (2 * big_w), depth


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

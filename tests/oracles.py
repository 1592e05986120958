"""Test oracles for the statistics tree and its virtual weighted tree.

No sorter needs anything here; the tests check the kernel against it.

- `ceil_div` and `ceil_log2`: exact integer helpers. No logarithm on the
  navigation path may go through floating point, so the oracles compute
  depths in integers.
- Positional queries on a `kernel.StatsTree` forest, as functions of the
  tree: `search`, `prefix_sum`, `leaf`, `triple`, `total_weight` and
  `quadruples`. Each is an O(log t) walk over the node store, and each
  takes its context id last, 0 by default, except `total_weight`, which
  sums every context.
- The virtual weighted leaf-oriented search tree. The tree for leaf
  weights w_1..w_t (total W) places leaf j at the path given by the first
  ceil(log2(W/w_j)) + 1 fraction bits of
  f_j = (sum of earlier weights + w_j/2) / W; zero bits go left, one bits
  go right. The codes are prefix-free and lexicographically increasing, so
  the structure exists implicitly, and `StatsTree.descend` searches it
  with one counted comparison per two-child node. `leaf_code` computes a
  leaf's code from a weight list, `sigma` and `classify` answer
  single-node queries straight off a statistics tree through the
  positional queries above, and `build_explicit` materializes the same
  tree as linked nodes. `from_pairs` builds the statistics tree of given
  keys and weights, the given-frequencies case that these oracles are
  checked on. Codes are extracted with exact integer arithmetic: f_j may be
  a non-terminating binary fraction, so floating point is unsound.
- `dictionary_size` and `dictionary_height`: a `bst.RankDictionary`'s
  number of elements and the height of its tree.
- `FlatStatsTree`, a brute-force flat-list twin of one statistics tree,
  `validate`, which checks a context's stored invariants, and
  `random_op_mix`, which drives a forest and its twin with one random op
  stream.

This is the one test module that reads the node store's lists.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import Counter
from itertools import repeat
from typing import Optional

from entsort import kernel
from entsort.errors import NavigationError


# -- exact integer helpers ---------------------------------------------------

def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for positive q."""
    return -(-p // q)


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


# -- positional queries on a statistics tree ---------------------------------

def total_weight(tree) -> int:
    """The total weight of every context of *tree*."""
    return sum(tree._total)


def search(tree, num: int, den: int = 1, ctx: int = 0) -> int:
    """Smallest position j with den * (w_1 + ... + w_j) >= num.

    The rational threshold num/den generalizes an integer threshold;
    comparisons are by cross-multiplication in exact integers.
    """
    if den <= 0:
        raise ValueError("den must be positive")
    if num < 0:
        raise ValueError("num must be non-negative")
    if tree._len[ctx] == 0:
        raise ValueError("search on empty tree")
    total = tree._total[ctx]
    if den.bit_length() + total.bit_length() > 126:
        raise OverflowError("threshold exceeds configured word width")
    if den * total < num:
        raise ValueError("threshold exceeds total weight")
    if num == 0:
        return 1
    left, right, rank_of = tree._left, tree._right, tree._rank
    weight, off = tree._weight, tree._off
    num2 = 2 * num  # F - w_j = 2*S_{j-1} and F + w_j = 2*S_j
    v = tree._root[ctx]
    base = 0  # twice the weight before v's subtree; den*base < num2
    pos = 0  # positions before v's subtree
    while True:
        f = base + off[v]
        w = weight[v]
        if den * (f - w) >= num2:
            v = left[v]
        elif den * (f + w) >= num2:
            return pos + rank_of[v]
        else:
            base = f + w
            pos += rank_of[v]
            v = right[v]


def prefix_sum(tree, j: int, ctx: int = 0) -> int:
    """Prefix weight sum w_1 + ... + w_j."""
    tree._node_at(j, ctx)  # IndexError unless 1 <= j <= t
    left, right, rank_of = tree._left, tree._right, tree._rank
    weight, off = tree._weight, tree._off
    v = tree._root[ctx]
    base = 0  # twice the weight before v's subtree
    while True:
        r = rank_of[v]
        if j < r:
            v = left[v]
        else:
            base += off[v] + weight[v]
            if j == r:
                return base // 2
            j -= r
            v = right[v]


def leaf(tree, j: int, ctx: int = 0) -> tuple:
    """The j-th leaf's key and weight, read without its index list."""
    v = tree._node_at(j, ctx)
    return (tree._keys[v], tree._weight[v])


def triple(tree, j: int, ctx: int = 0) -> tuple:
    """The j-th quadruple (key, weight, indices, next handle).

    The index list is a new list of the positions that name the leaf in
    the position -> leaf array, so it costs a scan of that array; `leaf`
    reads the key and weight alone.
    """
    v = tree._node_at(j, ctx)
    return (tree._keys[v], tree._weight[v], _indices(tree, v),
            tree._next[v])


def _indices(tree, v: int) -> list:
    """Node v's index list: the positions whose leaf is v, increasing.

    It searches the array's bytes for v's entry and keeps the matches at
    entry boundaries, which is much faster than a loop over the entries.
    """
    store = tree._leaf
    size = store.itemsize
    data, entry = store.tobytes(), array(store.typecode, (v,)).tobytes()
    found = []
    k = data.find(entry)
    while k >= 0:
        if k % size:
            k = data.find(entry, k + 1)
        else:
            found.append(k // size)
            k = data.find(entry, k + size)
    return found


def _index_lists(tree) -> dict:
    """Node id -> its index list, for every node that holds a position,
    from one scan of the position -> leaf array."""
    lists: dict = {}
    for i, v in enumerate(tree._leaf):
        if v:
            lists.setdefault(v, []).append(i)
    return lists


def quadruples(tree, ctx: int = 0) -> list:
    """All quadruples of context *ctx* in positional order, each index
    list read off the position -> leaf array."""
    keys, weight, nxt = tree._keys, tree._weight, tree._next
    lists = _index_lists(tree)
    return [(keys[v], weight[v], lists.get(v, []), nxt[v])
            for v in tree._inorder(tree._root[ctx])]


# -- the virtual weighted tree -----------------------------------------------

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
    w = leaf(tree, j)[1]
    return 2 * prefix_sum(tree, j) - w, w


def sigma(tree, j: int) -> tuple[int, int]:
    """Leaf j's path code as (bits-as-int, depth), read off *tree*."""
    fnum, w = _f(tree, j)
    return _code(fnum, w, total_weight(tree))


def _first_leaf_from(tree, num: int, shift: int) -> tuple[int, int]:
    """(j, 2W * f_j) for the first leaf j with f_j >= num / 2^shift.

    That leaf is j' or j' + 1 for j' = search(num * W / 2^shift), since
    S_{j-1} < f_j * W < S_j. Gives (len(tree) + 1, 0) when there is none.
    """
    big_w = total_weight(tree)
    j = search(tree, num * big_w, 1 << shift)
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
    big_w = total_weight(tree)
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
    on, so the weight == len(indices) invariant holds, and the position ->
    leaf array is one run of w_j copies of each leaf's node id.
    Given index lists may interleave, as the lists [1, 3] and [2, 4] of the
    sequence "abab" do; each must increase, and no position may appear
    twice or lie outside 1..MAX_POSITION, else ValueError. The leaf array
    then spans the largest position given, at 4 bytes per position, with 0
    at each position that no list holds, and a later `append` or `insert`
    must record a position above it.
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
    if indices is None:
        total = sum(weights)
        if total > kernel.MAX_POSITION:
            raise ValueError(f"positions 1..{total} pass MAX_POSITION")
    else:
        if len(indices) != len(keys):
            raise ValueError("keys and indices must have equal length")
        indices = [list(ix) for ix in indices]
        top = max((i for ix in indices for i in ix), default=0)
        if top > kernel.MAX_POSITION:
            raise ValueError(f"position {top} is past MAX_POSITION")
        linked: set = set()
        for ix in indices:
            prev = 0
            for i in ix:
                if i <= prev or i in linked:
                    raise ValueError(
                        f"position {i} refused: each index list increases "
                        "from 1 on, and no position is in two lists")
                linked.add(i)
                prev = i
    if not keys:
        return tree

    def build(lo: int, hi: int) -> tuple:
        """(root, weight sum) of a balanced subtree over keys lo..hi."""
        if lo > hi:
            return 0, 0
        mid = (lo + hi) // 2
        u = nodes[mid] = tree._new_node(keys[mid], weights[mid], None)
        tree._left[u], lw = build(lo, mid - 1)
        tree._right[u], rw = build(mid + 1, hi)
        tree._rank[u] = mid - lo + 1
        tree._off[u] = 2 * lw + weights[mid]
        tree._fix(u)
        return u, lw + weights[mid] + rw

    nodes = [0] * len(keys)  # key index -> its node id
    tree._root[0], tree._total[0] = build(0, len(keys) - 1)
    leaf = tree._leaf
    if indices is None:
        for u, w in zip(nodes, weights):
            leaf.extend(repeat(u, w))
    else:
        leaf.extend(repeat(0, top))
        for u, ix in zip(nodes, indices):
            for i in ix:
                leaf[i] = u
    tree._len[0] = len(keys)
    tree._first[0] = tree._node_at(1)
    tree._last[0] = tree._node_at(len(keys))
    return tree


# -- the rank dictionary ----------------------------------------------------

def dictionary_size(d) -> int:
    """The number of elements in the `bst.RankDictionary` *d*."""
    return len(d._keys) - 1


def dictionary_height(d) -> int:
    """The height of *d*'s AVL tree; 0 while it is empty."""
    return d._height[d._root]


# -- the flat twin and the invariant checks ----------------------------------

class FlatStatsTree:
    """Brute-force flat-list twin of the statistics tree (test oracle).

    Every operation is a linear scan straight off the definitions; used to
    check the real trees on randomized operation sequences.
    """

    def __init__(self):
        self.rows: list[list] = []  # [key, weight, indices, next]

    def __len__(self):
        return len(self.rows)

    @property
    def total_weight(self):
        return sum(r[1] for r in self.rows)

    def search(self, num, den=1):
        if den <= 0 or num < 0:
            raise ValueError("bad threshold")
        if not self.rows:
            raise ValueError("search on empty tree")
        if den * self.total_weight < num:
            raise ValueError("threshold exceeds total weight")
        acc = 0
        for j, row in enumerate(self.rows, start=1):
            acc += row[1]
            if den * acc >= num:
                return j
        raise AssertionError("unreachable")

    def sum(self, j):
        if not 1 <= j <= len(self.rows):
            raise IndexError(j)
        return sum(r[1] for r in self.rows[:j])

    def triple(self, j):
        if not 1 <= j <= len(self.rows):
            raise IndexError(j)
        return tuple(self.rows[j - 1])

    def increment(self, j):
        if not 1 <= j <= len(self.rows):
            raise IndexError(j)
        self.rows[j - 1][1] += 1

    def append(self, i, j):
        """A hit: one more unit of weight and index i; the handle."""
        if not 1 <= j <= len(self.rows):
            raise IndexError(j)
        row = self.rows[j - 1]
        row[1] += 1
        row[2].append(i)
        return row[3]

    def insert(self, a, i, j, next=None):
        if not 1 <= j <= len(self.rows) + 1:
            raise IndexError(j)
        self.rows.insert(j - 1, [a, 1, [i], next])

    def quadruples(self):
        return [tuple(r) for r in self.rows]

    # Navigation oracle: enumerate every leaf code from the definition.
    def _codes(self):
        weights = [r[1] for r in self.rows]
        return [leaf_code(j, weights) for j in range(1, len(weights) + 1)]

    @staticmethod
    def _starts_with(code, depth, sig, length):
        if length > depth:
            return False
        return (code >> (depth - length)) == sig

    def sigma(self, j):
        return self._codes()[j - 1]

    def classify(self, sig, length):
        """In-contract only: sig must be a prefix of some leaf code."""
        codes = self._codes()
        matches = [j for j, (c, d) in enumerate(codes, start=1)
                   if self._starts_with(c, d, sig, length)]
        if not matches:
            raise NavigationError("path code matches no leaf")
        if len(matches) == 1:
            return (1, matches[0], 0, 0, 0)
        left = [j for j in matches
                if self._starts_with(*codes[j - 1], sig * 2, length + 1)]
        right = [j for j in matches
                 if self._starts_with(*codes[j - 1], sig * 2 + 1, length + 1)]
        has_left = 1 if left else 0
        has_right = 1 if right else 0
        split = max(left) if (left and right) else 0
        return (0, 0, has_left, has_right, split)


def validate(tree, ctx: int = 0) -> None:
    """Check the AVL, augmentation and position -> leaf invariants of
    context *ctx* of the statistics forest *tree*."""
    leaf = tree._leaf
    if leaf[0] != 0:
        raise AssertionError("position 0 names a leaf")
    if max(leaf) >= len(tree._keys):
        raise AssertionError("a position names no node")
    lengths = Counter(leaf)  # node id -> the length of its index list

    def walk(v: int) -> tuple:
        if v == 0:
            return 0, 0, 0
        lh, ls, lw = walk(tree._left[v])
        rh, rs, rw = walk(tree._right[v])
        if abs(lh - rh) > 1:
            raise AssertionError("AVL balance violated")
        h = 1 + max(lh, rh)
        if tree._height[v] != h:
            raise AssertionError("stored height wrong")
        if tree._rank[v] != ls + 1:
            raise AssertionError("stored rank wrong")
        if tree._weight[v] < 1:
            raise AssertionError("non-positive weight")
        if tree._weight[v] != lengths[v]:
            raise AssertionError("weight != len(indices)")
        if tree._off[v] != 2 * lw + tree._weight[v]:
            raise AssertionError("stored F offset wrong")
        return h, 1 + ls + rs, tree._weight[v] + lw + rw

    _, size, total = walk(tree._root[ctx])
    if tree._len[ctx] != size:
        raise AssertionError("stored length wrong")
    if tree._total[ctx] != total:
        raise AssertionError("stored total weight wrong")
    ends = ((tree._node_at(1, ctx), tree._node_at(size, ctx)) if size
            else (0, 0))
    if (tree._first[ctx], tree._last[ctx]) != ends:
        raise AssertionError("cached end nodes wrong")


def random_op_mix(tree, oracle, rng: random.Random, ops: int,
                  key_pool=None, ctx: int = 0, indices=None) -> None:
    """Drive context *ctx* of the forest *tree* and *oracle* with the same
    random op stream, checking outputs agree after every step. Positions
    come from *indices*, an iterator of increasing ints (1, 2, ... by
    default), which calls on several contexts may share."""
    if key_pool is None:
        key_pool = range(10 ** 6)
    if indices is None:
        indices = itertools.count(1)
    for _ in range(ops):
        t = len(oracle)
        choice = rng.random()
        if t == 0 or choice < 0.25:
            j = rng.randrange(1, t + 2)
            key = rng.choice(key_pool)
            i = next(indices)
            tree.insert(key, i, j, None, ctx)
            oracle.insert(key, i, j)
        elif choice < 0.6:
            # Hit update: append bumps the weight and records the index,
            # keeping weight == len(indices).
            j = rng.randrange(1, t + 1)
            i = next(indices)
            assert tree.append(i, j, ctx) is oracle.append(i, j)
        elif choice < 0.75:
            j = rng.randrange(1, t + 1)
            assert prefix_sum(tree, j, ctx) == oracle.sum(j)
            got = triple(tree, j, ctx)
            want = oracle.triple(j)
            assert got[0] == want[0] and got[1] == want[1]
            assert leaf(tree, j, ctx) == (want[0], want[1])
            assert list(got[2]) == list(want[2])
        else:
            total = oracle.total_weight
            den = rng.randrange(1, 5)
            num = rng.randrange(0, den * total + 1)
            assert search(tree, num, den, ctx) == oracle.search(num, den)

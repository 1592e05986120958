"""The statistics-tree kernel: the positional tree and the counted descent.

This is the only kernel, in pure Python. `KERNEL_NAME`, `available_kernels`
and `get_kernel` name it for run reports and for callers that still pass
`kernel_name`.

The statistics tree is an AVL tree over a positional list of quadruples
(key, weight, index list, next-context handle), augmented with subtree sizes
and subtree weight sums. All structural operations address positions, never
keys: the tree performs zero element comparisons. Height is at most
1.4405 * log2(t + 2) (classic AVL bound; asserted in tests).

The sorters need two things from it: the positional updates (`append`
records a hit in one walk; `insert` adds a leaf), and `descend`, a counted
search of the weighted leaf-oriented search tree that the weight vector
induces. Leaf j of that tree sits at the code formed by the first
ceil(log2(W/w_j)) + 1 fraction bits of f_j = (2*S_{j-1} + w_j) / (2W),
computed in exact integers. `descend` walks the implicit tree for an
element, spending one counted comparison per two-child node and 0, 1 or 2
verification comparisons at the leaf. Each split between leaves j and j+1
asks either `s <= key[j]` or `key[j+1] <= s`, whichever names the heavier
leaf, so that the answer which moves an end of the leaf range can also
settle the leaf's relation to s; the leaf then asks only what is still open.
The walk tracks the leaf range under the current node, skips chains of
one-child nodes by arithmetic on the range's end codes, and pays one AVL
walk per counted comparison and none to find the end leaves, whose nodes the
tree keeps. The single-node queries that the tests check it against
(`sigma`, `classify`) live in `entsort.lbst`.

Trees can share one node store (`StatsTree(nodes=...)`): the order-k
sorter keeps its one tree per context in a single store, so that a context
costs one small object rather than a set of lists.

The AVL rules live once, in `_FlatAVL`: rotations, the single-or-double
rebalance, `_attach`, which hangs a new leaf below a recorded search path
and rebalances bottom-up, and the in-order walk. The statistics tree and
`bst.RankDictionary` both derive from it and differ only in `_fix`, the
fields a node recomputes from its children.
"""

from __future__ import annotations

import sys
from itertools import islice
from types import ModuleType

from .errors import NavigationError

KERNEL_NAME = "python"

# Relations reported by descend().
EQUAL = 0
PREDECESSOR = 1  # found leaf key < searched element
SUCCESSOR = 2  # found leaf key > searched element

# Total weight cap, kept as an input guard: it bounds every navigation
# product to 126 bits, so inputs past it fail loudly with OverflowError.
MAX_TOTAL_WEIGHT = 1 << 60

_PHASE_SEARCH = "search"
_PHASE_VERIFY = "verify"


class _FlatAVL:
    """AVL plumbing shared by the statistics tree and `bst.RankDictionary`.

    Nodes live in parallel lists indexed by node id, with node 0 as the null
    sentinel (height 0). A subclass supplies `_fix(v)`, which recomputes v's
    height and any augmentation from its children; rotations call it on the
    two nodes whose children change. Rotations keep node ids.
    """

    __slots__ = ("_left", "_right", "_height", "_root")

    @property
    def height(self) -> int:
        return self._height[self._root]

    def _rot_right(self, v: int) -> int:
        l = self._left[v]
        self._left[v] = self._right[l]
        self._right[l] = v
        self._fix(v)
        self._fix(l)
        return l

    def _rot_left(self, v: int) -> int:
        r = self._right[v]
        self._right[v] = self._left[r]
        self._left[r] = v
        self._fix(v)
        self._fix(r)
        return r

    def _rotate(self, v: int) -> int:
        """Rebalance v, whose subtrees differ in height by 2, with a single
        or a double rotation; return the subtree's new root."""
        h, left, right = self._height, self._left, self._right
        l, r = left[v], right[v]
        if h[l] > h[r]:
            if h[left[l]] >= h[right[l]]:
                return self._rot_right(v)
            left[v] = self._rot_left(l)
            return self._rot_right(v)
        if h[right[r]] >= h[left[r]]:
            return self._rot_left(v)
        right[v] = self._rot_right(r)
        return self._rot_left(v)

    def _attach(self, path: list, node: int, leftward: bool) -> None:
        """Hang the new leaf *node* below the end of *path* and rebalance.

        *path* lists the ancestors from the root down, as the node ids that
        the tree holds; *leftward* says whether the leaf is the left child of
        the last one. Any augmentation other than the height must already
        count the new node along the path. Going up, a balanced ancestor
        gets its new height, an unbalanced one rotates, and the first
        ancestor that keeps both its place and its height ends the walk,
        since nothing above it changes.

        A child pointer is written only where it changes: at the leaf, and
        above a rotation, on the side that held the rotated node. So the
        child lists only ever hold id objects that the tree already holds,
        and no walk allocates an int per ancestor.
        """
        left, right, height = self._left, self._right, self._height
        below = 0  # the child that *node* replaces under the next ancestor
        for parent in reversed(path):
            if node != below:
                if below:
                    leftward = left[parent] == below
                if leftward:
                    left[parent] = node
                else:
                    right[parent] = node
            lh, rh = height[left[parent]], height[right[parent]]
            if -1 <= lh - rh <= 1:
                h = 1 + (lh if lh >= rh else rh)
                if h == height[parent]:
                    return
                height[parent] = h
                node = below = parent
            else:
                below = parent
                node = self._rotate(parent)
        self._root = node

    def _inorder(self):
        """Node ids in key (positional) order."""
        left, right = self._left, self._right
        stack = []
        v = self._root
        while stack or v:
            while v:
                stack.append(v)
                v = left[v]
            v = stack.pop()
            yield v
            v = right[v]


class StatsTree(_FlatAVL):
    """Positional AVL tree of quadruples with subtree weight sums.

    Positions are 1-based. Node 0 is the null sentinel. Callers are
    responsible for inserting keys in sorted positional order; the tree
    never checks (it cannot compare keys).

    The nodes live in nine parallel lists, `_left` to `_next`, the node
    store, which trees made with `nodes=` share (see `__init__`). Each tree
    keeps its own root and end nodes; no operation links a node of one tree
    into another.
    """

    __slots__ = ("_size", "_weight", "_wsum", "_keys", "_idx", "_next",
                 "_first", "_last", "context_ranks")

    def __init__(self, context_ranks=None, nodes=None):
        """An empty tree. With *nodes*, another tree, the new tree adds its
        nodes to that tree's node store instead of making nine fresh lists;
        node ids are then unique across every tree that shares the store."""
        if nodes is None:
            self._left = [0]
            self._right = [0]
            self._height = [0]
            self._size = [0]
            self._weight = [0]
            self._wsum = [0]
            self._keys = [None]
            self._idx = [None]
            self._next = [None]
        else:
            self._left, self._right, self._height = \
                nodes._left, nodes._right, nodes._height
            self._size, self._weight, self._wsum = \
                nodes._size, nodes._weight, nodes._wsum
            self._keys, self._idx, self._next = \
                nodes._keys, nodes._idx, nodes._next
        self._root = 0
        # Nodes at positions 1 and len(self), 0 when empty. Rotations keep
        # node ids, so only an insert at either end moves them.
        self._first = self._last = 0
        # The owning context's rank tuple, its key in the order-k sorter's
        # context dictionary; the last rank is that of the keys that lead
        # into this tree.
        self.context_ranks = context_ranks

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return self._size[self._root]

    @property
    def total_weight(self) -> int:
        return self._wsum[self._root]

    def _check_pos(self, j: int) -> None:
        if not 1 <= j <= self._size[self._root]:
            raise IndexError(f"position {j} out of range 1..{len(self)}")

    def _node_at(self, j: int) -> int:
        left, right, size = self._left, self._right, self._size
        v = self._root
        pos = j
        while True:
            ls = size[left[v]]
            if pos <= ls:
                v = left[v]
            elif pos == ls + 1:
                return v
            else:
                pos -= ls + 1
                v = right[v]

    def handle_at(self, j: int):
        """The j-th next-context handle, read without recording a hit. No
        sorter calls it (`append` returns the handle on a hit); it is kept
        for the layer tracer."""
        self._check_pos(j)
        return self._next[self._node_at(j)]

    # -- the six positional operations ------------------------------------

    def search(self, num: int, den: int = 1) -> int:
        """Smallest position j with den * (w_1 + ... + w_j) >= num.

        The rational threshold num/den generalizes an integer threshold;
        comparisons are by cross-multiplication in exact integers.
        """
        if den <= 0:
            raise ValueError("den must be positive")
        if num < 0:
            raise ValueError("num must be non-negative")
        root = self._root
        if self._size[root] == 0:
            raise ValueError("search on empty tree")
        if den.bit_length() + self._wsum[root].bit_length() > 126:
            raise OverflowError("threshold exceeds configured word width")
        if den * self._wsum[root] < num:
            raise ValueError("threshold exceeds total weight")
        if num == 0:
            return 1
        left, right, size = self._left, self._right, self._size
        weight, wsum = self._weight, self._wsum
        v = root
        acc = 0  # weight strictly before v's subtree; den*acc < num holds
        rank = 0  # positions strictly before v's subtree
        while True:
            l = left[v]
            before = acc + wsum[l]
            if den * before >= num:
                v = l
            elif den * (before + weight[v]) >= num:
                return rank + size[l] + 1
            else:
                acc = before + weight[v]
                rank += size[l] + 1
                v = right[v]

    def sum(self, j: int) -> int:
        """Prefix weight sum w_1 + ... + w_j."""
        self._check_pos(j)
        left, right, size = self._left, self._right, self._size
        weight, wsum = self._weight, self._wsum
        v = self._root
        acc = 0
        pos = j
        while True:
            l = left[v]
            ls = size[l]
            if pos <= ls:
                v = l
            elif pos == ls + 1:
                return acc + wsum[l] + weight[v]
            else:
                pos -= ls + 1
                acc += wsum[l] + weight[v]
                v = right[v]

    def triple(self, j: int) -> tuple:
        """The j-th quadruple (key, weight, indices, next handle).

        The index list is the live list; treat it as read-only.
        """
        self._check_pos(j)
        v = self._node_at(j)
        return (self._keys[v], self._weight[v], self._idx[v], self._next[v])

    def increment(self, j: int) -> None:
        """Add 1 to w_j, and nothing else: the positional weight bump. The
        sorters record a hit with `append`, which also bumps w_j."""
        self._check_pos(j)
        if self._wsum[self._root] + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        left, right, size = self._left, self._right, self._size
        weight, wsum = self._weight, self._wsum
        v = self._root
        pos = j
        while True:
            wsum[v] += 1
            l = left[v]
            ls = size[l]
            if pos <= ls:
                v = l
            elif pos == ls + 1:
                weight[v] += 1
                return
            else:
                pos -= ls + 1
                v = right[v]

    def append(self, i: int, j: int):
        """Record a hit on leaf j: append sequence position i to the j-th
        index list, add 1 to w_j, and return the j-th next-context handle.

        The position, the weight cap and the index order are checked before
        anything changes, so a refused append leaves the tree as it was.
        One root-to-leaf walk finds the node and its ancestors, whose weight
        sums then gain 1."""
        root = self._root
        if not 1 <= j <= self._size[root]:
            raise IndexError(f"position {j} out of range 1..{len(self)}")
        wsum = self._wsum
        if wsum[root] + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        left, right, size = self._left, self._right, self._size
        path = []  # the proper ancestors of the node at j
        v = root
        pos = j
        while True:
            l = left[v]
            ls = size[l]
            if pos <= ls:
                path.append(v)
                v = l
            elif pos == ls + 1:
                break
            else:
                path.append(v)
                pos -= ls + 1
                v = right[v]
        lst = self._idx[v]
        if lst and i <= lst[-1]:
            raise ValueError("indices must be appended in increasing order")
        lst.append(i)
        self._weight[v] += 1
        wsum[v] += 1
        for u in path:
            wsum[u] += 1
        return self._next[v]

    def insert(self, a, i: int, j: int, next=None) -> None:
        """Insert quadruple (a, 1, [i], next) at position j, shifting
        positions >= j right by one. One walk down to the insert point
        counts the new node in its ancestors' sizes and weight sums, then
        `_attach` hangs it there and rebalances."""
        root = self._root
        t = self._size[root]
        if not 1 <= j <= t + 1:
            raise IndexError(f"insert position {j} out of range 1..{t + 1}")
        if self._wsum[root] + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        left, right = self._left, self._right
        size, wsum = self._size, self._wsum
        path = []  # the new node's ancestors, root first
        v = root
        pos = j
        leftward = True  # whether the last move went left
        while v:
            size[v] += 1
            wsum[v] += 1
            path.append(v)
            ls = size[left[v]]
            leftward = pos <= ls + 1
            if leftward:
                v = left[v]
            else:
                pos -= ls + 1
                v = right[v]
        u = self._new_node(a, 1, [i], next)
        self._attach(path, u, leftward)
        if j == 1:
            self._first = u
        if j == t + 1:
            self._last = u

    def _new_node(self, a, w: int, indices: list, next) -> int:
        """Append a childless node holding quadruple (a, w, indices, next)
        to the node store; return its id."""
        self._left.append(0)
        self._right.append(0)
        self._height.append(1)
        self._size.append(1)
        self._weight.append(w)
        self._wsum.append(w)
        self._keys.append(a)
        self._idx.append(indices)
        self._next.append(next)
        return len(self._keys) - 1

    def _fix(self, v: int) -> None:
        l, r = self._left[v], self._right[v]
        h = self._height
        self._height[v] = 1 + (h[l] if h[l] >= h[r] else h[r])
        self._size[v] = 1 + self._size[l] + self._size[r]
        self._wsum[v] = self._weight[v] + self._wsum[l] + self._wsum[r]

    # -- virtual weighted-tree navigation ----------------------------------

    def descend(self, s, comparator) -> tuple:
        """Search for element s in the implicit weighted tree.

        Returns (position, relation, search_comparisons, verify_comparisons)
        where relation is EQUAL, PREDECESSOR (leaf key < s) or SUCCESSOR
        (leaf key > s). One comparison per two-child node on the way down;
        one-child nodes are free.

        A split between leaves j and j+1 compares s with the heavier of the
        two (with leaf j on a tie): the left form `s <= key[j]` sends s left
        when true, the right form `key[j+1] <= s` sends it right when true.
        Two flags remember whether the answer that last moved hi was
        `s <= key[hi]` and whether the one that last moved lo was
        `key[lo] <= s`; each is reassigned whenever its bound moves. At the
        leaf a, both flags set give EQUAL with no verification; one flag
        set leaves one question (`a <= s` or `s <= a`) and one comparison;
        with neither, `a <= s` then `s <= a` decide, stopping early only if
        the first answer is strict. An inner leaf heavier than both of its
        neighbours always gets both flags on a hit; the leftmost and the
        rightmost leaf have one boundary split only, so a hit there costs at
        least one verification comparison. A miss between two keys may stop
        at either neighbour; the insert position is the same.
        On an empty tree it returns (1, SUCCESSOR, 0, 0) without calling
        the comparator: insertion at position 1 is then the only move.

        The walk keeps the leaf range [lo, hi] under the current virtual
        node and the p-bit codes c = floor(F * 2^p / 2W) of f_lo and f_hi,
        where F = 2W * f = 2*S_{j-1} + w_j and 2^p > 2W, so that distinct
        leaves get distinct codes. The range starts at the first and the
        last leaf, whose nodes the tree caches, so no walk finds them. The
        next two-child node sits at the first bit where c_lo and c_hi
        differ, so one-child chains cost nothing; each counted comparison
        then costs a single AVL walk, which finds the first leaf on the
        right of the split together with its predecessor, the split leaf.
        """
        root = self._root
        t = self._size[root]
        if t == 0:
            return (1, SUCCESSOR, 0, 0)
        left, right, size = self._left, self._right, self._size
        weight, wsum = self._weight, self._wsum
        two_w = 2 * wsum[root]
        p = two_w.bit_length()
        lo, hi = 1, t
        lo_node = self._first  # tree node holding leaf lo
        c_lo = (weight[lo_node] << p) // two_w
        c_hi = ((two_w - weight[self._last]) << p) // two_w
        nsearch = 0
        lo_le = hi_ge = False  # key[lo] <= s, s <= key[hi] already answered
        keys = self._keys
        while lo < hi:
            if c_hi <= c_lo:  # no split within p bits: inconsistent tree
                raise NavigationError("descent exceeded maximum depth")
            # Right-hand leaves have c >= c_hi with the bits below the first
            # difference cleared, i.e. F >= g (ceiling of the scaled value).
            k = (c_lo ^ c_hi).bit_length() - 1
            g = -((-(c_hi >> k << k) * two_w) >> p)
            v = root
            acc = rank = 0
            while v:
                l = left[v]
                before = acc + wsum[l]
                f = 2 * before + weight[v]
                if f >= g:
                    succ, f_succ = v, f
                    v = l
                else:
                    pred, f_pred = v, f
                    acc = before + weight[v]
                    rank += size[l] + 1
                    v = right[v]
            if not lo <= rank < hi:
                raise NavigationError("split outside the descent's leaf range")
            nsearch += 1
            # The heavier leaf beside the split is the likelier destination.
            if weight[succ] > weight[pred]:
                if comparator.leq(keys[succ], s, _PHASE_SEARCH):
                    lo, lo_node, lo_le = rank + 1, succ, True
                    c_lo = (f_succ << p) // two_w
                else:
                    hi, c_hi, hi_ge = rank, (f_pred << p) // two_w, False
            elif comparator.leq(s, keys[pred], _PHASE_SEARCH):
                hi, c_hi, hi_ge = rank, (f_pred << p) // two_w, True
            else:
                lo, lo_node, lo_le = rank + 1, succ, False
                c_lo = (f_succ << p) // two_w
        # Ask only what the search left open: `a <= s`, then, if it holds,
        # `s <= a`.
        a = keys[lo_node]
        nverify = 0
        if not lo_le:
            nverify = 1
            lo_le = comparator.leq(a, s, _PHASE_VERIFY)
        if not lo_le:
            return (lo, SUCCESSOR, nsearch, nverify)
        if not hi_ge:
            nverify += 1
            hi_ge = comparator.leq(s, a, _PHASE_VERIFY)
        return (lo, EQUAL if hi_ge else PREDECESSOR, nsearch, nverify)

    # -- whole-structure helpers -------------------------------------------

    def quadruples(self) -> list:
        """All quadruples in positional order."""
        keys, weight = self._keys, self._weight
        idx, nxt = self._idx, self._next
        return [(keys[v], weight[v], idx[v], nxt[v]) for v in self._inorder()]

    def store_entries(self) -> tuple:
        """(index lists, next handles) of every node in the node store, as
        two parallel iterables in allocation order, for every tree that
        shares the store."""
        return islice(self._idx, 1, None), islice(self._next, 1, None)

    def _validate(self) -> None:
        """Check AVL and augmentation invariants (test support)."""

        def walk(v: int) -> tuple:
            if v == 0:
                return 0, 0, 0
            lh, ls, lw = walk(self._left[v])
            rh, rs, rw = walk(self._right[v])
            if abs(lh - rh) > 1:
                raise AssertionError("AVL balance violated")
            h = 1 + max(lh, rh)
            if self._height[v] != h:
                raise AssertionError("stored height wrong")
            s = 1 + ls + rs
            if self._size[v] != s:
                raise AssertionError("stored size wrong")
            if self._weight[v] < 1:
                raise AssertionError("non-positive weight")
            if self._weight[v] != len(self._idx[v]):
                raise AssertionError("weight != len(indices)")
            if any(x >= y for x, y in zip(self._idx[v], self._idx[v][1:])):
                raise AssertionError("indices not strictly increasing")
            w = self._weight[v] + lw + rw
            if self._wsum[v] != w:
                raise AssertionError("stored weight sum wrong")
            return h, s, w

        walk(self._root)
        t = len(self)
        ends = (self._node_at(1), self._node_at(t)) if t else (0, 0)
        if (self._first, self._last) != ends:
            raise AssertionError("cached end nodes wrong")


def from_pairs(keys, weights, indices=None, context_ranks=None) -> StatsTree:
    """Build a balanced tree from parallel (key, weight) lists.

    Convenience for the given-frequencies use case and for tests; when
    *indices* is omitted, consecutive positions are synthesized so the
    weight == len(indices) invariant holds.
    """
    keys = list(keys)
    weights = [int(w) for w in weights]
    if len(keys) != len(weights):
        raise ValueError("keys and weights must have equal length")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    if sum(weights) > MAX_TOTAL_WEIGHT:
        raise OverflowError("total weight exceeds configured word width")
    if indices is None:
        indices = []
        nxt = 1
        for w in weights:
            indices.append(list(range(nxt, nxt + w)))
            nxt += w
    tree = StatsTree(context_ranks=context_ranks)
    if not keys:
        return tree

    def build(lo: int, hi: int) -> int:
        if lo > hi:
            return 0
        mid = (lo + hi) // 2
        u = tree._new_node(keys[mid], weights[mid], list(indices[mid]), None)
        tree._left[u] = build(lo, mid - 1)
        tree._right[u] = build(mid + 1, hi)
        tree._fix(u)
        return u

    tree._root = build(0, len(keys) - 1)
    tree._first = tree._node_at(1)
    tree._last = tree._node_at(len(keys))
    return tree


def available_kernels() -> tuple[str, ...]:
    """Names of the usable kernels: only this one."""
    return (KERNEL_NAME,)


def get_kernel(name: str | None = None) -> ModuleType:
    """This module for None, 'auto' or 'python'; ValueError otherwise."""
    if name is None or name == "auto" or name == KERNEL_NAME:
        return sys.modules[__name__]
    raise ValueError(f"unknown kernel {name!r}")

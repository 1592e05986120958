"""The statistics-tree kernel and its virtual-tree navigation, in pure Python.

This is the only kernel. `KERNEL_NAME`, `available_kernels` and `get_kernel`
name it for run reports and for callers that still pass `kernel_name`.

The statistics tree is an AVL tree over a positional list of quadruples
(key, weight, index list, next-context handle), augmented with subtree sizes
and subtree weight sums. All structural operations address positions, never
keys: the tree performs zero element comparisons. Height is at most
1.4405 * log2(t + 2) (classic AVL bound; asserted in tests).

On top of the positional ops, the kernel answers navigation queries for the
weighted leaf-oriented search tree that the weight vector induces: each leaf j
gets the code formed by the first ceil(log2(W/w_j)) + 1 fraction bits of
f_j = (2*S_{j-1} + w_j) / (2W). Codes are extracted with exact integer
arithmetic (f_j may be a non-terminating binary fraction, so floating point
is unsound). `descend` walks that implicit tree for an element, spending one
counted comparison per two-child node and 0, 1 or 2 verification comparisons
at the leaf. Each split between leaves j and j+1 asks either `s <= key[j]` or
`key[j+1] <= s`, whichever names the heavier leaf, so that the answer which
moves an end of the leaf range can also settle the leaf's relation to s; the
leaf then asks only what is still open. The walk tracks the leaf range under
the current node, skips chains of one-child nodes by arithmetic on the range's
end codes, and pays one AVL walk per counted comparison. `sigma` and
`classify` answer single-node queries off the same definitions; the tests use
them as oracles for `descend`.
"""

from __future__ import annotations

import sys
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


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


class StatsTree:
    """Positional AVL tree of quadruples with subtree weight sums.

    Positions are 1-based. Node 0 is the null sentinel. Callers are
    responsible for inserting keys in sorted positional order; the tree
    never checks (it cannot compare keys).
    """

    __slots__ = ("_left", "_right", "_height", "_size", "_weight", "_wsum",
                 "_keys", "_idx", "_next", "_root", "context_ranks")

    def __init__(self, context_ranks=None):
        self._left = [0]
        self._right = [0]
        self._height = [0]
        self._size = [0]
        self._weight = [0]
        self._wsum = [0]
        self._keys = [None]
        self._idx = [None]
        self._next = [None]
        self._root = 0
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

    @property
    def height(self) -> int:
        return self._height[self._root]

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

    def key_at(self, j: int):
        self._check_pos(j)
        return self._keys[self._node_at(j)]

    def handle_at(self, j: int):
        """The j-th next-context handle. No sorter calls it (`append`
        returns the handle on a hit); it is kept for the layer tracer."""
        self._check_pos(j)
        return self._next[self._node_at(j)]

    def weight_at(self, j: int) -> int:
        self._check_pos(j)
        return self._weight[self._node_at(j)]

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
        """Add 1 to w_j."""
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
        """Append sequence position i to the j-th index list and return
        the j-th next-context handle, read off the node the walk reached."""
        self._check_pos(j)
        v = self._node_at(j)
        lst = self._idx[v]
        if lst and i <= lst[-1]:
            raise ValueError("indices must be appended in increasing order")
        lst.append(i)
        return self._next[v]

    def insert(self, a, i: int, j: int, next=None) -> None:
        """Insert quadruple (a, 1, [i], next) at position j, shifting
        positions >= j right by one."""
        t = self._size[self._root]
        if not 1 <= j <= t + 1:
            raise IndexError(f"insert position {j} out of range 1..{t + 1}")
        if self._wsum[self._root] + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        u = len(self._keys)
        self._left.append(0)
        self._right.append(0)
        self._height.append(1)
        self._size.append(1)
        self._weight.append(1)
        self._wsum.append(1)
        self._keys.append(a)
        self._idx.append([i])
        self._next.append(next)
        self._root = self._insert_at(self._root, j, u)

    # -- AVL plumbing ------------------------------------------------------

    def _fix(self, v: int) -> None:
        l, r = self._left[v], self._right[v]
        h = self._height
        self._height[v] = 1 + (h[l] if h[l] >= h[r] else h[r])
        self._size[v] = 1 + self._size[l] + self._size[r]
        self._wsum[v] = self._weight[v] + self._wsum[l] + self._wsum[r]

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

    def _balance(self, v: int) -> int:
        self._fix(v)
        h = self._height
        l, r = self._left[v], self._right[v]
        bf = h[l] - h[r]
        if bf > 1:
            if h[self._left[l]] >= h[self._right[l]]:
                return self._rot_right(v)
            self._left[v] = self._rot_left(l)
            return self._rot_right(v)
        if bf < -1:
            if h[self._right[r]] >= h[self._left[r]]:
                return self._rot_left(v)
            self._right[v] = self._rot_right(r)
            return self._rot_left(v)
        return v

    def _insert_at(self, v: int, pos: int, u: int) -> int:
        if v == 0:
            return u
        ls = self._size[self._left[v]]
        if pos <= ls + 1:
            self._left[v] = self._insert_at(self._left[v], pos, u)
        else:
            self._right[v] = self._insert_at(self._right[v], pos - ls - 1, u)
        return self._balance(v)

    # -- virtual weighted-tree navigation ----------------------------------

    def _probe(self, j: int) -> tuple:
        """(prefix weight before j, weight at j) in one walk."""
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
                return acc + wsum[l], weight[v]
            else:
                pos -= ls + 1
                acc += wsum[l] + weight[v]
                v = right[v]

    def sigma(self, j: int) -> tuple:
        """Leaf j's path code as (bits-as-int, depth).

        depth = ceil(log2(W/w_j)) + 1; bit k of the code is
        floor(num * 2^k / den) mod 2 for f_j = num/den.
        """
        self._check_pos(j)
        before, w = self._probe(j)
        big_w = self._wsum[self._root]
        depth = _ceil_log2(-(-big_w // w)) + 1
        num = 2 * before + w
        return ((num << depth) // (2 * big_w), depth)

    def classify(self, sig: int, depth: int) -> tuple:
        """Classify the implicit-tree node addressed by path code sig/depth.

        Returns (is_leaf, leaf_position, has_left, has_right, split_position)
        with zeros for absent fields. A node under which only one leaf
        remains is reported as that leaf (the rest of its path spends no
        comparisons, so contraction preserves every count).
        """
        root = self._root
        t = self._size[root]
        if t == 0:
            raise NavigationError("classify on empty tree")
        if depth < 0 or sig < 0 or sig >> depth:
            raise ValueError("path code bits exceed stated depth")
        big_w = self._wsum[root]
        if depth + big_w.bit_length() > 126:
            raise OverflowError("path depth exceeds configured word width")
        two_w = 2 * big_w

        # Smallest j whose f_j >= sig / 2^depth is either j' or j'+1 for
        # j' = search(sig * W / 2^depth).
        jp = self.search(sig * big_w, 1 << depth)
        before, w = self._probe(jp)
        fnum = 2 * before + w  # f_jp = fnum / (2W)
        if (fnum << depth) >= two_w * sig:
            jmin = jp
        else:
            jmin = jp + 1
            if jmin > t:
                raise NavigationError("path code matches no leaf")
            before, w = self._probe(jmin)
            fnum = 2 * before + w
        if (fnum << depth) >= two_w * (sig + 1):
            raise NavigationError("path code matches no leaf")

        if jmin < t:
            before2, w2 = self._probe(jmin + 1)
            fnum2 = 2 * before2 + w2
            shifted2 = fnum2 << depth
            single = not (two_w * sig <= shifted2 < two_w * (sig + 1))
        else:
            single = True
        if single:
            return (1, jmin, 0, 0, 0)

        # >= 2 leaves below: has_left iff the smallest in range starts 0.
        has_left = 1 if (fnum << (depth + 1)) < two_w * (2 * sig + 1) else 0
        # First j with f_j >= (2*sig + 1) / 2^(depth+1).
        jq = self.search((2 * sig + 1) * big_w, 1 << (depth + 1))
        bq, wq = self._probe(jq)
        fq = 2 * bq + wq
        if (fq << (depth + 1)) >= two_w * (2 * sig + 1):
            jr = jq
        else:
            jr = jq + 1
            if jr <= t:
                bq, wq = self._probe(jr)
                fq = 2 * bq + wq
        has_right = 1 if (jr <= t
                          and (fq << (depth + 1)) < two_w * (2 * sig + 2)) else 0
        split = jr - 1 if (has_left and has_right) else 0
        return (0, 0, has_left, has_right, split)

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
        leaves get distinct codes. The next
        two-child node sits at the first bit where c_lo and c_hi differ, so
        one-child chains cost nothing; each counted comparison then costs a
        single AVL walk, which finds the first leaf on the right of the
        split together with its predecessor, the split leaf.
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
        lo_node = root  # tree node holding leaf lo
        while left[lo_node]:
            lo_node = left[lo_node]
        v = root
        while right[v]:
            v = right[v]
        c_lo = (weight[lo_node] << p) // two_w
        c_hi = ((two_w - weight[v]) << p) // two_w
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
        out = []
        stack = []
        v = self._root
        left, right = self._left, self._right
        while stack or v:
            while v:
                stack.append(v)
                v = left[v]
            v = stack.pop()
            out.append((self._keys[v], self._weight[v], self._idx[v],
                        self._next[v]))
            v = right[v]
        return out

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
        u = len(tree._keys)
        tree._left.append(0)
        tree._right.append(0)
        tree._height.append(1)
        tree._size.append(1)
        tree._weight.append(weights[mid])
        tree._wsum.append(weights[mid])
        tree._keys.append(keys[mid])
        tree._idx.append(list(indices[mid]))
        tree._next.append(None)
        tree._left[u] = build(lo, mid - 1)
        tree._right[u] = build(mid + 1, hi)
        tree._fix(u)
        return u

    tree._root = build(0, len(keys) - 1)
    return tree


def available_kernels() -> tuple[str, ...]:
    """Names of the usable kernels: only this one."""
    return (KERNEL_NAME,)


def get_kernel(name: str | None = None) -> ModuleType:
    """This module for None, 'auto' or 'python'; ValueError otherwise."""
    if name is None or name == "auto" or name == KERNEL_NAME:
        return sys.modules[__name__]
    raise ValueError(f"unknown kernel {name!r}")

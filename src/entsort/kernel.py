"""The statistics-tree kernel: the positional tree and the counted descent.

This is the only kernel, in pure Python. `KERNEL_NAME`, `available_kernels`
and `get_kernel` name it for run reports and for callers that still pass
`kernel_name`.

The statistics tree is an AVL tree over a positional list of quadruples
(key, weight, index list, next-context handle); a leaf's index list is
not stored as a list: one forest-wide array of machine ints names the
leaf of each sequence position (see `StatsTree`).
Each node is augmented with what lies on its left, as in the RANK field of
Knuth's order-statistics trees (TAOCP vol. 3, 6.2.3): its rank within its
own subtree, and its offset there of F_j = 2*S_{j-1} + w_j, the scaled
code value of leaf j (below). A walk from the root then adds up a position
and an F only where it turns right, and an update changes only the
ancestors on whose left it happens. All structural operations address
positions, never keys: the tree performs zero element comparisons.
Height is at most 1.4405 * log2(t + 2) (classic AVL bound; asserted in
tests).

The sorter needs two things from it: `scan`, which runs the element loop
until the next miss, and `insert`, which adds the missed element's leaf.
`scan` searches each element with a counted descent of the weighted
leaf-oriented search tree that the weight vector induces, and records each
hit inline, in one walk, so that a hit, the paper's common case on
low-entropy input, costs no Python call. Leaf j of that tree sits at the
code formed by the first ceil(log2(W/w_j)) + 1 fraction bits of
f_j = (2*S_{j-1} + w_j) / (2W), computed in exact integers. The descent
walks the implicit tree for an element, spending one counted comparison
per two-child node and 0, 1 or 2 verification comparisons at the leaf.
Each split between leaves j and j+1 asks either `s <= key[j]` or
`key[j+1] <= s`, whichever names the heavier leaf, so that the answer
which moves an end of the leaf range can also settle the leaf's relation
to s; the leaf then asks only what is still open.
The walk tracks the leaf range under the current node, skips chains of
one-child nodes by arithmetic on the range's end codes, and pays one AVL
walk per counted comparison and none to find the end leaves, whose nodes the
tree keeps. The top of each context's tree costs no code arithmetic, since
its weights fix it (`scan` gives the proof):
- with two leaves or more, f_1 < 1/2 <= f_t, so the root splits at F = W,
  the stored total;
- a lone leaf is the whole tree, and the search goes straight to
  verification;
- a context's first leaf is inserted as its root, with no walk.

The oracles that the tests check it against live with the
tests, in `tests/oracles.py`: the single-node queries `sigma` and
`classify`, the positional queries they are built on, and `from_pairs`,
which builds a tree from given keys and weights. The tests also use
`descend`, `scan`'s one-element form that records nothing, and `append`,
the hit as a positional update. `append`, `increment` and `handle_at`
find their leaf with `_node_at`, the one checked positional walk. `scan`
is the measured exception: it writes the hit's walk out again, since a
call per hit would give back more than a third of what keeping the hits
in `scan` saves.

`StatsTree` is a forest: the order-k sorter keeps one tree per context in
one node store, and a context is an int id, so it costs five list slots
rather than an object. A forest of one context serves as a single tree.
A recorded position costs one 4-byte slot of the forest's position -> leaf
array and no Python object. A read-off needs that array and one key slot
per node (`sortk.sortk` sorts the positions by slot with a stable counting
sort), so it can drop the forest's other lists before it builds its
output.

The AVL rules live once, in `_FlatAVL`: rotations, the height update
`_fix`, the single-or-double rebalance, `_attach`, which hangs a new leaf
below a recorded search path and rebalances bottom-up, and the in-order
walk. The statistics tree and `bst.RankDictionary` both derive from it;
the statistics tree extends the two rotations, each of which moves its
rank and F offset in O(1).
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from types import ModuleType

from .comparator import SEARCH, VERIFY
from .errors import NavigationError

KERNEL_NAME = "python"

# Relations reported by scan() and descend().
EQUAL = 0
PREDECESSOR = 1  # found leaf key < searched element
SUCCESSOR = 2  # found leaf key > searched element

# Total weight cap, kept as an input guard: it bounds every navigation
# product to 126 bits, so inputs past it fail loudly with OverflowError.
MAX_TOTAL_WEIGHT = 1 << 60

# Largest sequence position that a forest skips ahead to. The position ->
# leaf array takes 4 bytes per position up to the largest recorded, 8 GiB
# at this cap, so a stray huge position is refused with ValueError rather
# than allocated. It, and so every node id, fits the array's 32-bit
# unsigned entries.
MAX_POSITION = 1 << 31


class _FlatAVL:
    """AVL plumbing shared by the statistics tree and `bst.RankDictionary`.

    Nodes live in parallel lists indexed by node id, with node 0 as the null
    sentinel (height 0). Rotations keep node ids and call `_fix` on the two
    nodes whose children change; `_fix` recomputes a node's height from its
    children's. A subclass whose nodes carry more fields extends the
    rotations to keep them.
    """

    __slots__ = ("_left", "_right", "_height")

    def _fix(self, v: int) -> None:
        h = self._height
        lh, rh = h[self._left[v]], h[self._right[v]]
        h[v] = 1 + (lh if lh >= rh else rh)

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

    def _attach(self, path: list, node: int, leftward: bool) -> int:
        """Hang the new leaf *node* below the end of *path*, rebalance, and
        return the tree's root, which the caller stores.

        *path* lists the ancestors from the root down, as the node ids that
        the tree holds; *leftward* says whether the leaf is the left child of
        the last one. Any field other than the height must already count
        the new node along the path. Going up, a balanced ancestor gets its
        new height, an unbalanced one rotates, and the first ancestor that
        keeps both its place and its height ends the walk, since nothing
        above it changes.

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
                    return path[0]
                height[parent] = h
                node = below = parent
            else:
                below = parent
                node = self._rotate(parent)
        return node

    def _inorder(self, v: int):
        """Node ids of the tree rooted at v in key (positional) order."""
        left, right = self._left, self._right
        stack = []
        while stack or v:
            while v:
                stack.append(v)
                v = left[v]
            v = stack.pop()
            yield v
            v = right[v]


class StatsTree(_FlatAVL):
    """A forest of positional AVL trees of quadruples, one tree per context,
    each node augmented with what lies on its left.

    Contexts are numbered 0, 1, ... as `add_context` makes them; a new
    forest holds the empty context 0. Each operation on a tree takes its
    context id last, 0 by default. `len` counts the leaves of every
    context and `height` is the tallest context's.

    Leaf positions are 1-based. Node 0 is the null sentinel. Callers are
    responsible for inserting keys in sorted positional order; the tree
    never checks (it cannot compare keys).

    The nodes of every context live in eight parallel lists, `_left` to
    `_next`, the node store. Besides its key, weight and next handle, a
    node v keeps two fields about its left subtree L only:

    - `_rank[v]` = size(L) + 1, v's position within its own subtree;
    - `_off[v]` = 2 * wsum(L) + weight[v], v's F offset within its own
      subtree, where F = 2*S_{j-1} + w_j for the leaf at position j.

    So a walk from the root finds v's position and F by adding the fields
    of v and of every node where it turned right; a left turn adds
    nothing, and an update below v changes v's fields only if it lies on
    v's left. Five lists indexed by context id keep each tree's root, end
    nodes, length and total weight; no operation links a node of one tree
    into another.

    The index lists are one array, `_leaf`, of 32-bit unsigned ints
    indexed by sequence position: `_leaf[i]` is the id of the node whose
    index list holds i, and 0 marks a position that no leaf holds. A
    leaf's list is the positions that name it, in increasing order.
    Sequence positions are >= 1 and strictly increase across the forest,
    in the order `scan`, `append` and `insert` record them; each refuses
    any other position with ValueError before it changes anything. So the
    array only grows at its end, and a position never recorded (a warm-up
    position of the order-k sorter) reads 0, whether it was skipped over or
    lies past the end. The array's memory is 4 bytes per position up to the
    largest recorded one, recorded or skipped, so a position that skips
    ahead past MAX_POSITION is refused too.
    """

    __slots__ = ("_rank", "_weight", "_off", "_keys", "_next",
                 "_root", "_first", "_last", "_len", "_total", "_leaf")

    def __init__(self):
        """A forest of one empty context, 0."""
        self._left = [0]
        self._right = [0]
        self._height = [0]
        self._rank = [0]
        self._weight = [0]
        self._off = [0]
        self._keys = [None]
        self._next = [None]
        # Per context. An end node is 0 while empty; rotations keep node
        # ids, so only an insert at either end moves it.
        self._root = [0]
        self._first = [0]
        self._last = [0]
        self._len = [0]
        self._total = [0]
        # Forest-wide, by sequence position; no leaf holds position 0.
        self._leaf = array("I", (0,))

    def add_context(self) -> int:
        """Add an empty context and return its id."""
        self._first.append(0)
        self._last.append(0)
        self._len.append(0)
        self._total.append(0)
        self._root.append(0)
        return len(self._root) - 1

    # -- basic accessors ---------------------------------------------------
    # `len` and `height` are read by perfbench/run.py's traced pass.

    def __len__(self) -> int:
        return len(self._keys) - 1

    @property
    def height(self) -> int:
        return max(self._height[r] for r in self._root)

    def _node_at(self, j: int, ctx: int = 0, bump: int = 0) -> int:
        """The node of leaf j of context ctx: the one checked positional
        walk. IndexError unless 1 <= j <= the context's length; then one
        walk from the root adds *bump* to the F offset of each ancestor
        where it turns left, 0 to read and 2 for a hit."""
        if not 1 <= j <= self._len[ctx]:
            raise IndexError(f"position {j} out of range 1..{self._len[ctx]}")
        left, right, rank_of, off = \
            self._left, self._right, self._rank, self._off
        v = self._root[ctx]
        while True:
            r = rank_of[v]
            if j < r:
                off[v] += bump
                v = left[v]
            elif j == r:
                return v
            else:
                j -= r
                v = right[v]

    def handle_at(self, j: int, ctx: int = 0):
        """The j-th next-context handle, read by `_node_at` with no hit.
        No sorter calls it (`scan` moves to the handle on a hit). Its one
        reader is the layer tracer, `perfbench/spans.py`, which wraps it by
        name; ROADMAP item 2 removes it with the tracer's list."""
        return self._next[self._node_at(j, ctx)]

    # -- the positional updates --------------------------------------------

    def _skip_to(self, i: int) -> None:
        """Refuse sequence position i unless it lies above every position
        recorded so far and at most MAX_POSITION; otherwise pad the leaf
        array with zeros up to i, so that i's leaf is the next slot
        appended. `scan`, `append` and `insert` call it only when i is not
        the next slot."""
        leaf = self._leaf
        if not len(leaf) <= i <= MAX_POSITION:
            raise ValueError(
                f"position {i} refused: positions are recorded in "
                f"increasing order, from {len(leaf)} here, up to "
                f"MAX_POSITION = {MAX_POSITION}")
        leaf.extend(repeat(0, i - len(leaf)))

    def increment(self, j: int, ctx: int = 0) -> None:
        """Add 1 to w_j, and nothing else: the positional weight bump,
        after the weight cap, by `_node_at(j, ctx, 2)`. The sorter records
        a hit in `scan`, which also bumps w_j. Its one reader is the layer
        tracer, `perfbench/spans.py`, which wraps it by name; ROADMAP item
        2 removes it with the tracer's list."""
        if self._total[ctx] + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        v = self._node_at(j, ctx, 2)
        self._weight[v] += 1
        self._off[v] += 1
        self._total[ctx] += 1

    def append(self, i: int, j: int, ctx: int = 0):
        """Record a hit on leaf j: append sequence position i to the j-th
        index list, add 1 to w_j, and return the j-th next-context handle.

        The leaf position, the weight cap and the sequence position are
        checked first, in that order, and a refused append changes nothing.
        Then `_node_at(j, ctx, 2)` finds the node, and position i names it
        in the leaf array.

        The sorter records its hits in `scan`, which writes `_node_at`'s
        walk out again rather than call this. `append` is the hit as a
        positional update, for the tests, their oracles and
        `perfbench/spans.py`."""
        if not 1 <= j <= self._len[ctx]:
            raise IndexError(f"position {j} out of range 1..{self._len[ctx]}")
        total = self._total[ctx]
        if total + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        leaf = self._leaf
        if i != len(leaf):
            self._skip_to(i)
        v = self._node_at(j, ctx, 2)
        leaf.append(v)
        self._weight[v] += 1
        self._off[v] += 1
        self._total[ctx] = total + 1
        return self._next[v]

    def insert(self, a, i: int, j: int, next=None, ctx: int = 0) -> None:
        """Insert quadruple (a, 1, [i], next) at position j, shifting
        positions >= j right by one. The checks are `append`'s. One walk
        down to the insert point counts the new node in the rank and the F
        offset of each ancestor where it turns left, then `_attach` hangs
        it there and rebalances. Position i names the new node.

        A context's first leaf has no ancestor to count or rebalance: after
        the same checks, the one new node becomes the context's root, first
        and last node, with no path, no walk and no `_attach`."""
        t = self._len[ctx]
        if not 1 <= j <= t + 1:
            raise IndexError(f"insert position {j} out of range 1..{t + 1}")
        if self._total[ctx] + 1 > MAX_TOTAL_WEIGHT:
            raise OverflowError("total weight exceeds configured word width")
        leaf = self._leaf
        if i != len(leaf):
            self._skip_to(i)
        if not t:  # the context's first leaf: no ancestor to walk or fix
            u = self._new_node(a, 1, next)
            leaf.append(u)
            self._len[ctx] = self._total[ctx] = 1
            self._root[ctx] = self._first[ctx] = self._last[ctx] = u
            return
        left, right, rank_of, off = \
            self._left, self._right, self._rank, self._off
        path = []  # the new node's ancestors, root first
        v = self._root[ctx]
        pos = j
        leftward = True  # whether the last move went left
        while v:
            path.append(v)
            r = rank_of[v]
            leftward = pos <= r
            if leftward:
                rank_of[v] = r + 1
                off[v] += 2
                v = left[v]
            else:
                pos -= r
                v = right[v]
        u = self._new_node(a, 1, next)
        leaf.append(u)
        self._len[ctx] = t + 1
        self._total[ctx] += 1
        self._root[ctx] = self._attach(path, u, leftward)
        if j == 1:
            self._first[ctx] = u
        if j == t + 1:
            self._last[ctx] = u

    def _new_node(self, a, w: int, next) -> int:
        """Append a childless node holding key a, weight w and next to the
        node store; return its id."""
        self._left.append(0)
        self._right.append(0)
        self._height.append(1)
        self._rank.append(1)
        self._weight.append(w)
        self._off.append(w)
        self._keys.append(a)
        self._next.append(next)
        return len(self._keys) - 1

    def _rot_right(self, v: int) -> int:
        # v's left subtree loses its left child l and l's left subtree.
        l = self._left[v]
        self._rank[v] -= self._rank[l]
        self._off[v] -= self._off[l] + self._weight[l]
        return super()._rot_right(v)

    def _rot_left(self, v: int) -> int:
        # The right child r gains v and v's left subtree on its left.
        r = self._right[v]
        self._rank[r] += self._rank[v]
        self._off[r] += self._off[v] + self._weight[v]
        return super()._rot_left(v)

    # -- virtual weighted-tree navigation ----------------------------------

    def descend(self, s, comparator, ctx: int = 0) -> tuple:
        """Search for element s in context ctx's tree, and record nothing.

        Returns (position, relation, search_comparisons, verify_comparisons)
        where relation is EQUAL, PREDECESSOR (leaf key < s) or SUCCESSOR
        (leaf key > s). On an empty tree it returns (1, SUCCESSOR, 0, 0)
        with no comparison: insertion at position 1 is then the only move.

        This is `scan`'s one-element form: it scans the probe item (0, s).
        No leaf ever holds position 0, so `scan` returns a hit at it rather
        than recording it, and the tree is left as it was. The two counts
        are what the probe added to `comparator.counts`, where `scan` adds
        them, also when a comparison raises.
        """
        counts = comparator.counts
        nsearch, nverify = counts[SEARCH], counts[VERIFY]
        _, _, _, j, rel = self.scan(((0, s),), ctx, comparator)
        return (j, rel, counts[SEARCH] - nsearch, counts[VERIFY] - nverify)

    def scan(self, items, ctx: int, comparator):
        """Run the element loop from context ctx until the next miss.

        *items* yields (position, element) pairs. Each element is searched
        in the current context's tree. On a hit it is recorded as `append`
        records one, and the scan goes on from the leaf's next-context
        handle. On the first miss, the scan returns (i, s, ctx, position,
        relation): the item, the context it was searched in, and the leaf
        and relation the search reached, with relation PREDECESSOR (leaf
        key < s) or SUCCESSOR (leaf key > s); the forest is unchanged for
        that item. On an empty tree the miss is (1, SUCCESSOR) with no
        comparison. When *items* runs out, the scan returns None.

        A hit is recorded with `append`'s checks and the walk of
        `_node_at(j, ctx, 2)`, written out inline: the one measured
        exception to `_node_at` as the positional walk, since the call per
        hit would give back more than a third of what keeping the hits
        here saves. The weight cap and the position are checked before
        anything changes, and a refused hit raises OverflowError or
        ValueError with every earlier hit recorded. Then one root-to-leaf
        walk adds 2 to the F offset of every ancestor where it turns left,
        position i names the leaf's node in the leaf array, and the leaf's
        weight, its F offset and the tree's total gain 1. A hit at position
        0 is `descend`'s probe: it is returned, as a miss would be, with
        relation EQUAL, and nothing is recorded.

        The search is the descent of the implicit weighted tree, one
        counted comparison per two-child node on the way down; one-child
        nodes are free. A split between leaves j and j+1 compares s with
        the heavier of the two (with leaf j on a tie): the left form
        `s <= key[j]` sends s left when true, the right form
        `key[j+1] <= s` sends it right when true. Two flags remember
        whether the answer that last moved hi was `s <= key[hi]` and
        whether the one that last moved lo was `key[lo] <= s`; each is
        reassigned whenever its bound moves. At the leaf a, both flags set
        give EQUAL with no verification; one flag set leaves one question
        (`a <= s` or `s <= a`) and one comparison; with neither, `a <= s`
        then `s <= a` decide, stopping early only if the first answer is
        strict. An inner leaf heavier than both of its neighbours always
        gets both flags on a hit; the leftmost and the rightmost leaf have
        one boundary split only, so a hit there costs at least one
        verification comparison. A miss between two keys may stop at
        either neighbour; the insert position is the same.

        Every comparison is the elements' own `<=`. The search and verify
        counts of the whole scan are added to the search and verify entries
        of `comparator.counts` (a `CountingComparator`'s counter list) once
        per call, in a `finally` clause, so that a comparison that raises
        is counted.

        The walk keeps the leaf range [lo, hi] under the current virtual
        node and the p-bit codes c = floor(F * 2^p / 2W) of f_lo and f_hi,
        where F = 2W * f = 2*S_{j-1} + w_j and 2^p > 2W, so that distinct
        leaves get distinct codes. The range starts at the first and the
        last leaf, whose nodes the tree caches, so no walk finds them. The
        next two-child node sits at the first bit where c_lo and c_hi
        differ, so one-child chains cost nothing; each counted comparison
        then costs a single AVL walk, which finds the first leaf on the
        right of the split together with its predecessor, the split leaf.

        The top of the virtual tree is read off the weights. With t >= 2
        leaves, its root splits at F = W, the tree's stored total:
        - every weight is at least 1, so w_1 <= W - 1 and w_t <= W - 1;
        - so F_1 = w_1 < W <= 2W - w_t = F_t;
        - with 2^(p-1) <= 2W < 2^p, the codes satisfy
          c_1 < 2^(p-1) <= c_t. They first differ at bit p - 1, and the
          split is g = ceil(2^(p-1) * 2W / 2^p) = W.
        So only a tree of two leaves or more computes 2W, p and the end
        codes, and the split comes from the codes from the second on. The
        depth check `c_hi <= c_lo` runs once before the first split too,
        where the codes already exist. A lone leaf goes straight to
        verification: a hit costs two comparisons and a miss one or two,
        with no search comparison. A comparator cannot break the
        premise, since its answers only choose leaves and the weights and
        offsets stay exact; a node store altered by hand can, and the
        depth check or the split's range check then raises
        NavigationError.
        """
        left, right, rank_of = self._left, self._right, self._rank
        weight, off, keys, nxt = \
            self._weight, self._off, self._keys, self._next
        lens, totals, roots = self._len, self._total, self._root
        firsts, lasts, leaf = self._first, self._last, self._leaf
        nsearch = nverify = 0
        try:
            for i, s in items:
                t = lens[ctx]
                if t == 0:
                    return (i, s, ctx, 1, SUCCESSOR)
                root = roots[ctx]
                total = totals[ctx]
                lo, hi = 1, t
                lo_node = firsts[ctx]  # tree node holding leaf lo
                lo_le = hi_ge = False  # key[lo] <= s, s <= key[hi] answered
                if t > 1:
                    two_w = 2 * total
                    p = two_w.bit_length()
                    c_lo = (weight[lo_node] << p) // two_w
                    c_hi = ((two_w - weight[lasts[ctx]]) << p) // two_w
                    if c_hi <= c_lo:  # no split within p bits: inconsistent
                        raise NavigationError(
                            "descent exceeded maximum depth")
                    g = total  # the root splits at F = W (see above)
                    while True:
                        v = root
                        base = rank = 0  # F before v's subtree, ranks before
                        while v:
                            f = base + off[v]
                            if f >= g:
                                succ, f_succ = v, f
                                v = left[v]
                            else:
                                pred, f_pred = v, f
                                base = f + weight[v]
                                rank += rank_of[v]
                                v = right[v]
                        if not lo <= rank < hi:
                            raise NavigationError(
                                "split outside the descent's leaf range")
                        nsearch += 1
                        # The heavier leaf beside the split is the likelier
                        # destination.
                        if weight[succ] > weight[pred]:
                            if keys[succ] <= s:
                                lo, lo_node, lo_le = rank + 1, succ, True
                                c_lo = (f_succ << p) // two_w
                            else:
                                hi, c_hi, hi_ge = \
                                    rank, (f_pred << p) // two_w, False
                        elif s <= keys[pred]:
                            hi, c_hi, hi_ge = \
                                rank, (f_pred << p) // two_w, True
                        else:
                            lo, lo_node, lo_le = rank + 1, succ, False
                            c_lo = (f_succ << p) // two_w
                        if lo == hi:
                            break
                        if c_hi <= c_lo:
                            raise NavigationError(
                                "descent exceeded maximum depth")
                        # Right-hand leaves have c >= c_hi with the bits
                        # below the first difference cleared, i.e. F >= g
                        # (ceiling of the scaled value).
                        k = (c_lo ^ c_hi).bit_length() - 1
                        g = -((-(c_hi >> k << k) * two_w) >> p)
                # Ask only what the search left open: `a <= s`, then, if it
                # holds, `s <= a`.
                a = keys[lo_node]
                if not lo_le:
                    nverify += 1
                    if not a <= s:
                        return (i, s, ctx, lo, SUCCESSOR)
                if not hi_ge:
                    nverify += 1
                    if not s <= a:
                        return (i, s, ctx, lo, PREDECESSOR)
                # A hit on leaf lo: refuse it before any change, as
                # `append` does.
                if total >= MAX_TOTAL_WEIGHT or i != len(leaf):
                    if not i:
                        return (i, s, ctx, lo, EQUAL)  # `descend`'s probe
                    if total >= MAX_TOTAL_WEIGHT:
                        raise OverflowError(
                            "total weight exceeds configured word width")
                    self._skip_to(i)
                v = root
                j = lo
                while True:
                    r = rank_of[v]
                    if j < r:
                        off[v] += 2
                        v = left[v]
                    elif j == r:
                        break
                    else:
                        j -= r
                        v = right[v]
                leaf.append(v)
                weight[v] += 1
                off[v] += 1
                totals[ctx] = total + 1
                ctx = nxt[v]
            return None
        finally:
            counts = comparator.counts
            counts[SEARCH] += nsearch
            counts[VERIFY] += nverify


def available_kernels() -> tuple[str, ...]:
    """Names of the usable kernels: only this one."""
    return (KERNEL_NAME,)


def get_kernel(name: str | None = None) -> ModuleType:
    """This module for None, 'auto' or 'python'; ValueError otherwise."""
    if name is None or name == "auto" or name == KERNEL_NAME:
        return sys.modules[__name__]
    raise ValueError(f"unknown kernel {name!r}")

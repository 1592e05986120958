"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys

import pytest

from entsort.errors import NavigationError
from entsort.kernel import KERNEL_NAME, get_kernel
from entsort.lbst import leaf_code


@pytest.fixture(params=[KERNEL_NAME])
def kernel(request):
    """The kernel module. The one-element params keeps test ids stable."""
    return get_kernel(request.param)


TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def run_capped(*args: str, timeout: float = 60,
               limit: int = 1 << 30) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports entsort from this
    checkout (and conftest from here), under an address-space cap of
    *limit* bytes and a timeout: a runaway allocation ends in a
    MemoryError, a hang in subprocess.TimeoutExpired, either one a clean
    test failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, *args], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=timeout)


def sort0_budget(seq) -> int:
    """sort0's comparison budget from its definition (independent oracle):
    each element after the first, with p elements before it and c of them
    equal to it, is charged the smallest k with 2^k * max(c, 1) >= p,
    found by counting up, plus 3. One pass, counting as it goes."""
    total = 0
    counts: dict = {}
    for p, s in enumerate(seq):
        c = counts.get(s, 0)
        if p:
            k = 0
            while (1 << k) * max(c, 1) < p:
                k += 1
            total += k + 3
        counts[s] = c + 1
    return total


def stable_perm(seq) -> list[int]:
    """Reference stable sorting permutation, 1-based (independent oracle)."""
    return sorted(range(1, len(seq) + 1), key=lambda i: seq[i - 1])


class Spy:
    """Element wrapper that counts order comparisons made on it.

    Order dunders bump a class counter; equality and hashing stay free so
    measurement code (Counter-based entropy) is not charged. Used to prove
    that every order query flows through the instrumented comparator.
    """

    order_comparisons = 0

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __le__(self, other):
        Spy.order_comparisons += 1
        return self.value <= other.value

    def __lt__(self, other):
        Spy.order_comparisons += 1
        return self.value < other.value

    def __ge__(self, other):
        Spy.order_comparisons += 1
        return self.value >= other.value

    def __gt__(self, other):
        Spy.order_comparisons += 1
        return self.value > other.value

    def __eq__(self, other):
        return isinstance(other, Spy) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Spy({self.value!r})"

    @classmethod
    def reset(cls):
        cls.order_comparisons = 0


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


def random_op_mix(tree, oracle, rng: random.Random, ops: int,
                  key_pool=None) -> None:
    """Drive tree and oracle with the same random op stream, checking
    outputs agree after every step."""
    if key_pool is None:
        key_pool = list(range(10 ** 6))
    next_index = 1
    for _ in range(ops):
        t = len(oracle)
        choice = rng.random()
        if t == 0 or choice < 0.25:
            j = rng.randrange(1, t + 2)
            key = rng.choice(key_pool)
            tree.insert(key, next_index, j)
            oracle.insert(key, next_index, j)
            next_index += 1
        elif choice < 0.6:
            # Hit update: append bumps the weight and records the index,
            # keeping weight == len(indices).
            j = rng.randrange(1, t + 1)
            assert tree.append(next_index, j) is oracle.append(next_index, j)
            next_index += 1
        elif choice < 0.75:
            j = rng.randrange(1, t + 1)
            assert tree.sum(j) == oracle.sum(j)
            got = tree.triple(j)
            want = oracle.triple(j)
            assert got[0] == want[0] and got[1] == want[1]
            assert list(got[2]) == list(want[2])
        else:
            total = oracle.total_weight
            den = rng.randrange(1, 5)
            num = rng.randrange(0, den * total + 1)
            assert tree.search(num, den) == oracle.search(num, den)

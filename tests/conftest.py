"""Shared fixtures and oracles for the test suite. The statistics-tree
oracles, which read the node store, are in oracles.py; the frozen corpora
are in corpora.py."""

from __future__ import annotations

import os
import resource
import subprocess
import sys

import pytest

from entsort.kernel import KERNEL_NAME, get_kernel


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
    that the ledger counts every order query the sorter makes.
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


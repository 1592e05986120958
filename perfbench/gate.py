"""Correctness gate: every sorter call the benchmark makes is checked.

The untimed check pass sorts each sequence wrapped in Spy elements and
fails it when the permutation differs from the stable oracle, when
binary_count exceeds the budget, when the Spy tally of order comparisons
disagrees with the ledger total, or when the call raises. Its outcome is
the reference that every later call on the same sequence must reproduce
exactly: permutation, ledger, budget and h_order.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from dataclasses import dataclass


class Spy:
    """Element wrapper that counts the order comparisons made on it.

    Order dunders bump a shared tally; equality and hashing stay free, so
    the measurement code (Counter-based entropy, set-based budgets) is not
    charged. The tally must equal the ledger total if every order query
    went through the instrumented comparator.
    """

    __slots__ = ("value", "tally")

    def __init__(self, value, tally: list):
        self.value = value
        self.tally = tally

    def __le__(self, other):
        self.tally[0] += 1
        return self.value <= other.value

    def __lt__(self, other):
        self.tally[0] += 1
        return self.value < other.value

    def __ge__(self, other):
        self.tally[0] += 1
        return self.value >= other.value

    def __gt__(self, other):
        self.tally[0] += 1
        return self.value > other.value

    def __eq__(self, other):
        return isinstance(other, Spy) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def stable_oracle(seq) -> list[int]:
    """Reference stable sorting permutation, 1-based."""
    return sorted(range(1, len(seq) + 1), key=lambda i: seq[i - 1])


@dataclass(frozen=True)
class Reference:
    """What every call on one sequence must return."""

    permutation: list
    ledger: object  # entsort.ComparisonLedger
    budget: int
    h_order: float


def sort_call(entsort, seq, order: int, kernel_name=None):
    """The one public sorter call a workload times."""
    if order == 0:
        return entsort.sort0(seq, kernel_name=kernel_name)
    return entsort.sortk(seq, order, kernel_name=kernel_name)


def report_failure(what: str, detail: str) -> None:
    print(f"FAIL {what}: {detail}", file=sys.stderr)


def attempt(call, label: str, *args, **kwargs):
    """call(*args, **kwargs), or None after reporting what it raised."""
    try:
        return call(*args, **kwargs)
    except Exception:
        report_failure(label, traceback.format_exc())
        return None


def check_sequence(entsort, seq, order: int, label: str):
    """Spy-checked call on one sequence; the Reference, or None on failure."""
    tally = [0]
    out = attempt(sort_call, label, entsort, [Spy(v, tally) for v in seq],
                  order)
    if out is None:
        return None
    problems = []
    if out.permutation != stable_oracle(seq):
        problems.append("permutation differs from the stable oracle")
    count = out.ledger.binary_count
    if count > out.budget:
        problems.append(f"binary_count {count} > budget {out.budget}")
    if tally[0] != count:
        problems.append(f"Spy counted {tally[0]} comparisons, ledger {count}")
    if problems:
        report_failure(label, "; ".join(problems))
        return None
    return Reference(out.permutation, out.ledger, out.budget, out.h_order)


def matches(out, ref: Reference, label: str) -> bool:
    """True iff a later call returned and reproduced the reference exactly."""
    if out is None or ref is None:
        return False
    problems = [name for name, got, want in (
        ("permutation", out.permutation, ref.permutation),
        ("ledger", dict(out.ledger.phase_counts),
         dict(ref.ledger.phase_counts)),
        ("budget", out.budget, ref.budget),
        ("h_order", out.h_order, ref.h_order),
    ) if got != want]
    if problems:
        report_failure(label, "differs from the checked call in "
                       + ", ".join(problems))
    return not problems


def ledger_digest(refs) -> str:
    """SHA-256 over every sequence's per-phase counts, in corpus order.

    Equal digests mean bit-identical ledgers; a failed sequence enters as
    a marker so a failure can never collide with a pass.
    """
    h = hashlib.sha256()
    for ref in refs:
        if ref is None:
            h.update(b"failed;")
            continue
        for phase, count in sorted(ref.ledger.phase_counts.items()):
            h.update(f"{phase}={count},".encode())
        h.update(b";")
    return h.hexdigest()[:16]

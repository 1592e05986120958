"""The single choke point for counting element comparisons.

The sorter asks `x <= y` of the elements themselves, at six sites: four in
`kernel.StatsTree.scan` and two in `bst.RankDictionary.lookup_or_insert`.
Each of those operations counts its comparisons as it goes and adds them,
in a `finally` clause, to its phase's entry of
:attr:`CountingComparator.counts`, a list in `PHASES` order indexed by
`SEARCH`, `VERIFY` and `B1`; so a comparison that raises is counted too,
and no comparison site makes a method call. The comparator only keeps the
ledger; the elements' own `<=` gives every answer.
:meth:`CountingComparator.leq` counts and compares in one call, for the
counted merge-sort baseline and the tests' reference walks. So each
measured bound can be checked against a ground-truth counter, and phases
attribute each comparison to the part of the algorithm that spent it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .errors import LedgerError

PHASE_SEARCH = "search"
PHASE_VERIFY = "verify"
PHASE_B1 = "b1-dictionary"
# No sorter charges this phase: sortk reads its key order off the rank
# dictionary. It stays so that ledgers and reports keep their fields.
PHASE_MERGE = "final-merge"
PHASE_BASELINE = "baseline"

PHASES = (PHASE_SEARCH, PHASE_VERIFY, PHASE_B1, PHASE_MERGE, PHASE_BASELINE)
# Each phase's index into CountingComparator.counts.
SEARCH, VERIFY, B1, MERGE, BASELINE = range(len(PHASES))
_INDEX = {phase: i for i, phase in enumerate(PHASES)}

# Short names used by the report JSON schema.
_REPORT_KEYS = {
    PHASE_SEARCH: "search",
    PHASE_VERIFY: "verify",
    PHASE_B1: "b1",
    PHASE_MERGE: "merge",
}


@dataclass(frozen=True)
class ComparisonLedger:
    """Immutable snapshot of comparison counts, split by phase."""

    phase_counts: Mapping[str, int]

    @property
    def binary_count(self) -> int:
        return sum(self.phase_counts.values())

    def count(self, phase: str) -> int:
        return self.phase_counts.get(phase, 0)

    def as_report(self) -> dict:
        """Comparison block of the report schema (baseline excluded)."""
        out = {short: self.phase_counts.get(phase, 0)
               for phase, short in _REPORT_KEYS.items()}
        out["total"] = sum(out.values())
        return out


def delta(before: ComparisonLedger, after: ComparisonLedger) -> ComparisonLedger:
    """Per-phase difference after - before; all entries must be >= 0. The
    phases come in *after*'s order, then any that only *before* has."""
    diff = {}
    for k in dict.fromkeys(chain(after.phase_counts, before.phase_counts)):
        d = after.phase_counts.get(k, 0) - before.phase_counts.get(k, 0)
        if d < 0:
            raise LedgerError(f"comparison count for {k!r} decreased by {-d}")
        diff[k] = d
    return ComparisonLedger(diff)


class CountingComparator:
    """Counts binary <= queries; one instance per sorting run.

    `counts[i]` counts the comparisons charged to `PHASES[i]`; the sorter
    adds to it in place."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = [0] * len(PHASES)

    def leq(self, x, y, phase: str) -> bool:
        """True iff x <= y; charges exactly one comparison to *phase*."""
        self.counts[_INDEX[phase]] += 1
        return x <= y

    @property
    def binary_count(self) -> int:
        return sum(self.counts)

    def phase_count(self, phase: str) -> int:
        return self.counts[_INDEX[phase]]

    def snapshot(self) -> ComparisonLedger:
        """The counts so far, keyed by phase in `PHASES` order."""
        return ComparisonLedger(dict(zip(PHASES, self.counts)))

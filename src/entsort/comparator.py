"""The single choke point for element comparisons.

Every order query between input elements anywhere in the sorting code flows
through :meth:`CountingComparator.leq`, so each measured bound can be checked
against a ground-truth counter. Phases attribute each comparison to the part
of the algorithm that spent it.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def to_dict(self) -> dict:
        return {"binary_count": self.binary_count,
                "phase_counts": dict(self.phase_counts)}


def delta(before: ComparisonLedger, after: ComparisonLedger) -> ComparisonLedger:
    """Per-phase difference after - before; all entries must be >= 0."""
    keys = set(before.phase_counts) | set(after.phase_counts)
    diff = {}
    for k in keys:
        d = after.phase_counts.get(k, 0) - before.phase_counts.get(k, 0)
        if d < 0:
            raise LedgerError(f"comparison count for {k!r} decreased by {-d}")
        diff[k] = d
    return ComparisonLedger(diff)


class CountingComparator:
    """Counts binary <= queries; one instance per sorting run."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts = dict.fromkeys(PHASES, 0)

    def leq(self, x, y, phase: str) -> bool:
        """True iff x <= y; charges exactly one comparison to *phase*."""
        self._counts[phase] += 1
        return x <= y

    @property
    def binary_count(self) -> int:
        return sum(self._counts.values())

    def phase_count(self, phase: str) -> int:
        return self._counts[phase]

    def snapshot(self) -> ComparisonLedger:
        return ComparisonLedger(dict(self._counts))

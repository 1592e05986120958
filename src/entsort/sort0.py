"""The order-0 entry points.

`sort0(seq)` is `sortk.sortk(seq, 0)`: all elements share one statistics
tree, whose index lists in key order are the stable permutation. Its
comparison count never exceeds `comparison_budget`, the order-0 case of
`sortk.budget_breakdown`, computed exactly from the input before a sort;
the sort accounts by its own order and hashes nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .comparator import CountingComparator
from .sortk import SortOutcome, budget_breakdown, sortk


def comparison_budget(seq: Sequence) -> int:
    """Exact per-input comparison bound for sort0: the budget of the one
    context in `budget_breakdown(seq, 0)`, which states each element's
    charge and proves it."""
    return budget_breakdown(seq, 0).context_total


def sort0(seq: Sequence, comparator: Optional[CountingComparator] = None,
          kernel_name: Optional[str] = None) -> SortOutcome:
    """Stable-sort *seq*: `sortk(seq, 0)`."""
    return sortk(seq, 0, comparator, kernel_name)

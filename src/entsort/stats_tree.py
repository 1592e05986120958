"""Public surface of the statistics tree.

A balanced search tree over a positional list of quadruples
(key, weight, index list, next-context handle) that supports cumulative-
weight search, prefix sums, and positional insert — all in O(log t) and all
without comparing keys. The implementation lives in `entsort.kernel`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .kernel import MAX_TOTAL_WEIGHT, StatsTree, from_pairs  # noqa: F401


class Quadruple(NamedTuple):
    key: object
    weight: int
    indices: list
    next_context: Optional[object]


def quadruple(tree: StatsTree, j: int) -> Quadruple:
    """The j-th quadruple as a named view."""
    return Quadruple(*tree.triple(j))


StatisticsTree = StatsTree

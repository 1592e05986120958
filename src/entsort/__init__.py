"""entsort: comparison sorting whose cost tracks the input's entropy.

Sorts a length-m sequence with n distinct elements using about
(H_k + O(1)) * m binary comparisons, where H_k is the order-k empirical
entropy, and instruments every comparison so the bounds are checked on each
run. The statistics-tree kernel is pure Python (`entsort.kernel`).
"""

from .comparator import (ComparisonLedger, CountingComparator, PHASES,
                         PHASE_B1, PHASE_BASELINE, PHASE_MERGE, PHASE_SEARCH,
                         PHASE_VERIFY, delta)
from .entropy import EntropyProfile, h0, h_order, profile
from .gamma import decode_all, encode_tuple, gamma_decode, gamma_encode
from .kernel import KERNEL_NAME, available_kernels, get_kernel
from .sort0 import comparison_budget, sort0
from .sortk import SortOutcome, budget_breakdown, invert, sortk

__version__ = "0.1.0"

__all__ = [
    "ComparisonLedger", "CountingComparator", "delta",
    "PHASES", "PHASE_SEARCH", "PHASE_VERIFY", "PHASE_B1", "PHASE_MERGE",
    "PHASE_BASELINE",
    "EntropyProfile", "h0", "h_order", "profile",
    "gamma_encode", "gamma_decode", "encode_tuple", "decode_all",
    "KERNEL_NAME", "available_kernels", "get_kernel",
    "SortOutcome", "sort0", "sortk", "comparison_budget",
    "budget_breakdown", "invert",
    "from_pairs",
    "__version__",
]


def __getattr__(name: str):
    # from_pairs lives with the oracles in entsort.lbst, which no sorter
    # imports; it is loaded when first asked for.
    if name == "from_pairs":
        from .lbst import from_pairs
        return from_pairs
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

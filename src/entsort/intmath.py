"""Exact integer helpers used on the navigation and budgeting paths.

Everything here is pure integer arithmetic: the tree-navigation code must be
bit-exact, so no logarithm on this path may go through floating point.
"""


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for positive q."""
    return -(-p // q)


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


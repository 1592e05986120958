"""Exceptions raised by the statistics-tree kernel and the ledger."""


class NavigationError(ValueError):
    """A virtual-tree path query named a node that does not exist.

    Raised when a path code is not a prefix of any leaf code; this always
    indicates a caller bug, never bad input data.
    """


class LedgerError(RuntimeError):
    """Comparison accounting went backwards — internal corruption."""

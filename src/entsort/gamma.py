"""Elias gamma coding of positive integers and rank tuples.

gamma(x) is floor(log2 x) zeros followed by the binary representation of x.
The code is prefix-free, so concatenations decode unambiguously, and a rank
tuple encoded this way is a key that never touches input elements. The
sorters key their context dictionary by the rank tuples themselves.
"""

from __future__ import annotations

from typing import Iterable


def gamma_encode(x: int) -> str:
    if x < 1:
        raise ValueError("gamma code is defined for integers >= 1")
    body = bin(x)[2:]
    return "0" * (len(body) - 1) + body


def gamma_decode(bits: str) -> tuple[int, str]:
    """Decode one integer from the front of *bits*; return (value, rest)."""
    z = 0
    n = len(bits)
    while z < n and bits[z] == "0":
        z += 1
    end = 2 * z + 1
    if z >= n or end > n:
        raise ValueError("bit string is not a gamma-code concatenation")
    return int(bits[z:end], 2), bits[end:]


def encode_tuple(ranks: Iterable[int]) -> str:
    """Concatenated gamma codes; injective on tuples by prefix-freeness."""
    return "".join(gamma_encode(r) for r in ranks)


def decode_all(bits: str) -> list[int]:
    """Decode a full concatenation back to the integer sequence."""
    out = []
    while bits:
        x, bits = gamma_decode(bits)
        out.append(x)
    return out

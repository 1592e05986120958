"""Frozen acceptance corpora.

The inputs of the acceptance suite, generated with `entsort.bench.generate`
from fixed seeds. Their size mix is chosen so each criterion meets its
runtime budget on the pure-Python kernel. `test_bench.test_corpora_pinned`
pins a digest of each, so any change to them shows.
"""

from __future__ import annotations

import random
from typing import Iterator

from entsort.bench import KINDS, SourceSpec, generate

TORONTO = list("TORONTO")


def bounds_corpus(count: int = 10_000, seed: int = 20260808
                  ) -> Iterator[SourceSpec]:
    """Criterion-3 corpus: random sequences, m <= 1e5, n in {2,16,256},
    uniform/zipf/periodic kinds.

    Lengths are log-uniform in three buckets (about 97% short, 2.7% medium,
    0.3% long) plus three fixed runs at exactly m = 1e5, keeping the whole
    sweep a few million elements.
    """
    rng = random.Random(seed)
    kinds = ("uniform", "zipf", "periodic")
    alphabet_sizes = (2, 16, 256)
    for i in range(count):
        if i < 3:
            m = 100_000
        else:
            r = rng.random()
            if r < 0.97:
                lo, hi = 1, 512
            elif r < 0.997:
                lo, hi = 513, 4096
            else:
                lo, hi = 4097, 65536
            m = rng.randrange(lo, hi + 1)
        yield SourceSpec(kind=kinds[i % 3], n=alphabet_sizes[(i // 3) % 3],
                         m=m, skew=1.0 + (i % 5) * 0.25,
                         seed=rng.randrange(2 ** 62))


def correctness_corpus(seed: int = 31415) -> list[tuple[str, list]]:
    """Criterion-4 corpus: named sequences covering edges and all kinds."""
    rng = random.Random(seed)
    corpus: list[tuple[str, list]] = [
        ("toronto", list(TORONTO)),
        ("single", [7]),
        ("pair-equal", [3, 3]),
        ("pair-sorted", [1, 2]),
        ("pair-reversed", [2, 1]),
        ("all-equal-64", [5] * 64),
        ("sorted-100", list(range(100))),
        ("reversed-100", list(range(100, 0, -1))),
        ("periodic-abc-30", list("abcabcabcabcabcabcabcabcabcabc")),
        ("binary-short", [0, 1, 1, 0, 1, 0, 0, 0, 1, 1]),
    ]
    idx = 0
    for kind in KINDS:
        for n in (1, 2, 3, 16, 256):
            for m in (2, 17, 101, 731, 2048):
                spec = SourceSpec(kind=kind, n=n, m=m,
                                  seed=rng.randrange(2 ** 62),
                                  skew=1.2, order=1)
                corpus.append((f"{kind}-n{n}-m{m}-{idx}", generate(spec)))
                idx += 1
    # A few larger runs to exercise rebalancing depth.
    for kind, n, m in (("uniform", 256, 20000), ("zipf", 16, 20000),
                       ("markov", 16, 20000), ("periodic", 7, 20000)):
        spec = SourceSpec(kind=kind, n=n, m=m, seed=rng.randrange(2 ** 62))
        corpus.append((f"{kind}-n{n}-m{m}-large", generate(spec)))
    return corpus


def envelope_corpus(seed: int = 27182) -> list[tuple[str, list, int]]:
    """Criterion-9 corpus: (name, seq, order), sized so that the envelope
    preconditions hold where the criterion asserts them."""
    rng = random.Random(seed)
    recipes = [
        ("uniform", 2, 8192, 1), ("uniform", 2, 16384, 2),
        ("uniform", 2, 65536, 3), ("uniform", 16, 8192, 1),
        ("uniform", 16, 32768, 1), ("uniform", 256, 32768, 0),
        ("zipf", 2, 8192, 1), ("zipf", 16, 16384, 1),
        ("zipf", 256, 32768, 0), ("zipf", 16, 65536, 1),
        ("markov", 2, 8192, 1), ("markov", 16, 8192, 1),
        ("markov", 16, 32768, 1), ("markov", 3, 16384, 2),
        ("periodic", 16, 8192, 1), ("periodic", 7, 16384, 1),
    ]
    out = []
    for kind, n, m, order in recipes:
        spec = SourceSpec(kind=kind, n=n, m=m, order=max(1, order),
                          seed=rng.randrange(2 ** 62))
        out.append((f"{kind}-n{n}-m{m}-k{order}", generate(spec), order))
    return out

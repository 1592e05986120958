"""Workload definitions and their seeded input generators.

Each workload is one source kind with fixed parameters; a run sorts
SEQUENCES sequences of it, each drawn from its own seed derived from the
run's --seed. The generators follow the algorithms of `entsort.bench.generate`
but live here, so the benchmark's inputs cannot change when the library
does, and so input generation needs no import of the package under test.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

SEQUENCES = 8
WARMUP_M = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "zipf" or "markov" (order-1 Markov chain)
    n: int  # alphabet size
    m: int  # sequence length
    order: int  # 0 calls sort0, k > 0 calls sortk(order=k)
    skew: float = 1.0
    noise: float = 0.0


# Each workload loads a different layer of the sorter; one source kind per
# workload keeps every timed call in a single cost mode, so the per-call
# median does not jump between modes from run to run. Lengths are chosen so
# that one call takes about 0.2 s on the pure-Python kernel, which gives
# more than a hundred timed calls per run: enough for ten samples beyond
# the 90th percentile.
WORKLOADS = {w.name: w for w in (
    # One deep adaptive tree (H0 ~ 4.8): descent is ~90% of the time and
    # the dictionaries and the final merge are idle.
    Workload("zipf-k0", "zipf", n=256, m=4096, order=0, skew=1.3),
    # Near-deterministic successors (H1 ~ 0.2): almost every element hits
    # an existing leaf after a short descent (~3.6 comparisons, two of them
    # verify). Descent still leads on the pure-Python kernel (~60%), but
    # hits and accounting have their largest shares here; with the C
    # kernel at m = 1e5, accounting was half of the time on this input.
    Workload("markov-k1", "markov", n=16, m=16384, order=1, noise=0.02),
    # Write-heavy twin of markov-k1: about half of the elements insert a new
    # leaf or a new context tree, so B1, B2, inserts and the final merge
    # outweigh descent.
    Workload("bigalpha-k1", "markov", n=4096, m=8192, order=1, noise=0.1),
)}


def _zipf(rng: random.Random, n: int, m: int, skew: float) -> list[int]:
    cum: list[float] = []
    total = 0.0
    for k in range(1, n + 1):
        total += k ** -skew
        cum.append(total)
    symbols = list(range(n))
    rng.shuffle(symbols)  # decouple frequency rank from key order
    return [symbols[bisect_left(cum, rng.random() * total)]
            for _ in range(m)]


def _markov1(rng: random.Random, n: int, m: int, noise: float) -> list[int]:
    preferred = list(range(n))
    rng.shuffle(preferred)
    out = [rng.randrange(n)]
    while len(out) < m:
        if rng.random() < noise:
            out.append(rng.randrange(n))
        else:
            out.append(preferred[out[-1]])
    return out


def generate(workload: Workload, seed: int) -> list[int]:
    """Deterministic sequence of the workload's kind for one seed."""
    rng = random.Random(seed)
    if workload.kind == "zipf":
        return _zipf(rng, workload.n, workload.m, workload.skew)
    if workload.kind == "markov":
        return _markov1(rng, workload.n, workload.m, workload.noise)
    raise ValueError(f"unknown source kind {workload.kind!r}")


def corpus(workload: Workload, seed: int) -> list[list[int]]:
    """The run's SEQUENCES inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [generate(workload, rng.randrange(2 ** 62))
            for _ in range(SEQUENCES)]


def warmup(workload: Workload) -> list[int]:
    """The input of every warm-up call: fixed, so set-up does not vary
    with --seed."""
    return generate(workload, 0)[:WARMUP_M]

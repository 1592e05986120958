"""Corpus generators, baseline sorter, and the run report.

Generators are deterministic for a fixed spec + seed: the PRNG is CPython's
Mersenne Twister (random.Random(seed)), whose float and integer streams are
stable across platforms. The acceptance suite's frozen corpora are built
from `generate` and live with the tests, in `tests/corpora.py`.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from . import entropy
from .comparator import PHASE_BASELINE, CountingComparator
from .kernel import KERNEL_NAME
from .msort import mergesort_perm
from .sortk import SortOutcome, sortk

KINDS = ("uniform", "zipf", "markov", "periodic")


@dataclass(frozen=True)
class SourceSpec:
    """Recipe for one synthetic sequence over the alphabet 0..n-1."""

    kind: str
    n: int
    m: int
    order: int = 1  # markov memory length
    skew: float = 1.0  # zipf exponent
    noise: float = 0.02  # markov off-path probability
    seed: int = 0
    pattern: tuple = ()  # periodic cycle; defaults to 0..n-1

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "markov" and self.order < 1:
            raise ValueError("markov order must be >= 1")
        if self.kind == "zipf" and not self.skew > 0:  # NaN fails too
            raise ValueError("zipf skew must be positive")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        if self.pattern and self.kind != "periodic":
            raise ValueError("pattern applies to periodic specs only")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "m": self.m, "seed": self.seed}
        if self.kind == "markov":
            out.update(order=self.order, noise=self.noise)
        if self.kind == "zipf":
            out["skew"] = self.skew
        if self.pattern:
            out["pattern"] = list(self.pattern)
        return out


def generate(spec: SourceSpec) -> list[int]:
    """Deterministic sequence for the spec (elements are ints in 0..n-1)."""
    spec.validate()
    rng = random.Random(spec.seed)
    n, m = spec.n, spec.m
    if spec.kind == "uniform":
        return [rng.randrange(n) for _ in range(m)]
    if spec.kind == "periodic":
        pattern = list(spec.pattern) if spec.pattern else list(range(n))
        reps = -(-m // len(pattern))
        return (pattern * reps)[:m]
    if spec.kind == "zipf":
        cum: list[float] = []
        total = 0.0
        for k in range(1, n + 1):
            total += k ** -spec.skew
            cum.append(total)
        symbols = list(range(n))
        rng.shuffle(symbols)  # decouple frequency rank from key order
        return [symbols[bisect_left(cum, rng.random() * total)]
                for _ in range(m)]
    # markov: near-deterministic transitions so H_order is far below H0.
    if n == 1:
        return [0] * m
    perm = list(range(n))
    rng.shuffle(perm)
    preferred: dict[tuple, int] = {}
    out = [rng.randrange(n) for _ in range(min(spec.order, m))]
    while len(out) < m:
        state = tuple(out[-spec.order:])
        if spec.order == 1:
            pref = perm[state[0]]
        else:
            pref = preferred.setdefault(state, rng.randrange(n))
        if rng.random() < spec.noise:
            out.append(rng.randrange(n))
        else:
            out.append(pref)
    return out


def baseline_mergesort(seq: Sequence,
                       comparator: CountingComparator) -> list[int]:
    """Stable merge-sort permutation (1-based); counts in phase baseline."""
    order = mergesort_perm(
        seq, lambda a, b: comparator.leq(a, b, PHASE_BASELINE))
    return [i + 1 for i in order]


def stable_sort_oracle(seq: Sequence) -> list[int]:
    """Reference stable permutation via Python's sort (measurement code)."""
    return sorted(range(1, len(seq) + 1), key=lambda i: seq[i - 1])


def outcome_checks(seq: Sequence, outcome: SortOutcome) -> tuple[bool, bool]:
    """(sorted_ok, stable) for an outcome, via the oracle."""
    values = outcome.sorted_values(seq)
    sorted_ok = all(a <= b for a, b in zip(values, values[1:]))
    stable = outcome.permutation == stable_sort_oracle(seq)
    return sorted_ok, stable


def sort_report(seq: Sequence, order: int = 0,
                include_baseline: bool = False) -> tuple[dict, SortOutcome]:
    """Sort *seq* with sortk and reconcile the run into a report.

    H0, H_order and the budgets come from the outcome, the entropies of
    the orders in between from `entropy.profile`. An order above m is a
    usage error (ValueError): it would list H_k for every k < order.
    """
    if order > len(seq):
        raise ValueError(f"order {order} is not in [0, m], m = {len(seq)}")
    start = time.perf_counter()
    outcome = sortk(seq, order)
    wall_ms = (time.perf_counter() - start) * 1e3
    sorted_ok, stable = outcome_checks(seq, outcome)
    entropy_bits = [outcome.h0]
    if order > 1:
        entropy_bits += entropy.profile(seq, order - 1).h[1:]
    if order > 0:
        entropy_bits.append(outcome.h_order)
    report = {
        "schema": 1,
        "m": len(seq),
        "n": len(set(seq)),
        "order": order,
        "entropy": entropy_bits,
        "kernel": KERNEL_NAME,
        "comparisons": outcome.ledger.as_report(),
        "budget_lemma1": outcome.budget,
        "budget_per_context": outcome.context_budget,
        "wall_ms": wall_ms,
        "stable": stable,
        "sorted_ok": sorted_ok,
    }
    if include_baseline:
        cmp = CountingComparator()
        baseline_mergesort(seq, cmp)
        report["baseline"] = cmp.phase_count(PHASE_BASELINE)
    if outcome.warnings:
        report["warnings"] = list(outcome.warnings)
    return report, outcome


def run_spec(spec: SourceSpec, order: int = 0,
             include_baseline: bool = False) -> dict:
    """Generate one spec's sequence and report its sort, spec included."""
    report, _ = sort_report(generate(spec), order, include_baseline)
    report["spec"] = spec.to_dict()
    return report


def default_suite(seed: int = 1) -> list[SourceSpec]:
    """Small benchmark grid for the CLI bench subcommand."""
    specs = []
    for kind in ("uniform", "zipf", "markov", "periodic"):
        for n in (2, 16, 256):
            for m in (1000, 10000):
                specs.append(SourceSpec(kind=kind, n=n, m=m,
                                        seed=seed + len(specs)))
    return specs


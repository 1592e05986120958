import hashlib
import random

import pytest

from conftest import stable_perm
from corpora import (TORONTO, bounds_corpus, correctness_corpus,
                     envelope_corpus)
from entsort import entropy
from entsort.bench import (SourceSpec, baseline_mergesort, default_suite,
                           generate, outcome_checks, run_spec, sort_report,
                           stable_sort_oracle)
from entsort.comparator import PHASE_BASELINE, CountingComparator
from entsort.sort0 import comparison_budget, sort0
from entsort.sortk import budget_breakdown, sortk


def test_generate_deterministic():
    for kind in ("uniform", "zipf", "markov", "periodic"):
        spec = SourceSpec(kind=kind, n=16, m=500, seed=99)
        assert generate(spec) == generate(spec)


def test_periodic_pattern():
    spec = SourceSpec(kind="periodic", n=3, m=9,
                      pattern=tuple("abc"))
    assert "".join(generate(spec)) == "abcabcabc"
    default = SourceSpec(kind="periodic", n=3, m=7)
    assert generate(default) == [0, 1, 2, 0, 1, 2, 0]


def test_uniform_single_symbol():
    seq = generate(SourceSpec(kind="uniform", n=1, m=40))
    assert seq == [0] * 40
    assert entropy.h_order(seq, 0) == 0.0


def test_markov_low_first_order_entropy():
    spec = SourceSpec(kind="markov", n=16, m=20000, order=1, seed=4)
    seq = generate(spec)
    h0_bits = entropy.h_order(seq, 0)
    h1_bits = entropy.h_order(seq, 1)
    assert h1_bits < 0.2 * h0_bits


def test_zipf_skew_lowers_entropy():
    flat = generate(SourceSpec(kind="zipf", n=64, m=20000, skew=0.01,
                               seed=7))
    skewed = generate(SourceSpec(kind="zipf", n=64, m=20000, skew=2.0,
                                 seed=7))
    assert entropy.h_order(skewed, 0) < entropy.h_order(flat, 0) < 6.01


def test_spec_validation():
    with pytest.raises(ValueError):
        generate(SourceSpec(kind="nope", n=2, m=5))
    with pytest.raises(ValueError):
        generate(SourceSpec(kind="uniform", n=0, m=5))
    with pytest.raises(ValueError):
        generate(SourceSpec(kind="uniform", n=2, m=0))
    with pytest.raises(ValueError):
        generate(SourceSpec(kind="zipf", n=2, m=5, skew=0.0))
    with pytest.raises(ValueError):
        generate(SourceSpec(kind="markov", n=2, m=5, order=0))
    with pytest.raises(ValueError):
        generate(SourceSpec(kind="uniform", n=2, m=5, pattern=(1,)))


def test_baseline_mergesort_stable():
    rng = random.Random(12)
    for _ in range(40):
        seq = [rng.randrange(6) for _ in range(rng.randrange(1, 150))]
        cmp = CountingComparator()
        perm = baseline_mergesort(seq, cmp)
        assert perm == stable_perm(seq)
        led = cmp.snapshot()
        assert led.binary_count == led.count(PHASE_BASELINE)


def test_baseline_single_element():
    cmp = CountingComparator()
    assert baseline_mergesort([9], cmp) == [1]
    assert cmp.binary_count == 0


def test_baseline_toronto():
    cmp = CountingComparator()
    assert baseline_mergesort(TORONTO, cmp) == [5, 2, 4, 7, 3, 1, 6]


def test_budget_breakdown_toronto():
    assert comparison_budget(TORONTO) == 28
    bd = budget_breakdown(TORONTO, 0)
    assert bd.total == bd.context_total == 28
    assert bd.n == 4
    assert bd.h0 == pytest.approx(1.84237099, abs=1e-6)
    bd1 = budget_breakdown(TORONTO, 1)
    assert bd1.h_order == pytest.approx(2 / 7)
    assert bd1.total == bd1.context_total + bd1.b1


def test_budget_breakdown_constant_string():
    seq = ["x"] * 60
    for order in (0, 1, 2):
        bd = budget_breakdown(seq, order)
        assert bd.h_order == 0.0
        # Per-context budgets collapse to the O(1)-per-element term.
        assert bd.context_total <= 3 * 60


def test_comparison_budget_independent_of_sorter():
    rng = random.Random(3)
    seq = [rng.randrange(5) for _ in range(300)]
    budget = comparison_budget(seq)
    out = sort0(seq)
    assert out.ledger.binary_count <= budget


def test_stable_sort_oracle_and_checks():
    seq = [3, 1, 3, 1]
    assert stable_sort_oracle(seq) == [2, 4, 1, 3]
    out = sort0(seq)
    sorted_ok, stable = outcome_checks(seq, out)
    assert sorted_ok and stable


def test_non_total_order_gives_permutation():
    # NaN makes the order partial: the result is still a permutation of
    # 1..m, but it is sorted only for total preorders, and the oracle says so.
    nan = float("nan")
    seq = [nan, 1.0, nan, 0.5, 2.0]
    for out in (sort0(seq), sortk(seq, order=1)):
        assert sorted(out.permutation) == list(range(1, len(seq) + 1))
        sorted_ok, _ = outcome_checks(seq, out)
        assert not sorted_ok


def test_run_spec_record():
    spec = SourceSpec(kind="zipf", n=16, m=400, seed=5)
    d = run_spec(spec, order=1, include_baseline=True)
    assert d["schema"] == 1
    assert d["spec"] == spec.to_dict()
    assert d["kernel"] == "python"
    assert d["m"] == 400
    assert d["sorted_ok"] and d["stable"]
    assert d["comparisons"]["total"] <= d["budget_lemma1"]
    assert len(d["entropy"]) == 2
    assert d["baseline"] > 0
    assert d["wall_ms"] >= 0


def test_sort_report_entropies():
    # H0 and H_order come from the outcome, the orders in between from
    # entropy.profile; all of them equal a fresh computation exactly.
    seq = generate(SourceSpec(kind="markov", n=5, m=600, order=2, seed=8))
    for order in (0, 1, 2, 3):
        report, outcome = sort_report(seq, order)
        assert report["entropy"] == [entropy.h_order(seq, k)
                                     for k in range(order + 1)]
        assert report["entropy"][0] == outcome.h0
        assert report["entropy"][-1] == outcome.h_order
        assert report["budget_per_context"] == outcome.context_budget


def test_default_suite_shape():
    suite = default_suite()
    assert len(suite) == 24
    kinds = {s.kind for s in suite}
    assert kinds == {"uniform", "zipf", "markov", "periodic"}


def test_corpora_reproducible():
    a = [s for _, s in zip(range(50), bounds_corpus())]
    b = [s for _, s in zip(range(50), bounds_corpus())]
    assert a == b
    names_a = [name for name, _ in correctness_corpus()]
    names_b = [name for name, _ in correctness_corpus()]
    assert names_a == names_b
    assert envelope_corpus() == envelope_corpus()


def corpus_digest(items) -> str:
    """SHA-256 over the repr of each item, one line per item."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_corpora_pinned():
    """The frozen corpora are byte-identical to those the acceptance
    criteria were calibrated on: criterion 3's 10,000 specs, criterion 4's
    named sequences and criterion 9's (name, sequence, order) triples."""
    assert corpus_digest(bounds_corpus(10_000)) == (
        "3bf69bd2d9c807595751a65e13b4791d40996c57024dc4f4f925581d620ac3de")
    assert corpus_digest(correctness_corpus()) == (
        "fcd32be0747fb90c494604aaea1abdbf28631806b03cd720a6716fc54d1bd6d7")
    assert corpus_digest(envelope_corpus()) == (
        "fb7b42fc118f2aba4be5f5a6ae1d8b6373566bb0f4764470be3192c36cf79542")


def test_bounds_corpus_constraints():
    seen_kinds = set()
    seen_n = set()
    for i, spec in enumerate(bounds_corpus()):
        assert 1 <= spec.m <= 100_000
        seen_kinds.add(spec.kind)
        seen_n.add(spec.n)
        if i > 400:
            break
    assert seen_kinds == {"uniform", "zipf", "periodic"}
    assert seen_n == {2, 16, 256}

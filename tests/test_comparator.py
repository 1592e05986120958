import json

import pytest

from conftest import run_capped
from entsort.bench import SourceSpec, generate
from entsort.comparator import (B1, BASELINE, MERGE, PHASE_B1, PHASE_BASELINE,
                                PHASE_MERGE, PHASE_SEARCH, PHASE_VERIFY,
                                PHASES, SEARCH, VERIFY, ComparisonLedger,
                                CountingComparator, delta)
from entsort.errors import LedgerError
from entsort.sortk import sortk


def test_leq_counts_exactly_one():
    cmp = CountingComparator()
    assert cmp.leq(3, 5, PHASE_SEARCH) is True
    assert cmp.binary_count == 1
    assert cmp.phase_count(PHASE_SEARCH) == 1
    assert cmp.leq("T", "O", PHASE_SEARCH) is False
    assert cmp.leq("x", "x", PHASE_VERIFY) is True  # reflexive
    assert cmp.binary_count == 3
    assert cmp.phase_count(PHASE_SEARCH) == 2
    assert cmp.phase_count(PHASE_VERIFY) == 1


def test_initial_snapshot_is_zero():
    led = CountingComparator().snapshot()
    assert led.binary_count == 0
    assert list(led.phase_counts) == list(PHASES)
    assert all(v == 0 for v in led.phase_counts.values())


def test_binary_count_equals_phase_sum():
    cmp = CountingComparator()
    for i, phase in enumerate(PHASES):
        for _ in range(i + 1):
            cmp.leq(1, 2, phase)
    led = cmp.snapshot()
    assert led.binary_count == sum(led.phase_counts.values()) == 15


def test_delta_basics():
    cmp = CountingComparator()
    for _ in range(10):
        cmp.leq(0, 1, PHASE_SEARCH)
    before = cmp.snapshot()
    for _ in range(3):
        cmp.leq(0, 1, PHASE_SEARCH)
    after = cmp.snapshot()
    d = delta(before, after)
    assert d.count(PHASE_SEARCH) == 3
    assert d.binary_count == 3
    zero = delta(after, after)
    assert zero.binary_count == 0


def test_delta_rejects_negative():
    a = ComparisonLedger({PHASE_SEARCH: 5})
    b = ComparisonLedger({PHASE_SEARCH: 2})
    with pytest.raises(LedgerError):
        delta(a, b)


def test_counts_never_decrease():
    cmp = CountingComparator()
    last = -1
    for phase in (PHASE_SEARCH, PHASE_VERIFY, PHASE_B1, PHASE_MERGE,
                  PHASE_BASELINE) * 4:
        cmp.leq(1, 1, phase)
        assert cmp.binary_count > last
        last = cmp.binary_count


def test_charge_adds_to_one_phase():
    """The sorter charges a phase by adding to its entry of `counts`."""
    for index, phase in zip((SEARCH, VERIFY, B1, MERGE, BASELINE), PHASES,
                            strict=True):
        cmp = CountingComparator()
        assert cmp.counts == [0] * len(PHASES)
        cmp.counts[index] += 7
        cmp.counts[SEARCH] += 0
        cmp.counts[index] += 2
        want = dict.fromkeys(PHASES, 0)
        want[phase] = 9
        assert cmp.snapshot().phase_counts == want
        assert cmp.binary_count == cmp.phase_count(phase) == 9


def test_unknown_phase_rejected():
    cmp = CountingComparator()
    with pytest.raises(KeyError):
        cmp.leq(1, 2, "no-such-phase")
    with pytest.raises(KeyError):
        cmp.phase_count("no-such-phase")
    assert cmp.binary_count == 0


def test_report_mapping():
    cmp = CountingComparator()
    cmp.leq(1, 2, PHASE_B1)
    cmp.leq(1, 2, PHASE_MERGE)
    cmp.leq(1, 2, PHASE_BASELINE)
    rep = cmp.snapshot().as_report()
    assert rep == {"search": 0, "verify": 0, "b1": 1, "merge": 1, "total": 2}


def test_phase_order_independent_of_hash_seed(monkeypatch):
    """Snapshots and deltas list the phases in PHASES order, in every
    process: the order `dict(out.ledger.phase_counts)` shows."""
    script = ("import json; from entsort import PHASES, sortk; "
              "out = sortk(list('TORONTO'), 1); "
              "print(json.dumps([list(out.ledger.phase_counts), PHASES]))")
    for seed in ("0", "1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        run = run_capped("-c", script)
        assert run.returncode == 0, run.stderr
        got, phases = json.loads(run.stdout)
        assert got == phases, seed


def _call_counting():
    """A CountingComparator subclass that counts calls to each of its
    public methods, and the dict it counts them in."""
    calls = {}

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args)
        return wrapper

    methods = {name: counted(name, attr)
               for name, attr in vars(CountingComparator).items()
               if callable(attr) and not name.startswith("_")}
    return type("CallCounting", (CountingComparator,), methods), calls


@pytest.mark.parametrize("order", [0, 1, 2])
def test_ledger_costs_no_method_call_per_element(order):
    """The sorter adds to the counter list in place: the number of calls
    to the comparator's methods does not grow with m, and the ledger is
    the one a plain comparator gives."""
    cls, calls = _call_counting()
    per_length, totals = [], []
    for m in (50, 2000):
        seq = generate(SourceSpec(kind="markov", n=8, m=m, seed=3))
        calls.clear()
        out = sortk(seq, order, cls())
        assert out.ledger == sortk(seq, order, CountingComparator()).ledger
        per_length.append(dict(calls))
        totals.append(out.ledger.binary_count)
    assert per_length[0] == per_length[1]
    assert totals[1] > 2000 + totals[0]  # the comparisons did grow with m

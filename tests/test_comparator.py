import pytest

from entsort.comparator import (PHASE_B1, PHASE_BASELINE, PHASE_MERGE,
                                PHASE_SEARCH, PHASE_VERIFY, PHASES,
                                ComparisonLedger, CountingComparator, delta)
from entsort.errors import LedgerError


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
    assert set(led.phase_counts) == set(PHASES)
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
    cmp = CountingComparator()
    cmp.charge(PHASE_B1, 7)
    cmp.charge(PHASE_SEARCH, 0)
    cmp.charge(PHASE_B1, 2)
    want = dict.fromkeys(PHASES, 0)
    want[PHASE_B1] = 9
    assert cmp.snapshot().phase_counts == want
    assert cmp.binary_count == 9


def test_unknown_phase_rejected():
    cmp = CountingComparator()
    with pytest.raises(KeyError):
        cmp.leq(1, 2, "no-such-phase")
    with pytest.raises(KeyError):
        cmp.charge("no-such-phase", 1)
    assert cmp.binary_count == 0


def test_report_mapping():
    cmp = CountingComparator()
    cmp.leq(1, 2, PHASE_B1)
    cmp.leq(1, 2, PHASE_MERGE)
    cmp.leq(1, 2, PHASE_BASELINE)
    rep = cmp.snapshot().as_report()
    assert rep == {"search": 0, "verify": 0, "b1": 1, "merge": 1, "total": 2}

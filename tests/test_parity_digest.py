"""A digest of what the sorters give on 1,500 seeded random inputs.

A change that should leave every permutation, ledger, budget and entropy
as it was keeps this digest. A change that moves any of them on purpose
re-pins it and says why.
"""

import hashlib
import random

from entsort.sort0 import sort0
from entsort.sortk import sortk

# sha256 prefix of the sort0 and sortk (orders 1-3) outcomes below.
DIGEST = "0bf8e89ec2ac65c1"

ALPHABETS = (1, 2, 3, 7, 16, 60, 300)


def outcome_record(out) -> bytes:
    """The outcome's permutation, sorted ledger phase counts, budgets,
    exact entropies and warnings."""
    return repr((out.permutation, sorted(out.ledger.phase_counts.items()),
                 out.budget, out.context_budget, repr(out.h0),
                 repr(out.h_order), out.warnings)).encode()


def test_parity_digest():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for _ in range(1500):
        n = rng.choice(ALPHABETS)
        seq = [rng.randrange(n) for _ in range(rng.randrange(1, 300))]
        digest.update(outcome_record(sort0(seq)))
        for order in (1, 2, 3):
            digest.update(outcome_record(sortk(seq, order)))
    assert digest.hexdigest()[:16] == DIGEST

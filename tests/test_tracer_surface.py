"""The layer tracer in perfbench/spans.py finds every callable it wraps.

The tracer patches sorter internals by name, so renaming or removing one of
them breaks `perfbench/run.py --trace 1`. This test loads spans.py from its
source without writing anything under perfbench/, runs the sorter at
orders 0, 1 and 2 inside `Tracer().patched()`, and checks that every named
callable is patched and restored afterwards, and that those still on the
sorting path record spans.
"""

import importlib
import types
from pathlib import Path

from entsort import bst, entropy
from entsort.bench import SourceSpec, generate
from entsort.kernel import get_kernel
from entsort.sort0 import sort0
from entsort.sortk import sortk

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


def patch_targets(spans):
    """(owner, attribute) for every span name the tracer knows, plus the
    tree constructor it wraps to count trees."""
    owners = {
        "StatsTree": get_kernel().StatsTree,
        "RankDictionary": bst.RankDictionary,
        "CodeDictionary": bst.CodeDictionary,
        # The package exports functions under these two module names.
        "sortk": importlib.import_module("entsort.sortk"),
        "sort0": importlib.import_module("entsort.sort0"),
        "entropy": entropy,
    }
    targets = [(owners["StatsTree"], "__init__")]
    for name in spans.LAYER_OF:
        if name != "call":
            owner, attr = name.split(".")
            targets.append((owners[owner], attr))
    return targets


def test_tracer_wraps_the_sorter_surface():
    spans = load_spans()
    targets = patch_targets(spans)
    originals = [getattr(owner, attr) for owner, attr in targets]
    seq = generate(SourceSpec(kind="markov", n=6, m=400, seed=11))
    tracer = spans.Tracer()
    with tracer.patched():
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
        a = sort0(seq)
        b = sortk(seq, order=1)
        # B2 runs above order 1 only: at order 1 a context is a B1 rank.
        c = sortk(seq, order=2)
    assert a.permutation == b.permutation == c.permutation
    assert tracer.unmeasured == set()
    recorded = {tracer.names[code] for code, *_ in tracer.spans}
    for name in ("StatsTree.insert", "RankDictionary.lookup_or_insert",
                 "CodeDictionary.get", "CodeDictionary.insert"):
        assert name in recorded, name
    # Still patched and restored, but the sorters no longer call them: a
    # sort reads its accounting off the forest, so `account` records
    # nothing, and the element loop searches and records hits in
    # `StatsTree.scan`, which the tracer does not wrap.
    assert not recorded & {"StatsTree.descend", "StatsTree.append",
                           "sortk.encode_tuple", "sortk.mergesort_perm",
                           "sortk.budget_breakdown",
                           "sort0.comparison_budget", "entropy.h_order"}
    assert tracer.trees  # tree construction was counted
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr

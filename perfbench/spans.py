"""Traced run: spans around the public callables on the sorting path.

The tracer wraps, from outside the package, the StatsTree methods, the
RankDictionary and CodeDictionary methods, and the module attributes the
sorters look up at call time (sortk.mergesort_perm, sortk.encode_tuple,
sortk.budget_breakdown, sort0.comparison_budget, entropy.h_order). Each
span is (name, start, end, parent, call id). Spans stay in memory; the
per-layer table is derived from them, and they are written to a file when
the run ends. The timed run never sees the wrappers: `patched` restores
every original on exit.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# Span name -> layer. The span names are the wrapped callables.
LAYER_OF = {
    "call": "sorter",
    "StatsTree.descend": "kernel.descend",
    "StatsTree.increment": "kernel.hit",
    "StatsTree.append": "kernel.hit",
    "StatsTree.handle_at": "kernel.hit",
    "StatsTree.insert": "kernel.insert",
    "RankDictionary.lookup_or_insert": "bst.b1",
    "CodeDictionary.get": "bst.b2",
    "CodeDictionary.insert": "bst.b2",
    "sortk.encode_tuple": "bst.b2",
    "sortk.mergesort_perm": "msort.merge",
    "sortk.budget_breakdown": "account",
    "sort0.comparison_budget": "account",
    "entropy.h_order": "account",
}
LAYERS = ("kernel.descend", "kernel.hit", "kernel.insert", "bst.b1",
          "bst.b2", "msort.merge", "account", "sorter")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent, call)
        self.stack = [-1]
        self.call = 0
        self.trees: list = []  # trees built during the current call
        self.merge_groups = 0  # items handed to the final merge sort
        self.unmeasured: set[str] = set()  # prefixes of unmeasured metrics

    def wrap(self, name: str, fn):
        code = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (code, start, end, parent, self.call)

        return traced

    def _sized(self, merge):
        def sized(items, *args, **kwargs):
            self.merge_groups += len(items)
            return merge(items, *args, **kwargs)

        return sized

    def _count_trees(self, init):
        trees = self.trees

        def counted(tree, *args, **kwargs):
            init(tree, *args, **kwargs)
            trees.append(tree)

        return counted

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        kernel = importlib.import_module("entsort.kernel").get_kernel()
        bst = importlib.import_module("entsort.bst")
        targets = [
            (kernel.StatsTree, attr, f"StatsTree.{attr}")
            for attr in ("descend", "increment", "append", "handle_at",
                         "insert")
        ] + [
            (bst.RankDictionary, "lookup_or_insert",
             "RankDictionary.lookup_or_insert"),
            (bst.CodeDictionary, "get", "CodeDictionary.get"),
            (bst.CodeDictionary, "insert", "CodeDictionary.insert"),
        ] + [
            (importlib.import_module(f"entsort.{mod}"), attr, f"{mod}.{attr}")
            for mod, attr in (("sortk", "mergesort_perm"),
                              ("sortk", "encode_tuple"),
                              ("sortk", "budget_breakdown"),
                              ("sort0", "comparison_budget"),
                              ("entropy", "h_order"))
        ]
        installed = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                inner = (self._sized(original)
                         if name == "sortk.mergesort_perm" else original)
                try:
                    setattr(owner, attr, self.wrap(name, inner))
                except (TypeError, AttributeError):
                    # A compiled class cannot be patched: its layer is
                    # reported as unmeasured, never estimated.
                    self.unmeasured.add(LAYER_OF[name] + ".")
                    continue
                installed.append((owner, attr, original))
            init = kernel.StatsTree.__init__
            try:
                kernel.StatsTree.__init__ = self._count_trees(init)
                installed.append((kernel.StatsTree, "__init__", init))
            except (TypeError, AttributeError):
                self.unmeasured.update(("kernel.trees", "kernel.max_height",
                                        "kernel.height_bound"))
            yield
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def layer_totals(self) -> tuple[dict, dict, int]:
        """(self ns per layer, span count per layer, total call ns).

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread never overlap, so the
        children's sum is the part of the interval they cover.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        total = 0
        for i, (code, start, end, _, _) in enumerate(self.spans):
            layer = LAYER_OF[self.names[code]]
            self_ns[layer] += end - start - child_ns[i]
            calls[layer] += 1
            if layer == "sorter":
                total += end - start
        return self_ns, calls, total

    def write(self, path) -> None:
        """All spans as JSON: a name table, then one row per span of
        [name id, start ns, end ns, parent span or -1, call id], with
        times counted from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"names": %s,\n"columns": ["name", "start_ns", '
                     '"end_ns", "parent", "call"],\n"spans": [\n'
                     % json.dumps(self.names))
            fh.write(",\n".join(
                f"[{c},{s - origin},{e - origin},{p},{k}]"
                for c, s, e, p, k in self.spans))
            fh.write("\n]}\n")

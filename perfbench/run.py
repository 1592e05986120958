#!/usr/bin/env python3
"""entsort benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload zipf-k0 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/` with the kernel that a plain import selects. One run:

1. generates the workload's corpus from --seed (see corpus.py);
2. sets up SETUP_REPEATS times (fresh import of entsort, kernel selection,
   one warm-up call on a short fixed input), each between two calibration
   sorts, and reports setup_s (see measure_setup);
3. checks every sequence and the warm-up input in an untimed pass (see
   gate.py), across every available kernel, and every warm-up output
   against the checked warm-up input;
4. measures peak traced memory of one call, untimed;
5. calls the sorter round-robin over the corpus for --seconds, one closed
   loop, one thread, gc.collect() between calls with GC left enabled; each
   result must reproduce the checked one exactly, and each call is followed
   by the calibration sort on the same input (see calib.py);
6. computes the reference columns (sorted(), counted merge sort, the
   Munro-Spira multiset lower bound, H_k);
7. with --trace 1, sorts the corpus once more under the span recorder
   (see spans.py) and derives the per-layer table.

The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1), with the names and units listed in the checkout's
BENCHMARK.json. Everything above it is the human-readable report, which also
gives fail_frac (failed / attempted calls), the kernel and a digest of
every ledger.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import calib
import corpus
import gate
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11

SORTED_REPEATS = 3

class Tally:
    """Sorter calls attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def metric_units(section: str) -> dict:
    """name -> unit of one metric list in BENCHMARK.json, in file order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def fresh_import():
    """Import entsort from scratch, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "entsort" or n.startswith("entsort.")]:
        del sys.modules[name]
    return importlib.import_module("entsort")


def calib_seconds(items) -> float:
    """Wall time of one calibration sort of items."""
    gc.collect()
    start = time.perf_counter()
    calib.merge_sort(items)
    return time.perf_counter() - start


def measure_setup(warm_seq, order: int) -> tuple:
    """(setup_s, raw median seconds, warm-up outputs, entsort of the last).

    Set-up is a fresh import, kernel selection and one warm-up call on the
    short fixed input corpus.warmup(), so that it is mostly import rather
    than sorting. Each set-up lies between two calibration sorts of
    calib.setup_input(), and setup_s is the median ratio of the set-up
    time to their geometric mean, in units of calib.SETUP_REFERENCE_S: it
    follows the work done in set-up, not the speed of the machine at the
    time. The median over SETUP_REPEATS set-ups keeps one slow import (the
    first, which may compile) from setting it.
    """
    fixed = calib.setup_input()
    raw, ratios, outs = [], [], []
    for _ in range(SETUP_REPEATS):
        before = calib_seconds(fixed)
        gc.collect()
        start = time.perf_counter()
        entsort = fresh_import()
        entsort.get_kernel()
        outs.append(gate.attempt(gate.sort_call, "warm-up call", entsort,
                                 warm_seq, order))
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        ratios.append(elapsed / math.sqrt(before * calib_seconds(fixed)))
    setup_s = statistics.median(ratios) * calib.SETUP_REFERENCE_S
    return setup_s, statistics.median(raw), outs, entsort


def check_pass(entsort, seqs, order: int, tally: Tally) -> list:
    """Reference outcome per sequence (None where the gate failed)."""
    others = [k for k in entsort.available_kernels()
              if k != entsort.KERNEL_NAME]
    refs = []
    for i, seq in enumerate(seqs):
        ref = gate.check_sequence(entsort, seq, order, f"sequence {i}")
        tally.record(ref is not None)
        refs.append(ref)
        for kernel in others:
            label = f"sequence {i} on kernel {kernel}"
            out = gate.attempt(gate.sort_call, label, entsort, seq, order,
                               kernel_name=kernel)
            tally.record(gate.matches(out, ref, label))
    return refs


def peak_bytes(entsort, seq, order: int, ref, tally: Tally) -> int:
    """tracemalloc peak of one sorter call (allocations during the call)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = gate.attempt(gate.sort_call, "memory pass", entsort, seq, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tally.record(gate.matches(out, ref, "memory pass"))
    return peak


def timed_loop(entsort, seqs, refs, order: int, seconds: float,
               tally: Tally) -> list[tuple]:
    """(call ns, calibration ns, m) of each timed call that returned.

    The calibration sort runs on the same input right after the call, so
    both times see the same state of the machine.
    """
    samples = []
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        i = k % len(seqs)
        k += 1
        seq = seqs[i]
        label = f"timed call {k}"
        gc.collect()
        start = clock()
        out = gate.attempt(gate.sort_call, label, entsort, seq, order)
        elapsed = clock() - start
        tally.record(gate.matches(out, refs[i], label))
        if out is None:
            continue
        gc.collect()
        start = clock()
        calib.merge_sort(seq)
        samples.append((elapsed, clock() - start, len(seq)))
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): p90, or lower if fewer than 10 samples lie
    beyond p90, so the tail always has at least ten samples behind it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(0.9 * n) - 1, n - 11)
    return ordered[rank], 100.0 * (rank + 1) / n


def lower_bound_bits(seq) -> float:
    """log2(m! / prod c_i!): Munro-Spira lower bound for sorting a multiset."""
    ln = math.lgamma(len(seq) + 1) - sum(
        math.lgamma(c + 1) for c in Counter(seq).values())
    return ln / math.log(2)


def references(entsort, seqs, order: int) -> dict:
    """Reference columns, computed outside the sorter's timed path."""
    bench = importlib.import_module("entsort.bench")
    clock = time.perf_counter_ns
    elems = sum(len(s) for s in seqs)
    sorted_ns = []
    msort_ns = msort_cmp = 0
    bound = hk = 0.0
    for seq in seqs:
        runs = []
        for _ in range(SORTED_REPEATS):
            start = clock()
            sorted(range(len(seq)), key=seq.__getitem__)
            runs.append(clock() - start)
        sorted_ns.append(statistics.median(runs) / len(seq))
        cmp = entsort.CountingComparator()
        start = clock()
        bench.baseline_mergesort(seq, cmp)
        msort_ns += clock() - start
        msort_cmp += cmp.binary_count
        bound += lower_bound_bits(seq)
        hk += entsort.h_order(seq, order) * len(seq)
    return {
        "ref.sorted.us_per_elem": statistics.median(sorted_ns) / 1e3,
        "ref.msort.us_per_elem": msort_ns / elems / 1e3,
        "ref.msort.cmp_per_elem": msort_cmp / elems,
        "ref.lower_bound_bits_per_elem": bound / elems,
        "ref.hk_bits": hk / elems,
    }


def traced_pass(entsort, workload, seqs, refs, tally: Tally) -> tuple:
    """Sort the corpus once under the span recorder; (per-layer, tracer)."""
    avl_height_bound = importlib.import_module("entsort.bst").avl_height_bound
    tracer = spans.Tracer()
    call = tracer.wrap("call", gate.sort_call)
    trees = max_height = height_bound = calib_ns = 0
    clock = time.perf_counter_ns
    with tracer.patched():
        for i, seq in enumerate(seqs):
            gc.collect()
            tracer.call = i
            label = f"traced call {i}"
            out = gate.attempt(call, label, entsort, seq, workload.order)
            tally.record(gate.matches(out, refs[i], label))
            trees += len(tracer.trees)
            for tree in tracer.trees:
                max_height = max(max_height, tree.height)
                height_bound = max(height_bound, avl_height_bound(len(tree)))
            tracer.trees.clear()
            gc.collect()
            start = clock()
            calib.merge_sort(seq)
            calib_ns += clock() - start

    self_ns, calls, total_ns = tracer.layer_totals()
    elems = sum(len(s) for s in seqs)
    phases = Counter()
    for ref in refs:
        if ref is not None:
            phases.update(ref.ledger.as_report())
    layer = {}
    for name in spans.LAYERS:
        key = "sorter.self_s" if name == "sorter" else f"{name}.s"
        layer[key] = self_ns[name] / 1e9
        layer[f"{name}.share"] = self_ns[name] / total_ns
        layer[f"{name}.calls"] = calls[name]
    descents = calls["kernel.descend"]
    layer.update({
        "kernel.descend.us_per_call":
            self_ns["kernel.descend"] / 1e3 / descents if descents else 0.0,
        "kernel.descend.cmp_per_call":
            (phases["search"] + phases["verify"]) / descents
            if descents else 0.0,
        "kernel.trees": trees,
        "kernel.max_height": max_height,
        "kernel.height_bound": height_bound,
        "bst.b1.cmp": phases["b1"],
        "msort.merge.cmp": phases["merge"],
        "msort.merge.groups": tracer.merge_groups,
        "trace.cost_ratio": total_ns / calib_ns,
    })
    for phase in ("search", "verify", "b1", "merge"):
        layer[f"comparator.cmp.{phase}"] = phases[phase] / elems
    unmeasured = tuple(tracer.unmeasured)
    for metric in layer:
        if metric.startswith(unmeasured):
            layer[metric] = None
    return layer, tracer


def print_layer_table(layer: dict) -> None:
    print(f"  {'layer':<16}{'calls':>10}{'self s':>10}{'share':>8}")
    for name in spans.LAYERS:
        seconds = layer["sorter.self_s" if name == "sorter" else f"{name}.s"]
        if seconds is None:
            print(f"  {name:<16}{'unmeasured':>28}")
            continue
        print(f"  {name:<16}{layer[f'{name}.calls']:>10d}{seconds:>10.3f}"
              f"{layer[f'{name}.share']:>8.1%}")


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = "unmeasured" if value is None else f"{value:.6g}"
    print(f"  {name:<32}{shown:>14} {unit:<9}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entsort" / "__init__.py").is_file():
        print(f"error: no entsort package under {SRC}; "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    end_to_end_units = metric_units("end_to_end")
    per_layer_units = metric_units("per_layer")

    workload = corpus.WORKLOADS[args.workload]
    seqs = corpus.corpus(workload, args.seed)
    order = workload.order
    tally = Tally()

    warm_seq = corpus.warmup(workload)
    setup_s, setup_raw_s, warm_outs, entsort = measure_setup(warm_seq, order)
    if SRC not in Path(entsort.__file__).resolve().parents:
        print(f"error: imported entsort from {entsort.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 1
    refs = check_pass(entsort, seqs, order, tally)
    warm_ref = gate.check_sequence(entsort, warm_seq, order,
                                   "warm-up sequence")
    tally.record(warm_ref is not None)
    for i, out in enumerate(warm_outs):
        tally.record(gate.matches(out, warm_ref, f"warm-up call {i}"))
    peak = peak_bytes(entsort, seqs[0], order, refs[0], tally)
    samples = timed_loop(entsort, seqs, refs, order, args.seconds, tally)
    ref_cols = references(entsort, seqs, order)

    if len(samples) <= 10:
        print(f"error: only {len(samples)} timed calls returned; "
              "a run needs more than ten", file=sys.stderr)
        return 1
    elems = sum(len(s) for s in seqs)
    counted = sum(r.ledger.binary_count for r in refs if r is not None)
    timed_ns = sum(t for t, _, _ in samples)
    timed_elems = sum(m for _, _, m in samples)
    us_per_elem = [t / m / 1e3 for t, _, m in samples]
    ratios = [t / c for t, c, _ in samples]
    p90, pct = tail(us_per_elem)
    timings = {
        "elems_per_s": 1e9 * timed_elems / timed_ns,
        "us_per_elem_p50": statistics.median(us_per_elem),
        "us_per_elem_p90": p90,
        "ref.calib.us_per_elem":
            sum(c for _, c, _ in samples) / timed_elems / 1e3,
        "setup.raw_s": setup_raw_s,
    }
    e2e = {
        "cost_ratio": timed_ns / sum(c for _, c, _ in samples),
        "cost_ratio_p50": statistics.median(ratios),
        "cost_ratio_p90": tail(ratios)[0],
        "cmp_per_elem": counted / elems,
        "peak_bytes_per_elem": peak / len(seqs[0]),
        "setup_s": setup_s,
    }

    sorter = "sort0" if order == 0 else f"sortk(order={order})"
    print(f"workload {workload.name}: {sorter} on {workload.kind} "
          f"n={workload.n} m={workload.m}, {len(seqs)} sequences, "
          f"seed {args.seed}")
    print(f"kernel {entsort.KERNEL_NAME} "
          f"(available: {', '.join(entsort.available_kernels())})")
    notes = {
        "us_per_elem_p50": f"({len(samples)} timed calls)",
        "us_per_elem_p90": f"(p{pct:.1f} of {len(samples)} timed calls)",
        "cost_ratio": "(timed call / calibration sort, all calls)",
        "cost_ratio_p50": "(per-call ratio, median)",
        "cost_ratio_p90": f"(per-call ratio, p{pct:.1f})",
        "cmp_per_elem": "(lower bound "
                        f"{ref_cols['ref.lower_bound_bits_per_elem']:.4f}, "
                        f"H_{order} {ref_cols['ref.hk_bits']:.4f} bit/elem)",
        "setup_s": f"(median of {SETUP_REPEATS}, in units of the "
                   "calibration reference)",
        "setup.raw_s": f"(median of {SETUP_REPEATS} raw set-up times)",
    }
    for name, value in timings.items():
        print_metric(name, value, per_layer_units[name], notes.get(name, ""))
    for name, unit in end_to_end_units.items():
        print_metric(name, e2e[name], unit, notes.get(name, ""))
    print_metric("fail_frac", tally.failed / tally.attempted, "ratio",
                 f"({tally.failed} of {tally.attempted} calls failed)")
    print(f"  ledger digest {gate.ledger_digest(refs)}")
    for name, value in ref_cols.items():
        print_metric(name, value, per_layer_units[name])

    if args.trace:
        layer, tracer = traced_pass(entsort, workload, seqs, refs, tally)
        spans_file = OUT / f"spans-{workload.name}.json"
        tracer.write(spans_file)
        layer.update(ref_cols)
        layer.update(timings)
        # Both sides relative to the calibration sort, so drift in machine
        # speed between the timed loop and the traced pass cancels.
        layer["trace.overhead"] = (layer.pop("trace.cost_ratio")
                                   / e2e["cost_ratio"])
        print(f"traced pass: {len(tracer.spans)} spans "
              f"written to {spans_file.relative_to(HERE.parent)}")
        print_layer_table(layer)
        metrics = {name: (layer[name], unit)
                   for name, unit in per_layer_units.items()}
        for name, (value, unit) in metrics.items():
            if name not in ref_cols and name not in timings:
                print_metric(name, value, unit)
    else:
        metrics = {name: (e2e[name], unit)
                   for name, unit in end_to_end_units.items()}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count the sorter's interpreter work: bytecodes and Python calls per element.

A deterministic companion to wall time. For the `entsort` package found
under --src (default: this checkout's `src/`), the script sorts the first
two seed-101 inputs of each chosen perfbench workload with the call that
perfbench times (`sort0` at order 0, `sortk` above it) and counts, per
function of the package:

- bytecode instructions executed (`sys.settrace` with opcode events on
  the package's frames only);
- Python-level calls, i.e. new frames and generator resumptions.

Counts are divided by the number of elements sorted. They do not depend on
the machine's speed or on PYTHONHASHSEED, but they do depend on the
interpreter build, so compare counts only under one CPython version, which
the report names. C-level work (big-int arithmetic, list growth, dict
probes, the garbage collector) is not weighed. Tracing makes a call about
100x slower.

The report also gives each workload's memory: the tracemalloc peak of one
untraced call on its first seed-101 input, whole (--limit does not cut it),
in bytes per element. That is perfbench's `peak_bytes_per_elem`, so a
memory claim can be checked without a timed run. Beside it,
`budget_peak_bytes_per_elem` is the peak of the call's accounting pass,
`budget_breakdown(seq, order)`, alone on the same input, so that a claim
can see which phase sets the peak.

The inputs come from `perfbench/corpus.py`, imported as is; nothing under
`perfbench/` is written. The script is also the one home of what
tools/ab.py shares with it: `load` imports a package by file location,
`sorter` is perfbench's timed call, `workloads` checks --workload, and
`measure` is the count that `tools/ab.py --opcount` takes in process.
Usage:

    python tools/opcount.py                      # all workloads
    python tools/opcount.py --src /tmp/other/src --workload markov-k1
    python tools/opcount.py --limit 200 --json   # small inputs, JSON out
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import platform
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101
SEQUENCES = 2  # the first two inputs of each workload's corpus


def load(src: Path, name: str = "entsort"):
    """The entsort package under *src*, imported as package *name* by file
    location, so that two trees can be loaded side by side under two
    names. Its modules import each other only by relative imports, so
    each copy keeps its own kernel."""
    init = src.resolve() / "entsort" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no entsort package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def workloads(parser: argparse.ArgumentParser, chosen: list | None):
    """(corpus, names): perfbench's corpus module and the workloads named
    by --workload (default all); an unknown name is a usage error."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    corpus = importlib.import_module("corpus")
    names = chosen or list(corpus.WORKLOADS)
    unknown = sorted(set(names) - set(corpus.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    return corpus, names


def sorter(package, order: int):
    """perfbench's timed call for *order* on *package*: `sort0` at order
    0, `sortk(seq, order)` above it."""
    if order == 0:
        return package.sort0
    return lambda seq: package.sortk(seq, order)


def count(call, package: str) -> tuple[Counter, Counter]:
    """(bytecodes, calls) per function of *package* during call()."""
    ops: Counter = Counter()
    calls: Counter = Counter()
    names: dict = {}  # code object -> "module.qualname"

    def name_of(code) -> str:
        name = names.get(code)
        if name is None:
            module = Path(code.co_filename).stem
            name = names[code] = (
                f"{module}.{getattr(code, 'co_qualname', code.co_name)}")
        return name

    def local(frame, event, arg):
        if event == "opcode":
            ops[name_of(frame.f_code)] += 1
        return local

    def scope(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        calls[name_of(frame.f_code)] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(scope)
    try:
        call()
    finally:
        sys.settrace(None)
    return ops, calls


def peak_per_elem(sorter, seq) -> float:
    """tracemalloc peak of one sorter(seq) call, after a warm-up call, in
    bytes per element."""
    sorter(seq)
    gc.collect()
    tracemalloc.start()
    try:
        sorter(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(seq)


def measure(entsort, corpus, workload: str, limit: int | None) -> dict:
    """Per-element counts of one workload, totals and per function, and
    its peak memory per element."""
    spec = corpus.WORKLOADS[workload]
    whole = corpus.corpus(spec, SEED)[:SEQUENCES]
    seqs = [seq[:limit] for seq in whole]
    package = str(Path(entsort.__file__).parent) + "/"
    call = sorter(entsort, spec.order)
    ops: Counter = Counter()
    calls: Counter = Counter()
    for seq in seqs:
        o, c = count(lambda: call(seq), package)
        ops.update(o)
        calls.update(c)
    elems = sum(len(seq) for seq in seqs)
    functions = {name: {"ops": ops[name] / elems, "calls": calls[name] / elems}
                 for name in sorted(ops.keys() | calls.keys(),
                                    key=lambda n: (-ops[n], n))}
    return {"elements": elems,
            "ops": sum(ops.values()) / elems,
            "calls": sum(calls.values()) / elems,
            "peak_bytes_per_elem": peak_per_elem(call, whole[0]),
            "budget_peak_bytes_per_elem": peak_per_elem(
                lambda seq: entsort.budget_breakdown(seq, spec.order),
                whole[0]),
            "functions": functions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the entsort package")
    parser.add_argument("--workload", action="append",
                        help="perfbench workload (repeatable; default all)")
    parser.add_argument("--limit", type=int,
                        help="cut each sequence to its first N elements")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of tables")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be positive")

    corpus, names = workloads(parser, args.workload)
    entsort = load(args.src)
    report = {"python": platform.python_version(),
              "src": str(args.src.resolve()),
              "workloads": {w: measure(entsort, corpus, w, args.limit)
                            for w in names}}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"CPython {report['python']}, entsort from {report['src']}")
    for w, r in report["workloads"].items():
        print(f"\n{w}: {r['elements']} elements, "
              f"{r['ops']:.1f} bytecodes and {r['calls']:.2f} calls "
              "per element")
        print(f"  peak {r['peak_bytes_per_elem']:.1f} B/elem "
              "(one call on the first whole input), "
              f"{r['budget_peak_bytes_per_elem']:.1f} in its budget pass")
        print(f"  {'function':<40}{'ops/elem':>10}{'calls/elem':>12}")
        for name, f in r["functions"].items():
            print(f"  {name:<40}{f['ops']:>10.1f}{f['calls']:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

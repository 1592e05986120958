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

The inputs come from `perfbench/corpus.py`, imported as is; nothing under
`perfbench/` is written. Usage:

    python tools/opcount.py                      # all workloads
    python tools/opcount.py --src /tmp/other/src --workload markov-k1
    python tools/opcount.py --limit 200 --json   # small inputs, JSON out
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101
SEQUENCES = 2  # the first two inputs of each workload's corpus


def load(src: Path):
    """(entsort, corpus): the package under *src* and perfbench's corpus."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    entsort = importlib.import_module("entsort")
    package = Path(entsort.__file__).resolve().parent
    if package.parent != src.resolve():
        raise SystemExit(f"error: imported entsort from {package}, "
                         f"not from {src}")
    return entsort, importlib.import_module("corpus")


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


def measure(entsort, corpus, workload: str, limit: int | None) -> dict:
    """Per-element counts of one workload: totals and per function."""
    spec = corpus.WORKLOADS[workload]
    seqs = [seq[:limit] for seq in corpus.corpus(spec, SEED)[:SEQUENCES]]
    package = str(Path(entsort.__file__).resolve().parent) + "/"
    if spec.order == 0:
        sorter = entsort.sort0
    else:
        def sorter(seq):
            return entsort.sortk(seq, spec.order)
    ops: Counter = Counter()
    calls: Counter = Counter()
    for seq in seqs:
        o, c = count(lambda: sorter(seq), package)
        ops.update(o)
        calls.update(c)
    elems = sum(len(seq) for seq in seqs)
    functions = {name: {"ops": ops[name] / elems, "calls": calls[name] / elems}
                 for name in sorted(ops.keys() | calls.keys(),
                                    key=lambda n: (-ops[n], n))}
    return {"elements": elems,
            "ops": sum(ops.values()) / elems,
            "calls": sum(calls.values()) / elems,
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

    entsort, corpus = load(args.src)
    workloads = args.workload or list(corpus.WORKLOADS)
    unknown = sorted(set(workloads) - set(corpus.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    report = {"python": platform.python_version(),
              "src": str(args.src.resolve()),
              "workloads": {w: measure(entsort, corpus, w, args.limit)
                            for w in workloads}}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"CPython {report['python']}, entsort from {report['src']}")
    for w, r in report["workloads"].items():
        print(f"\n{w}: {r['elements']} elements, "
              f"{r['ops']:.1f} bytecodes and {r['calls']:.2f} calls "
              "per element")
        print(f"  {'function':<40}{'ops/elem':>10}{'calls/elem':>12}")
        for name, f in r["functions"].items():
            print(f"  {name:<40}{f['ops']:>10.1f}{f['calls']:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

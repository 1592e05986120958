#!/usr/bin/env python3
"""Paired in-process A/B of two `src/` trees: the time ratio new/base.

A companion to tools/opcount.py for wall time. Separate processes run at
different speeds on a shared machine, so two trees are compared inside one
process, on the same inputs, call by call. The script imports the
`entsort` package under --base and under --new as two distinct packages
(`entsort_base` and `entsort_new`). Their modules import each other only
by relative imports, so each copy keeps its own kernel, even where
`get_kernel` looks itself up in `sys.modules`.

For each chosen perfbench workload it sorts the eight seed-101 inputs
(`perfbench/corpus.py`, imported as is) with the call that perfbench times
(`sort0` at order 0, `sortk` above it):

- one untimed call per side and input first, whose permutation is the
  reference; every later call of either side must return it, or the
  script stops with exit status 1;
- then --rounds rounds. A round times one call per side on each input,
  base first in even rounds and new first in odd ones (ABBA), with
  `gc.collect()` before each call, outside the timed span. Each result is
  dropped before the next call, since freeing the last call's permutation
  inside the next timed span reads zipf-k0 about 3% apart on trees whose
  own calls take the same time.

Per workload it prints the median over rounds of new/base, the ratio of
the two sides' summed call times in a round, with its quartiles, the
number of rounds in which new was faster with the two-sided sign test's
p-value for that count (the chance of a split at least as uneven if
either side were as likely to win a round), and whether the two sides'
ledgers were identical. A ratio below 1 means new is faster.

The base is a `src/` directory (--base) or a revision of the repository
that holds this script (--base-rev), whose `src/` is exported with a
local `git archive` into a temporary directory; a revision that git does
not know, or whose tree has no `src/entsort`, exits with status 2. Usage:

    python tools/ab.py --base /tmp/parent/src --new src
    python tools/ab.py --base-rev HEAD~1 --new src --workload markov-k1
    python tools/ab.py --base src --new src --rounds 5 --limit 500 --json
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import io
import math
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101


def load(src: Path, name: str):
    """The entsort package under *src*, imported as package *name*."""
    init = src / "entsort" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no entsort package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def export(rev: str, into: Path) -> Path:
    """Extract the `src/` tree of revision *rev* of this repository under
    *into* with `git archive`, and return its path. Exits with status 2
    if git is missing, does not know *rev*, or finds no `src/entsort`
    package in its tree."""
    def refuse(why: str):
        print(f"error: --base-rev {rev}: {why}", file=sys.stderr)
        sys.exit(2)

    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True)
        except FileNotFoundError:
            refuse("git is not on PATH")

    if git("cat-file", "-e", f"{rev}:src/entsort/__init__.py").returncode:
        refuse("no src/entsort in that revision, or no such revision")
    archive = git("archive", "--format=tar", rev, "src")
    if archive.returncode:
        refuse(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def sign_p(wins: int, n: int) -> float:
    """Two-sided sign-test p-value of *wins* out of *n* rounds."""
    tail = sum(math.comb(n, i) for i in range(min(wins, n - wins) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def sorter(package, order: int):
    """perfbench's timed call for *order*, on *package*."""
    if order == 0:
        return package.sort0
    return lambda seq: package.sortk(seq, order)


def measure(sides: dict, spec, seqs: list, rounds: int) -> dict:
    """Time ratios and ledger agreement of one workload, or SystemExit if
    a call's permutation differs from the reference."""
    calls = {side: sorter(package, spec.order)
             for side, package in sides.items()}
    refs, ledgers = [], {side: [] for side in calls}
    for seq in seqs:
        for side, call in calls.items():
            out = call(seq)
            if side == "base":
                refs.append(out.permutation)
            elif out.permutation != refs[-1]:
                raise SystemExit(f"error: {spec.name}: the permutations "
                                 "of base and new differ")
            ledgers[side].append(dict(out.ledger.phase_counts))
    clock = time.perf_counter
    ratios = []
    for r in range(rounds):
        order = ("base", "new") if r % 2 == 0 else ("new", "base")
        spent = dict.fromkeys(order, 0.0)
        for seq, ref in zip(seqs, refs):
            for side in order:
                gc.collect()
                start = clock()
                out = calls[side](seq)
                spent[side] += clock() - start
                if out.permutation != ref:
                    raise SystemExit(f"error: {spec.name}: a {side} call's "
                                     "permutation differs from the reference")
                out = None
        ratios.append(spent["new"] / spent["base"])
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if rounds > 1 else ratios * 3)
    wins = sum(ratio < 1 for ratio in ratios)
    return {"elements": sum(len(seq) for seq in seqs),
            "rounds": rounds,
            "median": median,
            "q1": q1,
            "q3": q3,
            "new_faster": wins,
            "sign_p": sign_p(wins, rounds),
            "ledgers_identical": ledgers["base"] == ledgers["new"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", type=Path,
                      help="src/ directory of the base tree")
    base.add_argument("--base-rev", metavar="REV",
                      help="revision whose src/ is the base tree, "
                           "exported with git archive")
    parser.add_argument("--new", type=Path, required=True,
                        help="src/ directory of the new tree")
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed rounds per workload (default 20)")
    parser.add_argument("--workload", action="append",
                        help="perfbench workload (repeatable; default all)")
    parser.add_argument("--limit", type=int,
                        help="cut each sequence to its first N elements")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of lines")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be positive")

    sys.path.insert(0, str(ROOT / "perfbench"))
    corpus = importlib.import_module("corpus")
    workloads = args.workload or list(corpus.WORKLOADS)
    unknown = sorted(set(workloads) - set(corpus.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    with tempfile.TemporaryDirectory(prefix="ab-base-") as scratch:
        if args.base_rev is not None:
            base_src = export(args.base_rev, Path(scratch))
            base_name = args.base_rev
        else:
            base_src = args.base
            base_name = str(args.base.resolve())
        sides = {"base": load(base_src, "entsort_base"),
                 "new": load(args.new, "entsort_new")}
        report = {"python": platform.python_version(),
                  "base": base_name,
                  "new": str(args.new.resolve()),
                  "workloads": {}}
        for w in workloads:
            spec = corpus.WORKLOADS[w]
            seqs = [seq[:args.limit] for seq in corpus.corpus(spec, SEED)]
            report["workloads"][w] = measure(sides, spec, seqs, args.rounds)
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"CPython {report['python']}, new {report['new']} "
          f"against base {report['base']}")
    for w, r in report["workloads"].items():
        ledgers = ("identical" if r["ledgers_identical"] else "DIFFERENT")
        print(f"{w}: new/base {r['median']:.3f} "
              f"[{r['q1']:.3f}, {r['q3']:.3f}], new faster in "
              f"{r['new_faster']} of {r['rounds']} rounds "
              f"(sign test p = {r['sign_p']:.2g}); "
              f"ledgers {ledgers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

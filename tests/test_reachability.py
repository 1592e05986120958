"""Every function under src/entsort runs, or is listed with its reason.

The test runs `sortk` at orders 0-3 and every CLI subcommand in process,
records each code object called with `sys.setprofile`, and compares them
with every function compiled from the package's source files. A function
that none of these runs reaches must be on ALLOWED with a one-line reason:
public API that the CLI does not call, or a name that the benchmark in
`perfbench/` reads. Code that only tests call belongs in tests/ instead
(`oracles.py`, `corpora.py`). Functions are named by `co_qualname`
(CPython 3.11 and later).
"""

import inspect
import sys
from pathlib import Path

import entsort
from entsort import cli
from entsort.bench import KINDS, SourceSpec, generate
from entsort.sortk import sortk

PACKAGE = Path(entsort.__file__).parent  # as the code objects name it

# "module:qualname" -> why the function stays although no run reaches it.
# A nested function or comprehension is covered by its enclosing entry.
ALLOWED = {
    "sort0:sort0": "public API",
    "sort0:comparison_budget": "public API; perfbench/spans.py wraps it",
    "sortk:invert": "public API",
    "sortk:SortOutcome.inverse": "public API",
    "entropy:h0": "public API",
    "entropy:h_order": "public API; perfbench/run.py and spans.py read it",
    "entropy:context_sequences": "public API",
    "gamma:gamma_encode": "public API (the paper's B2 keys, criterion 8)",
    "gamma:gamma_decode": "public API (the paper's B2 keys, criterion 8)",
    "gamma:encode_tuple": "public API; perfbench/spans.py wraps it",
    "gamma:decode_all": "public API (the paper's B2 keys, criterion 8)",
    "kernel:available_kernels": "perfbench/run.py",
    "kernel:StatsTree.height": "perfbench/run.py",
    "kernel:StatsTree.handle_at": "perfbench/spans.py",
    "kernel:StatsTree.increment": "perfbench/spans.py",
    "kernel:StatsTree._check_pos": "handle_at and increment",
    "kernel:StatsTree._node_at": "handle_at",
    "kernel:StatsTree.__len__": "perfbench/run.py",
    "comparator:ComparisonLedger.binary_count":
        "public API (the ledger); perfbench/gate.py and run.py read it",
    "comparator:ComparisonLedger.count": "public API (the ledger)",
    "comparator:CountingComparator.binary_count":
        "public API (the ledger); perfbench/run.py reads it",
}

# Comprehensions at module level run at import, before any run is traced.
AT_IMPORT = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def defined_functions():
    """(module, qualname, first line) of every function, method, lambda
    and comprehension compiled from the package's files."""
    found = set()

    def visit(code, module):
        if (code.co_flags & inspect.CO_NEWLOCALS
                and code.co_qualname not in AT_IMPORT):
            found.add((module, code.co_qualname, code.co_firstlineno))
        for const in code.co_consts:
            if inspect.iscode(const):
                visit(const, module)

    for path in sorted(PACKAGE.glob("*.py")):
        top = compile(path.read_text(), str(path), "exec")
        visit(top, path.stem)
    return found


def run_everything(tmp_path):
    """Sort at orders 0-3 and run each CLI subcommand; return the code
    objects called, as (module, qualname, first line)."""
    called = set()
    root = str(PACKAGE) + "/"

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(root):
                called.add((Path(code.co_filename).stem, code.co_qualname,
                            code.co_firstlineno))

    seqs = [list("TORONTO"),
            generate(SourceSpec(kind="markov", n=6, m=300, seed=3)),
            generate(SourceSpec(kind="zipf", n=40, m=300, seed=4))]
    data = tmp_path / "in.txt"
    data.write_text("the quick brown fox jumps over the lazy dog\n")
    ints = tmp_path / "ints.txt"
    ints.write_text("3 1 4 1 5 9 2 6 5 3 5\n")
    out = str(tmp_path / "out")
    runs = [
        ["sort", str(data), "--check-bounds", "--baseline"],
        ["sort", str(data), "-l", "1", "--zero-based", "--mode", "chars"],
        ["sort", str(data), "-l", "2", "--sorted-output", "--mode",
         "tokens"],
        ["sort", str(data), "--format", "csv", "--mode", "chars"],
        ["sort", str(ints), "-l", "1", "--mode", "ints"],
        ["entropy", str(data), "-l", "2"],
        ["entropy", str(data), "-l", "1", "--format", "json"],
        ["entropy", str(data), "--format", "csv", "--mode", "chars"],
        ["bench", "--limit", "1", "--baseline", "--check-bounds"],
        ["bench", "--limit", "1", "--format", "csv"],
    ] + [["gen", "--kind", kind, "-m", "50", "--n", "5", "--mode", mode]
         for kind in KINDS for mode in cli.MODES] + [
        ["gen", "--kind", "periodic", "-m", "50", "--pattern", "3 1 2",
         "--mode", mode] for mode in cli.MODES]
    sys.setprofile(profile)
    try:
        for seq in seqs:
            for order in range(4):
                sortk(seq, order)
        codes = [cli.main(argv + ["--out", out]) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return called


def test_every_package_function_runs_or_is_listed(tmp_path):
    defined = defined_functions()
    called = run_everything(tmp_path)

    def allowed(module, qualname):
        parts = qualname.split(".<locals>.")
        return any(f"{module}:{'.<locals>.'.join(parts[:i])}" in ALLOWED
                   for i in range(1, len(parts) + 1))

    unreached = sorted(f"{m}:{q} (line {line})"
                       for (m, q, line) in defined
                       if (m, q, line) not in called and not allowed(m, q))
    assert not unreached, "not reached:\n" + "\n".join(unreached)
    # An entry that a run reaches, or that names no function, is stale.
    names = {(m, q) for (m, q, _) in defined}
    reached = {(m, q) for (m, q, _) in called}
    stale = sorted(key for key in ALLOWED
                   if tuple(key.split(":")) not in names - reached)
    assert not stale, "stale ALLOWED entries: " + ", ".join(stale)

"""Command-line surface: sort sequences, compute entropy, run benchmarks.

Exit codes: 0 on success, 1 when --check-bounds finds a violated bound,
2 on bad flags, unreadable input, an --order above the input length m or
an allocation that fails (MemoryError).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from . import bench, entropy

MODES = ("bytes", "chars", "tokens", "ints")


def _read_raw(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def parse_elements(data: bytes, mode: str) -> list:
    """The elements that *data* holds in input mode *mode*."""
    if mode == "bytes":
        return list(data)
    text = data.decode("utf-8")
    if mode == "chars":
        return list(text)
    if mode == "tokens":
        return text.split()
    return [int(tok) for tok in text.split()]


def read_elements(path: str, mode: str) -> list:
    """The elements of the file *path* ("-": stdin); ValueError if none."""
    seq = parse_elements(_read_raw(path), mode)
    if mode == "chars" and seq[-1:] == ["\n"]:
        # One trailing newline is a file convention, not an element.
        seq.pop()
    if not seq:
        raise ValueError("empty input")
    return seq


def _encode_symbols(seq: Sequence, mode: str) -> bytes:
    """Serialize a sequence of elements in the given input mode."""
    if mode == "bytes":
        return bytes(int(s) for s in seq)
    if mode == "chars":
        text = "".join(s if isinstance(s, str) else chr(0x61 + int(s))
                       for s in seq)
        # read_elements strips one final newline, so a last "\n" gets two.
        return (text + "\n" if text.endswith("\n") else text).encode("utf-8")
    return " ".join(str(s) for s in seq).encode("utf-8")


def _write_out(payload: bytes, out: Optional[str],
               binary: bool = False) -> None:
    """Write *payload* to the file *out*, or to stdout for None or "-".
    On stdout a text payload ends in a newline, added if it lacks one; a
    *binary* payload (a sequence in `bytes` mode) is written unchanged,
    since a newline there would read back as one more element."""
    if out in (None, "-"):
        sys.stdout.buffer.write(payload)
        if not binary and not payload.endswith(b"\n"):
            sys.stdout.buffer.write(b"\n")
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


def _emit(record: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _write_out(json.dumps(record).encode("utf-8"), out)
        return
    flat = dict(record)
    flat["entropy"] = ";".join(f"{x:.12g}" for x in record.get("entropy", []))
    for k, v in list(flat.items()):
        if isinstance(v, dict):
            flat.pop(k)
            for kk, vv in v.items():
                flat[f"{k}_{kk}"] = vv
        elif isinstance(v, list):
            flat[k] = ";".join(str(x) for x in v)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat))
    writer.writeheader()
    writer.writerow(flat)
    _write_out(buf.getvalue().encode("utf-8"), out)


def _bounds_ok(report: dict) -> bool:
    """The --check-bounds verdict on one sort report."""
    counts = report["comparisons"]
    return (report["sorted_ok"] and report["stable"]
            and counts["total"] <= report["budget_lemma1"]
            and counts["search"] + counts["verify"]
            <= report["budget_per_context"])


def _cmd_sort(args) -> int:
    if args.sorted_output and (args.zero_based or args.baseline
                               or args.format == "csv"):
        print("error: --sorted-output writes no report, so it takes no "
              "--zero-based, --baseline or --format csv", file=sys.stderr)
        return 2
    seq = read_elements(args.file, args.mode)
    report, outcome = bench.sort_report(seq, args.order, args.baseline)
    if args.sorted_output:
        _write_out(_encode_symbols(outcome.sorted_values(seq), args.mode),
                   args.out, binary=args.mode == "bytes")
    else:
        if args.zero_based:
            report["permutation"] = [p - 1 for p in outcome.permutation]
        else:
            report["permutation"] = outcome.permutation
        _emit(report, args.format, args.out)
    if args.check_bounds and not _bounds_ok(report):
        print("bound violation detected", file=sys.stderr)
        return 1
    return 0


def _cmd_entropy(args) -> int:
    seq = read_elements(args.file, args.mode)
    prof = entropy.profile(seq, args.order)
    if args.format == "plain":
        _write_out("\n".join(f"{v:.10g}" for v in prof.h).encode(), args.out)
    else:
        _emit({"m": prof.m, "n": prof.n, "entropy": prof.h}, args.format,
              args.out)
    return 0


def _cmd_gen(args) -> int:
    pattern: tuple = ()
    if args.pattern is not None:
        pattern = tuple(parse_elements(args.pattern.encode("utf-8"),
                                       args.mode))
        if not pattern:
            raise ValueError(f"--pattern {args.pattern!r} names no element")
    n = args.n if not pattern else len(set(pattern))
    spec = bench.SourceSpec(kind=args.kind, n=n, m=args.length,
                            order=args.markov_order, skew=args.skew,
                            noise=args.noise, seed=args.seed,
                            pattern=pattern)
    seq = bench.generate(spec)
    _write_out(_encode_symbols(seq, args.mode), args.out,
               binary=args.mode == "bytes")
    return 0


def _cmd_bench(args) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit {args.limit} is negative")
    specs = bench.default_suite(args.seed)
    if args.limit:
        specs = specs[:args.limit]
    orders = [int(x) for x in args.orders.split(",") if x != ""]
    if not orders:
        raise ValueError(f"--orders {args.orders!r} names no order")
    rows = []
    failed = False
    for spec in specs:
        for order in orders:
            row = bench.run_spec(spec, order, args.baseline)
            rows.append(row)
            if not _bounds_ok(row):
                failed = True
    payload = "\n".join(json.dumps(r) for r in rows).encode()
    if args.format == "csv":
        buf = io.StringIO()
        flat_rows = []
        for r in rows:
            flat = {k: v for k, v in r.items()
                    if not isinstance(v, (dict, list))}
            flat.update({f"comparisons_{k}": v
                         for k, v in r["comparisons"].items()})
            flat["entropy"] = ";".join(f"{x:.12g}" for x in r["entropy"])
            flat["kind"] = r["spec"]["kind"]
            flat_rows.append(flat)
        writer = csv.DictWriter(buf, fieldnames=list(flat_rows[0]))
        writer.writeheader()
        writer.writerows(flat_rows)
        payload = buf.getvalue().encode()
    _write_out(payload, args.out)
    if args.check_bounds and failed:
        print("bound violation detected", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entsort",
        description="Entropy-adaptive sorting with exact comparison counts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort a sequence and report counts")
    p_sort.add_argument("file", nargs="?", default="-",
                        help="input file (default: stdin)")
    p_sort.add_argument("--order", "-l", type=int, default=0,
                        help="context length (default 0)")
    p_sort.add_argument("--mode", choices=MODES, default="bytes")
    p_sort.add_argument("--format", choices=("json", "csv"), default="json")
    p_sort.add_argument("--out", default=None, help="output path")
    p_sort.add_argument("--check-bounds", action="store_true",
                        help="exit 1 if any asserted bound fails")
    p_sort.add_argument("--baseline", action="store_true",
                        help="include merge-sort baseline counts")
    p_sort.add_argument("--zero-based", action="store_true",
                        help="emit the permutation 0-based")
    p_sort.add_argument("--sorted-output", action="store_true",
                        help="write the sorted sequence instead of a report")

    p_ent = sub.add_parser("entropy", help="print entropy at orders 0..L")
    p_ent.add_argument("file", nargs="?", default="-",
                       help="input file (default: stdin)")
    p_ent.add_argument("--order", "-l", type=int, default=0,
                       help="highest order to report (default 0)")
    p_ent.add_argument("--mode", choices=MODES, default="bytes")
    p_ent.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
    p_ent.add_argument("--out", default=None, help="output path")

    p_gen = sub.add_parser("gen", help="write a synthetic corpus")
    p_gen.add_argument("--kind", choices=bench.KINDS, required=True)
    p_gen.add_argument("--length", "-m", type=int, required=True)
    p_gen.add_argument("--n", type=int, default=256)
    p_gen.add_argument("--pattern", default=None,
                       help="periodic cycle (overrides --n)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--skew", type=float, default=1.0)
    p_gen.add_argument("--markov-order", type=int, default=1)
    p_gen.add_argument("--noise", type=float, default=0.02)
    p_gen.add_argument("--mode", choices=MODES, default="bytes")
    p_gen.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="run the benchmark suite")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--orders", default="0,1")
    p_bench.add_argument("--limit", type=int, default=0,
                         help="run only the first N specs (0: all)")
    p_bench.add_argument("--baseline", action="store_true")
    p_bench.add_argument("--check-bounds", action="store_true")
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
    p_bench.add_argument("--out", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sort":
            return _cmd_sort(args)
        if args.command == "entropy":
            return _cmd_entropy(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except (ValueError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input or the requested output is "
              "too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import io
import json
import os
import random
import sys

import pytest

from conftest import run_capped
import entsort.cli as cli
from entsort.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_toronto(tmp_path, capsys):
    f = tmp_path / "toronto.txt"
    f.write_text("TORONTO")
    code, out, _ = run_cli(capsys, "entropy", str(f), "--mode", "chars",
                           "-l", "2")
    assert code == 0
    values = [float(x) for x in out.split()]
    assert values[0] == pytest.approx(1.84237099, abs=1e-6)
    assert values[1] == pytest.approx(2 / 7, abs=1e-9)
    assert values[2] == 0.0


def test_entropy_json_format(tmp_path, capsys):
    f = tmp_path / "toronto.txt"
    f.write_text("TORONTO")
    code, out, _ = run_cli(capsys, "entropy", str(f), "--mode", "chars",
                           "-l", "1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["m"] == 7 and rec["n"] == 4
    assert len(rec["entropy"]) == 2


def test_sort_report_and_bounds(tmp_path, capsys):
    f = tmp_path / "data.bin"
    f.write_bytes(bytes([5, 1, 5, 3, 1, 1, 200, 0]))
    code, out, _ = run_cli(capsys, "sort", str(f), "-l", "0",
                           "--check-bounds", "--baseline")
    assert code == 0
    rec = json.loads(out)
    for field in ("m", "n", "order", "entropy", "comparisons",
                  "budget_lemma1", "budget_per_context", "wall_ms",
                  "stable", "sorted_ok", "permutation"):
        assert field in rec
    assert rec["schema"] == 1
    assert rec["kernel"] == "python"
    assert rec["stable"] and rec["sorted_ok"]
    assert rec["comparisons"]["total"] <= rec["budget_lemma1"]
    assert set(rec["comparisons"]) == {"search", "verify", "b1", "merge",
                                       "total"}
    assert rec["baseline"] > 0
    assert sorted(rec["permutation"]) == list(range(1, 9))


def test_sort_zero_based(tmp_path, capsys):
    f = tmp_path / "d.bin"
    f.write_bytes(b"cab")
    code, out, _ = run_cli(capsys, "sort", str(f), "--zero-based")
    rec = json.loads(out)
    assert code == 0
    assert rec["permutation"] == [1, 2, 0]


def test_sort_sorted_output(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("TORONTO")
    code, out, _ = run_cli(capsys, "sort", str(f), "--mode", "chars",
                           "-l", "1", "--sorted-output")
    assert code == 0
    assert out.strip() == "NOOORTT"


@pytest.mark.parametrize("option", [["--zero-based"], ["--baseline"],
                                    ["--format", "csv"]])
def test_sort_sorted_output_refuses_report_options(tmp_path, capsys,
                                                   monkeypatch, option):
    """--sorted-output writes no report, so an option that shapes the
    report exits 2 with one error line, before anything is sorted;
    --check-bounds still applies."""
    f = tmp_path / "t.txt"
    f.write_text("TORONTO")
    monkeypatch.setattr(cli.bench, "sort_report", None)
    code, out, err = run_cli(capsys, "sort", str(f), "--mode", "chars",
                             "--sorted-output", *option)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "sort", str(f), "--mode", "chars",
                           "--sorted-output", "--check-bounds")
    assert code == 0 and out.strip() == "NOOORTT"


def test_sort_orders_agree(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("TORONTO")
    perms = []
    for order in ("0", "1", "2"):
        code, out, _ = run_cli(capsys, "sort", str(f), "--mode", "chars",
                               "-l", order)
        assert code == 0
        perms.append(json.loads(out)["permutation"])
    assert perms[0] == perms[1] == perms[2] == [5, 2, 4, 7, 3, 1, 6]


def test_sort_csv_format(tmp_path, capsys):
    f = tmp_path / "d.bin"
    f.write_bytes(b"hello world")
    code, out, _ = run_cli(capsys, "sort", str(f), "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert "comparisons_total" in header
    assert len(header.split(",")) == len(row.split(","))


def test_gen_periodic_pattern(tmp_path, capsys):
    out_file = tmp_path / "p.txt"
    code, _, _ = run_cli(capsys, "gen", "--kind", "periodic", "--pattern",
                         "abc", "--length", "9", "--mode", "chars",
                         "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "abcabcabc"


def test_gen_then_sort_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "c.bin"
    code, _, _ = run_cli(capsys, "gen", "--kind", "markov", "--n", "16",
                         "--length", "2000", "--seed", "11",
                         "--out", str(corpus))
    assert code == 0
    assert corpus.stat().st_size == 2000
    code, out, _ = run_cli(capsys, "sort", str(corpus), "-l", "1",
                           "--check-bounds")
    assert code == 0
    rec = json.loads(out)
    assert rec["sorted_ok"] and rec["stable"]


def test_gen_ints_mode(tmp_path, capsys):
    f = tmp_path / "ints.txt"
    code, _, _ = run_cli(capsys, "gen", "--kind", "uniform", "--n", "1000",
                         "--length", "50", "--mode", "ints",
                         "--out", str(f))
    assert code == 0
    values = [int(t) for t in f.read_text().split()]
    assert len(values) == 50
    code, out, _ = run_cli(capsys, "sort", str(f), "--mode", "ints")
    assert code == 0
    assert json.loads(out)["m"] == 50


@pytest.mark.parametrize("mode", cli.MODES)
def test_gen_stdout_matches_out_file(tmp_path, capsysbinary, monkeypatch,
                                     mode):
    """`gen` to stdout, read back from stdin, gives the same m and
    permutation as `gen --out` read back from the file, and m is the
    --length asked for; so does `sort --sorted-output --out`. In bytes mode
    the two payloads are the same bytes: stdout gets no newline, which
    would read back as one more element. In chars mode a last "\\n"
    element survives both ways, though a reader strips one final
    newline."""
    cases = [(["--kind", "zipf", "--length", "10", "--seed", "3"], 10)]
    if mode == "chars":
        cases.append((["--kind", "periodic", "--pattern", "a\n",
                       "--length", "4"], 4))
    f, g = tmp_path / "g", tmp_path / "sorted"
    for args, m in cases:
        gen = ["gen", *args, "--mode", mode]
        assert main(gen + ["--out", str(f)]) == 0
        assert main(gen) == 0
        piped = capsysbinary.readouterr().out
        if mode == "bytes":
            assert piped == f.read_bytes()
        assert main(["sort", str(f), "--mode", mode, "--sorted-output",
                     "--out", str(g)]) == 0
        reports = []
        for path, stdin in ((str(f), b""), ("-", piped), (str(g), b"")):
            monkeypatch.setattr(sys, "stdin",
                                io.TextIOWrapper(io.BytesIO(stdin)))
            assert main(["sort", path, "--mode", mode]) == 0
            reports.append(json.loads(capsysbinary.readouterr().out))
        assert [r["m"] for r in reports] == [m] * 3, args
        assert reports[0]["permutation"] == reports[1]["permutation"]


def test_long_repeated_context_capped(tmp_path):
    """`a^1000 b a^1000` keeps a nonzero H_k up to order 999, and the
    context a^1000 occurs once. `entropy` and `sort` at order 2000 list all
    2,001 orders within 15 s and 1 GiB: one pass per order, with no
    context table of k-tuples rebuilt at each order."""
    f = tmp_path / "aba.txt"
    f.write_bytes(b"a" * 1000 + b"b" + b"a" * 1000)
    for command in ("entropy", "sort"):
        run = run_capped("-m", "entsort.cli", command, str(f), "--order",
                         "2000", "--format", "json", timeout=15,
                         limit=1 << 30)
        assert run.returncode == 0, run.stderr
        h = json.loads(run.stdout)["entropy"]
        assert len(h) == 2001, command
        assert all(x > 0.0 for x in h[1:1000]), command
        assert all(x == 0.0 for x in h[1000:]), command


@pytest.mark.parametrize("mode,pattern", [
    ("bytes", ""), ("chars", ""), ("tokens", " "), ("ints", " \t ")])
def test_gen_empty_pattern_exit_2(mode, pattern):
    """A --pattern that names no element is a usage error: exit 2 with a
    one-line message and no output, not the default cycle 0..n-1."""
    run = run_capped("-m", "entsort.cli", "gen", "--kind", "periodic",
                     "--length", "5", "--mode", mode, "--pattern", pattern)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert run.stderr == f"error: --pattern {pattern!r} names no element\n"


def test_out_of_memory_exit_2():
    """An allocation that fails is reported, not raised: under a 256 MiB
    address-space cap, a ten-billion-element corpus ends in one `error:`
    line and exit 2, with no traceback and no output."""
    run = run_capped("-m", "entsort.cli", "gen", "--kind", "periodic",
                     "--n", "3", "--length", "10000000000", "--out",
                     os.devnull, limit=1 << 28)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr
    assert "Traceback" not in run.stderr


def test_gen_nan_skew_exit_2():
    """--skew nan is a usage error: exit 2 with a one-line message and no
    output. --skew inf, the limit of the distribution, is accepted."""
    argv = ("-m", "entsort.cli", "gen", "--kind", "zipf", "--length", "10",
            "--skew")
    run = run_capped(*argv, "nan")
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert run.stderr == "error: zipf skew must be positive\n"
    run = run_capped(*argv, "inf")
    assert run.returncode == 0, run.stderr
    assert len(run.stdout) == 10


def test_gen_markov_order_past_64_exit_2(tmp_path, capsys):
    """--markov-order above 64 is a usage error: exit 2 with a one-line
    message and no output, before the generator keeps a k-tuple per state
    (at order 40000 and m = 80000 that would take about 13 GB). Order 64
    is generated."""
    for k in ("65", "40000"):
        code, out, err = run_cli(capsys, "gen", "--kind", "markov",
                                 "--markov-order", k, "--length", "80000")
        assert code == 2 and out == ""
        assert err == "error: markov order must be in 1..64\n"
    path = tmp_path / "markov.txt"
    code, _, err = run_cli(capsys, "gen", "--kind", "markov",
                           "--markov-order", "64", "--length", "200",
                           "--out", str(path))
    assert code == 0, err
    assert len(path.read_bytes()) == 200


def test_tokens_mode(tmp_path, capsys):
    f = tmp_path / "words.txt"
    f.write_text("pear apple pear fig")
    code, out, _ = run_cli(capsys, "sort", str(f), "--mode", "tokens",
                           "--sorted-output")
    assert code == 0
    assert out.split() == ["apple", "fig", "pear", "pear"]


def test_bench_jsonl(capsys):
    code, out, _ = run_cli(capsys, "bench", "--limit", "2", "--orders",
                           "0,1", "--check-bounds")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4  # 2 specs x 2 orders
    for row in rows:
        assert row["sorted_ok"] and row["stable"]
        assert row["comparisons"]["total"] <= row["budget_lemma1"]


def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--limit", "1", "--orders", "0",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "comparisons_total" in lines[0]


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sort", "--mode", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2


def test_bad_data_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("not-an-int 12")
    code, _, err = run_cli(capsys, "sort", str(f), "--mode", "ints")
    assert code == 2
    code, _, err = run_cli(capsys, "entropy", str(tmp_path / "missing"))
    assert code == 2


def test_empty_input_exit_2(tmp_path, capsys):
    f = tmp_path / "empty"
    f.write_bytes(b"")
    code, _, _ = run_cli(capsys, "sort", str(f))
    assert code == 2


def test_check_bounds_violation_exit_1(tmp_path, capsys, monkeypatch):
    # Bounds hold on every real input, so force the checker to fail to
    # exercise the exit path.
    monkeypatch.setattr(cli, "_bounds_ok", lambda report: False)
    f = tmp_path / "d.bin"
    f.write_bytes(b"data")
    code, _, err = run_cli(capsys, "sort", str(f), "--check-bounds")
    assert code == 1
    assert "violation" in err
    code, _, _ = run_cli(capsys, "sort", str(f))  # without the flag: fine
    assert code == 0


def test_bench_check_bounds_violation_exit_1(capsys, monkeypatch):
    # bench applies the same check as sort, search+verify against the
    # per-context budget included.
    args = ("bench", "--limit", "1", "--orders", "1")
    code, out, _ = run_cli(capsys, *args, "--check-bounds")
    assert code == 0
    row = json.loads(out)
    assert cli._bounds_ok(row)
    row["comparisons"]["search"] = row["budget_per_context"] + 1
    assert not cli._bounds_ok(row)
    monkeypatch.setattr(cli, "_bounds_ok", lambda report: False)
    code, _, err = run_cli(capsys, *args, "--check-bounds")
    assert code == 1
    assert "violation" in err
    code, _, _ = run_cli(capsys, *args)  # without the flag: fine
    assert code == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bench_no_orders_exit_2(fmt):
    """An --orders list that names no order is a usage error in both
    formats: exit 2 with a one-line message, no traceback, no rows."""
    run = run_capped("-m", "entsort.cli", "bench", "--limit", "1",
                     "--orders", ",", "--format", fmt)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [run.stderr.strip()]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bench_negative_limit_exit_2(fmt):
    """A negative --limit is a usage error in both formats: exit 2 with a
    one-line message, no traceback, no rows, and no spec run."""
    for limit in ("-1", "-24"):
        run = run_capped("-m", "entsort.cli", "bench", "--limit", limit,
                         "--format", fmt)
        assert run.returncode == 2, run.stderr
        assert run.stdout == ""
        assert run.stderr == f"error: --limit {limit} is negative\n"


@pytest.mark.parametrize("command,option", [("sort", "kernel"),
                                            ("bench", "kernels")])
def test_kernel_options_removed_exit_2(capsys, command, option):
    # There is one kernel, so there is nothing to select: the old options
    # are unknown flags, a usage error rather than a traceback.
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{option}", "c"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


HUGE = str(10 ** 20)


@pytest.mark.parametrize("argv,m", [
    (("sort", "{f}", "--order", "1000"), 7),
    (("sort", "{f}", "--order", HUGE), 7),
    (("entropy", "{f}", "--order", "1000"), 7),
    (("entropy", "{f}", "--order", HUGE), 7),
    (("bench", "--limit", "1", "--orders", HUGE), 1000),
], ids=["sort-1000", "sort-huge", "entropy-1000", "entropy-huge",
        "bench-huge"])
def test_order_above_m_exit_2(tmp_path, argv, m):
    """An order above the input length m is a usage error: exit 2 with a
    one-line message that names m, and no traceback. Each run is a capped
    subprocess, so that an order-sized table or a hang fails cleanly."""
    f = tmp_path / "seven.bin"
    f.write_bytes(b"abracad")  # 7 bytes, 5 distinct
    run = run_capped("-m", "entsort.cli", *(a.format(f=f) for a in argv))
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert f"m = {m}" in run.stderr


def test_order_up_to_m(tmp_path, capsys):
    """Orders up to m still sort and report, at m itself included."""
    f = tmp_path / "seven.bin"
    f.write_bytes(b"abracad")
    code, out, _ = run_cli(capsys, "sort", str(f), "--order", "7",
                           "--check-bounds")
    assert code == 0
    entropies = json.loads(out)["entropy"]
    assert len(entropies) == 8 and entropies[-1] == 0.0
    code, out, _ = run_cli(capsys, "entropy", str(f), "--order", "7")
    assert code == 0
    assert [float(x) for x in out.split()] == pytest.approx(entropies)


@pytest.mark.parametrize("command", ["sort", "entropy"])
def test_order_m_on_random_bytes(tmp_path, command):
    """Order m on 2,000 random bytes exits 0 within 60 s under a 1 GiB
    cap. H_4 is already exactly 0.0 there, so the entropies of the orders
    above it are filled in, not computed from order-k context tables."""
    f = tmp_path / "random.bin"
    f.write_bytes(random.Random(2000).randbytes(2000))
    run = run_capped("-m", "entsort.cli", command, str(f), "--order", "2000",
                     "--format", "json")
    assert run.returncode == 0, run.stderr
    entropies = json.loads(run.stdout)["entropy"]
    assert len(entropies) == 2001
    assert entropies[3] > 0.0 and entropies[4:] == [0.0] * 1997

"""The test suite's own settings, run on a scratch test file."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    """A failing Hypothesis test is one failure, and the tests after it
    still run. With warnings as errors, the deprecation warning that the
    Hypothesis plugin raises when it writes a failing-example patch would
    end the run in an internal error (exit 3) with no falsifying example
    shown."""
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 10


        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout


OPCOUNT = os.path.join(os.path.dirname(PYPROJECT), "tools", "opcount.py")


def test_opcount_is_deterministic():
    """tools/opcount.py gives the same bytecode and call counts, function
    by function, under two hash seeds, each workload's totals are the sums
    of its per-function rows, and its peak memory per element is
    positive, with the budget pass's own peak above 0 and at most the
    whole call's."""
    reports = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, OPCOUNT, "--limit", "100", "--json"], env=env,
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        reports.append(json.loads(run.stdout))
    assert reports[0] == reports[1]
    workloads = reports[0]["workloads"]
    assert set(workloads) == {"zipf-k0", "markov-k1", "bigalpha-k1"}
    for report in workloads.values():
        assert report["elements"] == 200
        functions = report["functions"].values()
        assert report["ops"] == pytest.approx(sum(f["ops"] for f in functions))
        assert report["calls"] == pytest.approx(
            sum(f["calls"] for f in functions))
        assert report["functions"]["kernel.StatsTree.descend"]["calls"] > 0
        assert report["peak_bytes_per_elem"] > 0
        assert (0 < report["budget_peak_bytes_per_elem"]
                <= report["peak_bytes_per_elem"])

"""The test suite's own settings, run on a scratch test file, and the
scripts under tools/."""

import json
import os
import shutil
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
        assert report["functions"]["kernel.StatsTree.scan"]["calls"] > 0
        assert report["peak_bytes_per_elem"] > 0
        assert (0 < report["budget_peak_bytes_per_elem"]
                <= report["peak_bytes_per_elem"])


AB = os.path.join(os.path.dirname(PYPROJECT), "tools", "ab.py")
SRC = os.path.join(os.path.dirname(PYPROJECT), "src")


def test_ab_runs_one_tree_against_itself(tmp_path):
    """tools/ab.py with the same src/ tree on both sides and cut inputs
    reports, per workload, identical ledgers and a median time ratio
    between its quartiles; a side whose permutations differ stops it with
    exit status 1 and an error line."""
    argv = [sys.executable, AB, "--rounds", "2", "--limit", "200", "--json",
            "--base", SRC]
    run = subprocess.run(argv + ["--new", SRC], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    workloads = json.loads(run.stdout)["workloads"]
    assert set(workloads) == {"zipf-k0", "markov-k1", "bigalpha-k1"}
    for report in workloads.values():
        assert report["elements"] == 8 * 200 and report["rounds"] == 2
        assert report["ledgers_identical"]
        assert 0 < report["q1"] <= report["median"] <= report["q3"]
        assert 0 <= report["new_faster"] <= 2
    broken = tmp_path / "src"
    shutil.copytree(SRC, broken,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(broken / "entsort" / "__init__.py", "a") as init:
        init.write(textwrap.dedent("""
            _sortk = sortk


            def sortk(seq, order=0, **kwargs):
                out = _sortk(seq, order, **kwargs)
                out.permutation.reverse()
                return out


            def sort0(seq, **kwargs):
                return sortk(seq, 0, **kwargs)
        """))
    run = subprocess.run(argv + ["--new", str(broken)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 1
    assert run.stderr.startswith("error: zipf-k0: the permutations")


def test_ab_adds_the_opcount_of_each_side():
    """tools/ab.py --opcount runs tools/opcount.py on each side: one tree
    against itself reads the same bytecodes and Python calls per element
    on both sides, a difference of 0, on every workload."""
    run = subprocess.run(
        [sys.executable, AB, "--rounds", "1", "--limit", "100", "--json",
         "--opcount", "--base", SRC, "--new", SRC],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    workloads = json.loads(run.stdout)["workloads"]
    assert set(workloads) == {"zipf-k0", "markov-k1", "bigalpha-k1"}
    for report in workloads.values():
        for metric in ("ops", "calls"):
            counts = report[metric]
            assert counts["base"] == counts["new"] > 0
            assert counts["delta"] == 0


@pytest.mark.skipif(shutil.which("git") is None, reason="git not on PATH")
def test_ab_exports_the_base_from_a_revision(tmp_path):
    """tools/ab.py --base-rev REV takes the base tree from REV's src/ with
    `git archive`, in a throwaway repository that holds a copy of the
    script, of the perfbench corpus it imports and of src/. It reports
    the revision as the base and a sign-test p-value beside the rounds
    won; a revision with no src/entsort, or none at all, exits 2."""
    repo = tmp_path / "repo"
    root = os.path.dirname(PYPROJECT)
    for part in ("tools/ab.py", "perfbench/corpus.py"):
        os.makedirs(repo / os.path.dirname(part), exist_ok=True)
        shutil.copy(os.path.join(root, part), repo / part)
    env = dict(os.environ, HOME=str(tmp_path), GIT_CONFIG_NOSYSTEM="1")

    def git(*args):
        run = subprocess.run(
            ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "tools only")
    shutil.copytree(SRC, repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git("add", "-A")
    git("commit", "-q", "-m", "the package")
    argv = [sys.executable, str(repo / "tools" / "ab.py"), "--rounds", "2",
            "--limit", "100", "--workload", "markov-k1", "--json",
            "--new", str(repo / "src")]
    run = subprocess.run(argv + ["--base-rev", "HEAD"], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["base"] == "HEAD"
    result = report["workloads"]["markov-k1"]
    assert result["ledgers_identical"] and result["rounds"] == 2
    # Two rounds: a 1-1 split has p = 1, a 2-0 split p = 2 * 1/4.
    assert result["sign_p"] == (1.0 if result["new_faster"] == 1 else 0.5)
    for rev in ("HEAD~1", "no-such-rev"):
        run = subprocess.run(argv + ["--base-rev", rev], capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 2, (rev, run.stderr)
        assert run.stderr.startswith(f"error: --base-rev {rev}: no src/")

"""The test suite's own settings, run on a scratch test file."""

import os
import subprocess
import sys
import textwrap

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

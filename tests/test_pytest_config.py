"""The suite's pytest settings let a failing test fail alone: a falsified
hypothesis test is reported with its example, and the tests after it run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_passes():
    pass


def test_fails():
    assert False
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """With every warning an error, hypothesis's failure report still ends
    in an ordinary failure (exit code 1), not an internal error (exit code
    3) that skips every later test."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout

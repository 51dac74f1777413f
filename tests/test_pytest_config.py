"""The test configuration: ``pyproject.toml``'s warning filters turn
deprecations into errors, yet a failing Hypothesis test still reports its
falsifying example instead of crashing pytest."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n is None
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr

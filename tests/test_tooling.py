"""Test tooling: the project's pytest settings report every failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # Reporting a falsifying example imports a third-party module that
    # warns; with every warning an error, that must not end the session.
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = child.stdout + child.stderr
    assert child.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out

"""The suite's own pytest configuration: a failing test reports itself under ``pyproject.toml``'s warning filters."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # hypothesis imports a deprecated name while it writes the report; "error" alone made that an INTERNALERROR
    (tmp_path / "test_tiny.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "Falsifying example: test_fails(" in report
    assert "INTERNALERROR" not in report

"""The pytest configuration in pyproject.toml lets a whole session run.

With ``filterwarnings = ["error"]``, a DeprecationWarning raised inside a
plugin hook ends the session with INTERNALERROR.  Hypothesis's report of a
failing example imports libcst, which imports ``mypy_extensions.TypedDict``
and warns; so one failing property test used to stop every later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         str(tmp_path / "test_pair.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out

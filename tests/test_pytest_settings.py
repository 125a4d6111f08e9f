"""The repository's pytest settings report a failing property test.

``filterwarnings`` turns every warning into an error.  When an ``@given``
test fails, hypothesis's report imports libcst, whose import warns that
``mypy_extensions.TypedDict`` is deprecated; as an error that warning would
end the session with INTERNALERROR before the later tests run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_drawn.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-v", "test_drawn.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "test_drawn.py::test_runs_after PASSED" in out
    assert "1 failed, 1 passed" in out

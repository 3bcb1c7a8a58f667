"""The test settings of ``pyproject.toml``: under them, a failing property
test is reported as a failure, by name, and the run goes on."""

import os
from pathlib import Path

from .helpers import fresh_python

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_deliberately_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_named(tmp_path):
    # On a failure hypothesis's pytest plugin imports its patch writer,
    # whose third-party imports may warn.  Under filterwarnings = "error"
    # alone such a warning ended the run in an INTERNALERROR, exit 3, that
    # named no test and ran no later one.
    path = tmp_path / "test_child.py"
    path.write_text(_FAILING)
    env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / "hypothesis"))
    proc = fresh_python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(_PYPROJECT), str(path), env=env
    )
    out = proc.stdout.decode()
    assert proc.returncode == 1, out + proc.stderr.decode()
    assert "FAILED" in out and "test_deliberately_fails" in out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out + proc.stderr.decode()

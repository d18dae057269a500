"""The repository's pytest settings, run on small suites of their own in a
subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''

OTHER_DEPRECATION = '''
import warnings


def test_warns():
    warnings.warn("this call is deprecated", DeprecationWarning)
'''


def _run_suite(tmp_path, source):
    (tmp_path / "test_suite.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's failure report may import a module whose import warns;
    # as an error that ends the run with INTERNALERROR (exit 3), and the
    # tests after the property never run
    run = _run_suite(tmp_path, FAILING_PROPERTY)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_other_deprecations_still_fail(tmp_path):
    run = _run_suite(tmp_path, OTHER_DEPRECATION)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout

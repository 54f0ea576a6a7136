"""Smoke tests: every shipped example must run to completion.

The examples are the library's living documentation; this file keeps them
from rotting.  Each runs as a subprocess (so import-time problems count as
failures too) with a generous timeout; the slower ones are marked so a
quick `-m "not slow"` run skips them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST = [
    "quickstart.py",
    "shape_matching.py",
    "numerical_stability.py",
]
SLOW = [
    "parallel_scaling.py",
    "discover_algorithm.py",
    "composed_54.py",
]


def _run(script, *args, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{proc.stdout[-2000:]}\n"
        f"--- stderr ---\n{proc.stderr[-2000:]}"
    )
    return proc.stdout


@pytest.mark.parametrize("script", FAST)
def test_fast_examples_run(script):
    out = _run(script)
    assert out.strip(), f"{script} printed nothing"


@pytest.mark.slow
@pytest.mark.parametrize("script", SLOW)
def test_slow_examples_run(script):
    out = _run(script)
    assert out.strip(), f"{script} printed nothing"


def test_fast_factorizations_with_small_size():
    # accepts the problem size on argv — keep the suite quick
    out = _run("fast_factorizations.py", "384")
    assert "blocked LU and Cholesky" in out
    assert "Newton-Schulz" in out


def test_quickstart_reports_correctness():
    out = _run("quickstart.py")
    assert "GFLOPS" in out or "gflops" in out.lower()

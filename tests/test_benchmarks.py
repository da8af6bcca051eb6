"""The micro-benchmarks in ``benchmarks/`` still run against this checkout.

They call the steps of :mod:`kerrgate.batch`'s compiled programs, each a
``ShotBlock`` method, one at a time on a block they prepare, which nothing
else in the default test run exercises the same way.  Each case runs once,
untimed, in a pytest process of its own: ``benchmarks/conftest.py`` pins the
native thread pools before NumPy loads and refuses a process that has
already imported it.  The files are named one by one because pytest collects
only ``test_*.py`` from a directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmarks_run_once_untimed():
    pytest.importorskip("pytest_benchmark")
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    assert files
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *files, "-q", "-p", "no:cacheprovider",
         "--benchmark-disable"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]

"""Set-up shared by the micro-benchmarks: one thread per native thread pool.

The pools read their sizes when NumPy loads, so this conftest sets them
before any benchmark module imports NumPy, as ``perfbench/bootstrap.py``
does for the end-to-end benchmark.  ``python -m pytest benchmarks/...`` then
measures what ``perfbench`` measures.  With OpenBLAS's default threads the
shot engine's ``(1024, 8)`` frame-rotation products of a 3-qubit block take
about 30 ms a block on a 2-core machine instead of 2-3 ms.
"""

import os
import sys

import pytest

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if "numpy" in sys.modules:
    raise pytest.UsageError(
        "NumPy was imported before benchmarks/conftest.py could pin its thread "
        "pools to one thread; run the benchmarks in a pytest process of their own"
    )
for var in THREAD_VARS:
    os.environ[var] = "1"

"""Set-up shared by the micro-benchmarks: one thread per native thread pool.

The pools read their sizes when NumPy loads, so this conftest sets them
before any benchmark module imports NumPy, as ``perfbench/bootstrap.py``
does for the end-to-end benchmark.  ``python -m pytest benchmarks/...`` then
measures what ``perfbench`` measures.  On a shared 2-core x86 machine
(OpenBLAS 0.3.31) the pinning changes little: ``run_block("cnot", ...)`` at
1024 shots took a median of 1.6-1.9 ms with OpenBLAS's default threads and
1.7-1.8 ms with one, over three interleaved runs of 200 calls each.
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

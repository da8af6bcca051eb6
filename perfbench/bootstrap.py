"""Start-up shared by the benchmark scripts.

Pins native thread pools to one thread (the benchmark drives the program from
one process and one thread) and makes ``kerrgate`` importable from the
checkout's own ``src`` tree, refusing to fall back on any other copy.  Call
:func:`prepare` before anything imports NumPy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for CLI outputs and span files; listed in .gitignore
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "kerrgate"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kerrgate sources at {package}")
    sys.path.insert(0, str(SRC))
    import kerrgate

    if Path(kerrgate.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported kerrgate from {kerrgate.__file__}, not {package}")
    OUT.mkdir(exist_ok=True)

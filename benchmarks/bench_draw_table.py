"""Micro-benchmark of ``kerrgate.batch._draw_table``, the per-shot random
number table every block of ``run_shots`` starts from.

Times one table at 10, 50 and 1024 shots for the ``parity`` draws
(``random, standard_normal``) and the ``cnot`` draws (two homodynes and a
photon readout).  10 shots is below the block size at which the table is
made by array arithmetic, so that case times the per-row ``Generator`` path.
Run from a checkout with

    python -m pytest benchmarks/bench_draw_table.py --benchmark-json=OUT.json

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_draw_table.json`` holds committed results.
"""

import pytest

from kerrgate import batch

SEED = 4242


@pytest.mark.parametrize("shots", [10, 50, 1024])
@pytest.mark.parametrize("experiment", ["parity", "cnot"])
def test_draw_table(benchmark, experiment, shots):
    draws = batch.CIRCUITS[experiment].draws
    table = benchmark(batch._draw_table, SEED, 0, shots, draws)
    assert table.shape == (shots, len(draws))

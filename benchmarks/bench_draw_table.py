"""Micro-benchmark of ``kerrgate.batch._draw_table``, the per-shot random
number table every block of ``run_shots`` starts from.

Times one table at 10, 50 and 1024 shots for the ``parity`` draws
(``random, standard_normal``: 3 words a shot) and the ``cnot`` draws (two
homodynes and a photon readout: 7 words a shot), starting at shot 0, and
at 50 shots starting past shot ``2**32``.  Each table is one
``default_rng(seed)``, advanced to the block's first word, one ``random``
call and the Box-Muller normals; the last case times a long ``advance``.
Run from a checkout with

    python -m pytest benchmarks/bench_draw_table.py --benchmark-json=OUT.json

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_draw_table.json`` holds committed results.
"""

import pytest

from kerrgate import batch

SEED = 4242
#: (first shot, shots) of each table
BLOCKS = [(0, 10), (0, 50), (0, 1024), (2**32 + 5, 50)]


@pytest.mark.parametrize("start,shots", BLOCKS, ids=["10", "50", "1024", "50-past-2_32"])
@pytest.mark.parametrize("experiment", ["parity", "cnot"])
def test_draw_table(benchmark, experiment, start, shots):
    draws = batch.CIRCUITS[experiment].draws
    table = benchmark(batch._draw_table, SEED, start, shots, draws)
    assert table.shape == (shots, len(draws))

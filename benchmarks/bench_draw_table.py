"""Micro-benchmark of a block's random draws in ``kerrgate.batch``: the
block's stream words (``_block_words``) and every draw its shots read from
them, in circuit order, as the engine's steps read them.

Times one block at 10, 50 and 1024 shots for the ``parity`` draws
(``random, standard_normal``: 3 words a shot) and the ``cnot`` draws (two
homodynes and a photon readout: 7 words a shot), starting at shot 0, and
at 50 shots starting past shot ``2**32``.  Each block is one
``default_rng(seed)``, advanced to the block's first word, and one
``random((shots, K))`` call; a uniform draw is a column of those words, a
normal :func:`kerrgate.measurement.gaussian` of two columns.  The last case
times a long ``advance``.  Run from a checkout with

    python -m pytest benchmarks/bench_draw_table.py --benchmark-json=OUT.json

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_draw_table.json`` holds committed results.
"""

import pytest

from kerrgate import ProbeMode, batch

SEED = 4242
PROBE = ProbeMode(100.0, 0.45)
#: (first shot, shots) of each block
BLOCKS = [(0, 10), (0, 50), (0, 1024), (2**32 + 5, 50)]


def block_draws(start: int, shots: int, draws: tuple[str, ...]) -> list:
    """Every draw of shots ``start .. start + shots - 1``, one array per draw."""
    block = batch._Shots(shots, PROBE, SEED, start, draws)
    read = {"random": block._uniform, "standard_normal": block._normal}
    return [read[draw]() for draw in draws]


@pytest.mark.parametrize("start,shots", BLOCKS, ids=["10", "50", "1024", "50-past-2_32"])
@pytest.mark.parametrize("experiment", ["parity", "cnot"])
def test_block_draws(benchmark, experiment, start, shots):
    draws = batch.CIRCUITS[experiment].draws
    columns = benchmark(block_draws, start, shots, draws)
    assert [column.shape for column in columns] == [(shots,)] * len(draws)

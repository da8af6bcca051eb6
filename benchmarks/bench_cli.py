"""Micro-benchmarks of one whole CLI run, output file included.

Times ``cli.main`` for a ``parity`` point (alpha = 8, theta = 0.72, 64
shots) and a ``validate-oracle`` point (alpha = 1.5, theta = 0.7, input
``0.6,0.8j;0.28,0.96``), each written two ways:

- ``existing``: every round rewrites the same output file, as a rerun of one
  invocation does;
- ``fresh``: every round writes to a path that does not exist yet.

A truncating rewrite (``open(path, "w")``) of an existing file waits on
ext4 for the previous write's writeback, so the two columns separate the
filesystem's share of a run from the simulation's.  Every case runs a fixed
``ROUNDS`` rounds: pytest-benchmark sizes its rounds from its first, fast
calls, and at ~50 ms a round its own choice ran for minutes.

Run from a checkout with

    python -m pytest benchmarks/bench_cli.py --benchmark-json=OUT.json

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_cli.json`` holds committed results.
"""

import contextlib
import io
import itertools

import pytest

from kerrgate import cli

POINTS = {
    "parity": ["--experiment", "parity", "--alpha", "8", "--theta", "0.72",
               "--shots", "64", "--seed", "4242"],
    "validate-oracle": ["--experiment", "validate-oracle", "--alpha", "1.5", "--theta", "0.7",
                        "--input", "0.6,0.8j;0.28,0.96"],
}

ROUNDS = 100


@pytest.mark.parametrize("output", ["existing", "fresh"])
@pytest.mark.parametrize("experiment", list(POINTS))
def test_cli_point(benchmark, experiment, output, tmp_path):
    args = POINTS[experiment]
    if output == "existing":
        paths = itertools.repeat(str(tmp_path / "out.csv"))
        assert cli.main([*args, "--output", str(tmp_path / "out.csv")]) == 0
    else:
        paths = (str(tmp_path / f"out-{k}.csv") for k in itertools.count())

    def point():
        return cli.main([*args, "--output", next(paths)])

    with contextlib.redirect_stdout(io.StringIO()):  # the summary line of every round
        assert benchmark.pedantic(point, rounds=ROUNDS, warmup_rounds=1) == 0

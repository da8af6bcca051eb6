"""Micro-benchmarks of the ``validate-oracle`` path, one step at a time.

At alpha = 0.5, 1.5 and 3.0, theta = 0.7 and the input
``0.6,0.8j;0.28,0.96``, with the CLI's cutoff (``required_truncation + 5``)
and its 2001-point grid, times:

- ``fock.coherent_coefficients`` for the unkicked label (a positive real)
  and a kicked one;
- ``fock.oracle_embed`` before and after the parity detector's kicks;
- ``fock.oracle_cross_kerr``, the first kick;
- ``fock.oscillator_eigenfunctions`` on the grid;
- ``measurement.outcome_density``, building it and evaluating it on the grid;
- ``fock.oracle_homodyne_density`` evaluated on the grid;
- one whole ``cli.main`` validate-oracle point, output file included.

Run from a checkout with

    python -m pytest benchmarks/bench_oracle.py --benchmark-json=OUT.json

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_oracle.json`` holds committed results.
"""

import math

import numpy as np
import pytest

from kerrgate import ProbeMode, apply_cross_kerr, build_parity_coupling_pair, cli, fock, new_state
from kerrgate.measurement import outcome_density

ALPHAS = [0.5, 1.5, 3.0]
THETA = 0.7
INPUT = "0.6,0.8j;0.28,0.96"
INPUTS = ((0.6 + 0j, 0.8j), (0.28 + 0j, 0.96 + 0j))


class Point:
    """The states, cutoff and grid ``cli`` builds for one validate-oracle point."""

    def __init__(self, alpha: float):
        self.probe = ProbeMode(alpha, THETA)
        self.before = new_state(list(INPUTS)).activate_probe(self.probe)
        self.n_trunc = fock.required_truncation(alpha) + 5
        self.couplings = build_parity_coupling_pair(0, 1)
        self.after = self.before
        embedded = fock.oracle_embed(self.before, self.n_trunc)
        for coupling in self.couplings:
            self.after = apply_cross_kerr(self.after, coupling)
            embedded = fock.oracle_cross_kerr(embedded, coupling)
        self.embedded = embedded
        lo = 2.0 * alpha * math.cos(THETA) - 10.0
        self.grid = np.linspace(lo, 2.0 * alpha + 10.0, 2001)


@pytest.fixture(params=ALPHAS, ids=lambda a: f"alpha{a}")
def point(request):
    return Point(request.param)


@pytest.mark.parametrize("phase", [0, 1])
def test_coherent_coefficients(benchmark, point, phase):
    coeffs = benchmark(fock.coherent_coefficients, point.probe.label(phase), point.n_trunc)
    assert coeffs.shape == (point.n_trunc + 1,)


@pytest.mark.parametrize("kicked", [False, True], ids=["before_kicks", "after_kicks"])
def test_oracle_embed(benchmark, point, kicked):
    state = point.after if kicked else point.before
    embedded = benchmark(fock.oracle_embed, state, point.n_trunc)
    assert embedded.vector.shape == (2, 2, point.n_trunc + 1)


def test_oracle_cross_kerr(benchmark, point):
    embedded = fock.oracle_embed(point.before, point.n_trunc)
    kicked = benchmark(fock.oracle_cross_kerr, embedded, point.couplings[0])
    assert kicked.vector.shape == embedded.vector.shape


def test_oscillator_eigenfunctions(benchmark, point):
    psi = benchmark(fock.oscillator_eigenfunctions, point.n_trunc, point.grid)
    assert psi.shape == (point.n_trunc + 1, point.grid.size)


def test_outcome_density_build(benchmark, point):
    density = benchmark(outcome_density, point.after)
    assert callable(density)


def test_outcome_density_evaluate(benchmark, point):
    values = benchmark(outcome_density(point.after), point.grid)
    assert values.shape == point.grid.shape


def test_oracle_homodyne_density_evaluate(benchmark, point):
    values = benchmark(fock.oracle_homodyne_density(point.embedded), point.grid)
    assert values.shape == point.grid.shape


def test_cli_point(benchmark, point, tmp_path):
    args = ["--experiment", "validate-oracle", "--alpha", repr(point.probe.alpha),
            "--theta", repr(THETA), "--input", INPUT, "--output", str(tmp_path / "oracle.csv")]
    assert benchmark(cli.main, args) == 0

"""Micro-benchmarks of the scalar engine, the reference the shot engine is
replayed against, one step at a time.

Times:

- ``new_state`` on the CNOT's 3-qubit product input;
- ``apply_cross_kerr``, the parity detector's first kick on 2 qubits;
- ``apply_single_qubit``, the diagonal basis change on the CNOT's 3 qubits;
- a forced ``sample_and_collapse`` after the parity kicks (one branch per
  basis string), and one of a state holding two labels on one basis string;
- a forced ``qnd_photon_measure`` of the CNOT's ancilla;
- ``fidelity`` of two 3-qubit states;
- one seeded ``parity_gate`` shot and one seeded ``cnot`` shot, each with a
  fresh ``default_rng(SEED)`` made outside the timed call.

The probe is alpha = 100 at peak separation xd = 20, as in the benchmark's
``cnot-deep`` workload.  Run from a checkout with

    python -m pytest benchmarks/bench_scalar.py --benchmark-json=OUT.json

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_scalar.json`` holds committed results.
"""

import math

import numpy as np
import pytest

from kerrgate import (
    ANCILLA_PLUS,
    HybridState,
    ProbeMode,
    apply_cross_kerr,
    apply_single_qubit,
    build_parity_coupling_pair,
    cnot,
    diagonal_basis_change,
    fidelity,
    new_state,
    parity_gate,
    qnd_photon_measure,
    sample_and_collapse,
)

SEED = 4242
ALPHA = 100.0
PROBE = ProbeMode(ALPHA, 2.0 * math.asin(math.sqrt(20.0 / (4.0 * ALPHA))))
PROBES = (PROBE, PROBE)
INPUTS = ((0.6 + 0j, 0.8j), (0.28 + 0j, -0.96 + 0j))
CNOT_INPUT = [INPUTS[0], ANCILLA_PLUS, INPUTS[1]]
#: shots of a seeded gate per benchmark run, each from a fresh generator
GATE_ROUNDS = 200


def kicked_pair() -> HybridState:
    """The 2-qubit input with the probe active and both parity kicks applied."""
    state = new_state(list(INPUTS)).activate_probe(PROBE)
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
    return state


def test_new_state(benchmark):
    state = benchmark(new_state, CNOT_INPUT)
    assert len(state.branches) == 8


def test_apply_cross_kerr(benchmark):
    state = new_state(list(INPUTS)).activate_probe(PROBE)
    coupling = build_parity_coupling_pair(0, 1)[0]
    kicked = benchmark(apply_cross_kerr, state, coupling)
    assert len(kicked.branches) == 4


def test_apply_single_qubit(benchmark):
    state = new_state(CNOT_INPUT)
    rotated = benchmark(apply_single_qubit, state, diagonal_basis_change(1))
    assert len(rotated.branches) == 4


@pytest.mark.parametrize("labels", ["one", "two"], ids=["one-label", "two-labels"])
def test_sample_and_collapse(benchmark, labels):
    state = kicked_pair()
    if labels == "two":
        # rotating qubit 0 spreads each basis string over two probe labels
        state = apply_single_qubit(state, diagonal_basis_change(0))
    x = PROBE.x0 - 10.0  # on the odd peak
    record, post = benchmark(sample_and_collapse, state, None, force_x=x)
    assert record.parity == "odd" and post.probe is None


def test_qnd_photon_measure(benchmark):
    state = new_state(CNOT_INPUT)
    outcome, post = benchmark(qnd_photon_measure, state, 1, None, force_outcome="V")
    assert outcome == "V" and len(post.branches) == 4


def test_fidelity(benchmark):
    state = new_state(CNOT_INPUT)
    reference = apply_single_qubit(state, diagonal_basis_change(2))
    assert 0.0 <= benchmark(fidelity, state, reference) <= 1.0


def test_parity_gate_shot(benchmark):
    state = new_state(list(INPUTS))
    record, _ = benchmark.pedantic(
        parity_gate,
        setup=lambda: ((state, 0, 1, PROBE, np.random.default_rng(SEED)), {}),
        rounds=GATE_ROUNDS,
    )
    assert record.parity in ("even", "odd")


def test_cnot_shot(benchmark):
    state = new_state(CNOT_INPUT)
    trace, _ = benchmark.pedantic(
        cnot,
        setup=lambda: ((state, 0, 1, 2, PROBES, np.random.default_rng(SEED)), {}),
        rounds=GATE_ROUNDS,
    )
    assert len(trace.records) == 2

"""Micro-benchmarks of ``kerrgate.batch``, the shot engine behind ``run_shots``,
one step at a time.

Times, at 10, 50 and 1024 shots:

- ``run_block`` for each experiment, a whole block end to end, on one
  generator that every round continues, as ``run_shots`` hands its one
  generator to each block;
- ``_Shots.homodyne`` on 2 qubits (the entanglers) and on 3 (the CNOT's
  first parity check), from a freshly prepared block, whose one input row
  the first collapse repeats into a row per shot;
- ``_Shots.feed_forward`` for each feed-forward step of the circuits, with
  half of the shots flagged;
- a block's random words for the ``cnot`` circuit (two homodynes and a
  photon readout: 7 words a shot): the block's stream words (one
  ``random((shots, 7))`` call on the run's generator), the Box-Muller
  normals of both homodynes (one ``gaussian`` call, made when the block is
  set up) and each measurement's words read from them in circuit order.

The probe is alpha = 100 at peak separation xd = 20, as in the benchmark's
``cnot-deep`` workload.  Run from a checkout with

    python -m pytest benchmarks/bench_shot_engine.py --benchmark-json=OUT.json

``conftest.py`` pins one BLAS thread, as ``perfbench`` does.  On a shared
2-core x86 machine (OpenBLAS 0.3.31, one BLAS thread) ``run_block("cnot",
...)`` at 1024 shots took a median of 1.2-2.3 ms per run and at least
1.1 ms.  That machine switches between a fast phase and one about 1.7x
slower, so single-run medians of two trees can differ by the phase alone;
compare minima, or medians over alternating runs.

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_shot_engine.json`` holds committed results.
"""

import math

import numpy as np
import pytest

from kerrgate import ANCILLA_PLUS, ProbeMode, batch
from kerrgate.measurement import STREAM_WORDS

SEED = 4242
SHOTS = [10, 50, 1024]
ALPHA = 100.0
PROBE = ProbeMode(ALPHA, 2.0 * math.asin(math.sqrt(20.0 / (4.0 * ALPHA))))
INPUTS = ((0.6 + 0j, 0.8j), (0.28 + 0j, -0.96 + 0j))

#: experiment and step index -> (qubits, plan, slot wiring) of every
#: feed-forward step of the circuits
FEED_FORWARDS = {
    f"{name}-{k}": (3 if circuit.ancilla else 2, *args)
    for name, circuit in batch.CIRCUITS.items()
    for k, (method, *args) in enumerate(circuit.steps)
    if method is batch._Shots.feed_forward
}


def prepared(shots: int, qubits: int) -> batch._Shots:
    """A block with the CNOT's words, holding the 2- or 3-qubit product input."""
    rng = np.random.default_rng(SEED)
    block = batch._Shots(shots, PROBE, rng, batch.CIRCUITS["cnot"])
    c, d = INPUTS
    block.prepare(*((c, ANCILLA_PLUS, d) if qubits == 3 else (c, d)))
    return block


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("experiment", list(batch.CIRCUITS))
def test_run_block(benchmark, experiment, shots):
    rng = np.random.default_rng(SEED)
    block = benchmark(batch.run_block, experiment, INPUTS, PROBE, rng, shots)
    assert block.fidelity.shape == (shots,)


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("qubits", [2, 3])
def test_homodyne(benchmark, qubits, shots):
    block = prepared(shots, qubits)
    amp = block.amp

    def fresh():
        # each round measures the block's first record from the same input
        block.amp, block.read, block.measured, block.last = amp.copy(), 0, 0, None
        return (block, 0, 1), {}

    benchmark.pedantic(
        batch._Shots.homodyne, setup=fresh, rounds=max(50, 20_000 // shots), warmup_rounds=5
    )
    assert block.x[0].shape == (shots,)


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("case", list(FEED_FORWARDS))
def test_feed_forward(benchmark, case, shots):
    qubits, plan, slots = FEED_FORWARDS[case]
    block = prepared(shots, qubits)
    rng = np.random.default_rng(SEED)
    block.flag = rng.random(shots) < 0.5
    # a collapse hands feed-forward its e^{i phi}
    block.flag_eip = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shots))
    benchmark(block.feed_forward, plan, slots)
    assert block.amp.shape == (shots, 1 << qubits)


def block_draws(rng: np.random.Generator, shots: int, circuit: batch.Circuit) -> list:
    """The words of each measurement of the next ``shots`` shots of ``rng``,
    read as the circuit's steps read them, one array per word."""
    block = batch._Shots(shots, PROBE, rng, circuit)
    return [
        word
        for method, *_ in circuit.steps
        if method.__name__ in STREAM_WORDS
        for word in block._next_words(method.__name__).T
    ]


@pytest.mark.parametrize("shots", SHOTS)
def test_block_draws(benchmark, shots):
    circuit = batch.CIRCUITS["cnot"]
    columns = benchmark(block_draws, np.random.default_rng(SEED), shots, circuit)
    assert [column.shape for column in columns] == [(shots,)] * circuit.words

"""Micro-benchmarks of ``kerrgate.batch``, the shot engine behind ``run_shots``,
one step at a time.

Times, at 10, 50 and 1024 shots:

- ``run_block`` for each experiment, a whole block end to end, on one
  generator that every round continues, as ``run_shots`` hands its one
  generator to each block and reads the block ``run_block`` returns;
- ``ShotBlock.homodyne`` on 2 qubits (the entanglers) and on 3 (the CNOT's
  first parity check), from a freshly prepared block, whose one input row
  the first collapse repeats into a row per shot;
- ``ShotBlock.feed_forward`` for each feed-forward step of the circuits'
  compiled programs, with half of the shots flagged, on the ``(shots,
  2**n)`` block that ``run_block`` hands it: the prepared input row
  repeated into one row per shot, as the first collapse repeats it;
- ``ShotBlock.photon``, the CNOT's readout of its ancilla, on that
  3-qubit block of a row per shot;
- ``pick_branches`` with a row per shot, as every homodyne after the first
  picks (the first searches the one input row that its shots share), on 8
  columns of random weights;
- a block's random words for the ``cnot`` circuit (two homodynes and a
  photon readout: 7 words a shot): the block's stream words (one
  ``random((shots, 7))`` call on the run's generator), the Box-Muller
  normals of both homodynes (one ``gaussian`` call, made when the block is
  set up) and each measurement's words read from them at the first word
  its program step declares.

The probe is alpha = 100 at peak separation xd = 20, as in the benchmark's
``cnot-deep`` workload.  ``run_shots`` is also timed whole, at the shapes
``perfbench`` calls it: each experiment at 10 shots and alpha = 1e2 and 1e9
(``kerr-ladder``), and ``cnot`` at 50 shots and alpha = 100 (``cnot-deep``),
xd = 20 throughout.  These calls include what a block leaves out: the
run's generator, the input and probe validation and the statistics.
Run from a checkout with

    python -m pytest benchmarks/bench_shot_engine.py --benchmark-json=OUT.json

``conftest.py`` pins one BLAS thread, as ``perfbench`` does.  On a shared
2-core x86 machine (OpenBLAS 0.3.31, one BLAS thread) ``run_block("cnot",
...)`` at 1024 shots took a median of 1.2-2.3 ms per run over 10 runs, and
at least 1.06 ms.  That machine switches between a fast phase and one about 1.7x
slower, so single-run medians of two trees can differ by the phase alone;
compare minima, or medians over alternating runs.

``testpaths = ["tests"]`` in ``pyproject.toml`` keeps this file out of the
default test run.  ``BENCH_shot_engine.json`` holds committed results.
"""

import math

import numpy as np
import pytest

from kerrgate import ANCILLA_PLUS, ProbeMode, batch, run_shots
from kerrgate.gates import STEP_KINDS
from kerrgate.measurement import pick_branches


def theta_for(alpha: float, xd: float = 20.0) -> float:
    """Kerr phase unit giving peak separation ``xd`` at ``alpha``."""
    return 2.0 * math.asin(math.sqrt(xd / (4.0 * alpha)))


SEED = 4242
SHOTS = [10, 50, 1024]
ALPHA = 100.0
PROBE = ProbeMode(ALPHA, theta_for(ALPHA))
INPUTS = ((0.6 + 0j, 0.8j), (0.28 + 0j, -0.96 + 0j))

#: experiment and step index -> (qubits, column steps) of every feed-forward
#: step of the circuits' programs
FEED_FORWARDS = {
    f"{name}-{k}": (circuit.n, args[0])
    for name, circuit in batch.CIRCUITS.items()
    for k, (method, *args) in enumerate(circuit.program)
    if method is batch.ShotBlock.feed_forward
}
#: qubits -> the first step of the entangler's and the CNOT's program, the
#: homodyne of their first parity check
HOMODYNES = {2: batch.CIRCUITS["entangler"].program[0], 3: batch.CIRCUITS["cnot"].program[0]}
#: the CNOT's photon readout of its ancilla, a step of its program
PHOTON = next(s for s in batch.CIRCUITS["cnot"].program if s[0] is batch.ShotBlock.photon)


def prepared(shots: int, qubits: int) -> batch.ShotBlock:
    """A block with the CNOT's words, holding the 2- or 3-qubit product input."""
    rng = np.random.default_rng(SEED)
    block = batch.ShotBlock(shots, PROBE, rng, batch.CIRCUITS["cnot"])
    c, d = INPUTS
    block.prepare((c, ANCILLA_PLUS, d) if qubits == 3 else (c, d))
    return block


#: (experiment, shots, alpha) of each run_shots case
RUN_SHOTS = [(experiment, 10, alpha) for experiment in batch.CIRCUITS for alpha in (1e2, 1e9)]
RUN_SHOTS.append(("cnot", 50, 1e2))


@pytest.mark.parametrize(
    "experiment,shots,alpha", RUN_SHOTS, ids=[f"{e}-{s}-{a:g}" for e, s, a in RUN_SHOTS]
)
def test_run_shots(benchmark, experiment, shots, alpha):
    stats = benchmark(run_shots, experiment, INPUTS, alpha, theta_for(alpha), shots, SEED)
    assert stats.shots == shots


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
    method, *args = HOMODYNES[qubits]

    def fresh():
        # each round measures the block's first record from the same input
        block.amp, block.last = amp.copy(), None
        return (block, *args), {}

    benchmark.pedantic(method, setup=fresh, rounds=max(50, 20_000 // shots), warmup_rounds=5)
    assert block.x[:, 0].shape == (shots,)


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("case", list(FEED_FORWARDS))
def test_feed_forward(benchmark, case, shots):
    qubits, steps = FEED_FORWARDS[case]
    block = prepared(shots, qubits)
    # a feed-forward follows a measurement, so it acts on a row per shot
    block.amp = block.amp.repeat(shots, axis=0)
    rng = np.random.default_rng(SEED)
    block.flag = rng.random(shots) < 0.5
    # a collapse hands feed-forward its (e^{-i phi}, e^{i phi})
    eip = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shots))
    block.flag_eip = np.stack([eip.conj(), eip], axis=1)
    benchmark(block.feed_forward, steps)
    assert block.amp.shape == (shots, 1 << qubits)


@pytest.mark.parametrize("shots", SHOTS)
def test_photon(benchmark, shots):
    block = prepared(shots, 3)
    # the readout follows two collapses, so it acts on a row per shot
    amp = block.amp.repeat(shots, axis=0)
    method, *args = PHOTON

    def fresh():
        block.amp = amp.copy()
        return (block, *args), {}

    benchmark.pedantic(method, setup=fresh, rounds=max(50, 20_000 // shots), warmup_rounds=5)
    assert block.photon_v[:, 0].shape == (shots,)


@pytest.mark.parametrize("shots", SHOTS)
def test_pick_branches(benchmark, shots):
    rng = np.random.default_rng(SEED)
    weights = np.abs(rng.standard_normal((shots, 8)) + 1j * rng.standard_normal((shots, 8))) ** 2
    u = rng.random(shots)
    picks = benchmark(pick_branches, weights, u, np.add.reduce(weights, axis=1))
    assert picks.shape == (shots,)


def block_draws(rng: np.random.Generator, shots: int, circuit: batch.Circuit) -> list:
    """The words of each measurement of the next ``shots`` shots of ``rng``,
    read as the circuit's program steps read them, one array per word."""
    block = batch.ShotBlock(shots, PROBE, rng, circuit)
    return [
        column
        for method, *args in circuit.program
        if STEP_KINDS[method.__name__][1]
        for column in block.words[:, args[0] : args[0] + STEP_KINDS[method.__name__][1]].T
    ]


@pytest.mark.parametrize("shots", SHOTS)
def test_block_draws(benchmark, shots):
    circuit = batch.CIRCUITS["cnot"]
    columns = benchmark(block_draws, np.random.default_rng(SEED), shots, circuit)
    assert [column.shape for column in columns] == [(shots,)] * circuit.words

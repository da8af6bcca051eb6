"""Batched shot engine against the scalar engine, shot for shot.

Every batched shot is replayed through ``gates.run_steps`` on its circuit's
own steps twice: once on its own generator, the run's ``default_rng(seed)``
advanced to the shot's words, which must reproduce the same records, and
once with its recorded outcomes forced.  Both replays must land on the
batched final state, amplitude by amplitude.  The record-conditional ideal
outputs are rebuilt here as branch-label states from the paper's formulas,
independently of the engine's dense ones.  Since both engines run the same
steps, only those ideals can catch a wiring slip: miswired circuits must
fail them in both engines.

Each feed-forward the circuits make, and each kind of ``gates.ACTIONS`` on
every qubit, is checked against the masked matrix products it replaces, on
random blocks, and a kind added to that table alone must run in both
engines alike.  Each circuit's compiled program is checked to declare the
stream words its circuit derives and to hold every table a block reads, so
that a block builds none.

The words each block's measurements read are checked bit for bit against
those replay generators, for seeds of one to five 32-bit words and for
blocks at and across ``2**32``, and an unforced scalar shot must read
exactly the words its circuit declares.

Both engines run every step kind ``gates.STEP_KINDS`` declares, and a
``hypothesis`` property over short circuits, often malformed, requires
that they refuse the same ones with the same error, and that the shots of
the ones they accept replay alike.
"""

import math
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrgate import (
    ANCILLA_PLUS,
    ContractError,
    HybridState,
    ProbeMode,
    ValidationError,
    fidelity,
    new_state,
    run_shots,
)
from kerrgate import analysis, batch, gates
from kerrgate.analysis import LOGICAL_ERROR_FIDELITY
from kerrgate.gates import (
    ACTIONS,
    STEP_KINDS,
    cnot_steps,
    entangler_45_steps,
    entangler_steps,
    run_steps,
)
from kerrgate.measurement import gaussian
from kerrgate.optics import SingleQubitGate, bit_flip
from kerrgate.states import ALPHA_MAX, check_normalized

EXPERIMENTS = ("parity", "entangler", "entangler45", "cnot")
SHOTS = 48
SQRT_HALF = 1.0 / math.sqrt(2.0)


def theta_for(alpha, xd=20.0):
    """Kerr phase unit giving peak separation ``xd``, free of 1 - cos cancellation."""
    return 2.0 * math.asin(math.sqrt(xd / (4.0 * alpha)))


def haar_pair(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def basis_pair(rng):
    return (1 + 0j, 0j) if rng.random() < 0.5 else (0j, 1 + 0j)


def replay(experiment, inputs, probe, rng, forced=()):
    """One shot of ``experiment`` through ``run_steps``, on its circuit's
    steps from the circuit's product input: (records, each photon readout's
    outcome in order, final state)."""
    circuit = batch.CIRCUITS[experiment]
    c, d = inputs
    state = new_state([c, ANCILLA_PLUS, d] if circuit.ancilla else [c, d])
    trace, final = run_steps(state, circuit.steps, probe, rng, forced)
    return trace.records, tuple(outcome for _, outcome in trace.photon_outcomes), final


def readings(photon_v):
    """A block row's photon readouts as outcomes, ``"H"`` or ``"V"``."""
    return tuple("V" if v else "H" for v in photon_v)


def recorded_outcomes(circuit, block, i):
    """Shot ``i``'s recorded outcomes in measurement order, to force."""
    xs, photons = iter(block.x[i]), iter(readings(block.photon_v[i]))
    return tuple(next(xs if name == "homodyne" else photons) for name in measurements(circuit))


def ideal_state(experiment, c, d, record, photons):
    """Record-conditional ideal output, or None when the record contradicts
    the input; the CNOT's reads its one photon readout."""
    c0, c1 = c
    d0, d1 = d
    odd = record.parity == "odd"
    if experiment == "parity":
        ph = np.exp(1j * record.phi)
        branches = (
            [(c0 * d1 * ph, "HV", 0), (c1 * d0 / ph, "VH", 0)]
            if odd
            else [(c0 * d0, "HH", 0), (c1 * d1, "VV", 0)]
        )
    elif experiment == "entangler":
        branches = (
            [(c0 * d1, "HH", 0), (c1 * d0, "VV", 0)]
            if odd
            else [(c0 * d0, "HH", 0), (c1 * d1, "VV", 0)]
        )
    elif experiment == "entangler45":
        if odd:
            c1 = -c1
        dd = (c0 + c1) / 2 * (d0 + d1) / 2
        dbdb = (c0 - c1) / 2 * (d0 - d1) / 2
        branches = [
            (dd + dbdb, "HH", 0), (dd - dbdb, "HV", 0),
            (dd - dbdb, "VH", 0), (dd + dbdb, "VV", 0),
        ]
    else:
        (a,) = photons
        branches = [
            (c0 * d0, ("H", a, "H"), 0), (c0 * d1, ("H", a, "V"), 0),
            (c1 * d0, ("V", a, "V"), 0), (c1 * d1, ("V", a, "H"), 0),
        ]
    if sum(abs(amp) ** 2 for amp, _, _ in branches) <= 1e-300:
        return None
    return HybridState.from_branches(len(branches[0][1]), branches)


def dense(state: HybridState) -> np.ndarray:
    """Polarization amplitudes of a probe-free state in the engine's column order."""
    out = np.zeros(1 << state.n_qubits, complex)
    for b in state.branches:
        out[int("".join("1" if p == "V" else "0" for p in b.basis), 2)] += b.amplitude
    return out


def state_fidelity(u, v):
    return abs(np.vdot(u, v)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real)


def shot_rng(seed, shot, words):
    """Shot ``shot``'s generator: the run's stream advanced past the ``words``
    words each earlier shot takes."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(shot * words)
    return rng


def run_block(experiment, inputs, probe, seed, start, stop):
    """Shots ``start .. stop - 1`` of a run, on its generator positioned at
    shot ``start``."""
    rng = shot_rng(seed, start, batch.CIRCUITS[experiment].words)
    return batch.run_block(experiment, inputs, probe, rng, stop - start)


def scalar_fidelities(experiment, inputs, probe, shots, seed):
    """Shots 0 .. shots - 1 through the scalar engine: each shot's odd flags,
    one per homodyne record, and its fidelity with its ideal output."""
    words = batch.CIRCUITS[experiment].words
    odd, fid = [], []
    for i in range(shots):
        records, photons, final = replay(experiment, inputs, probe, shot_rng(seed, i, words))
        ideal = ideal_state(experiment, *inputs, records[0], photons)
        odd.append([r.parity == "odd" for r in records])
        fid.append(fidelity(final, ideal) if ideal is not None else 0.0)
    return np.array(odd), np.array(fid)


def assert_same_shots(experiment, inputs, probe, seed, shots, start=0):
    """Replay each shot of the block through the scalar engine on its own
    generator, which must read exactly the circuit's words, to the block's
    records and final state; return the block and the replays."""
    block = run_block(experiment, inputs, probe, seed, start, start + shots)
    circuit = batch.CIRCUITS[experiment]
    replays = []
    for i in range(shots):
        rng = shot_rng(seed, start + i, circuit.words)
        records, photons, final = replay(experiment, inputs, probe, rng)
        after = shot_rng(seed, start + i + 1, circuit.words)
        assert rng.bit_generator.state == after.bit_generator.state
        assert [r.parity == "odd" for r in records] == list(block.odd[i])
        for r, x, phi in zip(records, block.x[i], block.phi[i], strict=True):
            assert abs(x - r.x) <= 1e-9 * max(1.0, abs(r.x))
            assert abs(np.exp(1j * phi) - np.exp(1j * r.phi)) <= 1e-9
        assert photons == readings(block.photon_v[i])
        assert state_fidelity(dense(final), block.final[i]) >= 1.0 - 1e-12
        # elementwise too: a fidelity cannot see a global phase
        np.testing.assert_allclose(dense(final), block.final[i], rtol=0, atol=1e-12)
        replays.append((records, photons, final))
    return block, replays


def assert_forced_replays(experiment, inputs, probe, block, replays):
    """Forcing each shot's recorded outcomes reproduces its sampled replay's
    records and the block's final state, without sampling."""
    circuit = batch.CIRCUITS[experiment]
    for i, (records, photons, _) in enumerate(replays):
        forced = replay(
            experiment, inputs, probe, np.random.default_rng(0),
            recorded_outcomes(circuit, block, i),
        )
        assert [r.parity for r in forced[0]] == [r.parity for r in records]
        assert forced[1] == photons
        assert state_fidelity(dense(forced[2]), block.final[i]) >= 1.0 - 1e-12
        np.testing.assert_allclose(dense(forced[2]), block.final[i], rtol=0, atol=1e-12)


def assert_replays(experiment, inputs, probe, seed, shots=SHOTS, start=0):
    """Replay each shot of the block through the scalar engine, sampled
    (:func:`assert_same_shots`) and forced, and check its fidelity with the
    ideal; return the block."""
    block, replays = assert_same_shots(experiment, inputs, probe, seed, shots, start)
    for i, (records, photons, final) in enumerate(replays):
        ideal = ideal_state(experiment, *inputs, records[0], photons)
        fid = fidelity(final, ideal) if ideal is not None else 0.0
        assert block.fidelity[i] == pytest.approx(fid, abs=1e-12)
    assert_forced_replays(experiment, inputs, probe, block, replays)
    return block


@pytest.mark.parametrize("theta", [theta_for(ALPHA_MAX), 0.5, math.pi], ids=["xd20", "0.5", "pi"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_both_engines_run_at_alpha_max(experiment, theta):
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    if theta != theta_for(ALPHA_MAX):
        assert_replays(experiment, inputs, ProbeMode(ALPHA_MAX, theta), seed=5, shots=8)
        return
    # at xd = 20 the float threshold alpha (1 + cos theta) lands on the even
    # peak, so both engines would misread every even shot alike; neither runs:
    # the scalar gates take a ProbeMode, which cannot be built, and the batch
    # engine builds one
    with pytest.raises(ValidationError, match="unresolvable"):
        ProbeMode(ALPHA_MAX, theta)
    with pytest.raises(ValidationError, match="unresolvable"):
        run_shots(experiment, inputs, ALPHA_MAX, theta, 4, 5)


@pytest.mark.parametrize("alpha", [math.nextafter(ALPHA_MAX, math.inf), 1e155, 1e300, math.inf])
def test_both_engines_reject_alpha_past_alpha_max(alpha):
    """The scalar gates take a ProbeMode, the batch engine builds one."""
    with pytest.raises(ValidationError, match="probe alpha"):
        ProbeMode(alpha, 0.5)
    with pytest.raises(ValidationError, match="probe alpha"):
        run_shots("cnot", ((1, 0), (0, 1)), alpha, 0.5, 4, 0)


POINTS = [(10.0, 20.0), (100.0, 20.0), (1e9, 20.0), (8.0, 4.0)]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("alpha,xd", POINTS)
@pytest.mark.parametrize("make", [haar_pair, basis_pair], ids=["haar", "basis"])
def test_batched_shots_replay_through_scalar_gates(experiment, alpha, xd, make):
    rng = np.random.default_rng([int(alpha), int(xd), EXPERIMENTS.index(experiment)])
    inputs = (make(rng), make(rng))
    assert_replays(experiment, inputs, ProbeMode(alpha, theta_for(alpha, xd)), seed=91)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("alpha,xd", POINTS)
def test_final_is_normalized_and_fidelity_is_its_overlap(experiment, alpha, xd):
    """A block normalizes once, at its end: every ``final`` row has unit
    squared norm, and ``fidelity`` is ``|<ideal|final>|^2 / |ideal|^2`` of the
    returned ``final`` and the paper's ideal for the shot's record."""
    rng = np.random.default_rng([int(alpha), int(xd), 7])
    c, d = haar_pair(rng), haar_pair(rng)
    count = 64
    block = run_block(experiment, (c, d), ProbeMode(alpha, theta_for(alpha, xd)), 13, 0, count)
    assert np.max(np.abs(np.add.reduce(np.abs(block.final) ** 2, axis=1) - 1.0)) <= 1e-15
    for i in range(count):
        record = SimpleNamespace(parity="odd" if block.odd[i, 0] else "even", phi=block.phi[i, 0])
        ideal = ideal_state(experiment, c, d, record, readings(block.photon_v[i]))
        expected = 0.0
        if ideal is not None:
            v = dense(ideal)
            expected = abs(np.vdot(v, block.final[i])) ** 2 / np.vdot(v, v).real
        assert abs(block.fidelity[i] - expected) <= 1e-14


#: every action the four circuits feed forward, compiled on its own: (qubits,
#: the action, its column step).  The test id is the experiment and the
#: action's index among the circuit's measurements and actions, in order.
FEED_FORWARDS = {
    f"{name}-{k}": (circuit.n, (action,), (batch._step(circuit.n, *action),))
    for name, circuit in batch.CIRCUITS.items()
    for k, (step, action) in enumerate(
        (step, action)
        for step, *args in circuit.steps
        if step != "rotate"
        for action in (args if step == "feed_forward" else [None])
    )
    if step == "feed_forward"
}

#: every feed-forward step of the four compiled programs, with its experiment
#: and program step index as test id: (qubits, the step's actions, the column
#: steps its program holds)
PROGRAM_FEED_FORWARDS = {
    f"{name}-{k}": (circuit.n, actions, op[1])
    for name, circuit in batch.CIRCUITS.items()
    for k, ((step, *actions), op) in enumerate(zip(circuit.steps, circuit.program))
    if step == "feed_forward"
}


def lifted(n, gate):
    """``gate``'s 2x2 matrix on ``n`` qubits, transposed to right-multiply rows."""
    q = gate.qubit_index
    full = np.kron(np.kron(np.eye(1 << q), gate.matrix), np.eye(1 << (n - 1 - q)))
    return full.T


#: the reference gate of each fixed action kind, written out here and not
#: from gates.ACTIONS, which it certifies
REFERENCE_GATES = {"flip": bit_flip, "sign-flip": lambda q: SingleQubitGate(np.diag([1, -1]), q)}


def masked_feed_forward(amp, n, actions, flag, phi):
    """The reference: the actions as lifted 2x2 matrices (or the per-shot
    phase gate) on the flagged rows only."""
    amp = amp.copy()
    for kind, qubit in actions:
        if kind != "undo-phase":
            amp[flag] = amp[flag] @ lifted(n, REFERENCE_GATES[kind](qubit))
            continue
        ph = np.exp(1j * phi[flag])[:, None]
        amp[flag] *= np.where(batch._v_bits(n)[:, qubit], ph, ph.conj())
    return amp


def test_the_circuits_feed_forward_through_every_action_kind():
    kinds = {kind for _, actions, _ in FEED_FORWARDS.values() for kind, _ in actions}
    assert kinds == set(ACTIONS)


@pytest.mark.parametrize("case", list(FEED_FORWARDS))
@pytest.mark.parametrize("flags", ["mixed", "none", "all"])
def test_compiled_feed_forward_equals_masked_matrix_products(case, flags):
    assert_feed_forward(*FEED_FORWARDS[case], case, flags)


@pytest.mark.parametrize("qubit", range(3))
@pytest.mark.parametrize("kind", list(ACTIONS))
def test_each_action_kind_compiles_to_its_masked_matrix_product(kind, qubit):
    """Every entry of ``gates.ACTIONS``, on each of three qubits, compiles to
    the column step of its reference gate, whether or not a circuit uses it."""
    for flags in ("mixed", "none", "all"):
        step = batch._step(3, kind, qubit)
        assert_feed_forward(3, ((kind, qubit),), (step,), f"{kind}-{qubit}", flags)


@pytest.mark.parametrize("case", list(PROGRAM_FEED_FORWARDS))
@pytest.mark.parametrize("flags", ["mixed", "none", "all"])
def test_program_feed_forward_equals_masked_matrix_products(case, flags):
    """The same for each feed-forward step of the compiled programs, which
    chains the CNOT's sign flip onto the diagonal entangler's corrections."""
    assert_feed_forward(*PROGRAM_FEED_FORWARDS[case], case, flags)


def assert_feed_forward(n, actions, steps, case, flags):
    """``steps`` applied by ``ShotBlock.feed_forward`` to a random block equal
    ``actions``' masked matrix products, for the ``flags`` pattern named."""
    rng = np.random.default_rng([n, len(case), len(flags)])
    count = 37
    amp = rng.standard_normal((count, 1 << n)) + 1j * rng.standard_normal((count, 1 << n))
    amp[rng.random(amp.shape) < 0.2] = 0.0  # zero amplitudes, of either sign
    amp.imag[rng.random(amp.shape) < 0.2] = -0.0
    flag = {
        "mixed": rng.random(count) < 0.5,
        "none": np.zeros(count, bool),
        "all": np.ones(count, bool),
    }[flags]
    phi = rng.uniform(0.0, 2.0 * math.pi, count)

    circuit = batch.CIRCUITS["parity"]
    shots = batch.ShotBlock(count, ProbeMode(8.0, 0.5), np.random.default_rng(0), circuit)
    # the engine hands feed-forward each collapse's (e^{-i phi}, e^{i phi})
    eip = np.exp(1j * phi)
    shots.amp, shots.flag, shots.flag_eip = amp.copy(), flag, np.stack([eip.conj(), eip], axis=1)
    shots.feed_forward(steps)
    expected = masked_feed_forward(amp, n, actions, flag, phi)
    # equal as numbers; the sign of a zero may differ from the matrix product's
    assert np.array_equal(shots.amp, expected)


@pytest.mark.parametrize("shots", [50, 1024])
def test_cnot_replays_cover_both_sign_flip_and_photon_records(shots):
    """The controller's sign flip of the control runs inside the diagonal
    entangler's feed-forward.  The sampled and forced replays must land on
    the batched final states with the second record odd and even, each with
    the photon read H and V."""
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    block = assert_replays("cnot", inputs, ProbeMode(100.0, theta_for(100.0)), 17, shots=shots)
    records = set(zip(block.odd[:, 1].tolist(), block.photon_v[:, 0].tolist()))
    assert records == {(False, False), (False, True), (True, False), (True, True)}


#: circuits wired wrongly in one place each: (experiment, its miswired
#: steps, the homodyne record whose odd reading the slip acts on)
MISWIRED = {
    "cnot-without-sign-flip": (
        "cnot",
        # the two entanglers, then the CNOT's photon readout and its flip
        (*entangler_steps(0, 1), *entangler_45_steps(1, 2), *cnot_steps(0, 1, 2)[-2:]),
        1,
    ),
    "entangler-flips-slot-0": (
        "entangler", (("homodyne", 0, 1), ("feed_forward", ("undo-phase", 0), ("flip", 0))), 0
    ),
    "entangler45-without-closing-rotate": ("entangler45", entangler_45_steps(0, 1)[:-1], 0),
}


@pytest.mark.parametrize("case", list(MISWIRED))
def test_the_ideals_catch_a_miswired_circuit(monkeypatch, case):
    """Both engines run one step tuple, so a replay of one through the other
    cannot see a wiring slip; the hand-written ideals must.  At xd = 20 (a
    misread every ~1e23 shots) the circuit as built meets its ideal on every
    shot, and the miswired one misses it (fidelity below 1 - 1e-6) on some
    shots whose record the slip acts on reads odd: in ``run_block`` against
    ``batch._*_ideal`` and in ``run_steps`` against ``ideal_state``."""
    experiment, steps, record = MISWIRED[case]
    probe = ProbeMode(100.0, theta_for(100.0))
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    shots, seed = 32, 3
    circuit = batch.CIRCUITS[experiment]
    assert steps != circuit.steps
    block = run_block(experiment, inputs, probe, seed, 0, shots)
    _, fid = scalar_fidelities(experiment, inputs, probe, shots, seed)
    assert np.all(block.fidelity >= LOGICAL_ERROR_FIDELITY)
    assert np.all(fid >= LOGICAL_ERROR_FIDELITY)

    miswired = batch.Circuit(circuit.ancilla, steps, circuit.ideal)
    monkeypatch.setitem(batch.CIRCUITS, experiment, miswired)
    block = run_block(experiment, inputs, probe, seed, 0, shots)
    assert np.any(block.fidelity[block.odd[:, record]] < LOGICAL_ERROR_FIDELITY)
    odd, fid = scalar_fidelities(experiment, inputs, probe, shots, seed)
    assert np.any(fid[odd[:, record]] < LOGICAL_ERROR_FIDELITY)


def test_programs_declare_their_words_and_hold_every_table(monkeypatch):
    """Each circuit's program declares, at its measurement steps, the words
    that ``Circuit.words`` and ``Circuit.noise`` derive: the measurements of
    its steps in order, each starting where the one before ends, and each
    homodyne its record.  A block then builds no table: wrapped around one
    ``run_block`` per experiment, the cached builders see no call, while a
    circuit built under the same wrappers calls them."""
    for circuit in batch.CIRCUITS.values():
        measured = compiled_measurements(circuit)
        assert [kind for kind, _ in measured] == measurements(circuit)
        sizes = [STEP_KINDS[kind][1] for kind, _ in measured]
        assert [args[0] for _, args in measured] == [sum(sizes[:k]) for k in range(len(sizes))]
        assert circuit.words == sum(sizes)
        homodynes = [args for kind, args in measured if kind == "homodyne"]
        assert [j for _, j, _ in homodynes] == list(range(len(homodynes)))
        assert circuit.noise.tolist() == [
            [word + 1 for word, _, _ in homodynes],
            [word + 2 for word, _, _ in homodynes],
        ]

    calls = []

    def counted(name, builder):
        def wrapper(*args):
            calls.append(name)
            return builder(*args)

        return wrapper

    for name in ("_v_bits", "_label_columns", "_rotation", "_step"):
        monkeypatch.setattr(batch, name, counted(name, getattr(batch, name)))
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    for experiment in EXPERIMENTS:
        run_block(experiment, inputs, ProbeMode(8.0, theta_for(8.0, 4.0)), 3, 0, 10)
    assert calls == []
    cnot_circuit = batch.CIRCUITS["cnot"]
    batch.Circuit(cnot_circuit.ancilla, cnot_circuit.steps, cnot_circuit.ideal)
    assert {"_label_columns", "_rotation", "_step"} <= set(calls)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70])
def test_every_seed_width_keeps_the_per_shot_stream(seed):
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    assert_replays("cnot", inputs, ProbeMode(8.0, theta_for(8.0, 4.0)), seed, shots=6)


def test_non_integer_seed_is_rejected():
    """A float seed must not be truncated into another seed's shots."""
    with pytest.raises(TypeError):
        run_shots("parity", [(1, 0), (1, 0)], 8.0, theta_for(8.0, 20.0), 2, 3.5)


#: seeds of 1 to 5 uint32 words, as SeedSequence splits them
SEED_WIDTHS = [0, 2**31 - 1, 2**32, 2**64 + 1, 2**96 + 7, 2**128 + 3]


def bits(values) -> list[int]:
    """Float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, np.float64).view(np.uint64).tolist()


def measurements(circuit) -> list[str]:
    """The circuit's measurement steps, in order, by name."""
    return [name for name, *_ in circuit.steps if STEP_KINDS[name][1]]


def compiled_measurements(circuit) -> list[tuple[str, tuple]]:
    """The measurement steps of the circuit's program, in order: each step's
    name and arguments, the first of them its first stream word."""
    return [
        (method.__name__, args)
        for method, *args in circuit.program
        if STEP_KINDS[method.__name__][1]
    ]


def replay_rows(seed, start, count, circuit) -> np.ndarray:
    """The reference: each shot's replay generator, read as ``run_steps``
    reads it: a homodyne's branch pick from ``random(1)`` and its noise pair
    from ``random((1, 2))``, then the pair's normal; a photon readout's
    ``random()``."""
    rows = []
    for i in range(start, start + count):
        rng = shot_rng(seed, i, circuit.words)
        row = []
        for kind in measurements(circuit):
            if kind == "homodyne":
                pick, pair = rng.random(1), rng.random((1, 2))
                row += [pick[0], *pair[0], gaussian(pair[:, 0], pair[:, 1])[0]]
            else:
                row.append(rng.random())
        rows.append(row)
    return np.array(rows)


def engine_rows(seed, start, count, circuit) -> np.ndarray:
    """The same from a block: each measurement's words from the first word
    its program step declares, a homodyne's followed by the block's normal
    for its record, one row per shot."""
    rng = shot_rng(seed, start, circuit.words)
    shots = batch.ShotBlock(count, ProbeMode(8.0, 0.5), rng, circuit)
    columns = []
    for kind, (word, *args) in compiled_measurements(circuit):
        columns += list(shots.words[:, word : word + STEP_KINDS[kind][1]].T)
        if kind == "homodyne":
            columns.append(shots.normals[args[0]])
    return np.array(columns).T


@pytest.mark.parametrize("start", [0, 1024, 2**32])
@pytest.mark.parametrize("seed", SEED_WIDTHS)
def test_draw_table_rows_are_the_default_rng_streams(seed, start):
    """The words one, 40 and 1024-shot blocks read are, bit for bit, the
    words of the shots' replay generators, ``default_rng(seed)`` advanced."""
    for circuit in batch.CIRCUITS.values():
        for count in (1, 40, 1024):
            table = engine_rows(seed, start, count, circuit)
            assert bits(table) == bits(replay_rows(seed, start, count, circuit))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(EXPERIMENTS),
    seed=st.integers(0, 2**160),
    start=st.integers(0, 2**64),
    count=st.integers(1, 100),
)
def test_draw_table_property(name, seed, start, count):
    """Every shot's words, bit for bit, are its replay generator's words."""
    circuit = batch.CIRCUITS[name]
    table = engine_rows(seed, start, count, circuit)
    assert bits(table) == bits(replay_rows(seed, start, count, circuit))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_scalar_gates_read_the_words_their_circuit_declares(experiment):
    """An unforced scalar shot of the circuit's steps leaves its generator
    exactly ``Circuit.words`` words on, where the next shot's replay
    generator starts: 3 for the parity gate and both entanglers, 7 for the
    CNOT."""
    words = batch.CIRCUITS[experiment].words
    assert words == (7 if experiment == "cnot" else 3)
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    for alpha, xd in POINTS:
        probe = ProbeMode(alpha, theta_for(alpha, xd))
        for seed in (0, 2**32, 2**70):
            rng = shot_rng(seed, 0, words)
            replay(experiment, inputs, probe, rng)
            assert rng.bit_generator.state == shot_rng(seed, 1, words).bit_generator.state


def trial_ideal(shots, c, d):
    """A trial circuit's ideal: its own final rows, so every fidelity is 1."""
    return shots.amp


TRIAL_PROBE = ProbeMode(8.0, theta_for(8.0, 4.0))
TRIAL_INPUTS = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))


def assert_engines_run_alike(steps, shots=4):
    """``steps`` on two qubits as a batch circuit whose program calls each
    step kind's own ``ShotBlock`` method, and whose shots replay through
    ``run_steps``, sampled (:func:`assert_same_shots`) and forced; return the
    block."""
    circuit = batch.Circuit(False, steps, trial_ideal)
    assert [method.__name__ for method, *_ in circuit.program] == [name for name, *_ in steps]
    with mock.patch.dict(batch.CIRCUITS, trial=circuit):
        block, replays = assert_same_shots("trial", TRIAL_INPUTS, TRIAL_PROBE, 11, shots)
        assert_forced_replays("trial", TRIAL_INPUTS, TRIAL_PROBE, block, replays)
    return block


@pytest.mark.parametrize("kind", list(STEP_KINDS))
def test_both_engines_run_every_kind_the_table_declares(kind):
    """Each kind, after a homodyne for a feed-forward to follow: a shot takes
    the words the table gives, and both engines run the kind alike."""
    qubits, words = STEP_KINDS[kind]
    step = (kind, ("flip", 1)) if kind == "feed_forward" else (kind, *range(qubits or 1))
    steps = (("homodyne", 0, 1), step)
    assert batch.Circuit(False, steps, trial_ideal).words == STEP_KINDS["homodyne"][1] + words
    assert_engines_run_alike(steps, shots=16)


def test_two_photon_readouts_keep_their_records_and_replay_forced():
    """Each photon readout keeps its own record, so a circuit that reads two
    replays with both outcomes forced.  The second reads qubit 1 in the
    diagonal frame, independent of the first, so the two differ on some shots."""
    steps = (("homodyne", 0, 1), ("photon", 0), ("feed_forward", ("flip", 1)),
             ("rotate", 1), ("photon", 1))
    block = assert_engines_run_alike(steps, shots=32)
    assert batch.Circuit(False, steps, trial_ideal).readouts == 2
    assert block.photon_v.shape == (32, 2)
    assert np.any(block.photon_v[:, 0] != block.photon_v[:, 1])


@pytest.mark.parametrize("shots", [1, 16])
def test_a_photon_readout_of_the_shared_input_row_replays(shots):
    """A photon readout before any homodyne reads the one input row that
    every shot shares, and broadcasts it into a row per shot as it zeroes
    the other outcome's columns; the feed-forward after it keeps its
    flagged rows in place.  Records and finals replay through ``run_steps``."""
    steps = (("photon", 0), ("feed_forward", ("flip", 1), ("sign-flip", 0)),
             ("homodyne", 0, 1), ("feed_forward", ("undo-phase", 1)))
    circuit = batch.Circuit(False, steps, trial_ideal)
    block = batch.ShotBlock(shots, TRIAL_PROBE, np.random.default_rng(11), circuit)
    block.prepare(TRIAL_INPUTS)
    assert block.amp.shape == (1, 4)
    for method, *args in circuit.program[:2]:
        method(block, *args)
    assert block.amp.shape == (shots, 4)
    v = block.photon_v[:, 0]
    # qubit 0 read as V zeroes its H columns, as H its V columns; the flip
    # and sign flip of a V row keep its zeros
    np.testing.assert_array_equal(block.amp[v, :2], 0j)
    np.testing.assert_array_equal(block.amp[~v, 2:], 0j)
    block = assert_engines_run_alike(steps, shots)
    if shots > 1:
        assert 0 < np.count_nonzero(block.photon_v[:, 0]) < shots  # both outcomes read


#: action kinds that one more ``gates.ACTIONS`` entry could declare: an
#: exchange then ``V -> -V``, and an exchange then the record's phase undo
EXTRA_ACTIONS = {"flip-sign": (True, (1, -1)), "undo-phase-flip": (True, None)}


@pytest.mark.parametrize("kind", list(EXTRA_ACTIONS))
def test_one_table_entry_adds_an_action_kind(monkeypatch, kind):
    """An entry added to ``gates.ACTIONS``, and nothing else, is a kind both
    engines run alike: ``check_steps`` accepts it, ``run_steps`` applies it
    and a batch circuit built afresh compiles it; a kind that undoes the
    record's phase still needs a homodyne before it."""
    monkeypatch.setitem(gates.ACTIONS, kind, EXTRA_ACTIONS[kind])
    steps = (("homodyne", 0, 1), ("feed_forward", (kind, 1), ("undo-phase", 0)))
    gates.check_steps(steps, 2)
    block = assert_engines_run_alike(steps, shots=16)
    assert 0 < np.count_nonzero(block.odd[:, 0]) < 16  # the action ran, on some shots
    after_photon = (("photon", 0), ("feed_forward", (kind, 1)))
    if EXTRA_ACTIONS[kind][1] is None:
        assert assert_engines_agree(after_photon) == (
            ContractError, f"an {kind} action follows no homodyne record"
        )
    else:
        assert assert_engines_agree(after_photon) is None


#: a step argument the property draws: one of the two qubits more often
#: than one past either end or a bool; an action, well formed more often than
#: of an unknown kind or malformed
QUBITS = st.sampled_from([0, 1, 0, 1, 0, 1, -1, 2, True])
ACTION_ARGS = st.one_of(
    st.tuples(st.sampled_from(list(ACTIONS)), QUBITS),
    st.sampled_from([("teleport", 0), ("flip",), ("flip", 0, 1), "flip"]),
)


@st.composite
def circuit_step(draw):
    """A step of a real kind, or less often an unknown one, with 0 to 3
    arguments, half the time as many as its kind takes (one for one or
    more)."""
    name = draw(st.sampled_from([*STEP_KINDS, *STEP_KINDS, "measure"]))
    arity = STEP_KINDS[name][0] if name in STEP_KINDS else None
    size = draw(st.one_of(st.just(arity or 1), st.integers(0, 3)))
    arg = ACTION_ARGS if name == "feed_forward" else QUBITS
    return (name, *draw(st.lists(arg, min_size=size, max_size=size)))


def outcome(build):
    """None when ``build()`` returns, else its error's type and message."""
    try:
        build()
    except Exception as error:  # compared, and required to be ours, by the caller
        return type(error), str(error)
    return None


def assert_engines_agree(steps):
    """``run_steps`` and ``batch.Circuit`` both refuse ``steps`` with the same
    ``ContractError`` or ``ValidationError``, or both accept them, and then
    the circuit's shots replay alike; return the refusal or None."""
    state = new_state(list(TRIAL_INPUTS))
    scalar = outcome(lambda: run_steps(state, steps, TRIAL_PROBE, np.random.default_rng(0)))
    assert outcome(lambda: batch.Circuit(False, steps, trial_ideal)) == scalar
    if scalar is None:
        assert_engines_run_alike(steps)
    else:
        assert scalar[0] in (ContractError, ValidationError)
    return scalar


#: circuits that each engine once took its own way: it ran a repeated qubit
#: once or twice, read a photon readout's first qubit alone, ran a circuit
#: that measures nothing, or raised a raw error
MALFORMED = {
    "rotate-repeated-qubit": (("rotate", 0, 0), ("homodyne", 0, 1)),
    "photon-two-qubits": (("homodyne", 0, 1), ("photon", 0, 1)),
    "photon-no-qubit": (("homodyne", 0, 1), ("photon",)),
    "homodyne-one-qubit": (("homodyne", 0),),
    "homodyne-repeated-qubit": (("homodyne", 0, 0),),
    "homodyne-bool-qubit": (("homodyne", True, 0),),
    "rotate-no-qubit": (("rotate",), ("homodyne", 0, 1)),
    "no-measurement": (("rotate", 0),),
    **{
        f"action-{k}": (("homodyne", 0, 1), ("feed_forward", action))
        for k, action in enumerate([("flip",), ("flip", 0, 1), "flip"])
    },
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_both_engines_refuse_each_malformed_circuit(case):
    assert assert_engines_agree(MALFORMED[case]) is not None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lead=st.sampled_from([(), (("homodyne", 0, 1),), (("photon", 1),)]),
       drawn=st.lists(circuit_step(), min_size=1, max_size=3))
@example(lead=(("photon", 1),), drawn=[("feed_forward", ("flip", 0), ("flip", 0))])
@example(lead=(), drawn=list(entangler_45_steps(1, 0, ("sign-flip", 1))))
def test_both_engines_refuse_the_same_circuits(lead, drawn):
    """Short circuits on two qubits, well formed or not, of real kinds and
    an unknown one, most led by a measurement for a feed-forward to follow."""
    assert_engines_agree((*lead, *drawn))


@pytest.mark.parametrize("seed", SEED_WIDTHS)
def test_blocks_past_2_32_replay_through_scalar_gates(seed):
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    assert_replays("cnot", inputs, probe, seed, shots=4, start=2**32)


def test_a_block_across_2_32_equals_two_blocks_split_there():
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    across = run_block("cnot", inputs, probe, 7, 2**32 - 3, 2**32 + 3)
    # as run_shots runs its blocks: the second continues the first's generator
    rng = shot_rng(7, 2**32 - 3, batch.CIRCUITS["cnot"].words)
    below = batch.run_block("cnot", inputs, probe, rng, 3)
    above = batch.run_block("cnot", inputs, probe, rng, 3)
    for field in ("x", "odd", "phi", "photon_v", "final", "fidelity"):
        split = np.concatenate((getattr(below, field), getattr(above, field)))
        assert np.array_equal(getattr(across, field), split), field


@pytest.mark.parametrize(
    "seed,error",
    [
        ("7", TypeError),
        (-1, ValueError),
        (-(2**40), ValueError),
        ([1, 2], TypeError),
        (np.random.SeedSequence(1), TypeError),
        (np.random.default_rng(0), TypeError),
    ],
)
def test_string_and_negative_seeds_are_rejected(seed, error):
    """Only a non-negative integer seeds a run: default_rng would also take a
    sequence, a SeedSequence or a Generator, and advancing a caller's
    Generator would move it in place."""
    with pytest.raises(error):
        run_shots("parity", [(1, 0), (1, 0)], 8.0, theta_for(8.0, 20.0), 2, seed)


def test_threads_keep_their_own_streams():
    """Blocks drawn in several threads at once equal the same blocks drawn alone."""
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    seeds = range(8)
    alone = {s: run_block("cnot", inputs, probe, s, 0, 64).x for s in seeds}
    together, failures = {}, []

    def work(seed):
        try:
            for _ in range(5):
                together.setdefault(seed, []).append(
                    run_block("cnot", inputs, probe, seed, 0, 64).x
                )
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    for s in seeds:
        assert len(together[s]) == 5
        assert all(np.array_equal(x, alone[s]) for x in together[s])


def test_replays_see_errors_at_poor_separation():
    """The xd ~ 4 point must exercise misclassified shots, or it checks nothing new."""
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    block = run_block("cnot", inputs, probe, 91, 0, 200)
    assert np.count_nonzero(block.fidelity < 0.99) > 0


def test_shots_are_independent_of_their_block():
    """Shot i is the same whether it runs first in a block or deep inside one,
    and whether its block is one shot, a few or many."""
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    for experiment in EXPERIMENTS:
        whole = run_block(experiment, inputs, probe, 5, 0, 30)
        for size in (1, 2, 7):
            part = run_block(experiment, inputs, probe, 5, 17, 17 + size)
            rows = slice(17, 17 + size)
            for field in ("x", "odd", "phi", "photon_v"):
                assert np.array_equal(getattr(whole, field)[rows], getattr(part, field))
            assert np.allclose(whole.final[rows], part.final, rtol=0, atol=1e-15)


def test_run_shots_does_not_depend_on_block_size(monkeypatch):
    kwargs = dict(
        experiment="entangler45",
        inputs=[(0.6, 0.8), (0.28, 0.96)],
        alpha=8.0,
        theta=theta_for(8.0, 4.0),
        shots=100,
        seed=3,
    )
    reference = run_shots(**kwargs)
    monkeypatch.setattr(analysis, "BLOCK_SHOTS", 7)
    split = run_shots(**kwargs)
    assert split.logical_error_rate == reference.logical_error_rate
    assert split.parity_frequencies == reference.parity_frequencies
    assert split.mean_fidelity == pytest.approx(reference.mean_fidelity, abs=1e-14)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_shots_is_the_sum_of_its_blocks(experiment):
    """``run_shots``' odd count, fidelity sum and error count are, bit for
    bit, the sums over the ``run_block`` blocks it runs on one
    ``Generator(PCG64(seed))``: a full block, then the 37 shots left."""
    inputs = check_normalized(((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF)))
    probe = ProbeMode(8.0, theta_for(8.0, 6.0))
    shots, seed = analysis.BLOCK_SHOTS + 37, 3
    rng = np.random.Generator(np.random.PCG64(seed))
    odd = errors = 0
    fidelity_sum = 0.0
    for count in (analysis.BLOCK_SHOTS, 37):
        block = batch.run_block(experiment, inputs, probe, rng, count)
        odd += int(np.count_nonzero(block.odd[:, 0]))
        fidelity_sum += float(np.add.reduce(block.fidelity))
        errors += int(np.count_nonzero(block.fidelity < LOGICAL_ERROR_FIDELITY))
    stats = run_shots(experiment, inputs, probe.alpha, probe.theta, shots, seed)
    assert 0 < odd < shots and errors > 0
    even = (shots - odd) / shots
    assert stats.parity_frequencies == (even, 1.0 - even)
    assert stats.mean_fidelity == fidelity_sum / shots
    assert stats.logical_error_rate == errors / shots


@pytest.mark.parametrize(
    "alpha,theta,message",
    [
        (-1.0, 0.5, r"^probe alpha must lie in"),
        (8.0, math.nan, r"^probe theta must lie in"),
        (1e17, theta_for(1e17), r"^probe theta .* is unresolvable in floating point"),
    ],
)
def test_an_invalid_probe_raises_on_every_call(alpha, theta, message):
    """``analysis.geometry`` caches a validated probe, never its error."""
    for _ in range(3):
        with pytest.raises(ValidationError, match=message):
            run_shots("parity", [(1, 0), (1, 0)], alpha, theta, 2, 1)
        with pytest.raises(ValidationError, match=message):
            analysis.geometry(alpha, theta)


@pytest.mark.parametrize(
    "first,second",
    [((100, theta_for(100.0)), (100.0, theta_for(100.0))), ((100.0, 0.0), (100.0, -0.0))],
    ids=["int-alpha", "signed-zero-theta"],
)
def test_equal_probe_keys_give_equal_stats_in_either_order(first, second):
    """Keys that compare equal share one cache entry, whichever fills it."""
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    for experiment in EXPERIMENTS:
        stats = []
        for order in ((first, second), (second, first)):
            analysis.geometry.cache_clear()
            stats += [run_shots(experiment, inputs, *key, 40, 9) for key in order]
        assert all(s == stats[0] for s in stats), experiment


def test_phi_is_finished_only_when_read(monkeypatch):
    """``run_shots`` never computes ``phi``; a block computes it on first read,
    ``arctan2`` of each collapse's ``e^{ip}`` taken mod 2 pi, and keeps it."""
    reads = []
    lazy = batch.ShotBlock.phi.func

    def counted(block):
        reads.append(block)
        return lazy(block)

    monkeypatch.setattr(batch.ShotBlock, "phi", property(counted))
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    for experiment in EXPERIMENTS:
        run_shots(experiment, inputs, probe.alpha, probe.theta, 30, 4)
    assert reads == []
    block = run_block("cnot", inputs, probe, 4, 0, 30)
    assert block.phi.shape == block.x.shape
    assert len(reads) == 1
    monkeypatch.undo()

    block = run_block("cnot", inputs, probe, 4, 0, 30)
    eip = block.eip
    eager = np.arctan2(eip.imag, eip.real)
    np.remainder(eager, 2.0 * math.pi, out=eager)
    assert block.phi is block.phi
    assert np.array_equal(block.phi, eager.T)
    # e^{ip} is the collapse's, p = b (x - a) with a + i b = label(1)
    label = probe.label(1)
    np.testing.assert_allclose(eip.T, np.exp(1j * label.imag * (block.x - label.real)), atol=1e-12)


def far_noise(monkeypatch, record, shift=1e3, shots=slice(None)):
    """Push the noise of homodyne record ``record`` (from 0) by ``shift`` in
    the ``shots`` rows of every block: a shift of 1e3 lands far outside every
    peak, where every kernel value underflows, and nan makes a nan row.  A
    block makes the normals of all its records in one ``gaussian`` call, a
    row per record."""
    draw = batch.gaussian

    def shifted(u1, u2):
        z = draw(u1, u2)
        z[record, shots] += shift
        return z

    monkeypatch.setattr(batch, "gaussian", shifted)


def test_zero_norm_collapse_is_rejected(monkeypatch):
    """A sample far outside every peak underflows every kernel value; the
    block's one norm, at its end, names the collapse."""
    far_noise(monkeypatch, 0)
    with pytest.raises(ValidationError, match="^collapse at x=.*zero-norm"):
        run_block("parity", ((1, 0), (1, 0)), ProbeMode(5.0, 0.5), 0, 0, 4)


def test_zero_norm_second_collapse_is_rejected(monkeypatch):
    """The same in the CNOT's second homodyne, where each shot has a row; the
    photon readout's total finds it and names the collapse."""
    far_noise(monkeypatch, 1)
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    with pytest.raises(ValidationError, match="^collapse at x=.*zero-norm"):
        run_block("cnot", inputs, ProbeMode(5.0, 0.5), 0, 0, 4)


def test_zero_norm_first_cnot_collapse_is_named_by_the_next_pick(monkeypatch):
    """A zero row left by the CNOT's first collapse reaches the second
    homodyne's branch pick, which names the first collapse's ``x``."""
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    probe = ProbeMode(5.0, 0.5)
    x = run_block("cnot", inputs, probe, 0, 0, 4).x[2, 0] + 1e3
    far_noise(monkeypatch, 0, shots=2)
    with pytest.raises(ValidationError, match="^collapse at x=.* leaves a zero-norm state$") as info:
        run_block("cnot", inputs, probe, 0, 0, 4)
    assert float(str(info.value).split()[2][2:]) == pytest.approx(x, abs=1e-9)


@pytest.mark.parametrize("experiment,record", [("parity", 0), ("cnot", 0), ("cnot", 1)])
def test_nan_collapse_is_rejected(monkeypatch, experiment, record):
    """A nan outcome leaves a nan row, which fails the norm check like a zero
    one, without a NumPy warning on the way."""
    far_noise(monkeypatch, record, shift=math.nan, shots=1)
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    with pytest.raises(ValidationError, match="^collapse at x=nan leaves a zero-norm state$"):
        run_block(experiment, inputs, ProbeMode(5.0, 0.5), 0, 0, 4)


ALPHAS = (10.0, 100.0, 1e5, 1e9)
XDS = (4.0, 8.0, 20.0)
amplitude = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def qubit_pair(draw):
    v = np.array([complex(draw(amplitude), draw(amplitude)) for _ in range(2)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v, n = np.array([1 + 0j, 0j]), 1.0
    v /= n
    return complex(v[0]), complex(v[1])


@settings(max_examples=30, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    c=qubit_pair(),
    d=qubit_pair(),
    alpha=st.sampled_from(ALPHAS),
    xd=st.sampled_from(XDS),
    seed=st.integers(0, 2**31 - 1),
)
def test_run_shots_error_count_equals_scalar_replay(experiment, c, d, alpha, xd, seed):
    shots = 16
    theta = theta_for(alpha, xd)
    stats = run_shots(experiment, [c, d], alpha, theta, shots, seed)
    _, fid = scalar_fidelities(experiment, (c, d), ProbeMode(alpha, theta), shots, seed)
    expected = np.count_nonzero(fid < LOGICAL_ERROR_FIDELITY)
    assert round(stats.logical_error_rate * shots) == expected


def log_binomial_tail(k, n, p):
    """Smaller of P(X <= k) and P(X >= k) for X ~ Binomial(n, p), summed in
    log space so that large ``n`` neither overflows nor underflows."""
    base = math.lgamma(n + 1)
    log_pmf = [
        base - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p)
        for j in range(n + 1)
    ]
    top = max(log_pmf)
    pmf = [math.exp(v - top) for v in log_pmf]
    scale = math.exp(top)
    return min(math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])) * scale


#: Born-rule probability that the first homodyne record reads even, for
#: (0.6, 0.8) and (0.28, 0.96); the entangler45 reads it in the diagonal
#: basis and the cnot on (control, ancilla |+>)
BORN_EVEN = {
    "parity": (0.6 * 0.28) ** 2 + (0.8 * 0.96) ** 2,
    "entangler": (0.6 * 0.28) ** 2 + (0.8 * 0.96) ** 2,
    "entangler45": ((0.6 + 0.8) * (0.28 + 0.96) / 2) ** 2
    + ((0.6 - 0.8) * (0.28 - 0.96) / 2) ** 2,
    "cnot": 0.5,
}
#: false-alarm probability of each experiment's count
BORN_FALSE_ALARM = 1e-9


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_first_record_parity_counts_follow_the_born_rule(experiment):
    """Even first records summed over 40 seeds of 1024 shots, at xd = 20
    (misreads ~1e-23), against the exact binomial tail, as the benchmark
    checks each call."""
    probe = ProbeMode(100.0, theta_for(100.0, 20.0))
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    blocks = [run_block(experiment, inputs, probe, seed, 0, 1024) for seed in range(40)]
    even = sum(int(np.count_nonzero(~b.odd[:, 0])) for b in blocks)
    assert log_binomial_tail(even, 40 * 1024, BORN_EVEN[experiment]) > BORN_FALSE_ALARM

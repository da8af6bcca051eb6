"""Batched shot engine against the scalar gates, shot for shot.

Every batched shot is replayed through the scalar gates twice: once on its
own generator, the run's ``default_rng(seed)`` advanced to the shot's words,
which must reproduce the same records, and once with its recorded outcomes
forced through ``force_x*`` and ``force_photon``.  Both replays must land on
the batched final state.  The record-conditional ideal outputs are rebuilt
here as branch-label states from the paper's formulas, independently of the
engine's dense ones.

Each feed-forward the circuits make is checked against the masked matrix
products it replaces, on random blocks.

The draws each block's shots read from its words are checked bit for bit
against those replay generators, for seeds of one to five 32-bit words and
for blocks at and across ``2**32``.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import (
    ANCILLA_PLUS,
    HybridState,
    ProbeMode,
    ValidationError,
    cnot,
    entangler,
    entangler_45,
    fidelity,
    new_state,
    parity_gate,
    run_shots,
)
from kerrgate import analysis, batch
from kerrgate.analysis import LOGICAL_ERROR_FIDELITY
from kerrgate.gates import (
    CNOT_PHOTON_PLAN,
    CNOT_SIGN_PLAN,
    ENTANGLER_45_PLAN,
    ENTANGLER_PLAN,
    FIXED_ACTIONS,
    resolve_action,
)
from kerrgate.measurement import gaussian
from kerrgate.states import ALPHA_MAX

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


def scalar_shot(experiment, c, d, probe, rng, xs=(None, None), photon=None):
    """One shot through the scalar gates: (records, photon outcome, final state)."""
    if experiment == "parity":
        record, final = parity_gate(new_state([c, d]), 0, 1, probe, rng, xs[0])
        return (record,), None, final
    if experiment == "entangler":
        trace, final = entangler(new_state([c, d]), 0, 1, probe, rng, xs[0])
    elif experiment == "entangler45":
        trace, final = entangler_45(new_state([c, d]), 0, 1, probe, rng, xs[0])
    else:
        trace, final = cnot(
            new_state([c, ANCILLA_PLUS, d]), 0, 1, 2, (probe, probe), rng,
            force_x1=xs[0], force_x2=xs[1], force_photon=photon,
        )
    outcome = trace.photon_outcomes[0][1] if trace.photon_outcomes else None
    return trace.records, outcome, final


def ideal_state(experiment, c, d, record, photon):
    """Record-conditional ideal output, or None when the record contradicts the input."""
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
        a = photon
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


def scalar_errors(experiment, inputs, probe, shots, seed):
    """Logical errors of the scalar reference over shots 0 .. shots - 1."""
    words = batch.CIRCUITS[experiment].words
    errors = 0
    for i in range(shots):
        records, photon, final = scalar_shot(
            experiment, *inputs, probe, shot_rng(seed, i, words)
        )
        ideal = ideal_state(experiment, *inputs, records[0], photon)
        errors += (fidelity(final, ideal) if ideal is not None else 0.0) < LOGICAL_ERROR_FIDELITY
    return errors


def assert_replays(experiment, inputs, probe, seed, shots=SHOTS, start=0):
    block = run_block(experiment, inputs, probe, seed, start, start + shots)
    words = batch.CIRCUITS[experiment].words
    for i in range(shots):
        records, photon, final = scalar_shot(
            experiment, *inputs, probe, shot_rng(seed, start + i, words)
        )
        assert [r.parity == "odd" for r in records] == list(block.odd[i])
        for r, x, phi in zip(records, block.x[i], block.phi[i]):
            assert abs(x - r.x) <= 1e-9 * max(1.0, abs(r.x))
            assert abs(np.exp(1j * phi) - np.exp(1j * r.phi)) <= 1e-9
        assert (photon == "V") == block.photon_v[i]
        assert state_fidelity(dense(final), block.final[i]) >= 1.0 - 1e-12

        ideal = ideal_state(experiment, *inputs, records[0], photon)
        fid = fidelity(final, ideal) if ideal is not None else 0.0
        assert block.fidelity[i] == pytest.approx(fid, abs=1e-12)

        # forcing the recorded outcomes reproduces the shot without sampling
        forced = scalar_shot(
            experiment, *inputs, probe, np.random.default_rng(0),
            xs=tuple(block.x[i]) + (None,), photon="V" if block.photon_v[i] else "H",
        )
        assert [r.parity for r in forced[0]] == [r.parity for r in records]
        assert state_fidelity(dense(forced[2]), block.final[i]) >= 1.0 - 1e-12


@pytest.mark.parametrize("theta", [theta_for(ALPHA_MAX), 0.5, math.pi], ids=["xd20", "0.5", "pi"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_both_engines_run_at_alpha_max(experiment, theta):
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    assert_replays(experiment, inputs, ProbeMode(ALPHA_MAX, theta), seed=5, shots=8)


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


#: every feed-forward step of the four circuits, as the key of batch._correction,
#: (qubits, plan, slot wiring), with its experiment and step index as test id
FEED_FORWARDS = {
    f"{name}-{k}": (3 if circuit.ancilla else 2, *args)
    for name, circuit in batch.CIRCUITS.items()
    for k, (method, *args) in enumerate(circuit.steps)
    if method is batch._Shots.feed_forward
}


def lifted(n, gate):
    """``gate``'s 2x2 matrix on ``n`` qubits, transposed to right-multiply rows."""
    q = gate.qubit_index
    full = np.kron(np.kron(np.eye(1 << q), gate.matrix), np.eye(1 << (n - 1 - q)))
    return full.T


def masked_feed_forward(amp, n, plan, slots, flag, phi):
    """The reference: the plan's actions as lifted 2x2 matrices (or the
    per-shot phase gate) on the flagged rows only."""
    amp = amp.copy()
    for action in plan:
        kind, qubit = resolve_action(action, dict(slots))
        if kind != "undo-phase":
            amp[flag] = amp[flag] @ lifted(n, FIXED_ACTIONS[kind](qubit))
            continue
        ph = np.exp(1j * phi[flag])[:, None]
        amp[flag] *= np.where(batch._v_bits(n)[:, qubit], ph, ph.conj())
    return amp


def test_the_circuits_feed_forward_through_every_plan():
    plans = {plan for _, plan, _ in FEED_FORWARDS.values()}
    assert plans == {ENTANGLER_PLAN, ENTANGLER_45_PLAN, CNOT_SIGN_PLAN, CNOT_PHOTON_PLAN}


@pytest.mark.parametrize("case", list(FEED_FORWARDS))
@pytest.mark.parametrize("flags", ["mixed", "none", "all"])
def test_compiled_feed_forward_equals_masked_matrix_products(case, flags):
    n, plan, slots = FEED_FORWARDS[case]
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

    shots = batch._Shots(count, ProbeMode(8.0, 0.5), np.random.default_rng(0), ("random",))
    shots.n, shots.amp, shots.flag, shots.flag_phi = n, amp.copy(), flag, phi
    shots.feed_forward(plan, slots)
    expected = masked_feed_forward(amp, n, plan, slots, flag, phi)
    # equal as numbers; the sign of a zero may differ from the matrix product's
    assert np.array_equal(shots.amp, expected)


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


def replay_rows(seed, start, count, draws) -> np.ndarray:
    """The reference: each shot's replay generator, read as the scalar
    engine reads it (a normal from ``rng.random((1, 2))``)."""
    words = sum(2 if method == "standard_normal" else 1 for method in draws)
    rows = []
    for i in range(start, start + count):
        rng = shot_rng(seed, i, words)
        row = []
        for method in draws:
            if method == "random":
                row.append(rng.random())
            else:
                u = rng.random((1, 2))
                row.append(gaussian(u[:, 0], u[:, 1])[0])
        rows.append(row)
    return np.array(rows).reshape(count, len(draws))


def engine_rows(seed, start, count, draws) -> np.ndarray:
    """The draws of a block's shots, read in circuit order from the block's
    words as the engine's steps read them, one row per shot."""
    rng = shot_rng(seed, start, batch._words(draws))
    shots = batch._Shots(count, ProbeMode(8.0, 0.5), rng, draws)
    read = {"random": shots._uniform, "standard_normal": shots._normal}
    return np.array([read[method]() for method in draws]).T


@pytest.mark.parametrize("start", [0, 1024, 2**32])
@pytest.mark.parametrize("seed", SEED_WIDTHS)
def test_draw_table_rows_are_the_default_rng_streams(seed, start):
    """The draws one, 40 and 1024-shot blocks read are, bit for bit, the
    draws of the shots' replay generators, ``default_rng(seed)`` advanced."""
    for circuit in batch.CIRCUITS.values():
        for count in (1, 40, 1024):
            table = engine_rows(seed, start, count, circuit.draws)
            assert bits(table) == bits(replay_rows(seed, start, count, circuit.draws))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(EXPERIMENTS),
    seed=st.integers(0, 2**160),
    start=st.integers(0, 2**64),
    count=st.integers(1, 100),
)
def test_draw_table_property(name, seed, start, count):
    """Every shot's draws, bit for bit, are its replay generator's draws."""
    draws = batch.CIRCUITS[name].draws
    table = engine_rows(seed, start, count, draws)
    assert bits(table) == bits(replay_rows(seed, start, count, draws))


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


def far_noise(monkeypatch, record):
    """Push every shot's noise in homodyne record ``record`` (from 0) far
    outside every peak, where every kernel value underflows."""
    normals = itertools.count()
    draw = batch.gaussian

    def shifted(u1, u2):
        z = draw(u1, u2)
        return z + 1e3 if next(normals) == record else z

    monkeypatch.setattr(batch, "gaussian", shifted)


def test_zero_norm_collapse_is_rejected(monkeypatch):
    """A sample far outside every peak underflows every kernel value."""
    far_noise(monkeypatch, 0)
    with pytest.raises(ValidationError, match="at x=.*zero-norm"):
        run_block("parity", ((1, 0), (1, 0)), ProbeMode(5.0, 0.5), 0, 0, 4)


def test_zero_norm_second_collapse_is_rejected(monkeypatch):
    """The same in the CNOT's second homodyne, where each shot has a row."""
    far_noise(monkeypatch, 1)
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    with pytest.raises(ValidationError, match="at x=.*zero-norm"):
        run_block("cnot", inputs, ProbeMode(5.0, 0.5), 0, 0, 4)


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
    expected = scalar_errors(experiment, (c, d), ProbeMode(alpha, theta), shots, seed)
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

"""Batched shot engine against the scalar gates, shot for shot.

Every batched shot is replayed through the scalar gates twice: once with its
own generator ``default_rng([seed, i])``, which must reproduce the same
records, and once with its recorded outcomes forced through ``force_x*`` and
``force_photon``.  Both replays must land on the batched final state.  The
record-conditional ideal outputs are rebuilt here as branch-label states from
the paper's formulas, independently of the engine's dense ones.

The per-shot draw tables are checked bit for bit against
``default_rng([seed, i])`` on both of ``_draw_table``'s paths and on pinned
rows whose normal draws leave the ziggurat's one-word fast path; the
ziggurat tables themselves are probed out of the installed NumPy.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import (
    ANCILLA_PLUS,
    ContractError,
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
        record, final = parity_gate(new_state([c, d]), 0, 1, probe, "computational", rng, xs[0])
        return (record,), None, final
    if experiment == "entangler":
        trace, final = entangler(new_state([c, d]), 0, 1, probe, "computational", rng, xs[0])
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
            [(c0 * d1 * ph, "HV", ()), (c1 * d0 / ph, "VH", ())]
            if odd
            else [(c0 * d0, "HH", ()), (c1 * d1, "VV", ())]
        )
    elif experiment == "entangler":
        branches = (
            [(c0 * d1, "HH", ()), (c1 * d0, "VV", ())]
            if odd
            else [(c0 * d0, "HH", ()), (c1 * d1, "VV", ())]
        )
    elif experiment == "entangler45":
        if odd:
            c1 = -c1
        dd = (c0 + c1) / 2 * (d0 + d1) / 2
        dbdb = (c0 - c1) / 2 * (d0 - d1) / 2
        branches = [
            (dd + dbdb, "HH", ()), (dd - dbdb, "HV", ()),
            (dd - dbdb, "VH", ()), (dd + dbdb, "VV", ()),
        ]
    else:
        a = photon
        branches = [
            (c0 * d0, ("H", a, "H"), ()), (c0 * d1, ("H", a, "V"), ()),
            (c1 * d0, ("V", a, "V"), ()), (c1 * d1, ("V", a, "H"), ()),
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


def scalar_errors(experiment, inputs, probe, shots, seed):
    """Logical errors of the scalar reference over shots 0 .. shots - 1."""
    errors = 0
    for i in range(shots):
        records, photon, final = scalar_shot(
            experiment, *inputs, probe, np.random.default_rng([seed, i])
        )
        ideal = ideal_state(experiment, *inputs, records[0], photon)
        errors += (fidelity(final, ideal) if ideal is not None else 0.0) < LOGICAL_ERROR_FIDELITY
    return errors


def assert_replays(experiment, inputs, probe, seed, shots=SHOTS, start=0):
    block = batch.run_block(experiment, inputs, probe, seed, start, start + shots)
    for i in range(shots):
        records, photon, final = scalar_shot(
            experiment, *inputs, probe, np.random.default_rng([seed, start + i])
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


POINTS = [(10.0, 20.0), (100.0, 20.0), (1e9, 20.0), (8.0, 4.0)]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("alpha,xd", POINTS)
@pytest.mark.parametrize("make", [haar_pair, basis_pair], ids=["haar", "basis"])
def test_batched_shots_replay_through_scalar_gates(experiment, alpha, xd, make):
    rng = np.random.default_rng([int(alpha), int(xd), EXPERIMENTS.index(experiment)])
    inputs = (make(rng), make(rng))
    assert_replays(experiment, inputs, ProbeMode(alpha, theta_for(alpha, xd)), seed=91)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70])
def test_every_seed_width_keeps_the_per_shot_stream(seed):
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    assert_replays("cnot", inputs, ProbeMode(8.0, theta_for(8.0, 4.0)), seed, shots=6)


def test_non_integer_seed_is_rejected():
    """A float seed must not be truncated into another seed's shots."""
    with pytest.raises(TypeError):
        run_shots("parity", [(1, 0), (1, 0)], 8.0, theta_for(8.0, 20.0), 2, 3.5)


#: seeds of 1 to 5 uint32 words: SeedSequence mixes words past the fourth in a
#: separate tail loop, and a shot index past 2**32 adds a word of its own
SEED_WIDTHS = [0, 2**31 - 1, 2**32, 2**64 + 1, 2**96 + 7, 2**128 + 3]


def bits(values) -> list[int]:
    """Float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, np.float64).view(np.uint64).tolist()


def default_rng_rows(seed, start, count, draws) -> np.ndarray:
    """The reference: one ``default_rng([seed, i])`` per row, called in order."""
    rows = []
    for i in range(start, start + count):
        rng = np.random.default_rng([seed, i])
        rows.append([getattr(rng, method)() for method in draws])
    return np.array(rows).reshape(count, len(draws))


#: both sides of the block size below which _draw_table sets a Generator per row
DRAW_COUNTS = (5, 40)


@pytest.mark.parametrize("start", [0, 1024, 2**32])
@pytest.mark.parametrize("seed", SEED_WIDTHS)
def test_draw_table_rows_are_the_default_rng_streams(seed, start):
    assert DRAW_COUNTS[0] < batch._ARRAY_MIN_SHOTS <= DRAW_COUNTS[1]
    for circuit in batch.CIRCUITS.values():
        for count in DRAW_COUNTS:
            table = batch._draw_table(seed, start, count, circuit.draws)
            assert bits(table) == bits(default_rng_rows(seed, start, count, circuit.draws))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(EXPERIMENTS),
    seed=st.integers(0, 2**160),
    high=st.integers(0, 2**31),
    low=st.integers(0, 2**32 - 1),
    count=st.integers(1, 100),
)
def test_draw_table_property(name, seed, high, low, count):
    start = (high << 32) | min(low, 2**32 - count)  # no straddle of a multiple of 2**32
    draws = batch.CIRCUITS[name].draws
    table = batch._draw_table(seed, start, count, draws)
    assert bits(table) == bits(default_rng_rows(seed, start, count, draws))


def state_emitting(word: int) -> dict:
    """PCG64 state whose next 64-bit output is ``word``: with inc = 1 the next
    state is ``word`` itself, and its high half 0 makes XSL-RR return the low
    half unchanged."""
    inverse = pow(batch._PCG_MULT, -1, 1 << 128)
    return {
        "bit_generator": "PCG64",
        "state": {"state": (word - 1) * inverse % (1 << 128), "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


def test_ziggurat_tables_are_the_installed_numpys():
    """Probe every layer's wi and ki out of Generator.standard_normal: a NumPy
    release that changes its normal stream (NEP 19 allows it) fails here."""
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = gen.bit_generator

    def normal(layer, rabs):
        """The draw for word (rabs, sign 0, layer), and whether it took one word."""
        word = (rabs << 9) | layer
        pcg.state = state_emitting(word)
        x = gen.standard_normal()
        return x, pcg.state["state"]["state"] == word

    for layer in range(256):
        assert bits(normal(layer, 1)[0]) == bits(batch._ZIGGURAT_WI[layer])
        lo, hi = 0, 1 << 52  # smallest rabs that takes more than one word
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if normal(layer, mid)[1] else (lo, mid)
        assert lo == batch._ZIGGURAT_KI[layer], layer


def test_ziggurat_fast_path_matches_the_generator_at_its_edges():
    """Words at rabs = 0, 1, ki - 1, ki and the top, with either sign, in
    every layer: same bits as NumPy where it takes one word, and rejected
    exactly where NumPy reads more (rabs = 0 with the sign bit is -0.0)."""
    gen = np.random.Generator(np.random.PCG64(0))
    top = (1 << 52) - 1
    words = [
        (rabs << 9) | (sign << 8) | layer
        for layer in range(256)
        for ki in [int(batch._ZIGGURAT_KI[layer])]
        for rabs in {0, 1, max(ki - 1, 0), min(ki, top), top}
        for sign in (0, 1)
    ]
    x, accepted = batch._ziggurat_fast_path(np.array(words, np.uint64))
    for word, xi, ok in zip(words, x, accepted):
        gen.bit_generator.state = state_emitting(word)
        expected = gen.standard_normal()
        assert ok == (gen.bit_generator.state["state"]["state"] == word), hex(word)
        if ok:
            assert bits(xi) == bits(expected), hex(word)


#: cnot shots (seed 0 unless given) whose normals leave the ziggurat's fast
#: path, with the words each draw takes: (seed, shot, words per draw, kind)
FALLBACK_SHOTS = [
    (0, 296, (1, 2, 1, 1, 1), "wedge"),  # wedge test accepts
    (0, 110, (1, 3, 1, 1, 1), "wedge"),  # wedge test rejects once
    (0, 50, (1, 1, 1, 2, 1), "wedge"),  # on the second normal only
    (0, 194, (1, 2, 1, 1, 1), "idx1"),  # ki[1] = 0
    (0, 117, (1, 1, 1, 3, 1), "idx1"),  # whose wedge test rejects once
    (0, 3543, (1, 3, 1, 1, 1), "tail"),
    (0, 9416, (1, 1, 1, 3, 1), "tail"),
    (2, 25831, (1, 5, 1, 1, 1), "tail"),  # the tail loop rejects once
]


@pytest.mark.parametrize("seed,shot,words,kind", FALLBACK_SHOTS)
def test_fallback_rows_are_the_default_rng_streams(seed, shot, words, kind):
    draws = batch.CIRCUITS["cnot"].draws
    # the pinned shot takes the path it is pinned for: count the words each
    # draw takes by matching states along the raw stream
    walk = np.random.PCG64(np.random.SeedSequence([seed, shot]))
    raw, states = [], [walk.state["state"]["state"]]
    for _ in range(sum(words)):
        raw.append(int(walk.random_raw()))
        states.append(walk.state["state"]["state"])
    rng = np.random.default_rng([seed, shot])
    ends = []
    for method in draws:
        getattr(rng, method)()
        ends.append(states.index(rng.bit_generator.state["state"]["state"]))
    assert tuple(np.diff([0] + ends)) == words
    first = next(k for k, n in enumerate(words) if n > 1)
    layer = raw[ends[first - 1]] & 0xFF  # of the word that left the fast path
    assert {"tail": layer == 0, "idx1": layer == 1, "wedge": layer >= 2}[kind]

    # its row, inside a block on the array path, is the default_rng stream
    start = shot - shot % 64
    table = batch._draw_table(seed, start, 64, draws)
    assert bits(table[shot - start]) == bits(default_rng_rows(seed, shot, 1, draws)[0])


@pytest.mark.parametrize("seed", SEED_WIDTHS)
def test_blocks_past_2_32_replay_through_scalar_gates(seed):
    inputs = ((0.6 + 0j, 0.8j), (SQRT_HALF, -SQRT_HALF))
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    assert_replays("cnot", inputs, probe, seed, shots=4, start=2**32)


def test_a_block_may_not_straddle_a_multiple_of_2_32():
    probe = ProbeMode(8.0, theta_for(8.0, 20.0))
    with pytest.raises(ContractError, match="straddle"):
        batch.run_block("parity", ((1, 0), (1, 0)), probe, 0, 2**32 - 2, 2**32 + 2)


@pytest.mark.parametrize("seed,error", [("7", TypeError), (-1, ValueError), (-(2**40), ValueError)])
def test_string_and_negative_seeds_are_rejected(seed, error):
    with pytest.raises(error):
        run_shots("parity", [(1, 0), (1, 0)], 8.0, theta_for(8.0, 20.0), 2, seed)


@pytest.mark.parametrize(
    "draws",
    [("standard_normal", "random"), ("random",), ("random", "standard_normal", "random")],
    ids=["out-of-order", "too-few", "too-many"],
)
def test_circuits_draw_exactly_what_they_declare(monkeypatch, draws):
    monkeypatch.setitem(batch.CIRCUITS, "parity", batch.Circuit(batch._parity, draws))
    with pytest.raises(ContractError):
        batch.run_block("parity", ((1, 0), (1, 0)), ProbeMode(5.0, 0.5), 0, 0, 4)


def test_threads_keep_their_own_streams():
    """Blocks drawn in several threads at once equal the same blocks drawn alone."""
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    seeds = range(8)
    alone = {s: batch.run_block("cnot", inputs, probe, s, 0, 64).x for s in seeds}
    together, failures = {}, []

    def work(seed):
        try:
            for _ in range(5):
                together.setdefault(seed, []).append(
                    batch.run_block("cnot", inputs, probe, seed, 0, 64).x
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
    block = batch.run_block("cnot", inputs, probe, 91, 0, 200)
    assert np.count_nonzero(block.fidelity < 0.99) > 0


def test_shots_are_independent_of_their_block():
    """Shot i is the same whether it runs first in a block or deep inside one."""
    probe = ProbeMode(8.0, theta_for(8.0, 4.0))
    inputs = ((0.6 + 0j, 0.8 + 0j), (0.28 + 0j, 0.96 + 0j))
    whole = batch.run_block("cnot", inputs, probe, 5, 0, 30)
    tail = batch.run_block("cnot", inputs, probe, 5, 17, 30)
    assert np.array_equal(whole.x[17:], tail.x)
    assert np.array_equal(whole.photon_v[17:], tail.photon_v)
    assert np.allclose(whole.final[17:], tail.final, rtol=0, atol=1e-15)


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


def test_zero_norm_collapse_is_rejected(monkeypatch):
    """A sample far outside every peak underflows every kernel value."""
    draw = batch._Shots._draw

    def far_noise(self, method):
        values = draw(self, method)
        return values + 1e3 if method == "standard_normal" else values

    monkeypatch.setattr(batch._Shots, "_draw", far_noise)
    with pytest.raises(ValidationError, match="zero-norm"):
        batch.run_block("parity", ((1, 0), (1, 0)), ProbeMode(5.0, 0.5), 0, 0, 4)


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

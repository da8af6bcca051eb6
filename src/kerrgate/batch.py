"""Batched shot engine behind :func:`kerrgate.analysis.run_shots`.

Every circuit run here keeps exactly one branch per polarization basis string
and has at most one probe active at a time.  A shot's branch-label state is
therefore a dense vector of ``2**n`` amplitudes plus one probe phase index
per basis string, and that phase-index table belongs to the parity gate, not
to the shot (``HH -> 0``, ``HV -> +1``, ``VH -> -1``, ``VV -> 0``).  A block
of shots is one ``(shots, 2**n)`` complex array, and each circuit step is one
array operation on it:

- homodyne sampling picks each shot's branch by a ``searchsorted`` on its
  ``cumsum(|a|^2)`` and adds the shot's unit normal to that branch's peak;
- collapse multiplies by the measurement kernel ``<x|beta_k>`` and
  renormalizes;
- feed-forward applies a 2x2 gate to the shots whose outcome calls for it,
  read from the same plans the scalar gates execute;
- the QND photon readout is ``u < p_V``;
- fidelity with the record-conditional ideal output is one contraction.

Column ``j`` holds the basis string whose qubit ``q`` is ``V`` iff bit
``n - 1 - q`` of ``j`` is set: the scalar engine's sorted branch order.

Shot ``i`` draws from its own ``default_rng([seed, i])`` in the scalar order
(``u, z`` per homodyne, then ``u`` for the photon), so it sees exactly the
numbers the scalar gates in :mod:`kerrgate.gates` would.  Those gates stay
the reference: replaying a shot through them, with the same generator or
with its recorded outcomes forced, gives the same records and final state.

No generator is built per shot.  NumPy's ``SeedSequence`` hash is ported to
uint32 array arithmetic, so the PCG64 seed words of every shot in a block
come out of one pass; each shot's 128-bit state is then set into one reused
``PCG64`` per thread, and NumPy's own ``Generator`` makes that shot's
declared draws (:attr:`Circuit.draws`) into a ``(shots, draws)`` table.  The
streams are the ones ``default_rng([seed, i])`` gives, number for number.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, ValidationError
from .gates import (
    ANCILLA_PLUS,
    FIXED_ACTIONS,
    FeedForwardPlan,
    cnot_plan,
    entangler_45_plan,
    entangler_plan,
    resolve_action,
)
from .measurement import KERNEL_PEAK
from .optics import build_parity_coupling_pair, diagonal_basis_change
from .states import ProbeMode

#: shots simulated together; a constant, so peak memory does not grow with
#: the shot count and results do not depend on a tunable
BLOCK_SHOTS = 1024

_TWO_PI = 2.0 * math.pi
#: ideal outputs with less squared norm than this contradict the record outright
_IDEAL_NORM_FLOOR = 1e-300


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)  # cached and shared by every block
    return table


@lru_cache(maxsize=None)
def _v_bits(n: int) -> np.ndarray:
    """``(2**n, n)`` table: True where qubit ``q`` of column ``j`` is V."""
    cols = np.arange(1 << n)[:, None]
    return _frozen((cols >> (n - 1 - np.arange(n))[None, :]) & 1 == 1)


@lru_cache(maxsize=None)
def _phase_index(n: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Probe phase index of each column after the parity detector's kicks."""
    v = _v_bits(n)
    k = np.zeros(1 << n, np.int64)
    for kick in build_parity_coupling_pair(qubit_a, qubit_b, 0):
        k += kick.sign * (v[:, kick.qubit_index] == (kick.trigger_polarization == "V"))
    return _frozen(k)


@lru_cache(maxsize=None)
def _lifted(n: int, qubit: int, factory: Callable) -> np.ndarray:
    """``factory(qubit)``'s 2x2 matrix lifted to ``n`` qubits, transposed so
    that it right-multiplies a block's rows."""
    full = np.kron(np.eye(1 << qubit), factory(qubit).matrix)
    return _frozen(np.kron(full, np.eye(1 << (n - 1 - qubit))).T.copy())


# -- per-shot streams: default_rng([seed, i]) rebuilt a block at a time -------
#
# NumPy documents SeedSequence's hash as stable: the entropy ``[seed, i]`` is
# split into little-endian uint32 words, mixed into a pool of 4 words, and the
# pool is hashed out into PCG64's 128-bit seed and stream.  Each hash call's
# constants depend only on how many calls went before, never on the data, so
# one constant sequence serves every shot and each step is an array operation
# across the block.  The constants are NumPy's.

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_local = threading.local()


def _words(value: int) -> list[int]:
    """``value``'s uint32 words, least significant first, as SeedSequence splits it."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


@lru_cache(maxsize=None)
def _hash_calls(init: int, mult: int, calls: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the constants of the hash calls ``calls``: call ``k`` xors
    with ``init * mult**k`` and multiplies by ``init * mult**(k + 1)``, mod 2**32."""

    def column(powers):
        values = [init * pow(mult, k, 1 << 32) & _M32 for k in powers]
        return _frozen(np.array(values, np.uint32)[:, None])

    return column(calls), column([k + 1 for k in calls])


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ (v >> 16)


def _seed_words(seed: int, start: int, count: int) -> np.ndarray:
    """``(4, count)``: ``SeedSequence([seed, i]).generate_state(4, np.uint64)``
    for ``i = start .. start + count - 1``, one column per shot."""
    if start >> 32 != (start + count - 1) >> 32:
        raise ContractError(f"shots {start} .. {start + count - 1} straddle a multiple of 2**32")
    head = _words(seed)
    tail = _words(start >> 32) if start >> 32 else []
    width = len(head) + 1 + len(tail)
    entropy = np.zeros((max(width, _POOL), count), np.uint32)  # zeros pad a short pool
    entropy[: len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head)] = np.arange(start & _M32, (start & _M32) + count, dtype=np.uint32)
    entropy[len(head) + 1 : width] = np.array(tail, np.uint32)[:, None]

    pool = _hashmix(entropy[:_POOL], *_hash_calls(_INIT_A, _MULT_A, tuple(range(_POOL))))
    k = _POOL
    for src in range(_POOL):
        # every other pool word takes in hash call k, k + 1, k + 2 of this
        # one, in row order; the source row's own result is discarded
        calls = tuple(k + d - (d > src) for d in range(_POOL))
        mixed = _mix(pool, _hashmix(pool[src], *_hash_calls(_INIT_A, _MULT_A, calls)))
        mixed[src] = pool[src]
        pool = mixed
        k += _POOL - 1
    for src in range(_POOL, width):  # entropy past the pool, into every pool word
        calls = tuple(range(k, k + _POOL))
        pool = _mix(pool, _hashmix(entropy[src], *_hash_calls(_INIT_A, _MULT_A, calls)))
        k += _POOL

    out = _hashmix(
        np.concatenate((pool, pool)), *_hash_calls(_INIT_B, _MULT_B, tuple(range(2 * _POOL)))
    ).astype(np.uint64)
    return out[0::2] | (out[1::2] << np.uint64(32))


def _generator() -> np.random.Generator:
    """This thread's generator, re-seeded for every shot."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.PCG64(0))
    return gen


def _draw_table(seed: int, start: int, count: int, draws: tuple[str, ...]) -> np.ndarray:
    """``(count, len(draws))``: row ``r`` holds what ``default_rng([seed, start + r])``
    returns for the ``Generator`` methods ``draws``, called in order."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    gen = _generator()
    pcg = gen.bit_generator
    calls = [getattr(gen, method) for method in draws]
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    rows = []
    for s_hi, s_lo, q_hi, q_lo in zip(*_seed_words(seed, start, count).tolist()):
        # PCG64's srandom: inc = 2 q + 1, state = (inc + s) * MULT + inc
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _M128
        s = (s_hi << 64) | s_lo
        state["state"] = {"state": ((inc + s) * _PCG_MULT + inc) & _M128, "inc": inc}
        pcg.state = state
        rows.append([call() for call in calls])
    return np.array(rows, float).reshape(count, len(draws))


@dataclass(frozen=True)
class Record:
    """One homodyne measurement across the shots of a block."""

    x: np.ndarray
    odd: np.ndarray
    phi: np.ndarray


class _Shots:
    """Amplitudes and per-shot random numbers of one block, advanced in place."""

    def __init__(
        self, count: int, probe: ProbeMode, seed: int, start: int, draws: tuple[str, ...]
    ):
        self.probe = probe
        self.count = count
        self.draws = draws
        self.table = _draw_table(seed, start, count, draws)
        self.drawn = 0
        self.records: list[Record] = []
        self.photon_v = np.zeros(count, bool)

    def prepare(self, *pairs) -> None:
        """Product input, one ``(c_H, c_V)`` pair per qubit, on every shot."""
        product = np.ones(1, complex)
        for pair in pairs:
            product = np.multiply.outer(product, np.asarray(pair, complex)).ravel()
        self.n = len(pairs)
        self.amp = np.repeat(product[None, :], self.count, axis=0)

    def _draw(self, method: str) -> np.ndarray:
        """Every shot's next draw, which must be the declared ``method``."""
        k = self.drawn
        if k >= len(self.draws) or self.draws[k] != method:
            raise ContractError(f"draw {k} is {method!r}; the circuit declares {self.draws}")
        self.drawn = k + 1
        return self.table[:, k]

    def gate(self, qubit: int, factory: Callable, rows: np.ndarray | None = None) -> None:
        """Apply the single-qubit gate ``factory(qubit)`` to every shot, or to
        the shots in the ``rows`` mask."""
        lifted = _lifted(self.n, qubit, factory)
        if rows is None:
            self.amp = self.amp @ lifted
        else:
            self.amp[rows] = self.amp[rows] @ lifted

    def rotate(self, *qubits: int) -> None:
        """Enter (or, being self-inverse, leave) the diagonal frame."""
        for q in qubits:
            self.gate(q, diagonal_basis_change)

    def _renormalize(self, what: str, x: np.ndarray | None = None) -> None:
        n2 = np.sum(np.abs(self.amp) ** 2, axis=1)
        bad = ~(n2 > 0.0)
        if bad.any():
            at = f" at x={x[bad][0]}" if x is not None else ""
            raise ValidationError(f"{what}{at} leaves a zero-norm state")
        self.amp *= (1.0 / np.sqrt(n2))[:, None]

    def homodyne(self, qubit_a: int, qubit_b: int) -> Record:
        """Parity kicks on a fresh probe, X-quadrature sample, collapse."""
        probe = self.probe
        k = _phase_index(self.n, qubit_a, qubit_b)
        labels = np.array([probe.label(-1), probe.label(0), probe.label(1)])
        # exact-mixture sampling, as sample_quadrature draws it
        weights = np.abs(self.amp) ** 2
        cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        u = self._draw("random")
        pick = np.sum(cdf <= u[:, None], axis=1)
        x = 2.0 * labels.real[k[pick] + 1] + self._draw("standard_normal")
        # collapse onto <x|beta_k>; label(0) is real, label(+-1) carry the
        # phases +-p, p = kernel_phase(x, label(1)), reduced exactly by sin/cos
        a, b = labels[2].real, labels[2].imag
        p = b * (x - a)
        cos_p, sin_p = np.cos(p), np.sin(p)
        mag = KERNEL_PEAK * np.exp(-0.25 * (x - 2.0 * a) ** 2)
        kernel = np.empty((len(x), 3), complex)
        kernel[:, 0] = mag * (cos_p - 1j * sin_p)
        kernel[:, 1] = KERNEL_PEAK * np.exp(-0.25 * (x - 2.0 * labels[1].real) ** 2)
        kernel[:, 2] = mag * (cos_p + 1j * sin_p)
        self.amp = self.amp * kernel[:, k + 1]
        self._renormalize("collapse", x)
        record = Record(
            x=x, odd=~(x > probe.x0), phi=np.arctan2(sin_p, cos_p) % _TWO_PI
        )
        self.records.append(record)
        return record

    def photon(self, qubit: int) -> np.ndarray:
        """QND {H, V} readout of ``qubit``; returns True where it read V."""
        v_cols = _v_bits(self.n)[:, qubit]
        weights = np.abs(self.amp) ** 2
        p_v = weights[:, v_cols].sum(axis=1) / weights.sum(axis=1)
        v = self._draw("random") < p_v
        self.amp = np.where(v[:, None] == v_cols[None, :], self.amp, 0j)
        self._renormalize("photon readout")
        self.photon_v = v
        return v

    def feed_forward(
        self,
        plan: FeedForwardPlan,
        measurement: str,
        outcomes: dict[str, np.ndarray],
        slots: dict[str, int],
        phi: np.ndarray | None = None,
    ) -> None:
        """Apply the plan's actions for each outcome to the shots that had it."""
        for outcome, rows in outcomes.items():
            if not rows.any():
                continue
            for action in plan.actions_for(measurement, outcome):
                kind, qubit = resolve_action(action, slots)
                if kind != "undo-phase":
                    self.gate(qubit, FIXED_ACTIONS[kind], rows)
                    continue
                if phi is None:
                    raise ContractError(f"{action!r} follows no homodyne record")
                # diag(e^{-i phi}, e^{i phi}) on the qubit, one phi per shot
                ph = np.exp(1j * phi[rows])[:, None]
                self.amp[rows] *= np.where(_v_bits(self.n)[:, qubit], ph, ph.conj())

    def entangler(
        self, qubit_a: int, qubit_b: int, plan: FeedForwardPlan, diagonal: bool
    ) -> Record:
        """Parity gate plus its plan's corrections, optionally in the diagonal
        frame (:func:`kerrgate.gates.entangler` / ``entangler_45``)."""
        if diagonal:
            self.rotate(qubit_a, qubit_b)
        record = self.homodyne(qubit_a, qubit_b)
        self.feed_forward(
            plan,
            "homodyne",
            {"even": ~record.odd, "odd": record.odd},
            {"0": qubit_a, "1": qubit_b},
            record.phi,
        )
        if diagonal:
            self.rotate(qubit_a, qubit_b)
        return record


# -- circuits: each prepares its input, runs, and returns its ideal outputs ---


def _pick(odd: np.ndarray, even_form, odd_form) -> np.ndarray:
    """Per-shot ideal: ``odd_form`` on odd records, ``even_form`` otherwise."""
    return np.where(odd[:, None], odd_form, even_form)


def _parity(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    shots.prepare(c, d)
    record = shots.homodyne(0, 1)
    ph = np.exp(1j * record.phi)
    zero = np.zeros_like(ph)
    odd = np.stack([zero, c0 * d1 * ph, c1 * d0 / ph, zero], axis=1)
    return _pick(record.odd, np.array([c0 * d0, 0, 0, c1 * d1]), odd)


def _entangler(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    shots.prepare(c, d)
    record = shots.entangler(0, 1, entangler_plan(), diagonal=False)
    return _pick(
        record.odd, np.array([c0 * d0, 0, 0, c1 * d1]), np.array([c0 * d1, 0, 0, c1 * d0])
    )


def _diagonal_pair_form(c0, c1, d0, d1) -> np.ndarray:
    """``p_D q_D |DD> + p_Db q_Db |DbDb>`` of inputs c, d, over H/V columns."""
    dd = (c0 + c1) / 2 * ((d0 + d1) / 2)
    dbdb = (c0 - c1) / 2 * ((d0 - d1) / 2)
    return np.array([dd + dbdb, dd - dbdb, dd - dbdb, dd + dbdb])


def _entangler45(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    shots.prepare(c, d)
    record = shots.entangler(0, 1, entangler_45_plan(), diagonal=True)
    # the odd branch, after its corrections, equals the even form of the
    # sign-flipped first input
    return _pick(
        record.odd, _diagonal_pair_form(c0, c1, d0, d1), _diagonal_pair_form(c0, -c1, d0, d1)
    )


def _cnot(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    control, ancilla, target = 0, 1, 2
    plan, slots = cnot_plan(), {"control": control, "target": target}
    shots.prepare(c, ANCILLA_PLUS, d)
    shots.entangler(control, ancilla, entangler_plan(), diagonal=False)
    second = shots.entangler(ancilla, target, entangler_45_plan(), diagonal=True)
    shots.feed_forward(plan, "homodyne-45", {"even": ~second.odd, "odd": second.odd}, slots)
    v = shots.photon(ancilla)
    shots.feed_forward(plan, "photon", {"H": ~v, "V": v}, slots)
    # columns (control, ancilla, target): c0 d0 |H a H> + c0 d1 |H a V>
    # + c1 d0 |V a V> + c1 d1 |V a H>, a the ancilla's reading
    on_h = np.array([c0 * d0, c0 * d1, 0, 0, c1 * d1, c1 * d0, 0, 0])
    on_v = np.array([0, 0, c0 * d0, c0 * d1, 0, 0, c1 * d1, c1 * d0])
    return _pick(v, on_h, on_v)


class Circuit(NamedTuple):
    """A circuit and the ``Generator`` draws each of its shots makes, in order."""

    run: Callable[[_Shots, tuple, tuple], np.ndarray]
    draws: tuple[str, ...]


#: one homodyne measurement's draws: branch pick, then noise
_HOMODYNE = ("random", "standard_normal")

#: experiment name -> circuit, in the order the CLI lists them
CIRCUITS: dict[str, Circuit] = {
    "parity": Circuit(_parity, _HOMODYNE),
    "entangler": Circuit(_entangler, _HOMODYNE),
    "entangler45": Circuit(_entangler45, _HOMODYNE),
    "cnot": Circuit(_cnot, 2 * _HOMODYNE + ("random",)),  # then the photon readout
}


@dataclass(frozen=True)
class ShotBlock:
    """Shots ``start .. start + len(x) - 1`` of one run, one row per shot.

    ``x``, ``odd`` and ``phi`` have one column per homodyne record in circuit
    order; ``photon_v`` is True where the CNOT ancilla read V (all False for
    the photon-free experiments); ``final`` holds the final polarization
    amplitudes, ``fidelity`` their fidelity with the record-conditional ideal.
    """

    x: np.ndarray
    odd: np.ndarray
    phi: np.ndarray
    photon_v: np.ndarray
    final: np.ndarray
    fidelity: np.ndarray


def _fidelity(final: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    ideal_n2 = np.sum(np.abs(ideal) ** 2, axis=1)
    final_n2 = np.sum(np.abs(final) ** 2, axis=1)
    overlap = np.einsum("si,si->s", ideal.conj(), final)
    ok = ideal_n2 > _IDEAL_NORM_FLOOR
    out = np.zeros(len(final))
    out[ok] = np.abs(overlap[ok]) ** 2 / (final_n2[ok] * ideal_n2[ok])
    return out


def run_block(
    experiment: str, inputs, probe: ProbeMode, seed: int, start: int, stop: int
) -> ShotBlock:
    """Run shots ``start .. stop - 1`` of ``experiment`` on validated inputs.

    ``inputs`` are two normalized amplitude pairs, as for ``run_shots``; both
    probes of the CNOT are ``probe``.
    """
    circuit = CIRCUITS[experiment]
    shots = _Shots(stop - start, probe, seed, start, circuit.draws)
    ideal = circuit.run(shots, *inputs)
    if shots.drawn != len(circuit.draws):
        raise ContractError(f"{experiment} made {shots.drawn} of its draws {circuit.draws}")
    return ShotBlock(
        x=np.stack([r.x for r in shots.records], axis=1),
        odd=np.stack([r.odd for r in shots.records], axis=1),
        phi=np.stack([r.phi for r in shots.records], axis=1),
        photon_v=shots.photon_v,
        final=shots.amp,
        fidelity=_fidelity(shots.amp, ideal),
    )

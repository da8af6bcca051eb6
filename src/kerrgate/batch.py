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
come out of one pass.  PCG64 and the one-word fast path of NumPy's ziggurat
normal sampler are integer arithmetic as well, so the block's declared draws
(:attr:`Circuit.draws`) become one ``(shots, draws)`` table of uint64 array
operations.  The rows of shots with a normal draw that leaves the fast path
(about 1.5% of normal draws), and every row of a block under
``_ARRAY_MIN_SHOTS`` shots, are made by setting the shot's state into one
reused ``PCG64`` per thread and calling NumPy's own ``Generator``.  The
streams are the ones ``default_rng([seed, i])`` gives, bit for bit.
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
# one constant schedule serves every shot and each step is an array operation
# across the block.  The constants are NumPy's.
#
# PCG64 (O'Neill 2014) then sets ``inc = 2 q + 1`` and
# ``state0 = (inc + s) M + inc`` and steps ``state -> state M + inc`` before
# each 64-bit output, so draw ``k = 1, 2, ...`` reads its word from
# ``M**(k+1) (inc + s) + (1 + M + ... + M**k) inc``: two products by per-draw
# constants, done on (hi, lo) uint64 limbs.  The word is XSL-RR,
# ``rotr(hi ^ lo, hi >> 58)``.  ``random()`` is ``(word >> 11) 2**-53``.
# ``standard_normal()`` is NumPy's 256-layer ziggurat (Marsaglia & Tsang 2000),
# whose fast path uses one word: layer ``idx = word & 0xff``, sign bit 8 and
# ``rabs = (word >> 9) & (2**52 - 1)`` give ``x = +-rabs wi[idx]``, accepted
# when ``rabs < ki[idx]``.  About 1.5% of normals reject (the tail at idx 0,
# every idx 1 since ki[1] = 0, and wedge rejects) and read further words;
# their rows are remade from the same state by NumPy's own ``Generator``.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(_M32)
_RABS = np.uint64((1 << 52) - 1)
# shift amounts and masks as uint64 scalars, which NumPy applies faster than ints
_1, _9, _11, _32, _58, _63, _64 = (np.uint64(k) for k in (1, 9, 11, 32, 58, 63, 64))
_0xFF, _0x100 = np.uint64(0xFF), np.uint64(0x100)
_METHODS = ("random", "standard_normal")
#: smaller blocks set each row's state into a Generator instead: the array
#: arithmetic costs a fixed ~60 ufunc calls, a Generator about 4 us a row, and
#: the two cross between 12 and 16 shots (2-core x86, NumPy 2.4)
_ARRAY_MIN_SHOTS = 14

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
def _hash_schedule(width: int) -> tuple:
    """Constants of every hash call ``_seed_words`` makes on ``width`` entropy
    words, as ``(xor, mul)`` column pairs: the pool fill, one pair per mixing
    step (the pool's own words, then the entropy past it), and the output.
    Call ``k`` of a hash xors with ``init * mult**k`` and multiplies by
    ``init * mult**(k + 1)``, mod 2**32."""

    def calls(init, mult, ks):
        def column(powers):
            values = [init * pow(mult, k, 1 << 32) & _M32 for k in powers]
            return _frozen(np.array(values, np.uint32)[:, None])

        return column(ks), column([k + 1 for k in ks])

    steps = []
    k = _POOL
    for src in range(_POOL):
        # every other pool word takes in hash call k, k + 1, k + 2 of this
        # one, in row order; the source row's own result is discarded
        steps.append(calls(_INIT_A, _MULT_A, [k + d - (d > src) for d in range(_POOL)]))
        k += _POOL - 1
    for _ in range(_POOL, width):  # entropy past the pool, into every pool word
        steps.append(calls(_INIT_A, _MULT_A, range(k, k + _POOL)))
        k += _POOL
    return (
        calls(_INIT_A, _MULT_A, range(_POOL)),
        tuple(steps),
        calls(_INIT_B, _MULT_B, range(2 * _POOL)),
    )


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

    fill, steps, output = _hash_schedule(width)
    pool = _hashmix(entropy[:_POOL], *fill)
    for src in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[src], *steps[src]))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(_POOL, width):
        pool = _mix(pool, _hashmix(entropy[src], *steps[src]))

    out = _hashmix(np.concatenate((pool, pool)), *output).astype(np.uint64)
    return out[0::2] | (out[1::2] << _32)


@lru_cache(maxsize=None)
def _stream_constants(draws: tuple[str, ...]) -> tuple:
    """``M**(k+1)`` and ``1 + M + ... + M**k`` for draw ``k = 1 .. len(draws)``
    as uint64 limbs of shape ``(2, 1, len(draws))`` (high word, low word, and
    the low word's low and high 32-bit halves), and the columns of the
    ``random`` and of the ``standard_normal`` draws."""
    if not set(draws) <= set(_METHODS):
        raise ContractError(f"draws {draws} must each be one of {_METHODS}")
    power, series = [], []
    p, c = _PCG_MULT * _PCG_MULT & _M128, 1 + _PCG_MULT
    for _ in draws:
        power.append(p)
        series.append(c)
        p, c = p * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
    big = np.array([[power], [series]], object)
    limbs = tuple(
        _frozen((big >> shift & mask).astype(np.uint64))
        for shift, mask in ((64, _M64), (0, _M64), (0, _M32), (32, _M32))
    )
    normal = np.array([method == "standard_normal" for method in draws])
    return limbs, np.flatnonzero(~normal), np.flatnonzero(normal)


def _mul128(hi: np.ndarray, lo: np.ndarray, const: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Low 128 bits of ``(hi, lo)`` times a constant given as limbs by
    ``_stream_constants``, as ``(hi, lo)``; the 64x64 product of the low words
    goes through 32-bit halves."""
    c_hi, c_lo, c0, c1 = const
    a0, a1 = lo & _LOW32, lo >> _32
    p01, p10 = a0 * c1, a1 * c0
    mid = ((a0 * c0) >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    top = a1 * c1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    return top + hi * c_lo + lo * c_hi, lo * c_lo


def _ziggurat_fast_path(word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``standard_normal()`` of each 64-bit ``word`` on the ziggurat's one-word
    path, and whether NumPy accepts it there rather than reading more words."""
    layer = (word & _0xFF).astype(np.intp)
    rabs = (word >> _9) & _RABS
    x = rabs * _ZIGGURAT_WI[layer]
    return np.where((word & _0x100) == 0, x, -x), rabs < _ZIGGURAT_KI[layer]


def _generator() -> np.random.Generator:
    """This thread's generator, re-seeded for every row it makes."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.PCG64(0))
    return gen


def _generator_rows(words: np.ndarray, draws: tuple[str, ...]) -> list[list[float]]:
    """The draws ``draws`` that NumPy's ``Generator`` makes from each column
    ``(s_hi, s_lo, q_hi, q_lo)`` of seed words."""
    gen = _generator()
    pcg = gen.bit_generator
    calls = [getattr(gen, method) for method in draws]
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    rows = []
    for s_hi, s_lo, q_hi, q_lo in zip(*words.tolist()):
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _M128
        s = (s_hi << 64) | s_lo
        state["state"] = {"state": ((inc + s) * _PCG_MULT + inc) & _M128, "inc": inc}
        pcg.state = state
        rows.append([call() for call in calls])
    return rows


def _draw_table(seed: int, start: int, count: int, draws: tuple[str, ...]) -> np.ndarray:
    """``(count, len(draws))``: row ``r`` holds what ``default_rng([seed, start + r])``
    returns for the ``Generator`` methods ``draws``, called in order.

    A block of ``_ARRAY_MIN_SHOTS`` or more shots is computed in uint64 array
    arithmetic; smaller blocks, and rows whose normal draw leaves the
    ziggurat's fast path, come from ``_generator_rows``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    const, uniform, normal = _stream_constants(draws)
    words = _seed_words(seed, start, count)
    if count < _ARRAY_MIN_SHOTS:
        return np.array(_generator_rows(words, draws)).reshape(count, len(draws))
    s_lo, q_lo = words[1], words[3]
    # (inc + s, inc), each as (hi, lo) limbs
    v = np.empty((2, 2, count), np.uint64)
    inc = v[1]
    np.left_shift(words[2:], _1, out=inc)  # inc = 2 q + 1
    inc[0] |= q_lo >> _63
    inc[1] |= _1
    np.add(inc, words[:2], out=v[0])
    v[0, 0] += v[0, 1] < s_lo  # the carry out of the low word
    hi, lo = _mul128(v[:, 0, :, None], v[:, 1, :, None], const)
    lo_sum = lo[0] + lo[1]
    hi = hi[0] + hi[1] + (lo_sum < lo[1])  # with the low words' carry
    xor, rot = hi ^ lo_sum, hi >> _58
    word = (xor >> rot) | (xor << ((_64 - rot) & _63))

    table = np.empty((count, len(draws)))
    table[:, uniform] = (word[:, uniform] >> _11) * 2.0**-53
    table[:, normal], accepted = _ziggurat_fast_path(word[:, normal])
    rejected = np.flatnonzero(~accepted.all(axis=1))
    if len(rejected):
        table[rejected] = _generator_rows(words[:, rejected], draws)
    return table


class Record(NamedTuple):
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
        self.labels = np.array([probe.label(-1), probe.label(0), probe.label(1)])
        self.count = count
        self.draws = draws
        self.table = _draw_table(seed, start, count, draws)
        self.drawn = 0
        # one homodyne record per standard_normal draw, a column each
        records = draws.count("standard_normal")
        self.x = np.empty((count, records))
        self.odd = np.empty((count, records), bool)
        self.phi = np.empty((count, records))
        self.measured = 0
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
        n2 = (np.abs(self.amp) ** 2).sum(axis=1)
        bad = ~(n2 > 0.0)
        if bad.any():
            at = f" at x={x[bad][0]}" if x is not None else ""
            raise ValidationError(f"{what}{at} leaves a zero-norm state")
        self.amp *= (1.0 / np.sqrt(n2))[:, None]

    def homodyne(self, qubit_a: int, qubit_b: int) -> Record:
        """Parity kicks on a fresh probe, X-quadrature sample, collapse."""
        k = _phase_index(self.n, qubit_a, qubit_b)
        labels = self.labels
        # exact-mixture sampling, as sample_quadrature draws it
        weights = np.abs(self.amp) ** 2
        cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        u = self._draw("random")
        pick = (cdf <= u[:, None]).sum(axis=1)
        x = 2.0 * labels.real[k[pick] + 1] + self._draw("standard_normal")
        # collapse onto <x|beta_k>; label(0) is real, label(+-1) carry the
        # phases +-p, p = kernel_phase(x, label(1)), reduced exactly by sin/cos
        a, b = labels[2].real, labels[2].imag
        # an outcome too large to represent overflows to inf or nan here; the
        # zero-norm check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            p = b * (x - a)
            cos_p, sin_p = np.cos(p), np.sin(p)
            mag = KERNEL_PEAK * np.exp(-0.25 * (x - 2.0 * a) ** 2)
            kernel = np.empty((len(x), 3), complex)
            kernel[:, 0] = mag * (cos_p - 1j * sin_p)
            kernel[:, 1] = KERNEL_PEAK * np.exp(-0.25 * (x - 2.0 * labels[1].real) ** 2)
            kernel[:, 2] = mag * (cos_p + 1j * sin_p)
            self.amp = self.amp * kernel[:, k + 1]
        self._renormalize("collapse", x)
        j = self.measured
        self.measured = j + 1
        self.x[:, j] = x
        self.odd[:, j] = ~(x > self.probe.x0)
        self.phi[:, j] = np.arctan2(sin_p, cos_p) % _TWO_PI
        return Record(self.x[:, j], self.odd[:, j], self.phi[:, j])

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
    odd = np.zeros((len(ph), 4), complex)
    odd[:, 1] = c0 * d1 * ph
    odd[:, 2] = c1 * d0 / ph
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
    ideal_n2 = (np.abs(ideal) ** 2).sum(axis=1)
    final_n2 = (np.abs(final) ** 2).sum(axis=1)
    overlap = np.einsum("si,si->s", ideal.conj(), final)
    return np.divide(
        np.abs(overlap) ** 2,
        final_n2 * ideal_n2,
        out=np.zeros(len(final)),
        where=ideal_n2 > _IDEAL_NORM_FLOOR,
    )


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
        x=shots.x,
        odd=shots.odd,
        phi=shots.phi,
        photon_v=shots.photon_v,
        final=shots.amp,
        fidelity=_fidelity(shots.amp, ideal),
    )


# -- NumPy's ziggurat tables for standard_normal(), read by _draw_table --------
#
# ``wi[i]`` scales layer i's 52-bit ``rabs``; ``ki[i]`` (in hex) is the first
# ``rabs`` the fast path rejects.  tests/test_batch.py probes both out of the
# installed NumPy.  They are text, not 512 numeric literals, which would add
# about 0.4 MiB to the peak memory of compiling this module.

_ZIGGURAT_WI = np.array([float(w) for w in """
8.683627060801306e-16 4.779330175727737e-17 6.354352417405262e-17 7.454870481247696e-17
8.3293668157931e-17 9.068060405059482e-17 9.714860076567762e-17 1.0294750314241019e-16
1.0823430288447684e-16 1.131147019610903e-16 1.176635945702292e-16 1.2193617278714363e-16
1.2597439914637093e-16 1.2981099886264032e-16 1.3347203736824123e-16 1.3697864842571203e-16
1.4034823001242382e-16 1.4359529452056943e-16 1.4673208742364422e-16 1.4976904668391037e-16
1.5271515003596198e-16 1.5557818169460764e-16 1.5836494009290885e-16 1.6108140175274928e-16
1.6373285203969853e-16 1.6632399058420835e-16 1.6885901708676596e-16 1.713417017655966e-16
1.737754436586486e-16 1.7616331923000996e-16 1.7850812316976727e-16 1.8081240285799152e-16
1.830784876482675e-16 1.853085138861802e-16 1.8750444639373882e-16 1.896680970077476e-16
1.918011406483862e-16 1.9390512930625104e-16 1.9598150426628824e-16 1.9803160683128174e-16
2.000566877627333e-16 2.0205791562071654e-16 2.0403638415480212e-16 2.0599311887403706e-16
2.079290829041402e-16 2.0984518222370352e-16 2.1174227035760342e-16 2.1362115259449868e-16
2.1548258978581458e-16 2.1732730177564367e-16 2.191559705042727e-16 2.2096924282235318e-16
2.2276773304789553e-16 2.2455202529414355e-16 2.263226755928568e-16 2.280802138345017e-16
2.2982514554424684e-16 2.3155795351040804e-16 2.3327909928004356e-16 2.3498902453470955e-16
2.3668815235791604e-16 2.3837688840454243e-16 2.4005562198135063e-16 2.4172472704675025e-16
2.433845631371103e-16 2.4503547622614954e-16 2.466777995232705e-16 2.4831185421610877e-16
2.4993795016204524e-16 2.515563865329658e-16 2.5316745241713583e-16 2.547714273816944e-16
2.563685819989397e-16 2.579591783392867e-16 2.5954347043351707e-16 2.6112170470670194e-16
2.6269412038597256e-16 2.6426094988411895e-16 2.658224191608307e-16 2.6737874806323633e-16
2.689301506472616e-16 2.704768354811995e-16 2.720190059327732e-16 2.735568604408679e-16
2.7509059277301666e-16 2.7662039226963903e-16 2.781464440759544e-16 2.79668929362423e-16
2.8118802553450207e-16 2.827039064324479e-16 2.842167425218406e-16 2.8572670107546015e-16
2.87233946347098e-16 2.887386397378482e-16 2.9024093995538423e-16 2.9174100316669455e-16
2.9323898314471816e-16 2.947350314092935e-16 2.9622929736280665e-16 2.977219284209029e-16
2.992130701386013e-16 3.007028663321331e-16 3.0219145919680615e-16 3.036789894211802e-16
3.051655962978219e-16 3.0665141783089545e-16 3.081365908408297e-16 3.0962125106629225e-16
3.111055332636893e-16 3.125895713043999e-16 3.140734982699446e-16 3.1555744654528006e-16
3.1704154791040285e-16 3.1852593363044065e-16 3.2001073454440114e-16 3.214960811527447e-16
3.2298210370394156e-16 3.244689322801698e-16 3.2595669688230784e-16 3.2744552751437067e-16
3.2893555426753697e-16 3.3042690740391284e-16 3.3191971744017523e-16 3.3341411523123725e-16
3.3491023205407785e-16 3.364081996918765e-16 3.37908150518595e-16 3.394102175841489e-16
3.409145347003126e-16 3.424212365275018e-16 3.4393045866258313e-16 3.454423377278584e-16
3.4695701146137835e-16 3.4847461880874137e-16 3.499953000165381e-16 3.5151919672760744e-16
3.53046452078274e-16 3.5457721079774357e-16 3.5611161930983884e-16 3.5764982583726505e-16
3.59191980508603e-16 3.6073823546823514e-16 3.6228874498941915e-16 3.6384366559073444e-16
3.65403156156137e-16 3.669673780588701e-16 3.685364952894914e-16 3.7011067458828983e-16
3.716900855823823e-16 3.7327490092779435e-16 3.7486529645684887e-16 3.7646145133120287e-16
3.7806354820089604e-16 3.7967177336979443e-16 3.8128631696783774e-16 3.829073731305243e-16
3.8453514018609596e-16 3.8616982085091493e-16 3.878116224335587e-16 3.894607570481926e-16
3.9111744183782054e-16 3.9278189920805415e-16 3.944543570720877e-16 3.9613504910761354e-16
3.9782421502646826e-16 3.995221008578565e-16 4.012289592460629e-16 4.029450497636328e-16
4.04670639241075e-16 4.0640600211422504e-16 4.0815142079049387e-16 4.0990718603532664e-16
4.1167359738030257e-16 4.134509635544236e-16 4.1523960294026883e-16 4.170398440568316e-16
4.1885202607101123e-16 4.206764993399015e-16 4.2251362598620494e-16 4.243637805093078e-16
4.262273504347798e-16 4.2810473700531167e-16 4.2999635591638323e-16 4.3190263810026294e-16
4.338240305622791e-16 4.357609972736849e-16 4.3771402012585875e-16 4.3968359995105214e-16
4.4167025761542035e-16 4.4367453519065673e-16 4.456969972112043e-16 4.477382320247534e-16
4.49798853244555e-16 4.518795013130059e-16 4.539808451870034e-16 4.561035841567422e-16
4.582484498109567e-16 4.604162081631153e-16 4.626076619547846e-16 4.648236531543207e-16
4.670650656712631e-16 4.693328283093329e-16 4.716279179838351e-16 4.739513632325867e-16
4.763042480533137e-16 4.786877161048723e-16 4.811029753147417e-16 4.835513029411525e-16
4.860340511450812e-16 4.885526531353603e-16 4.91108629959527e-16 4.937035980240335e-16
4.963392774403987e-16 4.990175013091822e-16 5.017402260718089e-16 5.045095430818727e-16
5.073276915733542e-16 5.101970732341562e-16 5.131202686306784e-16 5.161000557743228e-16
5.191394311757699e-16 5.222416338000234e-16 5.254101724177597e-16 5.286488569504945e-16
5.3196183453384e-16 5.353536311816497e-16 5.388292001334053e-16 5.423939782201712e-16
5.46053951907478e-16 5.498157350892814e-16 5.536866612467876e-16 5.576748932926576e-16
5.617895553555417e-16 5.660408920082422e-16 5.704404621291389e-16 5.750013768919895e-16
5.797385945724594e-16 5.846692893455479e-16 5.898133176477899e-16 5.951938149641444e-16
6.008379696271908e-16 6.067780409333449e-16 6.130527208725282e-16 6.197089894581626e-16
6.268046963301284e-16 6.344122407127506e-16 6.426239659548055e-16 6.515603317344994e-16
6.613827885097664e-16 6.723150462505587e-16 6.846803417564259e-16 6.98971833638762e-16
7.159994934830664e-16 7.372424301798799e-16 7.658936370805573e-16 8.113849337656484e-16
""".split()])
_ZIGGURAT_KI = np.array([int(k, 16) for k in """
EF33D8025EF6A 0000000000000 C08BE98FBC6A8 DA354FABD8142 E51F67EC1EEEA
EB255E9D3F77E EEF4B817ECAB9 F19470AFA44AA F37ED61FFCB18 F4F469561255C
F61A5E41BA396 F707A755396A4 F7CB2EC28449A F86F10C6357D3 F8FA6578325DE
F9724C74DD0DA F9DA907DBF509 FA360F581FA74 FA86FDE5B4BF8 FACF160D354DC
FB0FB6718B90F FB49F8D5374C6 FB7EC2366FE77 FBAECE9A1E50E FBDAB9D040BED
FC03060FF6C57 FC2821037A248 FC4A67AE25BD1 FC6A2977AEE31 FC87AA92896A4
FCA325E4BDE85 FCBCCE902231A FCD4D12F839C4 FCEB54D8FEC99 FD007BF1DC930
FD1464DD6C4E6 FD272A8E2F450 FD38E4FF0C91E FD49A9990B478 FD598B8920F53
FD689C08E99EC FD76EA9C8E832 FD848547B08E8 FD9178BAD2C8C FD9DD07A7ADD2
FDA9970105E8C FDB4D5DC02E20 FDBF95C5BFCD0 FDC9DEBB99A7D FDD3B8118729D
FDDD288342F90 FDE6364369F64 FDEEE708D514E FDF7401A6B42E FDFF46599ED40
FE06FE4BC24F2 FE0E6C225A258 FE1593C28B84C FE1C78CBC3F99 FE231E9DB1CAA
FE29885DA1B91 FE2FB8FB54186 FE35B33558D4A FE3B799D0002A FE410E99EAD7F
FE46746D47734 FE4BAD34C095C FE50BAED29524 FE559F74EBC78 FE5A5C8E41212
FE5EF3E138689 FE6366FD91078 FE67B75C6D578 FE6BE661E11AA FE6FF55E5F4F2
FE73E5900A702 FE77B823E9E39 FE7B6E37070A2 FE7F08D774243 FE8289053F08C
FE85EFB35173A FE893DC840864 FE8C741F0CEBC FE8F9387D4EF6 FE929CC879B1D
FE95909D388EA FE986FB939AA2 FE9B3AC714866 FE9DF2694B6D5 FEA0973ABE67C
FEA329CF166A4 FEA5AAB32952C FEA81A6D5741A FEAA797DE1CF0 FEACC85F3D920
FEAF07865E63C FEB13762FEC13 FEB3585FE2A4A FEB56AE3162B4 FEB76F4E284FA
FEB965FE62014 FEBB4F4CF9D7C FEBD2B8F449D0 FEBEFB16E2E3E FEC0BE31EBDE8
FEC2752B15A15 FEC42049DAFD3 FEC5BFD29F196 FEC75406CEEF4 FEC8DD2500CB4
FECA5B6911F12 FECBCF0C427FE FECD38454FB15 FECE97488C8B3 FECFEC47F91B7
FED1377358528 FED278F844903 FED3B10242F4C FED4DFBAD586E FED605498C3DD
FED721D414FE8 FED8357E4A982 FED9406A42CC8 FEDA42B85B704 FEDB3C8746AB4
FEDC2DF416652 FEDD171A46E52 FEDDF813C8AD3 FEDED0F909980 FEDFA1E0FD414
FEE06AE124BC4 FEE12C0D95A06 FEE1E579006E0 FEE29734B6524 FEE34150AE4BC
FEE3E3DB89B3C FEE47EE2982F4 FEE51271DB086 FEE59E9407F41 FEE623528B42E
FEE6A0B5897F1 FEE716C3E077A FEE7858327B82 FEE7ECF7B06BA FEE84D2484AB2
FEE8A60B66343 FEE8F7ACCC851 FEE94207E25DA FEE9851A829EA FEE9C0E13485C
FEE9F557273F4 FEEA22762CCAE FEEA4836B42AC FEEA668FC2D71 FEEA7D76ED6FA
FEEA8CE04FA0A FEEA94BE8333B FEEA950296410 FEEA8D9C0075E FEEA7E7897654
FEEA678481D24 FEEA48AA29E83 FEEA21D22E4DA FEE9F2E352024 FEE9BBC26AF2E
FEE97C524F2E4 FEE93473C0A3A FEE8E40557516 FEE88AE369C7A FEE828E7F3DFD
FEE7BDEA7B888 FEE749BFF37FF FEE6CC3A9BD5E FEE64529E007E FEE5B45A32888
FEE51994E57B6 FEE474A0006CF FEE3C53E12C50 FEE30B2E02AD8 FEE2462AD8205
FEE175EB83C5A FEE09A22A1447 FEDFB27E349CC FEDEBEA76216C FEDDBE422047E
FEDCB0ECE39D3 FEDB964042CF4 FEDA6DCE938C9 FED937237E98D FED7F1C38A836
FED69D2B9C02B FED538D06AE00 FED3C41DEA422 FED23E76A2FD8 FED0A732FE644
FECEFDA07FE34 FECD4100EB7B8 FECB708956EB4 FEC98B61230C1 FEC790A0DA978
FEC57F50F31FE FEC356686C962 FEC114CB4B335 FEBEB948E6FD0 FEBC429A0B692
FEB9AF5EE0CDC FEB6FE1C98542 FEB42D3AD1F9E FEB13B00B2D4B FEAE2591A02E9
FEAAEAE992257 FEA788D8EE326 FEA3FCFFD73E5 FEA044C8DD9F6 FE9C5D62F563B
FE9843BA947A4 FE93F471D4728 FE8F6BD76C5D6 FE8AA5DC4E8E6 FE859E07AB1EA
FE804F690A940 FE7AB488233C0 FE74C751F6AA5 FE6E8102AA202 FE67DA0B6ABD8
FE60C9F38307E FE5947338F742 FE51470977280 FE48BD436F458 FE3F9BFFD1E37
FE35D35EEB19C FE2B5122FE4FE FE20003995557 FE13C82788314 FE068C4EE67B0
FDF82B02B71AA FDE87C57EFEAA FDD7509C63BFD FDC46E529BF13 FDAF8F82E0282
FD985E1B2BA75 FD7E6EF48CF04 FD613ADBD650B FD40149E2F012 FD1A1A7B4C7AC
FCEE204761F9E FCBA8D85E11B2 FC7D26ECD2D22 FC32B2F1E22ED FBD6581C0B83A
FB606C4005434 FAC40582A2874 F9E971E014598 F89FA48A41DFC F66C5F7F0302C
F1A5A4B331C4A
""".split()], np.uint64)

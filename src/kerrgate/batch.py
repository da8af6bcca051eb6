"""Batched shot engine behind :func:`kerrgate.analysis.run_shots`.

Every circuit run here keeps exactly one branch per polarization basis string
and, as every :class:`kerrgate.states.HybridState` does, at most one probe
active at a time.  A shot's branch-label state is
therefore a dense vector of ``2**n`` amplitudes plus one probe phase index
per basis string, and that phase-index table belongs to the parity gate, not
to the shot (``HH -> 0``, ``HV -> +1``, ``VH -> -1``, ``VV -> 0``).  A block
of shots is one complex array of ``2**n`` columns: a single row, the product
input every shot shares, until the first measurement, then one row per shot.
At 10 to 50 shots a block's cost is mostly the number of NumPy calls it
makes, so the steps make few, and reductions call the ufuncs
(``np.add.reduce``, ``np.add.accumulate``) that ``sum`` and ``cumsum`` wrap.

Each experiment is a :class:`Circuit`: a tuple of steps, its hand-written
ideal output, and whether it holds the CNOT ancilla.  A step is one array
operation on the block:

- ``rotate(*qubits)`` enters or leaves the diagonal frame, one cached
  ``2**n x 2**n`` product per qubit;
- ``homodyne(a, b)`` kicks a fresh probe, picks each shot's branch from the
  CDF of its ``|a|^2``, adds the shot's unit normal to that branch's peak,
  multiplies by the measurement kernel ``<x|beta_k>`` and renormalizes;
- ``feed_forward(plan, slots)`` applies one of the plans in
  :mod:`kerrgate.gates` (the ones the scalar gates execute) to the shots
  whose last measurement read odd or V, resolved once per circuit into
  column steps (a flip is a column permutation, a sign flip negates the
  qubit's V columns, the phase undo multiplies by ``e^{+-i phi}``); the
  steps act on the whole block, and only the flagged shots keep the result;
- ``photon(q)`` is the QND photon readout, ``u < p_V``.

Fidelity with the record-conditional ideal output is one contraction.

Column ``j`` holds the basis string whose qubit ``q`` is ``V`` iff bit
``n - 1 - q`` of ``j`` is set: the scalar engine's sorted branch order.

A run with seed ``s`` reads one stream, ``np.random.default_rng(s).random()``.
Shot ``i`` takes words ``i K .. i K + K - 1`` of it, where ``K``
(:attr:`Circuit.words`) counts one word per ``random`` draw and two per
``standard_normal`` draw of the circuit (:attr:`Circuit.draws`): ``u`` then
the noise ``z`` per homodyne, then ``u`` for the photon.  A normal is
:func:`kerrgate.measurement.gaussian` of its two words, which is how the
scalar gates in :mod:`kerrgate.gates` draw their noise too.  The run builds
its generator once and hands it to each block in turn; a block's words are
one ``random((count, K))`` call on it, and each draw is read from them in
place, so shot ``i`` is the same in any block.  The scalar gates stay the
reference: replaying a shot through them, on ``default_rng(s)`` advanced by
``i K`` or with its recorded outcomes forced, gives the same records and
final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, ValidationError
from .gates import (
    ANCILLA_PLUS,
    CNOT_PHOTON_PLAN,
    CNOT_SIGN_PLAN,
    ENTANGLER_45_PLAN,
    ENTANGLER_PLAN,
    FeedForwardPlan,
    resolve_action,
)
from .measurement import KERNEL_PEAK, gaussian
from .optics import build_parity_coupling_pair, diagonal_basis_change
from .states import ProbeMode

_TWO_PI = 2.0 * math.pi
#: ideal outputs with less squared norm than this contradict the record outright
_IDEAL_NORM_FLOOR = 1e-300


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)  # cached and shared by every block
    return table


#: the empty product every block's input starts from
_ONE = _frozen(np.ones(1, complex))


@lru_cache(maxsize=None)
def _v_bits(n: int) -> np.ndarray:
    """``(2**n, n)`` table: True where qubit ``q`` of column ``j`` is V."""
    cols = np.arange(1 << n)[:, None]
    return _frozen((cols >> (n - 1 - np.arange(n))[None, :]) & 1 == 1)


@lru_cache(maxsize=None)
def _label_columns(n: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Each column's probe label after the parity detector's kicks, as its
    index ``k + 1`` into the labels ``(-1, 0, +1)``, ``k`` its phase index."""
    v = _v_bits(n)
    k = np.ones(1 << n, np.intp)
    for kick in build_parity_coupling_pair(qubit_a, qubit_b):
        k += kick.sign * (v[:, kick.qubit_index] == (kick.trigger_polarization == "V"))
    return _frozen(k)


@lru_cache(maxsize=None)
def _rotation(n: int, qubit: int) -> np.ndarray:
    """``diagonal_basis_change(qubit)`` lifted to ``n`` qubits, transposed so
    that it right-multiplies a block's rows."""
    full = np.kron(np.eye(1 << qubit), diagonal_basis_change(qubit).matrix)
    return _frozen(np.kron(full, np.eye(1 << (n - 1 - qubit))).T.copy())


@lru_cache(maxsize=128)
def _collapse_constants(probe: ProbeMode) -> tuple[np.ndarray, float, float, float]:
    """``(peaks, a, b, x0)`` of the homodyne collapse: ``2 Re label(k)`` of
    ``k = -1, 0, +1`` (the centres of each label's X outcome), ``a + i b =
    label(1)`` (the kernel of label ``+-1`` at ``x`` carries the phase
    ``+-b (x - a)``) and the threshold ``x0``.  Bounded, since a probe's
    ``alpha`` and ``theta`` are floats."""
    labels = [probe.label(k) for k in (-1, 0, 1)]
    peaks = _frozen(np.array([2.0 * label.real for label in labels]))
    return peaks, labels[2].real, labels[2].imag, probe.x0


#: ``random()`` words each kind of draw reads: a uniform one, a Box-Muller
#: normal two
_WORDS = {"random": 1, "standard_normal": 2}


@lru_cache(maxsize=None)
def _words(draws: tuple[str, ...]) -> int:
    """Stream words a shot making ``draws`` takes."""
    return sum(_WORDS[d] for d in draws)


class _Step(NamedTuple):
    """One feed-forward action as an operation on a block's columns.

    ``flip`` moves column ``table[j]`` to column ``j``; ``sign-flip``
    multiplies column ``j`` by ``table[j]`` (-1 on the qubit's V columns, 1
    elsewhere); ``undo-phase`` multiplies the qubit's V columns (``table``)
    by ``e^{i phi}`` and the others by ``e^{-i phi}``, one ``phi`` per shot.
    """

    kind: str
    table: np.ndarray

    def apply(self, amp: np.ndarray, phi: np.ndarray | None) -> np.ndarray:
        if self.kind == "flip":
            return amp[:, self.table]
        if self.kind == "sign-flip":
            return amp * self.table
        if phi is None:
            raise ContractError("an undo-phase action follows no homodyne record")
        ph = np.exp(1j * phi)[:, None]
        return amp * np.where(self.table, ph, ph.conj())


def _step(n: int, kind: str, qubit: int) -> _Step:
    if kind == "flip":
        return _Step(kind, _frozen(np.arange(1 << n) ^ (1 << (n - 1 - qubit))))
    v = _v_bits(n)[:, qubit]
    return _Step(kind, _frozen(np.where(v, -1.0, 1.0)) if kind == "sign-flip" else v)


@lru_cache(maxsize=None)
def _correction(
    n: int, plan: FeedForwardPlan, slots: tuple[tuple[str, int], ...]
) -> tuple[_Step, ...]:
    """``plan``'s actions, wired to ``n`` qubits by the ``(slot, qubit)`` pairs
    ``slots`` and resolved into column steps, once per circuit."""
    wiring = dict(slots)
    return tuple(_step(n, *resolve_action(action, wiring)) for action in plan)


class _Shots:
    """Amplitudes and per-shot random words of one block, advanced in place.

    ``rotate``, ``homodyne``, ``feed_forward`` and ``photon`` are the steps a
    :class:`Circuit` is made of.  Until the first homodyne every shot holds
    the same product input, so ``amp`` is one ``(1, 2**n)`` row that
    ``rotate`` acts on; the first collapse repeats it into one row per shot.
    Each shot's draws are read in place from its row of the block's words
    (``words``, the next ``count`` rows of ``rng``): a uniform is one
    column, a normal :func:`gaussian` of two.
    Each measurement leaves its outcome as ``flag`` (set where a homodyne
    read odd or the photon read V) and its phase as ``flag_phi`` (``None``
    after a photon readout), for the ``feed_forward`` that follows it.
    """

    def __init__(
        self, count: int, probe: ProbeMode, rng: np.random.Generator, draws: tuple[str, ...]
    ):
        self.probe = probe
        self.count = count
        self.words = rng.random((count, _words(draws)))
        self.read = 0
        # one homodyne record per standard_normal draw, a row each
        records = draws.count("standard_normal")
        self.x = np.empty((records, count))
        self.odd = np.empty((records, count), bool)
        self.phi = np.empty((records, count))
        self.measured = 0
        self.photon_v = np.zeros(count, bool)

    def prepare(self, *pairs) -> None:
        """Product input, one ``(c_H, c_V)`` pair per qubit, as one row."""
        product = _ONE
        for pair in pairs:
            product = np.multiply.outer(product, np.asarray(pair, complex)).ravel()
        self.n = len(pairs)
        self.amp = product[None, :]

    def _uniform(self) -> np.ndarray:
        """Every shot's next ``random`` draw: a column of the words."""
        k = self.read
        self.read = k + 1
        return self.words[:, k]

    def _normal(self) -> np.ndarray:
        """Every shot's next ``standard_normal`` draw, from two words."""
        k = self.read
        self.read = k + 2
        return gaussian(self.words[:, k], self.words[:, k + 1])

    def rotate(self, *qubits: int) -> None:
        """Enter (or, being self-inverse, leave) the diagonal frame."""
        for q in qubits:
            self.amp = self.amp @ _rotation(self.n, q)

    def _renormalize(self, what: str, x: np.ndarray | None = None) -> None:
        n2 = np.add.reduce(np.abs(self.amp) ** 2, axis=1)
        # the smallest squared norm, inf for no shots; nan fails the test too
        if not np.minimum.reduce(n2, initial=math.inf) > 0.0:
            bad = ~(n2 > 0.0)
            at = f" at x={x[bad][0]}" if x is not None else ""
            raise ValidationError(f"{what}{at} leaves a zero-norm state")
        self.amp *= (1.0 / np.sqrt(n2))[:, None]

    def homodyne(self, qubit_a: int, qubit_b: int) -> None:
        """Parity kicks on a fresh probe, X-quadrature sample, collapse."""
        cols = _label_columns(self.n, qubit_a, qubit_b)
        peaks, a, b, x0 = _collapse_constants(self.probe)
        u, noise = self._uniform(), self._normal()
        j = self.measured
        self.measured = j + 1
        x, odd, phi = self.x[j], self.odd[j], self.phi[j]
        # exact-mixture sampling, as sample_quadrature draws it
        weights = np.abs(self.amp) ** 2
        cdf = np.add.accumulate(weights / np.add.reduce(weights, axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        # the count of CDF entries <= u; the shared input row broadcasts
        pick = np.add.reduce(cdf <= u[:, None], axis=1)
        if len(self.amp) == 1:
            self.amp = self.amp.repeat(self.count, axis=0)
        np.add(peaks[cols[pick]], noise, out=x)
        # collapse onto <x|beta_k>, one kernel row per label; label(0) is
        # real, label(+-1) carry the phases +-p, p = kernel_phase(x, label(1)),
        # reduced exactly by sin/cos into e^{ip}, which label -1 conjugates;
        # states.ALPHA_MAX keeps every term finite
        kernel = np.empty((3, self.count), complex)
        eip = kernel[2]
        p = b * (x - a)
        np.cos(p, out=eip.real)
        np.sin(p, out=eip.imag)
        np.arctan2(eip.imag, eip.real, out=phi)
        # one exp over the two distinct peaks: peaks[:0:-1] is label +1's
        # (the magnitude of labels +-1) and label 0's
        mag = KERNEL_PEAK * np.exp(-0.25 * (x - peaks[:0:-1, None]) ** 2)
        np.multiply(mag[0], np.conjugate(eip, out=kernel[0]), out=kernel[0])
        np.multiply(mag[0], eip, out=eip)
        kernel[1] = mag[1]
        self.amp *= kernel.T[:, cols]
        self._renormalize("collapse", x)
        np.less_equal(x, x0, out=odd)
        np.remainder(phi, _TWO_PI, out=phi)
        self.flag, self.flag_phi = odd, phi

    def photon(self, qubit: int) -> None:
        """QND {H, V} readout of ``qubit``."""
        v_cols = _v_bits(self.n)[:, qubit]
        weights = np.abs(self.amp) ** 2
        p_v = np.add.reduce(weights[:, v_cols], axis=1) / np.add.reduce(weights, axis=1)
        v = self._uniform() < p_v
        self.amp = np.where(v[:, None] == v_cols[None, :], self.amp, 0j)
        self._renormalize("photon readout")
        self.photon_v = self.flag = v
        self.flag_phi = None

    def feed_forward(self, plan: FeedForwardPlan, slots: tuple[tuple[str, int], ...]) -> None:
        """Apply ``plan``, wired by the ``(slot, qubit)`` pairs ``slots``, to
        the shots whose ``flag`` the last measurement set.  The steps act on
        the whole block, and only the flagged shots keep the result."""
        corrected = self.amp
        for step in _correction(self.n, plan, slots):
            corrected = step.apply(corrected, self.flag_phi)
        self.amp = np.where(self.flag[:, None], corrected, self.amp)


#: the draws each kind of step makes, in order, on every shot; ``rotate``
#: and ``feed_forward`` draw nothing
_DRAWS = {
    _Shots.homodyne: ("random", "standard_normal"),  # branch pick, then noise
    _Shots.photon: ("random",),
}


@dataclass(frozen=True)
class Circuit:
    """An experiment as data.

    ``steps`` are ``_Shots`` calls, each ``(method, *args)``, run in order on
    a block that holds the experiment's two input qubits, with the CNOT
    ancilla ``ANCILLA_PLUS`` between them when ``ancilla`` is set.
    ``ideal(shots, c, d)`` gives each shot's record-conditional ideal output
    for inputs ``c`` and ``d``.  ``draws``, derived from the steps, lists the
    draws each shot makes, in order, and ``words`` the stream words they take.
    """

    ancilla: bool
    steps: tuple[tuple, ...]
    ideal: Callable[[_Shots, tuple, tuple], np.ndarray]
    draws: tuple[str, ...] = field(init=False)
    words: int = field(init=False)

    def __post_init__(self):
        draws = tuple(d for method, *_ in self.steps for d in _DRAWS.get(method, ()))
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "words", _words(draws))


def _entangler(qubit_a: int, qubit_b: int, plan: FeedForwardPlan = ENTANGLER_PLAN) -> tuple:
    """Parity gate plus its plan's corrections (:func:`kerrgate.gates.entangler`)."""
    slots = (("0", qubit_a), ("1", qubit_b))
    return (_Shots.homodyne, qubit_a, qubit_b), (_Shots.feed_forward, plan, slots)


def _entangler_45(qubit_a: int, qubit_b: int) -> tuple:
    """The same in the diagonal frame (:func:`kerrgate.gates.entangler_45`)."""
    frame = (_Shots.rotate, qubit_a, qubit_b)
    return (frame, *_entangler(qubit_a, qubit_b, ENTANGLER_45_PLAN), frame)


# -- ideal outputs, written out from the paper's formulas ----------------------


def _pick(odd: np.ndarray, even_form, odd_form) -> np.ndarray:
    """Per-shot ideal: ``odd_form`` on odd records, ``even_form`` otherwise."""
    return np.where(odd[:, None], odd_form, even_form)


def _parity_ideal(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    ph = np.exp(1j * shots.phi[0])
    odd = np.zeros((len(ph), 4), complex)
    odd[:, 1] = c0 * d1 * ph
    odd[:, 2] = c1 * d0 / ph
    return _pick(shots.odd[0], np.array([c0 * d0, 0, 0, c1 * d1]), odd)


def _entangler_ideal(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    return _pick(
        shots.odd[0], np.array([c0 * d0, 0, 0, c1 * d1]), np.array([c0 * d1, 0, 0, c1 * d0])
    )


def _diagonal_pair_form(c0, c1, d0, d1) -> np.ndarray:
    """``p_D q_D |DD> + p_Db q_Db |DbDb>`` of inputs c, d, over H/V columns."""
    dd = (c0 + c1) / 2 * ((d0 + d1) / 2)
    dbdb = (c0 - c1) / 2 * ((d0 - d1) / 2)
    return np.array([dd + dbdb, dd - dbdb, dd - dbdb, dd + dbdb])


def _entangler45_ideal(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    # the odd branch, after its corrections, equals the even form of the
    # sign-flipped first input
    return _pick(
        shots.odd[0], _diagonal_pair_form(c0, c1, d0, d1), _diagonal_pair_form(c0, -c1, d0, d1)
    )


def _cnot_ideal(shots: _Shots, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    # columns (control, ancilla, target): c0 d0 |H a H> + c0 d1 |H a V>
    # + c1 d0 |V a V> + c1 d1 |V a H>, a the ancilla's reading
    on_h = np.array([c0 * d0, c0 * d1, 0, 0, c1 * d1, c1 * d0, 0, 0])
    on_v = np.array([0, 0, c0 * d0, c0 * d1, 0, 0, c1 * d1, c1 * d0])
    return _pick(shots.photon_v, on_h, on_v)


_CNOT_SLOTS = (("control", 0), ("target", 2))

#: experiment name -> circuit, in the order the CLI lists them; the CNOT's
#: qubits are (control, ancilla, target)
CIRCUITS: dict[str, Circuit] = {
    "parity": Circuit(False, ((_Shots.homodyne, 0, 1),), _parity_ideal),
    "entangler": Circuit(False, _entangler(0, 1), _entangler_ideal),
    "entangler45": Circuit(False, _entangler_45(0, 1), _entangler45_ideal),
    "cnot": Circuit(
        True,
        (
            *_entangler(0, 1),
            *_entangler_45(1, 2),
            (_Shots.feed_forward, CNOT_SIGN_PLAN, _CNOT_SLOTS),
            (_Shots.photon, 1),
            (_Shots.feed_forward, CNOT_PHOTON_PLAN, _CNOT_SLOTS),
        ),
        _cnot_ideal,
    ),
}


@dataclass(frozen=True)
class ShotBlock:
    """The shots of one block, one row per shot.

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
    ideal_n2 = np.add.reduce(np.abs(ideal) ** 2, axis=1)
    final_n2 = np.add.reduce(np.abs(final) ** 2, axis=1)
    overlap = np.einsum("si,si->s", ideal.conj(), final)
    return np.divide(
        np.abs(overlap) ** 2,
        final_n2 * ideal_n2,
        out=np.zeros(len(final)),
        where=ideal_n2 > _IDEAL_NORM_FLOOR,
    )


def run_block(
    experiment: str, inputs, probe: ProbeMode, rng: np.random.Generator, count: int
) -> ShotBlock:
    """Run the next ``count`` shots of ``experiment`` on validated inputs.

    The shots read their words from ``rng``, which they advance by ``count K``.
    ``inputs`` are two normalized amplitude pairs, as for ``run_shots``; both
    probes of the CNOT are ``probe``.
    """
    circuit = CIRCUITS[experiment]
    shots = _Shots(count, probe, rng, circuit.draws)
    c, d = inputs
    shots.prepare(*((c, ANCILLA_PLUS, d) if circuit.ancilla else (c, d)))
    for method, *args in circuit.steps:
        method(shots, *args)
    return ShotBlock(
        x=shots.x.T,
        odd=shots.odd.T,
        phi=shots.phi.T,
        photon_v=shots.photon_v,
        final=shots.amp,
        fidelity=_fidelity(shots.amp, circuit.ideal(shots, c, d)),
    )

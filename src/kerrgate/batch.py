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
makes, so the steps make few and cheap ones: reductions call the ufuncs
(``np.add.reduce``, ``np.add.accumulate``) that ``sum`` and ``cumsum`` wrap,
a gather along an axis is ``ndarray.take``, about half the cost of the fancy
index it equals, and a feed-forward keeps its flagged rows in place
(``np.copyto(..., where=)``).

Each experiment is a :class:`Circuit`: the steps that
:func:`kerrgate.gates.run_steps` runs on one scalar shot, its hand-written
ideal output, and whether it holds the CNOT ancilla.  Here each step is one
array operation on the block, a :class:`ShotBlock` method: a rotation is one
``2**n x 2**n`` matrix for its qubits together, a homodyne multiplies each
shot by the measurement kernel ``<x|beta_k>`` (up to its constant factor),
and each feed-forward action is one generic ``_Step`` on the block's
columns, built from its :data:`kerrgate.gates.ACTIONS` entry: a permutation
if the kind exchanges H and V, then a multiply by its factors.

A circuit is compiled once, when it is built, into :attr:`Circuit.program`
for its qubit count: each step becomes a ``ShotBlock`` method and the
tables it reads, a homodyne's label columns, a rotation's lifted matrix, a
feed-forward's column step for each of its ``(kind, qubit)`` actions and a
photon readout's V mask, and each measurement is given its first stream
word and its record: a homodyne its row of the block's outcomes, parities
and ``e^{ip}``, a photon readout its row of V readings.  No cache sits
beside the program: a block reads only its read-only tables.
:func:`kerrgate.gates.check_steps` runs there, not in a block: a kind or
arity that :data:`kerrgate.gates.STEP_KINDS` does not declare, a qubit named
twice, a malformed or unknown action or a wiring error raises
``ContractError``, and a qubit the circuit lacks ``ValidationError``.
A block looks nothing up for its probe: the collapse reads the peaks,
threshold and kernel phase constants that the validated ``ProbeMode``
derived when it was built.

No step renormalizes: the branch pick and ``p_V`` divide by the total
weight, which the norm check before them has summed, and a shot's squared
norm is taken once, at the end of the block, as the fidelity's denominator;
``ShotBlock.final`` is normalized by it when it is first read.  Feed-forward
and rotations are linear, so a measurement that leaves a zero (or nan) row
is caught where the next step sums that row's weights, and the error names
that measurement.  Each collapse keeps ``e^{ip}`` and ``e^{-ip}``;
``ShotBlock.phi`` is finished from the ``e^{ip}`` when first read, every
record in one pass, ``arctan2 mod 2 pi``.  Fidelity with the
record-conditional ideal output is one contraction, each shot's ideal a row
picked by its record from the ideal's two forms.  :func:`run_block`
returns the block the steps ran on, and ``run_shots`` reads only its odd
records and fidelities.

Column ``j`` holds the basis string whose qubit ``q`` is ``V`` iff bit
``n - 1 - q`` of ``j`` is set: the scalar engine's sorted branch order.

A run with seed ``s`` reads one stream, ``np.random.default_rng(s).random()``
(``run_shots`` builds it as ``Generator(PCG64(s))``, the same generator).
Shot ``i`` takes words ``i K .. i K + K - 1`` of it, where ``K``
(:attr:`Circuit.words`) sums the words :data:`kerrgate.gates.STEP_KINDS`
gives the circuit's measurements, as :func:`kerrgate.gates.run_steps` reads
them.  The run builds its generator once and hands it to each block in
turn; a block's words are one ``random((count, K))`` call on it, and each
measurement reads its own columns of them in place, so shot ``i`` is the
same in any block.  ``run_steps`` replays shot ``i`` on ``default_rng(s)``
advanced by ``i K``, or with its outcomes forced, to the same records and
final state; the hand-written ideals below check the steps' wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError
from .gates import ACTIONS, ANCILLA_PLUS, STEP_KINDS, check_steps, cnot_steps
from .gates import entangler_45_steps, entangler_steps
from .measurement import gaussian, pick_branches
from .optics import build_parity_coupling_pair, diagonal_basis_change
from .states import ProbeMode

_TWO_PI = 2.0 * math.pi
#: ideal outputs with less squared norm than this contradict the record outright
_IDEAL_NORM_FLOOR = 1e-300


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)  # compiled into a Circuit.program, shared by every block
    return table


def _v_bits(n: int) -> np.ndarray:
    """``(2**n, n)`` table: True where qubit ``q`` of column ``j`` is V."""
    cols = np.arange(1 << n)[:, None]
    return _frozen((cols >> (n - 1 - np.arange(n))[None, :]) & 1 == 1)


def _label_columns(n: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Each column's probe label after the parity detector's kicks, as its
    index ``k + 1`` into the labels ``(-1, 0, +1)``, ``k`` its phase index."""
    v = _v_bits(n)
    k = np.ones(1 << n, np.intp)
    for kick in build_parity_coupling_pair(qubit_a, qubit_b):
        k += kick.sign * (v[:, kick.qubit_index] == (kick.trigger_polarization == "V"))
    return _frozen(k)


def _rotation(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """``diagonal_basis_change`` on each of the distinct ``qubits``, lifted to
    ``n`` qubits as one matrix, transposed so that it right-multiplies a
    block's rows."""
    full = np.ones((1, 1))
    for q in range(n):
        full = np.kron(full, diagonal_basis_change(q).matrix if q in qubits else np.eye(2))
    return _frozen(full.T.copy())


class _Step(NamedTuple):
    """One action of :data:`~kerrgate.gates.ACTIONS` on a block's columns,
    each part ``None`` if unused: column ``j`` takes column ``flip[j]`` (its
    qubit's bit flipped), then is multiplied by a fixed ``factor[j]`` (not
    1, 1) or by ``eip[phase[j]]`` (``phase`` the V bit) of the last collapse."""

    flip: np.ndarray | None
    factor: np.ndarray | None
    phase: np.ndarray | None

    def apply(self, amp: np.ndarray, eip: np.ndarray | None) -> np.ndarray:
        if self.flip is not None:
            amp = amp.take(self.flip, axis=1)
        if self.factor is not None:
            amp = amp * self.factor
        return amp if self.phase is None else amp * eip.take(self.phase, axis=1)


def _step(n: int, kind: str, qubit: int) -> _Step:
    """The action ``(kind, qubit)`` on ``n`` qubits as a column step."""
    flips, factors = ACTIONS[kind]
    flip = _frozen(np.arange(1 << n) ^ (1 << (n - 1 - qubit))) if flips else None
    v = _frozen(_v_bits(n)[:, qubit].astype(np.intp))
    if factors is None:
        return _Step(flip, None, v)
    return _Step(flip, None if factors == (1, 1) else _frozen(np.array(factors, complex)[v]), None)


class ShotBlock:
    """One block of shots, advanced in place by the steps of a
    :attr:`Circuit.program`: ``rotate``, ``homodyne``, ``feed_forward`` and
    ``photon``, each called with the tables its circuit resolved.

    ``amp`` holds the amplitudes, one shared input row until the first
    measurement repeats it into a row per shot (see the module docstring).
    ``words`` holds the next ``count`` shots of ``rng`` for ``circuit``, a
    row each, which each measurement reads in place, and ``normals`` every
    homodyne's Box-Muller normal, a row per record, from one
    :func:`gaussian` call.  The steps write the records a row per record:
    homodyne record ``j`` in ``_x[j]``, ``_odd[j]`` and ``_eip[j]`` (its
    collapse's ``(e^{-ip}, e^{ip})``, a row per shot, so that a feed-forward
    gathers each column's factor along a row), photon readout ``j`` in
    ``_photon_v[j]``.  Each measurement leaves its outcome as ``flag`` (odd,
    or V) and its pair as ``flag_eip`` (``None`` after a photon readout) for
    the ``feed_forward`` after it, and itself as ``last``, ``(what, x)``,
    which a later zero-norm error names.

    :func:`run_block` returns the block with ``n2``, each shot's squared
    norm, and ``fidelity``, its fidelity with the record-conditional ideal.
    ``x``, ``odd`` and ``photon_v`` are views of the record rows with a row
    per shot and a column per homodyne record, or per photon readout (True
    for V); ``eip`` is each record's ``e^{ip}``, a row per record.  ``phi``,
    its phase (``arctan2`` mod 2 pi) with a row per shot, and ``final``,
    ``amp`` normalized, are computed when first read.
    """

    def __init__(self, count: int, probe: ProbeMode, rng: np.random.Generator, circuit: Circuit):
        self.count = count
        self.probe = probe
        self.words = rng.random((count, circuit.words))
        u1, u2 = self.words.T.take(circuit.noise, axis=0)
        self.normals = gaussian(u1, u2)
        records = len(self.normals)  # a row per homodyne record
        self._x = np.empty((records, count))
        self._odd = np.empty((records, count), bool)
        self._eip = np.empty((records, count, 2), complex)
        self._photon_v = np.empty((circuit.readouts, count), bool)
        self.last = None

    @property
    def x(self) -> np.ndarray:
        return self._x.T

    @property
    def odd(self) -> np.ndarray:
        return self._odd.T

    @property
    def photon_v(self) -> np.ndarray:
        return self._photon_v.T

    @property
    def eip(self) -> np.ndarray:
        return self._eip[..., 1]

    @cached_property
    def phi(self) -> np.ndarray:
        phi = np.arctan2(self.eip.imag, self.eip.real)
        np.remainder(phi, _TWO_PI, out=phi)
        return phi.T

    @cached_property
    def final(self) -> np.ndarray:
        return self.amp * (1.0 / np.sqrt(self.n2))[:, None]

    def prepare(self, pairs) -> None:
        """Product input, one ``(c_H, c_V)`` pair per qubit, as one row."""
        product = pairs[0]
        for pair in pairs[1:]:
            product = np.multiply.outer(product, pair, dtype=complex)
        self.amp = product.reshape(1, -1)

    def rotate(self, matrix: np.ndarray) -> None:
        """Enter (or, being self-inverse, leave) the diagonal frame."""
        self.amp = self.amp @ matrix

    def _check_norm(self, n2: np.ndarray) -> None:
        """Raise unless every shot's squared norm ``n2`` is positive, naming
        the last measurement: only a measurement can zero a row."""
        # the smallest squared norm, inf for no shots; nan fails the test too
        if not np.minimum.reduce(n2, initial=math.inf) > 0.0:
            what, x = self.last
            at = f" at x={x[~(n2 > 0.0)][0]}" if x is not None else ""
            raise ValidationError(f"{what}{at} leaves a zero-norm state")

    def homodyne(self, word: int, j: int, cols: np.ndarray) -> None:
        """Parity kicks on a fresh probe, X-quadrature sample, collapse, as
        homodyne record ``j``: ``word`` is its branch pick's stream word and
        ``cols`` each column's label index."""
        probe = self.probe
        peaks = probe.peaks
        x, odd, eip = self._x[j], self._odd[j], self._eip[j]
        # exact-mixture sampling, as sample_quadrature draws it; the shared
        # input row serves every shot
        weights = np.abs(self.amp) ** 2
        totals = np.add.reduce(weights, axis=1)
        if self.last is not None:  # before any measurement: the valid input
            self._check_norm(totals)
        pick = pick_branches(weights, self.words[:, word], totals)
        if len(self.amp) == 1:
            self.amp = self.amp.repeat(self.count, axis=0)
        np.add(peaks[cols[pick]], self.normals[j], out=x)
        # collapse onto <x|beta_k>, one kernel column per label, without its
        # constant factor KERNEL_PEAK, which the block's one norm cancels;
        # label(0) is real, label(+-1) carry the phases +-p, p = b (x - a)
        # (ProbeMode), reduced exactly by sin/cos into e^{ip} and conjugated
        # into e^{-ip}; states.ALPHA_MAX keeps every term finite
        p = x - probe.a
        p *= probe.b
        ep = eip[:, 1]
        np.cos(p, out=ep.real)
        np.sin(p, out=ep.imag)
        np.conjugate(ep, out=eip[:, 0])
        # one exp over the two distinct peaks: peaks[:0:-1] is label +1's
        # (the magnitude of labels +-1) and label 0's
        mag = x[:, None] - peaks[:0:-1]
        np.square(mag, out=mag)
        mag *= -0.25
        np.exp(mag, out=mag)
        kernel = np.empty((self.count, 3), complex)
        np.multiply(mag[:, :1], eip, out=kernel[:, ::2])
        kernel[:, 1] = mag[:, 1]
        self.amp *= kernel.take(cols, axis=1)
        np.less_equal(x, probe.x0, out=odd)
        self.flag, self.flag_eip = odd, eip
        self.last = ("collapse", x)

    def photon(self, word: int, j: int, v_mask: np.ndarray) -> None:
        """QND {H, V} readout of one qubit, from stream word ``word``, as
        photon readout ``j``: ``v_mask`` marks the qubit's V columns."""
        weights = np.abs(self.amp) ** 2
        total = np.add.reduce(weights, axis=1)
        self._check_norm(total)
        p_v = np.add.reduce(weights, axis=1, where=v_mask) / total
        v = np.less(self.words[:, word], p_v, out=self._photon_v[j])
        self.amp = np.where(v[:, None] == v_mask, self.amp, 0j)
        self.flag = v
        self.flag_eip = None
        self.last = ("photon readout", None)

    def feed_forward(self, steps: tuple[_Step, ...]) -> None:
        """Apply the column ``steps`` to the shots whose ``flag`` the last
        measurement set.  The steps act on the whole block, and only the
        flagged shots keep the result, copied into their rows in place: each
        part of a step returns a new array, so the result is never ``amp``'s
        own memory."""
        corrected = self.amp
        for step in steps:
            corrected = step.apply(corrected, self.flag_eip)
        np.copyto(self.amp, corrected, where=self.flag[:, None])


@dataclass(frozen=True)
class Circuit:
    """An experiment as data.

    ``steps`` are ``(name, *args)`` tuples (see the module docstring), run in
    order on a block that holds the experiment's two input qubits, with the
    CNOT ancilla ``ANCILLA_PLUS`` between them when ``ancilla`` is set.
    ``ideal(block, c, d)`` gives each shot's record-conditional ideal output
    for inputs ``c`` and ``d``.  Derived from the steps when the circuit is
    built: ``n``, its qubit count; ``program``, the steps compiled for ``n``
    qubits once :func:`~kerrgate.gates.check_steps` passes them, each a
    :class:`ShotBlock` method and the tables it reads; ``words``, the stream
    words a shot takes (the sum of its steps' ``STEP_KINDS`` words);
    ``noise``, the ``(2, records)`` columns of each homodyne's Box-Muller
    pair among them, one column per homodyne record; and ``readouts``, its
    photon readouts.
    """

    ancilla: bool
    steps: tuple[tuple, ...]
    ideal: Callable[[ShotBlock, tuple, tuple], np.ndarray]
    n: int = field(init=False)
    program: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    words: int = field(init=False)
    noise: np.ndarray = field(init=False, repr=False, compare=False)
    readouts: int = field(init=False)

    def __post_init__(self):
        n = 3 if self.ancilla else 2
        check_steps(self.steps, n)
        # each step as its ShotBlock method and tables; a measurement's
        # arguments are its first word, then its record's index, and it reads
        # the words its STEP_KINDS entry gives after the first
        program, words, starts, readouts = [], 0, [], 0
        for name, *args in self.steps:
            if name == "rotate":
                program.append((ShotBlock.rotate, _rotation(n, tuple(args))))
            elif name == "feed_forward":
                program.append((ShotBlock.feed_forward, tuple(_step(n, *a) for a in args)))
            elif name == "homodyne":
                program.append((ShotBlock.homodyne, words, len(starts), _label_columns(n, *args)))
                starts.append(words)
            else:  # photon
                program.append((ShotBlock.photon, words, readouts, _v_bits(n)[:, args[0]]))
                readouts += 1
            words += STEP_KINDS[name][1]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "program", tuple(program))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "readouts", readouts)
        # a homodyne's words are its branch pick, then its noise pair
        object.__setattr__(self, "noise", _frozen(np.array(starts, np.intp) + [[1], [2]]))


# -- ideal outputs, written out from the paper's formulas ----------------------


def _parity_ideal(block: ShotBlock, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    emp, ep = block._eip[0].T
    odd = np.zeros((len(ep), 4), complex)
    odd[:, 1] = c0 * d1 * ep
    odd[:, 2] = c1 * d0 * emp
    return np.where(block._odd[0][:, None], odd, np.array([c0 * d0, 0, 0, c1 * d1]))


def _entangler_ideal(block: ShotBlock, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    forms = np.array(((c0 * d0, 0, 0, c1 * d1), (c0 * d1, 0, 0, c1 * d0)))
    return forms.take(block._odd[0], axis=0)


def _diagonal_pair_form(c0, c1, d0, d1) -> tuple:
    """``p_D q_D |DD> + p_Db q_Db |DbDb>`` of inputs c, d, over H/V columns."""
    dd = (c0 + c1) / 2 * ((d0 + d1) / 2)
    dbdb = (c0 - c1) / 2 * ((d0 - d1) / 2)
    return (dd + dbdb, dd - dbdb, dd - dbdb, dd + dbdb)


def _entangler45_ideal(block: ShotBlock, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    # the odd branch, after its corrections, equals the even form of the
    # sign-flipped first input
    forms = np.array((_diagonal_pair_form(c0, c1, d0, d1), _diagonal_pair_form(c0, -c1, d0, d1)))
    return forms.take(block._odd[0], axis=0)


def _cnot_ideal(block: ShotBlock, c, d) -> np.ndarray:
    (c0, c1), (d0, d1) = c, d
    # columns (control, ancilla, target): c0 d0 |H a H> + c0 d1 |H a V>
    # + c1 d0 |V a V> + c1 d1 |V a H>, a the ancilla's reading (H, then V)
    forms = np.array(
        (
            (c0 * d0, c0 * d1, 0, 0, c1 * d1, c1 * d0, 0, 0),
            (0, 0, c0 * d0, c0 * d1, 0, 0, c1 * d1, c1 * d0),
        )
    )
    return forms.take(block._photon_v[0], axis=0)


#: experiment name -> circuit, in the order the CLI lists them; the CNOT's
#: qubits are (control, ancilla, target)
CIRCUITS: dict[str, Circuit] = {
    "parity": Circuit(False, (("homodyne", 0, 1),), _parity_ideal),
    "entangler": Circuit(False, entangler_steps(0, 1), _entangler_ideal),
    "entangler45": Circuit(False, entangler_45_steps(0, 1), _entangler45_ideal),
    "cnot": Circuit(True, cnot_steps(0, 1, 2), _cnot_ideal),
}


def _fidelity(amp: np.ndarray, n2: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """``|<ideal|amp>|^2 / (n2 |ideal|^2)`` per shot, ``n2`` being ``|amp|^2``;
    0 where the ideal has no norm (the record contradicts the input)."""
    ideal_n2 = np.vecdot(ideal, ideal).real
    return np.divide(
        np.abs(np.vecdot(ideal, amp)) ** 2,
        n2 * ideal_n2,
        out=np.zeros(len(amp)),
        where=ideal_n2 > _IDEAL_NORM_FLOOR,
    )


def run_block(
    experiment: str, inputs, probe: ProbeMode, rng: np.random.Generator, count: int
) -> ShotBlock:
    """Run the next ``count`` shots of ``experiment`` on validated inputs and
    return the finished block, its ``n2`` and ``fidelity`` set.

    The shots read their words from ``rng``, which they advance by ``count K``.
    ``inputs`` are two normalized amplitude pairs, as for ``run_shots``; the
    CNOT's two parity detectors each use ``probe``, as :func:`kerrgate.gates.cnot`
    does.
    """
    circuit = CIRCUITS[experiment]
    block = ShotBlock(count, probe, rng, circuit)
    c, d = inputs
    block.prepare((c, ANCILLA_PLUS, d) if circuit.ancilla else (c, d))
    for method, *args in circuit.program:
        method(block, *args)
    amp = block.amp
    block.n2 = n2 = np.vecdot(amp, amp).real  # the block's one norm per shot
    block._check_norm(n2)
    block.fidelity = _fidelity(amp, n2, circuit.ideal(block, c, d))
    return block

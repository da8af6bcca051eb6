"""Branch-label representation of polarization qubits coupled to coherent probes.

A state is a superposition of *branches*.  Each branch carries a complex
amplitude, a polarization basis string (one of ``'H'``/``'V'`` per qubit) and
a signed integer phase index on the state's probe: a branch with index ``k``
on a probe ``(alpha, theta)`` is attached to the coherent state
``alpha * exp(1j * k * theta)``.  Keeping integer indices instead of complex
labels makes branch merging exact; the circuits modelled here only ever kick
probes by whole multiples of ``theta``.

At most one probe is active at a time, as in the paper's CNOT, whose two
parity detectors act in turn: each probe is activated, kicked and measured
before the next.  :meth:`HybridState.activate_probe` enforces it.  Without a
probe every phase index is 0.

The representation is exact (no Fock truncation): cross-Kerr interactions map
coherent states to coherent states, so a finite set of branches is closed
under every operation in this package.  Inner products between branches with
different phase indices use the coherent-state overlap
``<b'|b> = exp(-|b|^2/2 - |b'|^2/2 + conj(b') * b)``.

States are immutable; every operation returns a new :class:`HybridState`.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, ValidationError

#: basis string: one 'H' or 'V' label per qubit, hashable for branch merging
PolBasisString = tuple[str, ...]

#: default amplitude threshold of :func:`merge_and_prune`
DEFAULT_PRUNE_EPS = 1e-14

_NORM_TOL = 1e-12

#: how far the float threshold ``x0`` may miss the midpoint ``2 alpha - xd/2``
#: of the peaks, as a share of ``xd``, and an absolute floor for an ``xd``
#: that underflows
_THRESHOLD_TOL = 1e-3
_THRESHOLD_FLOOR = 1e-9

#: largest probe amplitude.  Up to it every number a collapse computes stays
#: finite in both shot engines: ``alpha**2``, the kernel phase ``b (x - a)``
#: and the squared distance from an outcome to the farthest peak, at most
#: ``(4 alpha + 9)**2``.  Past about 1e154 they overflow.
ALPHA_MAX = 1e150


class Branch(NamedTuple):
    """One superposition branch: amplitude, basis string, probe phase index."""

    amplitude: complex
    basis: PolBasisString
    phase: int


@dataclass(frozen=True)
class ProbeMode:
    """Coherent probe beam with real amplitude and a Kerr phase unit per photon.

    ``theta`` is the phase kick the probe picks up per photon in the coupled
    rail (the product of nonlinearity strength and interaction time); only the
    product is ever needed, so the factors are never stored separately.

    The detector's constants are derived once, when the probe is built, and
    both engines read them here: the threshold ``x0 = alpha (1 + cos
    theta)``, midway between the peaks ``2 alpha`` (even) and ``2 alpha cos
    theta`` (odd); their separation ``xd``, as ``4 alpha sin^2(theta / 2)``
    against cancellation; ``a + i b = label(1)``, whose kernel at ``x`` has
    the phase ``b (x - a)``; and ``peaks``, the read-only ``2 Re label(k)``
    of ``k = -1, 0, +1``.  ``alpha`` and ``theta`` are reals (:func:`_real`),
    stored as builtin floats, a NumPy scalar too and a zero as ``+0.0``, so
    equal probes are equal in every field.
    """

    alpha: float
    theta: float
    x0: float = field(init=False, repr=False, compare=False)
    xd: float = field(init=False, repr=False, compare=False)
    a: float = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)
    peaks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = _real(self.alpha, "probe alpha") + 0.0  # -0.0 + 0.0 is +0.0
        theta = _real(self.theta, "probe theta") + 0.0
        if not (0.0 <= alpha <= ALPHA_MAX):  # also catches NaN
            raise ValidationError(f"probe alpha must lie in [0, {ALPHA_MAX:g}], got {self.alpha}")
        # theta = 0 is allowed as the degenerate no-coupling limit
        if not (0.0 <= theta <= math.pi):
            raise ValidationError(f"probe theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)
        x0 = alpha * (1.0 + math.cos(theta))
        xd = 4.0 * alpha * math.sin(0.5 * theta) ** 2
        # the float threshold must sit midway between the peaks: deep in the
        # weak-Kerr limit ``cos theta`` rounds towards 1 and ``x0`` onto the
        # even peak ``2 alpha``, and every even shot would read odd
        miss = abs((x0 - 2.0 * alpha) + 0.5 * xd)
        if miss > max(_THRESHOLD_TOL * xd, _THRESHOLD_FLOOR):
            raise ValidationError(
                f"probe theta {theta!r} at alpha {alpha!r} is unresolvable in "
                f"floating point: the threshold x0 = alpha (1 + cos theta) misses the "
                f"midpoint of the peaks by {miss:.3g}, peak separation xd = {xd:.3g}"
            )
        labels = [self.label(k) for k in (-1, 0, 1)]
        peaks = np.array([2.0 * label.real for label in labels])
        peaks.setflags(write=False)
        for name, value in (("x0", x0), ("xd", xd), ("a", labels[2].real),
                            ("b", labels[2].imag), ("peaks", peaks)):
            object.__setattr__(self, name, value)

    def label(self, k: int) -> complex:
        """Coherent label alpha * exp(i k theta) for phase index ``k``."""
        return self.alpha * cmath.exp(1j * k * self.theta)


def coherent_overlap(bra: complex, ket: complex) -> complex:
    """Overlap <bra|ket> of two coherent states.

    The magnitude terms reuse the same products as the cross term, so the
    overlap of identical labels is exactly 1.  Both labels are amplitudes
    (:func:`_amplitude`) whose ``|beta|^2`` is finite, else ``ValidationError``.
    """
    bra, ket = _amplitude(bra, "bra label"), _amplitude(ket, "ket label")
    try:
        ket_sq = ket.real**2 + ket.imag**2
        bra_sq = bra.real**2 + bra.imag**2
    except OverflowError:  # from a square
        ket_sq = bra_sq = math.inf
    if not (ket_sq < math.inf and bra_sq < math.inf):  # also catches NaN
        raise ValidationError(f"coherent labels need a finite |beta|^2, got {bra!r}, {ket!r}")
    return cmath.exp(bra.conjugate() * ket - 0.5 * ket_sq - 0.5 * bra_sq)


@dataclass(frozen=True)
class HybridState:
    """Joint state of ``n_qubits`` polarization qubits and at most one probe.

    Invariant: ``branches`` holds one branch per ``(basis, phase)`` key, in
    key order, and no branch has an exactly zero amplitude; every phase is 0
    while ``probe`` is ``None``.  The raw constructor trusts its arguments to
    keep it; :meth:`from_branches` validates and merges them.  Only a
    single-qubit gate and a probe measurement can make two keys equal, so
    only those re-merge.

    ``pruned_mass`` accumulates the squared amplitude discarded by
    :func:`merge_and_prune` over the state's history; it is diagnostic only
    and never triggers renormalization.  No gate or measurement prunes, so
    it stays 0 unless a caller prunes explicitly.
    """

    n_qubits: int
    branches: tuple[Branch, ...]
    probe: ProbeMode | None = None
    pruned_mass: float = 0.0

    @classmethod
    def from_branches(
        cls,
        n_qubits: int,
        branches: Iterable[tuple[complex, PolBasisString | str, int] | Branch],
        probe: ProbeMode | None = None,
    ) -> "HybridState":
        """Build a state, merging branches that share basis and phase index.

        Branches with exactly zero amplitude are dropped (no mass is lost by
        doing so); near-zero amplitudes are kept, as every operation in this
        package keeps them.
        """
        n_qubits = _integer(n_qubits, "qubit count")
        if n_qubits < 1:
            raise ValidationError("a state needs at least one qubit")
        if probe is not None:
            _instance(probe, ProbeMode, "probe")
        checked = []
        for branch in _items(branches, "branches"):
            try:
                amp, basis, phase = branch
                basis = tuple(basis)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"a branch is an (amplitude, basis, phase) triple, got {branch!r}"
                ) from None
            if len(basis) != n_qubits:
                raise ValidationError(
                    f"basis string {basis!r} does not match qubit count {n_qubits}"
                )
            try:
                basis = tuple(_label(c, "basis label") for c in basis)
            except ValidationError:
                raise ValidationError(f"basis labels must be 'H' or 'V', got {basis!r}") from None
            phase = _integer(phase, "phase index")
            if probe is None and phase != 0:
                raise ValidationError(f"phase index {phase!r} needs an active probe")
            amp = _amplitude(amp, "branch amplitude")
            if not cmath.isfinite(amp):
                raise ValidationError("branch amplitude must be finite")
            checked.append(Branch(amp, basis, phase))
        return _merged_state(n_qubits, checked, probe, 0.0)

    def activate_probe(self, probe: ProbeMode) -> "HybridState":
        """Attach a fresh probe (phase index 0 on every branch).

        Raises ``ContractError`` while another probe is active: a probe is
        measured before the next one couples.
        """
        if self.probe is not None:
            raise ContractError("a probe is already active; measure it before activating another")
        _instance(probe, ProbeMode, "probe")
        return HybridState(self.n_qubits, self.branches, probe, self.pruned_mass)

    def require_probe(self) -> ProbeMode:
        if self.probe is None:
            raise ContractError("no probe is active")
        return self.probe

    def require_qubit(self, qubit_index: int) -> None:
        check_qubit(qubit_index, self.n_qubits)


# -- argument kinds --------------------------------------------------------
#
# Each kind of public argument is checked here and nowhere else: a validator
# returns the value as the builtin its callers compute with, or raises
# ``ValidationError`` naming the parameter.  A bool is not a real, a count,
# an index, a sign or an amplitude, though Python counts it as an int; text
# is not a number (the command line parses it); a NumPy scalar is the number
# it holds, and a 0-d array is not a number.  The ranges and domains (a
# probe's bounds, a normalized pair, a finite label) stay with their owners.
# An object argument is of its class (:func:`_instance`): a state a
# ``HybridState``, a probe a ``ProbeMode``, a gate a ``SingleQubitGate``, a
# coupling a ``KerrCoupling`` and a generator a ``numpy.random.Generator``,
# checked where it is read: a forced outcome reads none.


def _real(value, what: str) -> float:
    """``value`` as a builtin ``float``, or ``ValidationError``: a real is a
    ``numbers.Real`` that is not a ``bool``.  One past the float range, an
    int or a fraction, reads as an infinity of its sign."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ValidationError(f"{what} must be a real number, got {value!r}")


def _amplitude(value, what: str) -> complex:
    """``value`` as a builtin ``complex``, or ``ValidationError``: an
    amplitude is a ``numbers.Complex`` that is not a ``bool`` (nor text, which
    is no ``numbers.Complex``).  Whether it must be finite is its owner's
    check."""
    if type(value) is complex:
        return value
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            return complex(value)
        except OverflowError:  # a real past the float range
            return complex(_real(value, what))
    raise ValidationError(f"{what} must be a complex number, got {value!r}")


def _integer(value, what: str) -> int:
    """``value`` as an ``int``, or ``ValidationError``: a count or an index is
    an integer (``operator.index``) that is not a ``bool`` or an array."""
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.ndarray)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _instance(value, kind: type, what: str):
    """``value``, or ``ValidationError`` naming ``what`` unless it is a
    ``kind``: no other object stands in for a state, a probe, a gate, a
    coupling or a generator, whatever attributes it has."""
    if isinstance(value, kind):
        return value
    raise ValidationError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def check_qubit(qubit_index: int, n_qubits: int) -> int:
    """``qubit_index`` as an ``int``, or ``ValidationError`` unless it is an
    integer in ``range(n_qubits)``."""
    qubit = _integer(qubit_index, "qubit index")
    if not 0 <= qubit < n_qubits:
        raise ValidationError(f"qubit index {qubit_index} out of range for {n_qubits} qubits")
    return qubit


def _label(value, what: str, labels: tuple[str, ...] = ("H", "V")) -> str:
    """``value`` as the builtin ``str`` of one of ``labels``, by default the
    polarizations ``"H"`` and ``"V"``, or ``ValidationError``: a label is
    text, never a number or an array."""
    if isinstance(value, str) and value in labels:
        return str(value)
    raise ValidationError(f"{what} must be {' or '.join(map(repr, labels))}")


def _array(values, what: str, kinds: str) -> np.ndarray:
    """``values`` as an array whose NumPy dtype kind is one of ``kinds``,
    ``"iuf"`` for reals or ``"iufc"`` for amplitudes, else ``ValidationError``:
    never bools, text or objects, and not a ragged list.  NumPy's promotion
    would read a bool among a list's numbers as the number, so a list or
    tuple is refused if any entry is a bool; an array keeps its dtype."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = None
    if array is None or array.dtype.kind not in kinds or (
        isinstance(values, (list, tuple))
        and any(np.asarray(v).dtype.kind == "b" for v in np.asarray(values, dtype=object).flat)
    ):
        number = "complex" if "c" in kinds else "real"
        raise ValidationError(f"{what} must hold {number} numbers, got {values!r}")
    return array


def _items(values, what: str) -> list:
    """The items of ``values`` as a list, or ``ValidationError`` unless it is
    iterable and not text."""
    if not isinstance(values, str):
        try:
            return list(values)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be a sequence, got {values!r}")


def _checked_cache(check, maxsize: int | None = None):
    """``functools.lru_cache(maxsize)`` behind ``check``, which takes the
    function's arguments and returns them checked, each by its kind, as a
    tuple.  An ``lru_cache`` alone keys ``True``, ``1`` and ``1.0`` as one
    value, so it served an argument its function never checked, and it
    cannot hash an array; here each key is a checked builtin."""

    def decorate(build):
        cached = functools.lru_cache(maxsize=maxsize)(build)

        @functools.wraps(build)
        def checked(*args):
            return cached(*check(*args))

        checked.cache_clear = cached.cache_clear
        return checked

    return decorate


def _merged_state(
    n_qubits: int,
    branches: Iterable[Branch],
    probe: ProbeMode | None,
    pruned_mass: float,
) -> HybridState:
    """:meth:`HybridState.from_branches` without its checks, for this package's
    own operations on a valid state.

    The ``branches`` must already be :class:`Branch` tuples with a finite
    ``complex`` amplitude, ``n_qubits`` H/V labels and an integer phase
    index, 0 without a probe.  Summing equal keys, sorting and dropping
    exact zeros establishes the :class:`HybridState` invariant.
    """
    merged: dict[tuple[PolBasisString, int], complex] = {}
    for amp, basis, phase in branches:
        key = (basis, phase)
        merged[key] = merged.get(key, 0j) + amp
    kept = tuple(
        Branch(amp, basis, phase)
        for (basis, phase), amp in sorted(merged.items())
        if amp != 0
    )
    return HybridState(n_qubits, kept, probe, pruned_mass)


def check_normalized(
    qubit_specs: Sequence[tuple[complex, complex]],
) -> list[tuple[complex, complex]]:
    """The qubit amplitude pairs ``(c_H, c_V)``, each two amplitudes
    (:func:`_amplitude`) normalized to 1 within 1e-12, as builtin ``complex``
    pairs; else ``ValidationError``."""
    specs = _items(qubit_specs, "qubit specs")
    if len(specs) == 0:
        raise ValidationError("need at least one qubit amplitude pair")
    pairs = []
    for i, pair in enumerate(specs):
        try:
            c0, c1 = pair
            c0, c1 = _amplitude(c0, "c_H"), _amplitude(c1, "c_V")
        except (TypeError, ValueError):  # a ValidationError is a ValueError
            raise ValidationError(f"qubit {i} spec {pair!r} is not an amplitude pair") from None
        try:
            s = abs(c0) ** 2 + abs(c1) ** 2
        except OverflowError:  # from a square past the float range
            s = math.inf
        if not (abs(s - 1.0) <= _NORM_TOL):  # also catches NaN
            raise ValidationError(
                f"qubit {i} amplitude pair is not normalized: |c0|^2+|c1|^2 = {s!r}"
            )
        pairs.append((c0, c1))
    return pairs


def new_state(qubit_specs: Sequence[tuple[complex, complex]]) -> HybridState:
    """Prepare a product state from per-qubit amplitude pairs ``(c_H, c_V)``.

    Each pair must pass :func:`check_normalized`.  The product is expanded
    into explicit branches (zero-amplitude branches pruned); no probe is
    active on the result.
    """
    pairs = check_normalized(qubit_specs)
    branches = [Branch(1.0 + 0j, (), 0)]
    for c0, c1 in pairs:
        branches = [
            Branch(b.amplitude * coeff, b.basis + (lab,), 0)
            for b in branches
            for coeff, lab in ((c0, "H"), (c1, "V"))
            if coeff != 0
        ]
    return _merged_state(len(pairs), branches, None, 0.0)


def norm_squared(state: HybridState) -> float:
    """Squared norm including coherent-overlap cross terms between branches."""
    _instance(state, HybridState, "state")
    by_basis: dict[PolBasisString, list[Branch]] = {}
    for b in state.branches:
        by_basis.setdefault(b.basis, []).append(b)
    probe = state.probe
    total = 0.0
    for group in by_basis.values():
        for b in group:
            for bp in group:
                ov = 1.0 + 0j
                if probe is not None:
                    ov = coherent_overlap(probe.label(bp.phase), probe.label(b.phase))
                total += (b.amplitude * bp.amplitude.conjugate() * ov).real
    return total


def require_norm(n2: float, what: str) -> float:
    """``n2``, the squared norm an operation divides by, if finite and nonzero.

    Renormalizing, sampling, measuring and taking a fidelity check their norm
    here: a norm that overflows (amplitudes past ~1e154) would scale every
    branch to zero.
    """
    if not 0.0 < n2 < math.inf:  # also catches NaN
        kind = "zero" if n2 <= 0.0 else "non-finite"
        raise ValidationError(f"cannot {what} a {kind}-norm state; it needs a finite, nonzero norm")
    return n2


def renormalized(state: HybridState) -> HybridState:
    scale = 1.0 / math.sqrt(require_norm(norm_squared(state), "renormalize"))
    branches = tuple(Branch(b.amplitude * scale, b.basis, b.phase) for b in state.branches)
    return HybridState(state.n_qubits, branches, state.probe, state.pruned_mass)


def merge_and_prune(state: HybridState, epsilon: float = DEFAULT_PRUNE_EPS) -> HybridState:
    """Drop branches with |amplitude| < epsilon.

    An explicit utility: no gate or measurement calls it, so the scalar gates
    keep every branch, as the batched shot engine does.  The branches are
    already merged (a :class:`HybridState` invariant), so this only prunes.
    Discarded squared amplitude is added to ``pruned_mass``.  The state is
    deliberately *not* renormalized, so pruning loss stays observable.
    """
    _instance(state, HybridState, "state")
    epsilon = _real(epsilon, "epsilon")
    if not epsilon >= 0:  # also catches NaN, which would prune nothing
        raise ValidationError("epsilon must be >= 0")
    kept = []
    lost = 0.0
    for b in state.branches:
        if abs(b.amplitude) < epsilon:
            lost += abs(b.amplitude) ** 2
        else:
            kept.append(b)
    return HybridState(state.n_qubits, tuple(kept), state.probe, state.pruned_mass + lost)


def fidelity(state: HybridState, reference: HybridState) -> float:
    """|<reference|state>|^2 over the polarization space, on normalized states.

    Both states must have no active probe (measure it first).
    """
    _instance(state, HybridState, "state")
    _instance(reference, HybridState, "reference")
    if state.n_qubits != reference.n_qubits:
        raise ValidationError("states have different qubit counts")
    if state.probe is not None or reference.probe is not None:
        raise ContractError("fidelity is defined for states with no active probe")
    amps = {b.basis: b.amplitude for b in state.branches}
    overlap = sum(
        (r.amplitude.conjugate() * amps.get(r.basis, 0j) for r in reference.branches), 0j
    )
    denom = require_norm(norm_squared(state) * norm_squared(reference), "take the fidelity of")
    return abs(overlap) ** 2 / denom

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
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ContractError, ValidationError

#: basis string: one 'H' or 'V' label per qubit, hashable for branch merging
PolBasisString = tuple[str, ...]

#: default amplitude threshold below which branches are discarded
DEFAULT_PRUNE_EPS = 1e-14

_NORM_TOL = 1e-12

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
    """

    alpha: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= ALPHA_MAX):  # also catches NaN
            raise ValidationError(f"probe alpha must lie in [0, {ALPHA_MAX:g}], got {self.alpha}")
        # theta = 0 is allowed as the degenerate no-coupling limit
        if not (0.0 <= self.theta <= math.pi):
            raise ValidationError(f"probe theta must lie in [0, pi], got {self.theta}")

    def label(self, k: int) -> complex:
        """Coherent label alpha * exp(i k theta) for phase index ``k``."""
        return self.alpha * cmath.exp(1j * k * self.theta)

    @property
    def x0(self) -> float:
        """Homodyne threshold ``alpha (1 + cos theta)``, midway between the
        even-parity peak ``2 alpha`` and the odd-parity peak ``2 alpha cos theta``."""
        return self.alpha * (1.0 + math.cos(self.theta))


def coherent_overlap(bra: complex, ket: complex) -> complex:
    """Overlap <bra|ket> of two coherent states.

    The magnitude terms reuse the same products as the cross term, so the
    overlap of identical labels is exactly 1.
    """
    bra, ket = complex(bra), complex(ket)
    ket_sq = ket.real**2 + ket.imag**2
    bra_sq = bra.real**2 + bra.imag**2
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
    and never triggers renormalization.
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
        pruned_mass: float = 0.0,
    ) -> "HybridState":
        """Build a state, merging branches that share basis and phase index.

        Branches with exactly zero amplitude are dropped (no mass is lost by
        doing so); near-zero amplitudes are kept until an explicit
        :func:`merge_and_prune` call.
        """
        if n_qubits < 1:
            raise ValidationError("a state needs at least one qubit")
        checked = []
        for br in branches:
            amp, basis, phase = br
            basis = tuple(basis)
            if len(basis) != n_qubits:
                raise ValidationError(
                    f"basis string {basis!r} does not match qubit count {n_qubits}"
                )
            if any(c not in ("H", "V") for c in basis):
                raise ValidationError(f"basis labels must be 'H' or 'V', got {basis!r}")
            if probe is None and phase != 0:
                raise ValidationError(f"phase index {phase!r} needs an active probe")
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValidationError("branch amplitude must be finite")
            checked.append(Branch(amp, basis, phase))
        return _merged_state(n_qubits, checked, probe, pruned_mass)

    def activate_probe(self, probe: ProbeMode) -> "HybridState":
        """Attach a fresh probe (phase index 0 on every branch).

        Raises ``ContractError`` while another probe is active: a probe is
        measured before the next one couples.
        """
        if self.probe is not None:
            raise ContractError("a probe is already active; measure it before activating another")
        return HybridState(self.n_qubits, self.branches, probe, self.pruned_mass)

    def require_probe(self) -> ProbeMode:
        if self.probe is None:
            raise ContractError("no probe is active")
        return self.probe

    def require_qubit(self, qubit_index: int) -> None:
        if not (0 <= qubit_index < self.n_qubits):
            raise ValidationError(
                f"qubit index {qubit_index} out of range for {self.n_qubits} qubits"
            )


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


def check_normalized(qubit_specs: Sequence[tuple[complex, complex]]) -> None:
    """Each qubit amplitude pair ``(c_H, c_V)`` must be normalized to 1 within 1e-12."""
    if len(qubit_specs) == 0:
        raise ValidationError("need at least one qubit amplitude pair")
    for i, pair in enumerate(qubit_specs):
        try:
            c0, c1 = pair
            s = abs(complex(c0)) ** 2 + abs(complex(c1)) ** 2
        except (TypeError, ValueError):
            raise ValidationError(f"qubit {i} spec {pair!r} is not an amplitude pair") from None
        if not (abs(s - 1.0) <= _NORM_TOL):  # also catches NaN
            raise ValidationError(
                f"qubit {i} amplitude pair is not normalized: |c0|^2+|c1|^2 = {s!r}"
            )


def new_state(qubit_specs: Sequence[tuple[complex, complex]]) -> HybridState:
    """Prepare a product state from per-qubit amplitude pairs ``(c_H, c_V)``.

    Each pair must pass :func:`check_normalized`.  The product is expanded
    into explicit branches (zero-amplitude branches pruned); no probe is
    active on the result.
    """
    check_normalized(qubit_specs)
    branches = [Branch(1.0 + 0j, (), 0)]
    for c0, c1 in qubit_specs:
        branches = [
            Branch(b.amplitude * coeff, b.basis + (lab,), 0)
            for b in branches
            for coeff, lab in ((complex(c0), "H"), (complex(c1), "V"))
            if coeff != 0
        ]
    return _merged_state(len(qubit_specs), branches, None, 0.0)


def norm_squared(state: HybridState) -> float:
    """Squared norm including coherent-overlap cross terms between branches."""
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


def renormalized(state: HybridState) -> HybridState:
    n2 = norm_squared(state)
    if not n2 > 0.0:  # also catches NaN
        raise ValidationError("cannot renormalize a zero-norm state")
    scale = 1.0 / math.sqrt(n2)
    branches = tuple(Branch(b.amplitude * scale, b.basis, b.phase) for b in state.branches)
    return HybridState(state.n_qubits, branches, state.probe, state.pruned_mass)


def merge_and_prune(state: HybridState, epsilon: float = DEFAULT_PRUNE_EPS) -> HybridState:
    """Drop branches with |amplitude| < epsilon.

    The branches are already merged (a :class:`HybridState` invariant), so
    this only prunes.  Discarded squared amplitude is added to
    ``pruned_mass``.  The state is deliberately *not* renormalized, so
    pruning loss stays observable.
    """
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
    if state.n_qubits != reference.n_qubits:
        raise ValidationError("states have different qubit counts")
    if state.probe is not None or reference.probe is not None:
        raise ContractError("fidelity is defined for states with no active probe")
    amps = {b.basis: b.amplitude for b in state.branches}
    overlap = sum(
        (r.amplitude.conjugate() * amps.get(r.basis, 0j) for r in reference.branches), 0j
    )
    denom = norm_squared(state) * norm_squared(reference)
    if not (denom > 0.0 and math.isfinite(denom)):
        raise ValidationError("fidelity needs states of finite, nonzero norm")
    return abs(overlap) ** 2 / denom

"""Unitary primitives: single-qubit polarization rotations and cross-Kerr kicks.

The physical parity detector splits each polarization qubit on a beamsplitter,
routes one rail through a Kerr cell shared with the probe beam, and recombines.
For ideal lossless splitters that sandwich is equivalent to a conditional
phase kick on the probe, keyed on the qubit's polarization, so the which-path
rails are never materialized here: :class:`KerrCoupling` increments a branch's
integer probe phase index whenever the trigger polarization matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .states import (
    Branch,
    HybridState,
    _array,
    _checked_cache,
    _instance,
    _integer,
    _label,
    _merged_state,
    _real,
)

_UNITARY_TOL = 1e-12

_IDX = {"H": 0, "V": 1}


def _qubit_index(qubit_index) -> tuple[int]:
    """The key of a cached single-qubit gate: its qubit, checked."""
    return (_integer(qubit_index, "qubit index"),)


@dataclass(frozen=True)
class KerrCoupling:
    """One conditional phase kick: +/- theta on the active probe if the qubit
    at ``qubit_index`` is in ``trigger_polarization``."""

    qubit_index: int
    trigger_polarization: str
    sign: int

    def __post_init__(self):
        qubit = _integer(self.qubit_index, "qubit index")
        trigger = _label(self.trigger_polarization, "trigger polarization")
        sign = _integer(self.sign, "coupling sign")
        if sign not in (1, -1):
            raise ValidationError("coupling sign must be +1 or -1")
        for name, value in (("qubit_index", qubit), ("trigger_polarization", trigger),
                            ("sign", sign)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SingleQubitGate:
    """A 2x2 unitary acting on one qubit's (H, V) amplitudes."""

    matrix: np.ndarray
    qubit_index: int

    def __post_init__(self):
        m = np.asarray(_array(self.matrix, "gate matrix", "iufc"), dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError("gate matrix must be 2x2")
        # before any arithmetic, which would warn on an inf or nan entry
        if not np.isfinite(m).all():
            raise ValidationError("gate matrix is not unitary: it has a non-finite entry")
        with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range
            deviation = np.max(np.abs(m @ m.conj().T - np.eye(2)))
        if not deviation <= _UNITARY_TOL:  # also catches NaN
            raise ValidationError("gate matrix is not unitary within 1e-12")
        m.setflags(write=False)  # gates are shared and cached; keep them frozen
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubit_index", _integer(self.qubit_index, "qubit index"))


@_checked_cache(_qubit_index)
def bit_flip(qubit_index: int) -> SingleQubitGate:
    """H <-> V exchange."""
    return SingleQubitGate(np.array([[0, 1], [1, 0]], dtype=complex), qubit_index)


def diagonal_gate(qubit_index: int, phase_h: float, phase_v: float) -> SingleQubitGate:
    """diag(e^{i phase_h}, e^{i phase_v}), for finite real phases."""
    phase_h, phase_v = _real(phase_h, "phase_h"), _real(phase_v, "phase_v")
    if not (math.isfinite(phase_h) and math.isfinite(phase_v)):
        raise ValidationError(f"gate matrix is not unitary: phases {phase_h}, {phase_v}")
    m = np.array(
        [[np.exp(1j * phase_h), 0], [0, np.exp(1j * phase_v)]], dtype=complex
    )
    return SingleQubitGate(m, qubit_index)


@_checked_cache(_qubit_index)
def diagonal_basis_change(qubit_index: int) -> SingleQubitGate:
    """Map between the H/V and diagonal bases: H -> (H+V)/sqrt2, V -> (H-V)/sqrt2.

    Self-inverse, so the same gate enters and leaves the diagonal frame.
    """
    s = 1.0 / math.sqrt(2.0)
    return SingleQubitGate(np.array([[s, s], [s, -s]], dtype=complex), qubit_index)


def apply_single_qubit(state: HybridState, gate: SingleQubitGate) -> HybridState:
    """Apply a single-qubit unitary, splitting and re-merging branches."""
    _instance(state, HybridState, "state")
    _instance(gate, SingleQubitGate, "gate")
    state.require_qubit(gate.qubit_index)
    q = gate.qubit_index
    m = gate.matrix.tolist()  # Python complex: the same products, without NumPy scalars
    out = []
    for b in state.branches:
        col = _IDX[b.basis[q]]
        for row, lab in ((0, "H"), (1, "V")):
            coeff = m[row][col]
            if coeff == 0:
                continue
            basis = b.basis[:q] + (lab,) + b.basis[q + 1 :]
            out.append(Branch(b.amplitude * coeff, basis, b.phase))
    return _merged_state(state.n_qubits, out, state.probe, state.pruned_mass)


def apply_cross_kerr(state: HybridState, coupling: KerrCoupling) -> HybridState:
    """Kick the probe's phase index on every branch whose trigger rail is occupied.

    Amplitudes are untouched; the operation is exactly norm-preserving.
    """
    _instance(state, HybridState, "state")
    _instance(coupling, KerrCoupling, "coupling")
    state.require_probe()
    state.require_qubit(coupling.qubit_index)
    out = []
    for b in state.branches:
        if b.basis[coupling.qubit_index] == coupling.trigger_polarization:
            out.append(Branch(b.amplitude, b.basis, b.phase + coupling.sign))
        else:
            out.append(b)
    # every branch of one basis string moves by the same kick: keys stay distinct and sorted
    return HybridState(state.n_qubits, tuple(out), state.probe, state.pruned_mass)


def build_parity_coupling_pair(qubit_a: int, qubit_b: int) -> list[KerrCoupling]:
    """The two kicks of the parity detector: +theta on qubit_a's H rail and
    -theta on qubit_b's H rail.

    Net phase per two-qubit input: HH and VV -> 0, HV -> +theta, VH -> -theta.
    The couplings themselves are basis-independent; a diagonal-basis parity
    check conjugates the whole circuit by :func:`diagonal_basis_change`
    instead of altering the kicks (see the gates module).
    """
    couplings = [KerrCoupling(qubit_a, "H", +1), KerrCoupling(qubit_b, "H", -1)]
    if couplings[0].qubit_index == couplings[1].qubit_index:
        raise ValidationError("parity coupling needs two distinct qubits")
    return couplings

"""Composite gate procedures: parity detector, entanglers, and the CNOT.

Feed-forward corrections are applied immediately after the measurement that
conditions them.  Each measurement has one :data:`FeedForwardPlan`, a module
constant that lists the actions after its flagged outcome, odd for a
homodyne parity record and V for the photon readout; an even or H reading
needs none.  :data:`ENTANGLER_PLAN` and :data:`ENTANGLER_45_PLAN` follow an
entangler's homodyne, :data:`CNOT_SIGN_PLAN` and :data:`CNOT_PHOTON_PLAN`
are the CNOT controller's.  The batched engine in :mod:`kerrgate.batch` reads
the same constants.  The executed actions are recorded on the returned
:class:`GateTrace`.

:func:`parity_gate` and :func:`entangler` measure parity in the
computational basis, and the three gates share one signature,
``(state, qubit_a, qubit_b, probe, rng, force_x=None)``.  Only
:func:`entangler_45` and :func:`recycle_ancilla` rotate into the diagonal
frame.

Odd-outcome corrections
-----------------------
The parity measurement leaves the odd branch as
``c0 d1 e^{i phi(x)} |HV> + c1 d0 e^{-i phi(x)} |VH>``.  The phase undo is the
single-qubit gate ``diag(e^{-i phi}, e^{i phi})`` on the gate's first qubit,
which removes both measurement-dependent phases at once; a bit flip then maps
the odd support onto the even one.

For the diagonal-basis entangler used inside the CNOT the flip must act on
the gate's *first* qubit (the shared ancilla), and when that qubit is
entangled with a spectator in the ``c0|HH> + c1|VV>`` form, one residual
correction remains that no operation local to the two gated qubits can
perform: a sign change ``V -> -V`` on the spectator.  The CNOT controller
applies it to the control qubit whenever the second homodyne classifies odd;
with it, both measurement branches land on the same state exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .measurement import HomodyneRecord, qnd_photon_measure, sample_and_collapse
from .optics import (
    apply_cross_kerr,
    apply_single_qubit,
    bit_flip,
    build_parity_coupling_pair,
    diagonal_basis_change,
    diagonal_gate,
    sign_flip,
)
from .states import HybridState, ProbeMode, merge_and_prune

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: amplitude pair of the CNOT ancilla, (|H> + |V>)/sqrt(2)
ANCILLA_PLUS = (_SQRT_HALF, _SQRT_HALF)

_ANCILLA_TOL = 1e-9


#: one feed-forward action, ``(kind, slot)``: the kind is ``undo-phase`` or a
#: key of :data:`FIXED_ACTIONS`, and the slot names a qubit by its role in the
#: gate (argument position ``"0"``/``"1"`` for the entanglers,
#: ``"control"``/``"target"`` for the CNOT controller), never by absolute index
Action = tuple[str, str]

#: the actions, in order, that follow one measurement's flagged outcome: an
#: odd homodyne parity record or a V photon readout
FeedForwardPlan = tuple[Action, ...]

ENTANGLER_PLAN: FeedForwardPlan = (("undo-phase", "0"), ("flip", "1"))
#: applied inside the rotated (diagonal) frame
ENTANGLER_45_PLAN: FeedForwardPlan = (("undo-phase", "0"), ("flip", "0"))
#: the CNOT controller's rules on top of the two entanglers' own plans: after
#: the second (diagonal-frame) homodyne reads odd, and after the ancilla's
#: photon readout reads V
CNOT_SIGN_PLAN: FeedForwardPlan = (("sign-flip", "control"),)
CNOT_PHOTON_PLAN: FeedForwardPlan = (("flip", "target"),)


#: fixed single-qubit gate behind each feed-forward action kind; the remaining
#: kind, ``undo-phase``, depends on the measured phase (see :func:`_undo_phase`)
FIXED_ACTIONS = {"flip": bit_flip, "sign-flip": sign_flip}


def resolve_action(action: Action, slots: dict[str, int]) -> tuple[str, int]:
    """A plan action's kind and absolute qubit.

    ``slots`` maps the gate's slot names to qubit indices.  Both shot engines
    read their corrections through this, so the plans stay the one source of
    the feed-forward wiring.
    """
    kind, slot = action
    if kind != "undo-phase" and kind not in FIXED_ACTIONS:
        raise ContractError(f"unknown feed-forward action {kind!r}")
    if slot not in slots:
        raise ContractError(f"feed-forward slot {slot!r} names no qubit of this gate")
    return kind, slots[slot]


def _apply_actions(
    state: HybridState,
    actions: tuple[Action, ...],
    slots: dict[str, int],
    phi: float | None = None,
) -> tuple[HybridState, list[str]]:
    applied = []
    for action in actions:
        kind, qubit = resolve_action(action, slots)
        if kind == "undo-phase":
            if phi is None:
                raise ContractError("an undo-phase action follows no homodyne record")
            state = _undo_phase(state, qubit, phi)
        else:
            state = apply_single_qubit(state, FIXED_ACTIONS[kind](qubit))
        applied.append(f"{kind}:q{qubit}")
    return state, applied


@dataclass(frozen=True)
class GateTrace:
    """Measurement records and corrections from one gate execution."""

    records: tuple[HomodyneRecord, ...]
    photon_outcomes: tuple[tuple[int, str], ...] = ()
    corrections: tuple[str, ...] = ()


def parity_gate(
    state: HybridState,
    qubit_a: int,
    qubit_b: int,
    probe: ProbeMode,
    rng: np.random.Generator,
    force_x: float | None = None,
) -> tuple[HomodyneRecord, HybridState]:
    """Two-qubit polarization parity measurement via a shared probe.

    Activates the probe (``ContractError`` if the state already has one),
    applies the +theta/-theta kicks, measures the X quadrature and
    collapses.  It measures parity in the computational basis; a caller
    wanting diagonal parity conjugates it by
    :func:`~kerrgate.optics.diagonal_basis_change` on both qubits, as
    :func:`entangler_45` does.  No feed-forward is applied; the odd branch
    keeps its measurement-dependent phases.
    """
    state.require_qubit(qubit_a)
    state.require_qubit(qubit_b)
    state = state.activate_probe(probe)
    for coupling in build_parity_coupling_pair(qubit_a, qubit_b):
        state = apply_cross_kerr(state, coupling)
    return sample_and_collapse(state, rng, force_x=force_x)


def _undo_phase(state: HybridState, qubit: int, phi: float) -> HybridState:
    # diag(e^{-i phi}, e^{i phi}) removes e^{+i phi} from (H, V)-ordered odd
    # branches and e^{-i phi} from (V, H)-ordered ones in a single gate
    return apply_single_qubit(state, diagonal_gate(qubit, -phi, phi))


def _entangler_core(
    state: HybridState,
    qubit_a: int,
    qubit_b: int,
    probe: ProbeMode,
    rng: np.random.Generator,
    force_x: float | None,
    plan: FeedForwardPlan,
) -> tuple[HomodyneRecord, HybridState, tuple[str, ...]]:
    """Computational-basis parity gate plus ``plan`` on an odd record."""
    record, state = parity_gate(state, qubit_a, qubit_b, probe, rng, force_x)
    actions = plan if record.parity == "odd" else ()
    state, applied = _apply_actions(state, actions, {"0": qubit_a, "1": qubit_b}, record.phi)
    return record, merge_and_prune(state), tuple(applied)


def entangler(
    state: HybridState,
    qubit_a: int,
    qubit_b: int,
    probe: ProbeMode,
    rng: np.random.Generator,
    force_x: float | None = None,
) -> tuple[GateTrace, HybridState]:
    """Parity gate plus feed-forward: the output support is the even-parity
    form ``HH``/``VV`` for both measurement outcomes.

    On odd outcomes the measured-phase undo acts on ``qubit_a`` and the bit
    flip on ``qubit_b``.
    """
    record, state, applied = _entangler_core(
        state, qubit_a, qubit_b, probe, rng, force_x, ENTANGLER_PLAN
    )
    return GateTrace(records=(record,), corrections=applied), state


def entangler_45(
    state: HybridState,
    qubit_a: int,
    qubit_b: int,
    probe: ProbeMode,
    rng: np.random.Generator,
    force_x: float | None = None,
) -> tuple[GateTrace, HybridState]:
    """Entangling gate in the diagonal basis, wired for the CNOT.

    The odd-outcome corrections are the measured-phase undo and a bit flip on
    ``qubit_a`` (both inside the rotated frame; the flip is the sign change
    ``V -> -V`` on ``qubit_a`` seen from the computational frame).  When
    ``qubit_a`` is entangled with a spectator qubit, the spectator sign flip
    described in the module docstring is still owed by the caller; see
    :func:`cnot`.
    """
    state = apply_single_qubit(state, diagonal_basis_change(qubit_a))
    state = apply_single_qubit(state, diagonal_basis_change(qubit_b))
    record, state, applied = _entangler_core(
        state, qubit_a, qubit_b, probe, rng, force_x, ENTANGLER_45_PLAN
    )
    state = apply_single_qubit(state, diagonal_basis_change(qubit_a))
    state = apply_single_qubit(state, diagonal_basis_change(qubit_b))
    return GateTrace(records=(record,), corrections=applied), merge_and_prune(state)


def _check_ancilla_plus(state: HybridState, ancilla: int) -> None:
    """The ancilla must factor out as (|H> + |V>)/sqrt(2)."""
    groups: dict[tuple, dict[str, complex]] = {}
    for b in state.branches:
        rest = (b.basis[:ancilla] + b.basis[ancilla + 1 :], b.phase)
        groups.setdefault(rest, {})[b.basis[ancilla]] = b.amplitude
    for amps in groups.values():
        h, v = amps.get("H", 0j), amps.get("V", 0j)
        if abs(h - v) > _ANCILLA_TOL:
            raise ValidationError(
                "ancilla is not prepared as (|H> + |V>)/sqrt(2); "
                "recycle it with recycle_ancilla first"
            )


def cnot(
    state: HybridState,
    control: int,
    ancilla: int,
    target: int,
    probes: tuple[ProbeMode, ProbeMode],
    rng: np.random.Generator,
    force_x1: float | None = None,
    force_x2: float | None = None,
    force_photon: str | None = None,
) -> tuple[GateTrace, HybridState]:
    """Near-deterministic CNOT from control onto target, using one ancilla.

    Sequence: computational entangler on (control, ancilla), diagonal-basis
    entangler on (ancilla, target), controller sign flip on the control when
    the second homodyne classifies odd, then a QND polarization readout of
    the ancilla with a target bit flip on outcome V.  The ancilla photon is
    measured, not consumed: it ends in the recorded basis state and can be
    recycled for the next gate.
    """
    if len({control, ancilla, target}) != 3:
        raise ValidationError("control, ancilla and target must be distinct")
    for q in (control, ancilla, target):
        state.require_qubit(q)
    _check_ancilla_plus(state, ancilla)
    slots = {"control": control, "target": target}

    trace1, state = entangler(state, control, ancilla, probes[0], rng, force_x1)
    trace2, state = entangler_45(state, ancilla, target, probes[1], rng, force_x2)
    odd = trace2.records[0].parity == "odd"
    state, signed = _apply_actions(state, CNOT_SIGN_PLAN if odd else (), slots)
    outcome, state = qnd_photon_measure(state, ancilla, rng, force_outcome=force_photon)
    state, flipped = _apply_actions(state, CNOT_PHOTON_PLAN if outcome == "V" else (), slots)
    corrections = trace1.corrections + trace2.corrections + tuple(signed + flipped)

    trace = GateTrace(
        records=trace1.records + trace2.records,
        photon_outcomes=((ancilla, outcome),),
        corrections=corrections,
    )
    return trace, merge_and_prune(state)


def recycle_ancilla(state: HybridState, ancilla: int, outcome: str) -> HybridState:
    """Return a measured-out ancilla to (|H> + |V>)/sqrt(2) for reuse.

    ``outcome`` is the ancilla's recorded post-CNOT polarization.
    """
    if outcome == "V":
        state = apply_single_qubit(state, bit_flip(ancilla))
    elif outcome != "H":
        raise ValidationError("ancilla outcome must be 'H' or 'V'")
    return apply_single_qubit(state, diagonal_basis_change(ancilla))

"""Composite gate procedures: parity detector, entanglers, and the CNOT.

Both shot engines read one circuit language, the ``(name, *args)`` steps
that :func:`entangler_steps`, :func:`entangler_45_steps` and
:func:`cnot_steps` build: :func:`run_steps` runs them on a
:class:`~kerrgate.states.HybridState` and :mod:`kerrgate.batch` on a block
of shots, each after :func:`check_steps`.  So only the hand-written ideals,
not a replay of one engine through the other, can catch a wiring slip.

The ``feed_forward`` step after a measurement lists the actions, each
``(kind, qubit)`` on an absolute qubit, that its flagged outcome (odd, or V
for the photon readout) calls for.  Each action kind is declared once, in
:data:`ACTIONS`, as whether it exchanges H and V and its (H, V) factors,
and both engines build an action from its entry.  :func:`check_steps`
checks each step against the one table of step kinds, :data:`STEP_KINDS`,
and each action against :data:`ACTIONS`, before either engine runs a step,
and :func:`run_steps` records each applied action, as that ``(kind, qubit)``,
on the returned :class:`GateTrace`.

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
applies it to the control qubit whenever the second homodyne classifies odd
(inside that entangler's frame, with which it commutes exactly); with it,
both measurement branches land on the same state exactly.
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
)
from .states import Branch, HybridState, ProbeMode, _instance, _integer, _label, _merged_state
from .states import check_qubit

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: amplitude pair of the CNOT ancilla, (|H> + |V>)/sqrt(2)
ANCILLA_PLUS = (_SQRT_HALF, _SQRT_HALF)

_ANCILLA_TOL = 1e-9


#: one feed-forward action, ``(kind, qubit)``: the kind a key of
#: :data:`ACTIONS`, and the qubit an absolute index
Action = tuple[str, int]

#: every feed-forward action kind, ``(flips, factors)``: the gate ``diag(h, v)
#: X^flips`` on its qubit, ``(h, v)`` fixed or, for ``None``, the homodyne
#: record's ``(e^{-i phi}, e^{i phi})`` (see "Odd-outcome corrections" above)
ACTIONS = {"flip": (True, (1, 1)), "sign-flip": (False, (1, -1)), "undo-phase": (False, None)}

_FLIPPED = {"H": "V", "V": "H"}


def _apply_actions(
    state: HybridState, actions: tuple[Action, ...], phi: float | None
) -> HybridState:
    """Each action on every branch, as ``batch`` applies it to a block's
    columns: flip the qubit's label if the kind flips, then multiply by the
    new label's factor.  The record's phase factors are ``diagonal_gate``'s
    own ``exp(1j * -phi)`` and ``exp(1j * phi)``, so no gate is built."""
    branches = state.branches
    for kind, qubit in actions:
        flips, factors = ACTIONS[kind]
        if factors is None:  # check_steps keeps it after a homodyne record
            factors = (complex(np.exp(1j * -phi)), complex(np.exp(1j * phi)))
        out = []
        for amp, basis, phase in branches:
            if flips:
                basis = basis[:qubit] + (_FLIPPED[basis[qubit]],) + basis[qubit + 1 :]
            out.append(Branch(amp * factors[basis[qubit] == "V"], basis, phase))
        branches = out
    return _merged_state(state.n_qubits, branches, state.probe, state.pruned_mass)


def entangler_steps(qubit_a: int, qubit_b: int) -> tuple:
    """The circuit of :func:`entangler`: the parity gate and, on its odd
    record, the phase undo on ``qubit_a`` and the flip of ``qubit_b``."""
    return (
        ("homodyne", qubit_a, qubit_b),
        ("feed_forward", ("undo-phase", qubit_a), ("flip", qubit_b)),
    )


def entangler_45_steps(qubit_a: int, qubit_b: int, *also: Action) -> tuple:
    """The circuit of :func:`entangler_45`: the same in the diagonal frame,
    flipping ``qubit_a``, and on the odd record also the actions ``also``."""
    frame = ("rotate", qubit_a, qubit_b)
    return (
        frame,
        ("homodyne", qubit_a, qubit_b),
        ("feed_forward", ("undo-phase", qubit_a), ("flip", qubit_a), *also),
        frame,
    )


def cnot_steps(control: int, ancilla: int, target: int) -> tuple:
    """The circuit of :func:`cnot`.  The sign flip of the control commutes
    exactly with the frame change of (ancilla, target), so it joins the
    diagonal entangler's corrections inside the frame."""
    return (
        *entangler_steps(control, ancilla),
        *entangler_45_steps(ancilla, target, ("sign-flip", control)),
        ("photon", ancilla),
        ("feed_forward", ("flip", target)),
    )


#: every circuit step kind, ``(qubits, words)``: how many qubits (for a
#: feed-forward, actions) a step names, exactly or, for ``None``, one or more;
#: and the ``random()`` words one sample reads, a homodyne its branch pick,
#: then its :func:`~kerrgate.measurement.gaussian` pair, a photon readout one.
#: A kind that reads words is a measurement.  Both shot engines read this
#: layout, so a batched shot replays through the scalar gates.
STEP_KINDS = {"rotate": (None, 0), "homodyne": (2, 3), "photon": (1, 1), "feed_forward": (None, 0)}


def check_steps(steps: tuple[tuple, ...], n: int) -> None:
    """Raise ``ContractError`` unless the circuit measures, each step has a
    kind and arity of :data:`STEP_KINDS`, no qubit twice, actions ``(kind,
    qubit)`` of :data:`ACTIONS` kinds and, for a feed-forward, a measurement
    before it, a homodyne if an action undoes its phase; ``ValidationError``
    (:func:`~kerrgate.states.check_qubit`) unless its qubits are of the ``n``."""
    last = None
    for name, *args in steps:
        if name not in STEP_KINDS:
            raise ContractError(f"unknown circuit step {name!r}")
        arity, words = STEP_KINDS[name]
        if not args or arity not in (None, len(args)):
            want = arity or "one or more"
            raise ContractError(f"circuit step {name!r} has arity {len(args)}, not {want}")
        qubits = args
        if name == "feed_forward":
            if last is None:
                raise ContractError("a feed-forward follows no measurement")
            for action in args:
                if not (isinstance(action, tuple) and len(action) == 2):
                    raise ContractError(f"a feed-forward action is a (kind, qubit), got {action!r}")
                if action[0] not in ACTIONS:
                    raise ContractError(f"unknown feed-forward action {action[0]!r}")
                if ACTIONS[action[0]][1] is None and last != "homodyne":
                    raise ContractError(f"an {action[0]} action follows no homodyne record")
            qubits = [qubit for _, qubit in args]
        qubits = [check_qubit(qubit, n) for qubit in qubits]
        if name != "feed_forward" and len(set(qubits)) < len(qubits):
            raise ContractError(f"circuit step {name!r} names a qubit twice")
        if words:
            last = name
    if last is None:
        raise ContractError("a circuit without a measurement has no record")


@dataclass(frozen=True)
class GateTrace:
    """Measurement records and corrections from one gate execution: each
    applied action as its feed-forward step wrote it, ``(kind, qubit)``."""

    records: tuple[HomodyneRecord, ...]
    photon_outcomes: tuple[tuple[int, str], ...] = ()
    corrections: tuple[Action, ...] = ()


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
    state = _instance(state, HybridState, "state").activate_probe(probe)
    for coupling in build_parity_coupling_pair(qubit_a, qubit_b):
        state = apply_cross_kerr(state, coupling)
    return sample_and_collapse(state, rng, force_x=force_x)


def run_steps(
    state: HybridState,
    steps: tuple[tuple, ...],
    probe: ProbeMode,
    rng: np.random.Generator,
    forced: tuple = (),
) -> tuple[GateTrace, HybridState]:
    """Run the circuit ``steps`` on ``state``.  ``("rotate", *qubits)`` is
    :func:`~kerrgate.optics.diagonal_basis_change` on each qubit in order,
    ``("homodyne", a, b)`` :func:`parity_gate` on a fresh ``probe``,
    ``("photon", q)`` :func:`~kerrgate.measurement.qnd_photon_measure`, and
    ``("feed_forward", (kind, qubit), ...)`` applies each action when the last
    measurement read odd or V.
    ``forced`` holds outcomes in measurement order (``x``, or ``"H"``/``"V"``);
    a measurement forced ``None``, or past its end, samples from ``rng``, and
    an outcome left over raises ``ContractError``."""
    check_steps(steps, _instance(state, HybridState, "state").n_qubits)
    outcomes = iter(forced)
    records, photons, corrections = [], [], []
    for name, *args in steps:
        if name == "rotate":
            for qubit in args:
                state = apply_single_qubit(state, diagonal_basis_change(qubit))
        elif name == "homodyne":
            record, state = parity_gate(state, *args, probe, rng, next(outcomes, None))
            records.append(record)
            flagged, phi = record.parity == "odd", record.phi
        elif name == "photon":
            outcome, state = qnd_photon_measure(state, *args, rng, next(outcomes, None))
            photons.append((*args, outcome))
            flagged, phi = outcome == "V", None
        elif flagged:  # a feed-forward, which check_steps puts after a measurement
            state = _apply_actions(state, args, phi)
            corrections += args
    if next(outcomes, None) is not None:
        raise ContractError("more forced outcomes than measurements")
    return GateTrace(tuple(records), tuple(photons), tuple(corrections)), state


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
    qubit_a, qubit_b = (_integer(q, "qubit index") for q in (qubit_a, qubit_b))
    return run_steps(state, entangler_steps(qubit_a, qubit_b), probe, rng, (force_x,))


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
    qubit_a, qubit_b = (_integer(q, "qubit index") for q in (qubit_a, qubit_b))
    return run_steps(state, entangler_45_steps(qubit_a, qubit_b), probe, rng, (force_x,))


def _check_ancilla_plus(state: HybridState, ancilla: int) -> None:
    """The ancilla must factor out as (|H> + |V>)/sqrt(2): in the diagonal
    frame each of its V amplitudes, ``(h - v)/sqrt(2)`` of an H/V pair that
    shares the rest of the state, is at most ``_ANCILLA_TOL / sqrt(2)``."""
    rotated = apply_single_qubit(state, diagonal_basis_change(ancilla))
    for b in rotated.branches:
        if b.basis[ancilla] == "V" and abs(b.amplitude) > _ANCILLA_TOL * _SQRT_HALF:
            raise ValidationError(
                "ancilla is not prepared as (|H> + |V>)/sqrt(2); "
                "recycle it with recycle_ancilla first"
            )


def cnot(
    state: HybridState,
    control: int,
    ancilla: int,
    target: int,
    probe: ProbeMode,
    rng: np.random.Generator,
    force_x1: float | None = None,
    force_x2: float | None = None,
    force_photon: str | None = None,
) -> tuple[GateTrace, HybridState]:
    """Near-deterministic CNOT from control onto target, using one ancilla.

    Sequence (:func:`cnot_steps`): computational entangler on (control,
    ancilla), diagonal-basis entangler on (ancilla, target) plus a sign flip
    of the control on its odd record, then a QND polarization readout of the
    ancilla with a target bit flip on outcome V.  Both parity detectors
    activate ``probe`` afresh, in turn: the first is measured before the
    second couples.  The ancilla photon is measured, not consumed: it ends in
    the recorded basis state and can be recycled for the next gate.  No
    branch is dropped along the way, however small.
    """
    control, ancilla, target = (_integer(q, "qubit index") for q in (control, ancilla, target))
    if len({control, ancilla, target}) != 3:
        raise ValidationError("control, ancilla and target must be distinct")
    _check_ancilla_plus(state, ancilla)
    steps = cnot_steps(control, ancilla, target)
    return run_steps(state, steps, probe, rng, (force_x1, force_x2, force_photon))


def recycle_ancilla(state: HybridState, ancilla: int, outcome: str) -> HybridState:
    """Return a measured-out ancilla to (|H> + |V>)/sqrt(2) for reuse.

    ``outcome`` is the ancilla's recorded post-CNOT polarization, ``"H"`` or ``"V"``.
    """
    if _label(outcome, "ancilla outcome") == "V":
        state = apply_single_qubit(state, bit_flip(ancilla))
    return apply_single_qubit(state, diagonal_basis_change(ancilla))

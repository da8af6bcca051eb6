"""Inputs each layer rejects, pinned by exception type and message.

The command line's own rejections, with their exit codes, are in
``test_cli.py``.
"""

import math

import numpy as np
import pytest

from kerrgate import (
    ANCILLA_PLUS,
    ContractError,
    HybridState,
    KerrCoupling,
    ProbeMode,
    SingleQubitGate,
    ValidationError,
    apply_cross_kerr,
    apply_single_qubit,
    bit_flip,
    cnot,
    coherent_overlap,
    diagonal_gate,
    fidelity,
    kernel_value,
    new_state,
    recycle_ancilla,
    run_shots,
)
from kerrgate import batch, gates
from kerrgate.fock import (
    coherent_coefficients,
    oracle_embed,
    oracle_homodyne_density,
    oracle_inner,
    oscillator_eigenfunctions,
    required_truncation,
    truncation_loss,
)
from kerrgate.measurement import outcome_density, qnd_photon_measure, sample_and_collapse

ONE_QUBIT = new_state([(0.6, 0.8)])
TWO_QUBITS = new_state([(0.6, 0.8), (0.28, 0.96)])
PROBE = ProbeMode(100.0, 0.5)


def theta_for(alpha, xd=20.0):
    return 2.0 * math.asin(math.sqrt(xd / (4.0 * alpha)))


def unequal_oracle_states():
    state = new_state([(1, 0)]).activate_probe(ProbeMode(1.0, 0.5))
    return oracle_embed(state, 14), oracle_embed(state, 16)


def both_engines(case, steps, error, message):
    """Two cases: ``steps`` refused by ``run_steps`` before its first step (an
    rng of None would fail at any sampling) and by ``batch.Circuit`` when it
    is built, with one error."""
    return {
        f"scalar-{case}": (lambda: gates.run_steps(TWO_QUBITS, steps, PROBE, None), error, message),
        f"batch-{case}": (
            lambda: batch.Circuit(False, steps, batch._entangler_ideal), error, message
        ),
    }


def after_homodyne(*actions):
    return (("homodyne", 0, 1), ("feed_forward", *actions))


#: (call, exception type, message pattern); a call builds its own arguments
REJECTIONS = {
    "run_shots-zero-shots": (
        lambda: run_shots("parity", [(1, 0), (1, 0)], 8.0, 0.5, 0, 1),
        ValidationError, r"^shots must be >= 1$",
    ),
    "run_shots-fractional-shots": (
        lambda: run_shots("parity", [(1, 0), (0, 1)], 100.0, theta_for(100.0), 2.5, 1),
        ValidationError, r"^shots must be an integer, got 2\.5$",
    ),
    # a bool passed as the int it subclasses: shots=True ran one shot and
    # seed=True ran seed 1
    "run_shots-bool-shots": (
        lambda: run_shots("parity", [(1, 0), (0, 1)], 100.0, theta_for(100.0), True, 1),
        ValidationError, r"^shots must be an integer, got True$",
    ),
    "run_shots-bool-seed": (
        lambda: run_shots("parity", [(1, 0), (0, 1)], 100.0, theta_for(100.0), 2, True),
        TypeError, r"^seed must be a non-negative integer, got True$",
    ),
    "run_shots-three-pairs": (
        lambda: run_shots("cnot", [(1, 0)] * 3, 8.0, 0.5, 4, 1),
        ValidationError, r"^cnot takes two qubit amplitude pairs$",
    ),
    "from_branches-no-qubit": (
        lambda: HybridState.from_branches(0, []),
        ValidationError, r"^a state needs at least one qubit$",
    ),
    "from_branches-basis-length": (
        lambda: HybridState.from_branches(2, [(1.0, "H", 0)]),
        ValidationError, r"^basis string \('H',\) does not match qubit count 2$",
    ),
    "from_branches-label": (
        lambda: HybridState.from_branches(1, [(1.0, "D", 0)]),
        ValidationError, r"^basis labels must be 'H' or 'V', got \('D',\)$",
    ),
    "from_branches-nan": (
        lambda: HybridState.from_branches(1, [(complex(1.0, math.nan), "H", 0)]),
        ValidationError, r"^branch amplitude must be finite$",
    ),
    "from_branches-inf": (
        lambda: HybridState.from_branches(1, [(math.inf, "V", 0)]),
        ValidationError, r"^branch amplitude must be finite$",
    ),
    "from_branches-fractional-phase": (
        lambda: HybridState.from_branches(1, [(1.0, "H", 0.5)], PROBE),
        ValidationError, r"^phase index must be an integer, got 0\.5$",
    ),
    "from_branches-nan-phase": (
        lambda: HybridState.from_branches(1, [(1.0, "H", math.nan)], PROBE),
        ValidationError, r"^phase index must be an integer, got nan$",
    ),
    "from_branches-string-phase": (
        lambda: HybridState.from_branches(1, [(1.0, "H", "a")], PROBE),
        ValidationError, r"^phase index must be an integer, got 'a'$",
    ),
    "from_branches-fractional-qubit-count": (
        lambda: HybridState.from_branches(1.5, []),
        ValidationError, r"^qubit count must be an integer, got 1\.5$",
    ),
    "require_qubit-past-end": (
        lambda: ONE_QUBIT.require_qubit(1),
        ValidationError, r"^qubit index 1 out of range for 1 qubits$",
    ),
    "require_qubit-negative": (
        lambda: ONE_QUBIT.require_qubit(-1),
        ValidationError, r"^qubit index -1 out of range for 1 qubits$",
    ),
    "single-qubit-fractional-index": (
        lambda: apply_single_qubit(ONE_QUBIT, bit_flip(0.5)),
        ValidationError, r"^qubit index must be an integer, got 0\.5$",
    ),
    "cross-kerr-fractional-index": (
        lambda: apply_cross_kerr(ONE_QUBIT.activate_probe(PROBE), KerrCoupling(0.5, "H", 1)),
        ValidationError, r"^qubit index must be an integer, got 0\.5$",
    ),
    "photon-fractional-index": (
        lambda: qnd_photon_measure(ONE_QUBIT, 0.5, np.random.default_rng(1)),
        ValidationError, r"^qubit index must be an integer, got 0\.5$",
    ),
    "cnot-float-ancilla": (
        lambda: cnot(new_state([(1, 0), ANCILLA_PLUS, (1, 0)]), 0, 1.0, 2, PROBE,
                     np.random.default_rng(1)),
        ValidationError, r"^qubit index must be an integer, got 1\.0$",
    ),
    "fidelity-qubit-counts": (
        lambda: fidelity(ONE_QUBIT, new_state([(1, 0), (1, 0)])),
        ValidationError, r"^states have different qubit counts$",
    ),
    "coupling-trigger": (
        lambda: KerrCoupling(0, "D", 1),
        ValidationError, r"^trigger polarization must be 'H' or 'V'$",
    ),
    "coupling-sign": (
        lambda: KerrCoupling(0, "V", 2),
        ValidationError, r"^coupling sign must be \+1 or -1$",
    ),
    "gate-shape": (
        lambda: SingleQubitGate(np.eye(3), 0),
        ValidationError, r"^gate matrix must be 2x2$",
    ),
    "recycle-outcome": (
        lambda: recycle_ancilla(ONE_QUBIT, 0, "D"),
        ValidationError, r"^ancilla outcome must be 'H' or 'V'$",
    ),
    "photon-forced-outcome": (
        lambda: qnd_photon_measure(ONE_QUBIT, 0, None, force_outcome="D"),
        ValidationError, r"^forced outcome must be 'H' or 'V'$",
    ),
    "oracle-shapes": (
        lambda: oracle_inner(*unequal_oracle_states()),
        ValidationError, r"^oracle states have different shapes$",
    ),
    # the truncation helpers take a finite alpha >= 0 whose square is finite;
    # outside that they returned 0.0, nan or the cutoff of a smaller |alpha|,
    # or raised a raw ValueError or OverflowError
    "truncation_loss-negative-alpha": (
        lambda: truncation_loss(-1.0, 0),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got -1\.0$",
    ),
    "truncation_loss-nan-alpha": (
        lambda: truncation_loss(math.nan, 5),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got nan$",
    ),
    "truncation_loss-inf-alpha": (
        lambda: truncation_loss(math.inf, 5),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got inf$",
    ),
    "required_truncation-negative-alpha": (
        lambda: required_truncation(-2.0),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got -2\.0$",
    ),
    "required_truncation-nan-alpha": (
        lambda: required_truncation(math.nan),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got nan$",
    ),
    "required_truncation-inf-alpha": (
        lambda: required_truncation(math.inf),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got inf$",
    ),
    "required_truncation-square-overflow": (
        lambda: required_truncation(1e200),
        ValidationError, r"^alpha must be finite and >= 0, with a finite square, got 1e\+200$",
    ),
    # a fractional or nan cutoff raised a raw TypeError from range()
    "truncation_loss-fractional-cutoff": (
        lambda: truncation_loss(2.0, 2.5),
        ValidationError, r"^cutoff must be an integer, got 2\.5$",
    ),
    "truncation_loss-nan-cutoff": (
        lambda: truncation_loss(2.0, math.nan),
        ValidationError, r"^cutoff must be an integer, got nan$",
    ),
    "truncation_loss-fractional-cutoff-empty-mode": (
        lambda: truncation_loss(0.0, 2.5),
        ValidationError, r"^cutoff must be an integer, got 2\.5$",
    ),
    # both engines check a circuit's wiring before they run it: run_steps
    # raises before its first step (rng=None would fail at any sampling),
    # and a batch circuit when it is built
    "scalar-undo-phase-without-record": (
        lambda: gates.run_steps(
            TWO_QUBITS,
            (("photon", 0), ("feed_forward", ("undo-phase", 0), ("flip", 1))),
            PROBE, None,
        ),
        ContractError, r"^an undo-phase action follows no homodyne record$",
    ),
    "scalar-feed-forward-without-measurement": (
        lambda: gates.run_steps(
            TWO_QUBITS,
            (("feed_forward", ("flip", 1)), ("photon", 0)),
            PROBE, None,
        ),
        ContractError, r"^a feed-forward follows no measurement$",
    ),
    # the homodyne is forced even, so no action would run: the kind is
    # refused before the first step whatever the measurement reads
    "scalar-unknown-feed-forward-action": (
        lambda: gates.run_steps(
            TWO_QUBITS,
            (("homodyne", 0, 1), ("feed_forward", ("teleport", 0))),
            PROBE, None, forced=(200.0,),
        ),
        ContractError, r"^unknown feed-forward action 'teleport'$",
    ),
    "scalar-unknown-step": (
        lambda: gates.run_steps(TWO_QUBITS, (("homodyne", 0, 1), ("measure", 0)), PROBE, None),
        ContractError, r"^unknown circuit step 'measure'$",
    ),
    # the one homodyne reads its forced x, the even peak 2 alpha, and the
    # outcome left over is refused
    "scalar-forced-past-the-measurements": (
        lambda: gates.run_steps(
            TWO_QUBITS, gates.entangler_steps(0, 1), PROBE, None, forced=(200.0, 200.0)
        ),
        ContractError, r"^more forced outcomes than measurements$",
    ),
    # the homodyne is forced even, so the flip would never run: its qubit,
    # which the two-qubit state lacks, is refused before the first step
    "scalar-action-qubit-out-of-range": (
        lambda: gates.run_steps(
            TWO_QUBITS,
            (("homodyne", 0, 1), ("feed_forward", ("flip", 5))),
            PROBE, None, forced=(200.0,),
        ),
        ValidationError, r"^qubit index 5 out of range for 2 qubits$",
    ),
    "batch-undo-phase-without-record": (
        lambda: batch.Circuit(
            False,
            (("photon", 0), ("feed_forward", ("undo-phase", 0), ("flip", 1))),
            batch._entangler_ideal,
        ),
        ContractError, r"^an undo-phase action follows no homodyne record$",
    ),
    "batch-feed-forward-without-measurement": (
        lambda: batch.Circuit(
            False,
            (("feed_forward", ("flip", 1)), ("photon", 0)),
            batch._entangler_ideal,
        ),
        ContractError, r"^a feed-forward follows no measurement$",
    ),
    "batch-unknown-feed-forward-action": (
        lambda: batch.Circuit(
            False,
            (("homodyne", 0, 1), ("feed_forward", ("teleport", 0))),
            batch._entangler_ideal,
        ),
        ContractError, r"^unknown feed-forward action 'teleport'$",
    ),
    "batch-action-qubit-out-of-range": (
        lambda: batch.Circuit(
            False,
            (("homodyne", 0, 1), ("feed_forward", ("flip", 5))),
            batch._entangler_ideal,
        ),
        ValidationError, r"^qubit index 5 out of range for 2 qubits$",
    ),
    "batch-unknown-step": (
        lambda: batch.Circuit(False, (("measure", 0),), batch._entangler_ideal),
        ContractError, r"^unknown circuit step 'measure'$",
    ),
    # check_steps reads each step's shape from gates.STEP_KINDS: the batch
    # engine rotated a repeated qubit once and read a photon readout's first
    # qubit alone, where the scalar one rotated it twice or raised a raw
    # TypeError, and a bool passed as qubit 1 in one engine only
    **both_engines(
        "rotate-repeated-qubit", (("homodyne", 0, 1), ("rotate", 0, 0)),
        ContractError, r"^circuit step 'rotate' names a qubit twice$",
    ),
    **both_engines(
        "photon-two-qubits", (("homodyne", 0, 1), ("photon", 0, 1)),
        ContractError, r"^circuit step 'photon' has arity 2, not 1$",
    ),
    **both_engines(
        "photon-no-qubit", (("homodyne", 0, 1), ("photon",)),
        ContractError, r"^circuit step 'photon' has arity 0, not 1$",
    ),
    **both_engines(
        "homodyne-one-qubit", (("photon", 0), ("homodyne", 0)),
        ContractError, r"^circuit step 'homodyne' has arity 1, not 2$",
    ),
    **both_engines(
        "homodyne-repeated-qubit", (("photon", 0), ("homodyne", 0, 0)),
        ContractError, r"^circuit step 'homodyne' names a qubit twice$",
    ),
    **both_engines(
        "rotate-no-qubit", (("homodyne", 0, 1), ("rotate",)),
        ContractError, r"^circuit step 'rotate' has arity 0, not one or more$",
    ),
    **both_engines(
        "feed-forward-no-action", after_homodyne(),
        ContractError, r"^circuit step 'feed_forward' has arity 0, not one or more$",
    ),
    **both_engines(
        "action-without-qubit", after_homodyne(("flip",)),
        ContractError, r"^a feed-forward action is a \(kind, qubit\), got \('flip',\)$",
    ),
    **both_engines(
        "action-with-two-qubits", after_homodyne(("flip", 0, 1)),
        ContractError, r"^a feed-forward action is a \(kind, qubit\), got \('flip', 0, 1\)$",
    ),
    **both_engines(
        "action-as-a-string", after_homodyne("flip"),
        ContractError, r"^a feed-forward action is a \(kind, qubit\), got 'flip'$",
    ),
    **both_engines(
        "bool-qubit", (("homodyne", True, 0),),
        ValidationError, r"^qubit index must be an integer, got True$",
    ),
    **both_engines(
        "no-measurement", (("rotate", 0),),
        ContractError, r"^a circuit without a measurement has no record$",
    ),
    "require_qubit-bool": (
        lambda: ONE_QUBIT.require_qubit(False),
        ValidationError, r"^qubit index must be an integer, got False$",
    ),
    # a forced homodyne outcome that float() refuses raised its raw error
    "cnot-forced-x-string": (
        lambda: cnot(new_state([(1, 0), ANCILLA_PLUS, (1, 0)]), 0, 1, 2, PROBE,
                     np.random.default_rng(1), force_x1="odd"),
        ValidationError, r"^forced x must be a real number, got 'odd'$",
    ),
    "scalar-forced-x-photon-outcome": (
        lambda: gates.run_steps(TWO_QUBITS, gates.entangler_steps(0, 1), PROBE, None, ("H",)),
        ValidationError, r"^forced x must be a real number, got 'H'$",
    ),
    "scalar-forced-x-complex": (
        lambda: gates.run_steps(TWO_QUBITS, gates.entangler_steps(0, 1), PROBE, None, (200j,)),
        ValidationError, r"^forced x must be a real number, got 200j$",
    ),
    # float() of a NumPy complex drops its imaginary part with a warning
    "scalar-forced-x-numpy-complex": (
        lambda: gates.run_steps(
            TWO_QUBITS, gates.entangler_steps(0, 1), PROBE, None, (np.complex128(195 + 7j),)
        ),
        ValidationError, r"^forced x must be a real number, got np\.complex128\(195\+7j\)$",
    ),
    # at a mean near 1e308 the tail past 1e308 is about 1/2, so the Poisson
    # term whose lgamma overflows is not 0.0 there; it raised OverflowError
    "truncation_loss-cutoff-past-floats-near-the-mean": (
        lambda: truncation_loss(1e154, 10**308),
        ValidationError, r"^Poisson term past k = 2\.6e305 at mean 1e\+308$",
    ),
    # a Poisson walk lists about 10 alpha terms: at alpha 1e6 it took 0.86 s,
    # and at alpha 1e10 it grew memory until it failed
    "required_truncation-walk-past-2**20-terms": (
        lambda: required_truncation(1e6),
        ValidationError, r"^Poisson sum at mean 1e\+12 needs over 1048576 terms$",
    ),
    "truncation_loss-walk-past-2**20-terms": (
        lambda: truncation_loss(1e6, 10**12),
        ValidationError, r"^Poisson sum at mean 1e\+12 needs over 1048576 terms$",
    ),
    "required_truncation-walk-past-2**20-terms-at-alpha-1e10": (
        lambda: required_truncation(1e10),
        ValidationError, r"^Poisson sum at mean 1e\+20 needs over 1048576 terms$",
    ),
    # psi_0 = e^{-x^2/4} is subnormal past |x| = 53.23 and 0.0 past 54.6: the
    # eigenfunctions returned 2.3e-309 at x = 53.3 and 0.0 at 54.7, and the
    # oracle's density read those, wrong digits or 0, without an error
    "oscillator_eigenfunctions-subnormal-x": (
        lambda: oscillator_eigenfunctions(4, np.array([0.0, 53.3])),
        ValidationError,
        r"^oscillator eigenfunctions underflow at x = 53\.3: "
        r"e\^\(-x\^2/4\) is subnormal past \|x\| = 53\.2314$",
    ),
    "oscillator_eigenfunctions-zero-x": (
        lambda: oscillator_eigenfunctions(0, np.array([-54.7])),
        ValidationError, r"^oscillator eigenfunctions underflow at x = -54\.7: ",
    ),
    # a Fock size below 0 or not an integer raised a raw IndexError,
    # TypeError or ValueError ("negative dimensions")
    "coherent_coefficients-negative-cutoff": (
        lambda: coherent_coefficients(1.0, -1),
        ValidationError, r"^cutoff must be >= 0, got -1$",
    ),
    "coherent_coefficients-fractional-cutoff": (
        lambda: coherent_coefficients(1.0, 2.5),
        ValidationError, r"^cutoff must be an integer, got 2\.5$",
    ),
    "oscillator_eigenfunctions-negative-n_max": (
        lambda: oscillator_eigenfunctions(-2, np.array([0.0, 1.0])),
        ValidationError, r"^n_max must be >= 0, got -2$",
    ),
    "oscillator_eigenfunctions-float-n_max": (
        lambda: oscillator_eigenfunctions(3.0, np.array([0.0, 1.0])),
        ValidationError, r"^n_max must be an integer, got 3\.0$",
    ),
    "truncation_loss-bool-cutoff": (
        lambda: truncation_loss(2.0, True),
        ValidationError, r"^cutoff must be an integer, got True$",
    ),
    "coherent_coefficients-bool-cutoff": (
        lambda: coherent_coefficients(1.0, False),
        ValidationError, r"^cutoff must be an integer, got False$",
    ),
    "oscillator_eigenfunctions-bool-n_max": (
        lambda: oscillator_eigenfunctions(True, np.array([0.0, 1.0])),
        ValidationError, r"^n_max must be an integer, got True$",
    ),
    # a nan outcome: the branch model's density returned nan, and the
    # oracle's, whose underflow guard a nan passed, returned [0.054, nan]
    "outcome_density-nan-x": (
        lambda: outcome_density(TWO_QUBITS.activate_probe(ProbeMode(2.0, 0.5)))(math.nan),
        ValidationError, r"^homodyne outcome x is nan$",
    ),
    "outcome_density-nan-in-array": (
        lambda: outcome_density(TWO_QUBITS.activate_probe(ProbeMode(2.0, 0.5)))(
            np.array([0.0, math.nan])
        ),
        ValidationError, r"^homodyne outcome x is nan$",
    ),
    "oracle_homodyne_density-nan-x": (
        lambda: oracle_homodyne_density(unequal_oracle_states()[0])(np.array([0.0, math.nan])),
        ValidationError, r"^homodyne outcome x is nan$",
    ),
    # each kind is checked in one place (kerrgate.states): a bool is not a
    # real, a sign or an amplitude, text is not a number, and a 0-d or 1-d
    # array is not a real; each was taken as a number, or raised a raw error
    "ProbeMode-bool-alpha": (
        lambda: ProbeMode(True, 0.5),
        ValidationError, r"^probe alpha must be a real number, got True$",
    ),
    "ProbeMode-bool-theta": (
        lambda: ProbeMode(8, True),
        ValidationError, r"^probe theta must be a real number, got True$",
    ),
    "ProbeMode-array-alpha": (
        lambda: ProbeMode(np.array([8.0]), 0.5),
        ValidationError, r"^probe alpha must be a real number, got array\(\[8\.\]\)$",
    ),
    "ProbeMode-string-alpha": (
        lambda: ProbeMode("8", 0.5),
        ValidationError, r"^probe alpha must be a real number, got '8'$",
    ),
    "run_shots-string-alpha": (
        lambda: run_shots("parity", [(1, 0), (0, 1)], "8", 0.5, 2, 1),
        ValidationError, r"^probe alpha must be a real number, got '8'$",
    ),
    "coupling-bool-sign": (
        lambda: KerrCoupling(0, "H", True),
        ValidationError, r"^coupling sign must be an integer, got True$",
    ),
    "collapse-bool-forced-x": (
        lambda: sample_and_collapse(TWO_QUBITS.activate_probe(PROBE), None, force_x=True),
        ValidationError, r"^forced x must be a real number, got True$",
    ),
    "new_state-string-amplitudes": (
        lambda: new_state([("1", "0")]),
        ValidationError, r"^qubit 0 spec \('1', '0'\) is not an amplitude pair$",
    ),
    "coherent_overlap-string-labels": (
        lambda: coherent_overlap("1", "1"),
        ValidationError, r"^bra label must be a complex number, got '1'$",
    ),
    "bit_flip-fractional-qubit": (
        lambda: bit_flip(1.5),
        ValidationError, r"^qubit index must be an integer, got 1\.5$",
    ),
    "gate-string-qubit": (
        lambda: SingleQubitGate(np.eye(2), "a"),
        ValidationError, r"^qubit index must be an integer, got 'a'$",
    ),
    # NumPy promotes a bool among a list's numbers: this built the identity
    "gate-bool-in-list": (
        lambda: SingleQubitGate([[True, 0], [0, 1]], 0),
        ValidationError, r"^gate matrix must hold complex numbers, got \[\[True, 0\], \[0, 1\]\]$",
    ),
    # an object of another kind raised AttributeError from deep inside
    "parity_gate-string-probe": (
        lambda: gates.parity_gate(TWO_QUBITS, 0, 1, "probe", np.random.default_rng(0)),
        ValidationError, r"^probe must be a ProbeMode, got str$",
    ),
    "kernel_value-nan-beta": (
        lambda: kernel_value(1.0, complex(math.nan, 0)),
        ValidationError, r"^coherent label beta must be finite, got \(nan\+0j\)$",
    ),
    "diagonal_gate-string-phase": (
        lambda: diagonal_gate(0, "1", 0),
        ValidationError, r"^phase_h must be a real number, got '1'$",
    ),
    "oracle_homodyne_density-far-x": (
        lambda: oracle_homodyne_density(unequal_oracle_states()[0])(54.7),
        ValidationError, r"^oscillator eigenfunctions underflow at x = 54\.7: ",
    ),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejected_input_raises_its_error(case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


# ---------------------------------------------------------------------------
# the float threshold


@pytest.mark.parametrize("alpha", [1e16, 1e17, 1e150])
def test_a_threshold_floats_cannot_place_is_rejected(alpha):
    """At xd = 20 the float ``alpha (1 + cos theta)`` misses the midpoint of
    the peaks by 2 at alpha = 1e16 and by 10 (the even peak) at 1e17."""
    with pytest.raises(ValidationError, match=r"^probe theta .* is unresolvable in floating point"):
        ProbeMode(alpha, theta_for(alpha))


@pytest.mark.parametrize("alpha", [10.0**k for k in range(9, 16)])
def test_a_threshold_within_a_thousandth_of_xd_is_accepted(alpha):
    probe = ProbeMode(alpha, theta_for(alpha))
    assert abs(probe.x0 - (2.0 * alpha - 0.5 * probe.xd)) <= 1e-3 * probe.xd
    assert probe.xd == pytest.approx(20.0, rel=1e-9)


@pytest.mark.parametrize("alpha,theta", [(1.0, 6.8e-126), (1e6, 1e-12), (0.0, 0.5), (5.0, 0.0)])
def test_a_vanishing_separation_is_accepted(alpha, theta):
    """Below 1e-9 the threshold's miss is not compared with xd, which may
    underflow: these probes never split their peaks, and say so through
    ``p_error`` = 1/2 rather than a rejection."""
    probe = ProbeMode(alpha, theta)
    assert probe.xd < 1e-9


def test_an_empty_mode_needs_one_level_and_loses_nothing():
    assert truncation_loss(0.0, 0) == 0.0
    assert truncation_loss(0.0, -1) == 0.0
    assert required_truncation(0.0) == 1

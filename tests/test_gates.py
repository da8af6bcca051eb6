"""Parity gate, entanglers, CNOT composition, feed-forward plans."""

import math

import numpy as np
import pytest

from kerrgate import (
    ANCILLA_PLUS,
    ContractError,
    HybridState,
    ProbeMode,
    ValidationError,
    apply_single_qubit,
    cnot,
    diagonal_basis_change,
    entangler,
    entangler_45,
    fidelity,
    new_state,
    norm_squared,
    parity_gate,
    recycle_ancilla,
    sign_flip,
)
from kerrgate.analysis import p_error
from kerrgate.gates import (
    CNOT_PHOTON_PLAN,
    CNOT_SIGN_PLAN,
    ENTANGLER_45_PLAN,
    ENTANGLER_PLAN,
    resolve_action,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
UNIFORM = (SQRT_HALF, SQRT_HALF)


def probe_for_separation(alpha, xd):
    """Probe with peak separation exactly ``xd`` at amplitude ``alpha``."""
    return ProbeMode(alpha, math.acos(1.0 - xd / (2.0 * alpha)))


STRONG = probe_for_separation(25.0, 14.0)  # negligible misclassification
X_EVEN = 2.0 * STRONG.alpha
X_ODD = 2.0 * STRONG.alpha * math.cos(STRONG.theta)


def in_diagonal_frame(state, *qubits):
    """Enter (or, the change being self-inverse, leave) the diagonal frame."""
    for q in qubits:
        state = apply_single_qubit(state, diagonal_basis_change(q))
    return state


def bell_state():
    return HybridState.from_branches(2, [(SQRT_HALF, "HH", 0), (SQRT_HALF, "VV", 0)])


def ideal_cnot_output(c, d, photon):
    c0, c1 = c
    d0, d1 = d
    return HybridState.from_branches(
        3,
        [
            (c0 * d0, ("H", photon, "H"), 0),
            (c0 * d1, ("H", photon, "V"), 0),
            (c1 * d0, ("V", photon, "V"), 0),
            (c1 * d1, ("V", photon, "H"), 0),
        ],
    )


class TestParityGate:
    def test_uniform_input_even_collapse_is_bell_state(self):
        state = new_state([UNIFORM, UNIFORM])
        record, post = parity_gate(state, 0, 1, STRONG, np.random.default_rng(0), force_x=X_EVEN)
        assert record.parity == "even"
        assert fidelity(post, bell_state()) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_input_even_frequency_is_half(self):
        shots, even = 4000, 0
        for i in range(shots):
            state = new_state([UNIFORM, UNIFORM])
            rng = np.random.default_rng([31, i])
            record, _ = parity_gate(state, 0, 1, ProbeMode(8.0, 0.5), rng)
            even += record.parity == "even"
        assert abs(even / shots - 0.5) < 3 * math.sqrt(0.25 / shots)

    def test_odd_eigenstate_classified_odd_up_to_phase(self):
        state = new_state([(1, 0), (0, 1)])  # |HV>
        shots, odd = 300, 0
        for i in range(shots):
            record, post = parity_gate(state, 0, 1, STRONG, np.random.default_rng([32, i]))
            odd += record.parity == "odd"
            # state is |HV> up to the measured phase
            assert fidelity(post, state) == pytest.approx(1.0, abs=1e-12)
        assert odd / shots >= 1 - p_error(STRONG.alpha, STRONG.theta) - 0.05

    def test_zero_coupling_leaves_input_untouched(self):
        # theta = 0: classification carries no information, state unchanged
        state = new_state([(0.6, 0.8), UNIFORM])
        record, post = parity_gate(state, 0, 1, ProbeMode(5.0, 0.0), np.random.default_rng(2))
        assert fidelity(post, state) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_basis_distinguishes_diagonal_parity(self):
        # |DD> is even in the diagonal basis: conjugated by the basis change,
        # the computational parity gate collapses it onto itself
        state = new_state([UNIFORM, UNIFORM])
        record, post = parity_gate(
            in_diagonal_frame(state, 0, 1), 0, 1, STRONG, np.random.default_rng(0), force_x=X_EVEN
        )
        assert record.parity == "even"
        assert fidelity(in_diagonal_frame(post, 0, 1), state) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_same_qubit(self):
        with pytest.raises(ValidationError):
            parity_gate(new_state([UNIFORM, UNIFORM]), 1, 1, STRONG, np.random.default_rng(0))

    def test_rejects_a_state_whose_probe_is_still_active(self):
        # the probes of a circuit act in turn: one is measured before the next couples
        state = new_state([UNIFORM, UNIFORM]).activate_probe(STRONG)
        with pytest.raises(ContractError, match="already active"):
            parity_gate(state, 0, 1, STRONG, np.random.default_rng(0))


class TestEntangler:
    def test_creates_maximally_entangled_state_from_uniform(self):
        for i in range(50):
            state = new_state([UNIFORM, UNIFORM])
            trace, post = entangler(state, 0, 1, STRONG, np.random.default_rng([40, i]))
            assert fidelity(post, bell_state()) == pytest.approx(1.0, abs=1e-9)

    def test_copies_control_amplitudes_onto_even_form(self):
        c0, c1 = 0.6, 0.8
        target = HybridState.from_branches(2, [(c0, "HH", 0), (c1, "VV", 0)])
        for i in range(50):
            state = new_state([(c0, c1), UNIFORM])
            trace, post = entangler(state, 0, 1, STRONG, np.random.default_rng([41, i]))
            assert fidelity(post, target) == pytest.approx(1.0, abs=1e-9)

    def test_even_eigenstate_passes_through(self):
        state = new_state([(1, 0), (1, 0)])
        trace, post = entangler(state, 0, 1, STRONG, np.random.default_rng(1), force_x=X_EVEN)
        assert trace.records[0].parity == "even"
        assert fidelity(post, state) == pytest.approx(1.0, abs=1e-10)

    def test_odd_branch_receives_corrections(self):
        state = new_state([UNIFORM, UNIFORM])
        trace, post = entangler(state, 0, 1, STRONG, np.random.default_rng(1), force_x=X_ODD)
        assert trace.records[0].parity == "odd"
        assert trace.corrections == ("undo-phase:q0", "flip:q1")
        assert fidelity(post, bell_state()) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_basis_entangles_in_rotated_frame(self):
        # (c0|D> + c1|Db>) x |D>  ->  c0|DD> + c1|DbDb>, both outcomes, with
        # the computational entangler conjugated by the basis change
        c0, c1 = 0.6, 0.8
        first = ((c0 + c1) * SQRT_HALF, (c0 - c1) * SQRT_HALF)
        target = HybridState.from_branches(
            2,
            [
                ((c0 + c1) / 2, "HH", 0),
                ((c0 - c1) / 2, "HV", 0),
                ((c0 - c1) / 2, "VH", 0),
                ((c0 + c1) / 2, "VV", 0),
            ],
        )
        for force_x in (X_EVEN, X_ODD):
            state = new_state([first, (1, 0)])  # second qubit |H> = (|D>+|Db>)/sqrt2
            rotated = in_diagonal_frame(state, 0, 1)
            trace, post = entangler(rotated, 0, 1, STRONG, np.random.default_rng(2), force_x=force_x)
            assert fidelity(in_diagonal_frame(post, 0, 1), target) == pytest.approx(1.0, abs=1e-9)


class TestEntangler45:
    def test_dd_input_is_diagonal_parity_eigenstate(self):
        state = new_state([UNIFORM, UNIFORM])  # |DD>
        trace, post = entangler_45(state, 0, 1, STRONG, np.random.default_rng(0), force_x=X_EVEN)
        assert fidelity(post, state) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("force_x,parity", [(X_EVEN, "even"), (X_ODD, "odd")])
    def test_cnot_stage_matches_printed_form(self, force_x, parity):
        # [c0|HH> + c1|VV>] x (d0|H> + d1|V>)
        #   -> {c0|H> - c1|V>}(d0 - d1)|DbDb> + {c0|H> + c1|V>}(d0 + d1)|DD>,
        # the odd branch needing the controller's spectator sign flip
        c0, c1 = 0.6, 0.8
        d0, d1 = 0.28, 0.96
        state = HybridState.from_branches(
            3,
            [
                (c0 * d0, "HHH", 0),
                (c0 * d1, "HHV", 0),
                (c1 * d0, "VVH", 0),
                (c1 * d1, "VVV", 0),
            ],
        )
        trace, post = entangler_45(state, 1, 2, STRONG, np.random.default_rng(0), force_x=force_x)
        assert trace.records[0].parity == parity
        if parity == "odd":
            post = apply_single_qubit(post, sign_flip(0))
        s, r = d0 + d1, d0 - d1
        branches = []
        for w_dd, w_db, basis in (
            (0.25, 0.25, "HH"),
            (0.25, -0.25, "HV"),
            (0.25, -0.25, "VH"),
            (0.25, 0.25, "VV"),
        ):
            branches.append((c0 * s * w_dd + c0 * r * w_db, ("H",) + tuple(basis), 0))
            branches.append((c1 * s * w_dd - c1 * r * w_db, ("V",) + tuple(basis), 0))
        printed = HybridState.from_branches(3, branches)
        assert fidelity(post, printed) == pytest.approx(1.0, abs=1e-10)

    def test_both_outcomes_land_on_same_state_at_fixed_x(self):
        # run both collapse branches explicitly at one forced x each
        c0, c1, d0, d1 = 0.6, 0.8, 0.28, 0.96
        state = HybridState.from_branches(
            3,
            [(c0 * d0, "HHH", 0), (c0 * d1, "HHV", 0),
             (c1 * d0, "VVH", 0), (c1 * d1, "VVV", 0)],
        )
        rng = np.random.default_rng(0)
        _, even_out = entangler_45(state, 1, 2, STRONG, rng, force_x=X_EVEN)
        trace, odd_out = entangler_45(state, 1, 2, STRONG, rng, force_x=X_ODD)
        odd_out = apply_single_qubit(odd_out, sign_flip(0))
        assert fidelity(even_out, odd_out) == pytest.approx(1.0, abs=1e-9)


class TestCnot:
    def test_basis_inputs_follow_truth_table(self):
        cases = [
            ((1, 0), (1, 0), {("H", "H"): 1}),
            ((1, 0), (0, 1), {("H", "V"): 1}),
            ((0, 1), (1, 0), {("V", "V"): 1}),
            ((0, 1), (0, 1), {("V", "H"): 1}),
        ]
        rng = np.random.default_rng(0)
        for c, d, expect in cases:
            state = new_state([c, ANCILLA_PLUS, d])
            trace, out = cnot(state, 0, 1, 2, (STRONG, STRONG), rng,
                              force_x1=X_EVEN, force_x2=X_EVEN, force_photon="H")
            target = HybridState.from_branches(
                3, [(amp, (b[0], "H", b[1]), 0) for b, amp in expect.items()]
            )
            assert fidelity(out, target) == pytest.approx(1.0, abs=1e-10)

    def test_general_input_reaches_entangled_output(self):
        c, d = (0.6, 0.8), (0.28, 0.96)
        for i in range(30):
            state = new_state([c, ANCILLA_PLUS, d])
            trace, out = cnot(state, 0, 1, 2, (STRONG, STRONG), np.random.default_rng([50, i]))
            photon = trace.photon_outcomes[0][1]
            assert fidelity(out, ideal_cnot_output(c, d, photon)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_bell_pair_from_uniform_control(self):
        # per-shot fidelity stays within the two-homodyne error budget; at
        # this separation both misclassification and kernel tails are < 1e-9
        probe = probe_for_separation(8.0, 12.0)
        perr = p_error(probe.alpha, probe.theta)
        for i in range(400):
            state = new_state([UNIFORM, ANCILLA_PLUS, (1, 0)])
            trace, out = cnot(state, 0, 1, 2, (probe, probe), np.random.default_rng([51, i]))
            photon = trace.photon_outcomes[0][1]
            target = HybridState.from_branches(
                3, [(SQRT_HALF, ("H", photon, "H"), 0), (SQRT_HALF, ("V", photon, "V"), 0)]
            )
            assert fidelity(out, target) >= 1 - 5 * perr

    def test_linearity_in_the_input_state(self):
        """Output on a superposition equals the superposition of outputs,
        for the same forced measurement record."""
        c, d = (0.6, 0.8j), (0.28, -0.96)
        forced = dict(force_x1=X_EVEN, force_x2=X_ODD, force_photon="V")
        rng = np.random.default_rng(0)
        outputs = {}
        for ci, clab in ((1, "H"), (0, "V")):
            for di, dlab in ((1, "H"), (0, "V")):
                basis_c = (1, 0) if clab == "H" else (0, 1)
                basis_d = (1, 0) if dlab == "H" else (0, 1)
                state = new_state([basis_c, ANCILLA_PLUS, basis_d])
                _, out = cnot(state, 0, 1, 2, (STRONG, STRONG), rng, **forced)
                outputs[(clab, dlab)] = out
        state = new_state([c, ANCILLA_PLUS, d])
        _, super_out = cnot(state, 0, 1, 2, (STRONG, STRONG), rng, **forced)
        combined: dict = {}
        for (clab, dlab), out in outputs.items():
            weight = (c[0] if clab == "H" else c[1]) * (d[0] if dlab == "H" else d[1])
            for b in out.branches:
                combined[b.basis] = combined.get(b.basis, 0j) + weight * b.amplitude
        superposed = HybridState.from_branches(3, [(a, k, 0) for k, a in combined.items()])
        assert fidelity(super_out, superposed) == pytest.approx(1.0, abs=1e-10)

    def test_ancilla_retained_and_unentangled(self):
        state = new_state([(0.6, 0.8), ANCILLA_PLUS, UNIFORM])
        trace, out = cnot(state, 0, 1, 2, (STRONG, STRONG), np.random.default_rng(4))
        assert out.n_qubits == 3
        photon = trace.photon_outcomes[0][1]
        assert {b.basis[1] for b in out.branches} == {photon}

    def test_rejects_unprepared_ancilla(self):
        state = new_state([(0.6, 0.8), (1, 0), UNIFORM])  # ancilla in |H>
        with pytest.raises(ValidationError):
            cnot(state, 0, 1, 2, (STRONG, STRONG), np.random.default_rng(0))

    def test_rejects_duplicate_qubits(self):
        state = new_state([(0.6, 0.8), ANCILLA_PLUS, UNIFORM])
        with pytest.raises(ValidationError):
            cnot(state, 0, 1, 1, (STRONG, STRONG), np.random.default_rng(0))


class TestResourceClaims:
    def test_n_plus_one_qubits_for_sequential_cnots(self):
        """Three CNOTs on three logical qubits: one recycled ancilla, 4 photons."""
        n = 3
        ancilla = n  # one extra photon beyond the logical register
        state = new_state([UNIFORM, (1, 0), (0.6, 0.8), ANCILLA_PLUS])
        assert state.n_qubits == n + 1
        rng = np.random.default_rng(8)
        for control, target in ((0, 1), (1, 2), (0, 2)):
            trace, state = cnot(state, control, ancilla, target, (STRONG, STRONG), rng)
            outcome = trace.photon_outcomes[0][1]
            # ancilla is in a pure recorded basis state: recycle it in place
            assert {b.basis[ancilla] for b in state.branches} == {outcome}
            state = recycle_ancilla(state, ancilla, outcome)
        assert state.n_qubits == n + 1
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-9)


#: each plan and the slot wiring its gate gives it in the runs below: the
#: entanglers on qubits (0, 1), the CNOT on (control, ancilla, target) = (0, 1, 2)
PLANS = {
    "entangler": (ENTANGLER_PLAN, {"0": 0, "1": 1}),
    "entangler45": (ENTANGLER_45_PLAN, {"0": 0, "1": 1}),
    "cnot-sign": (CNOT_SIGN_PLAN, {"control": 0, "target": 2}),
    "cnot-photon": (CNOT_PHOTON_PLAN, {"control": 0, "target": 2}),
}


def plan_corrections(name, flagged):
    """The corrections of the gate that runs plan ``name``, its measurement
    forced to the flagged reading (odd, V) or to the other one (even, H);
    the CNOT's other measurements read even and H."""
    x = X_ODD if flagged else X_EVEN
    rng = np.random.default_rng(0)
    if name in ("entangler", "entangler45"):
        gate = entangler if name == "entangler" else entangler_45
        return gate(new_state([(0.6, 0.8), UNIFORM]), 0, 1, STRONG, rng, x)[0].corrections
    state = new_state([(0.6, 0.8), ANCILLA_PLUS, UNIFORM])
    if name == "cnot-sign":
        forced = (X_EVEN, x, "H")
    else:
        forced = (X_EVEN, X_EVEN, "V" if flagged else "H")
    return cnot(state, 0, 1, 2, (STRONG, STRONG), rng, *forced)[0].corrections


class TestFeedForwardPlans:
    @pytest.mark.parametrize("name", list(PLANS))
    def test_even_and_h_outcomes_need_no_action(self, name):
        """A plan runs on its measurement's odd or V reading, and nothing
        runs on an even or H one."""
        plan, slots = PLANS[name]
        expected = tuple(f"{kind}:q{q}" for kind, q in (resolve_action(a, slots) for a in plan))
        assert expected
        assert plan_corrections(name, flagged=False) == ()
        assert plan_corrections(name, flagged=True)[-len(expected) :] == expected

    def test_actions_resolve_to_absolute_qubits(self):
        assert resolve_action(("undo-phase", "0"), {"0": 4, "1": 2}) == ("undo-phase", 4)
        assert resolve_action(("sign-flip", "control"), {"control": 3}) == ("sign-flip", 3)

    @pytest.mark.parametrize(
        "action,slots",
        [(("teleport", "0"), {"0": 0}), (("flip", "target"), {"0": 0})],
        ids=["unknown-kind", "unknown-slot"],
    )
    def test_malformed_actions_raise_contract_errors(self, action, slots):
        # raised, not asserted, so the check survives python -O
        with pytest.raises(ContractError):
            resolve_action(action, slots)

"""Single-qubit rotations, cross-Kerr kicks, and the parity coupling pair."""

import math

import numpy as np
import pytest

from kerrgate import (
    HybridState,
    KerrCoupling,
    ProbeMode,
    SingleQubitGate,
    ValidationError,
    apply_cross_kerr,
    apply_single_qubit,
    bit_flip,
    build_parity_coupling_pair,
    diagonal_basis_change,
    diagonal_gate,
    new_state,
    norm_squared,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def amplitudes(state):
    return {b.basis: b.amplitude for b in state.branches}


class TestSingleQubitGates:
    def test_bit_flip_permutes_basis(self):
        state = new_state([(1, 0), (0, 1)])  # |HV>
        flipped = apply_single_qubit(state, bit_flip(1))
        assert amplitudes(flipped) == {("H", "H"): 1 + 0j}

    def test_basis_change_creates_diagonal_state(self):
        state = apply_single_qubit(new_state([(1, 0)]), diagonal_basis_change(0))
        amps = amplitudes(state)
        assert amps[("H",)] == pytest.approx(SQRT_HALF)
        assert amps[("V",)] == pytest.approx(SQRT_HALF)

    def test_phase_gate_rotates_v_component(self):
        state = new_state([(0.6, 0.8)])
        rotated = apply_single_qubit(state, diagonal_gate(0, 0.0, 0.7))
        amps = amplitudes(rotated)
        assert amps[("H",)] == pytest.approx(0.6)
        assert amps[("V",)] == pytest.approx(0.8 * np.exp(0.7j))

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(ValidationError):
            SingleQubitGate(np.array([[1, 0], [0, 0.5]]), 0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SingleQubitGate(np.array([[math.nan, 0], [0, 1]]), 0),
            lambda: SingleQubitGate(np.array([[1, 0], [0, math.inf]]), 0),
            lambda: diagonal_gate(0, math.nan, 0.0),
            lambda: diagonal_gate(0, math.inf, 0.0),
            lambda: diagonal_gate(0, 0.0, -math.inf),
        ],
        ids=["nan-entry", "inf-entry", "nan-phase", "inf-phase", "minus-inf-phase"],
    )
    def test_non_finite_gate_rejected(self, make):
        with pytest.raises(ValidationError, match="not unitary"):
            make()

    def test_basis_change_round_trip_is_identity(self):
        state = new_state([(0.6, 0.8j)])
        back = apply_single_qubit(
            apply_single_qubit(state, diagonal_basis_change(0)), diagonal_basis_change(0)
        )
        for basis, amp in amplitudes(state).items():
            assert amplitudes(back)[basis] == pytest.approx(amp, abs=1e-12)

    def test_unitarity_preserves_norm_with_probe_attached(self):
        # branches carrying different probe labels, rotated into each other
        probe = ProbeMode(2.0, 0.6)
        state = HybridState.from_branches(
            1, [(SQRT_HALF, "H", (0,)), (SQRT_HALF, "V", (1,))], probes=[probe]
        )
        rotated = apply_single_qubit(state, diagonal_basis_change(0))
        assert norm_squared(rotated) == pytest.approx(1.0, abs=1e-12)


class TestCrossKerr:
    def test_trigger_kicks_only_matching_rail(self):
        # (c0|H> + c1|V>)|alpha>  ->  c0|H>|alpha> + c1|V>|alpha e^{i theta}>
        probe = ProbeMode(3.0, 0.2)
        state = new_state([(0.6, 0.8)]).activate_probe(probe)
        kicked = apply_cross_kerr(state, KerrCoupling(0, "V", 0, +1))
        phases = {b.basis: b.phases for b in kicked.branches}
        assert phases == {("H",): (0,), ("V",): (1,)}
        assert norm_squared(kicked) == pytest.approx(1.0, abs=1e-12)

    def test_no_photon_in_trigger_rail_is_identity(self):
        state = new_state([(1, 0)]).activate_probe(ProbeMode(3.0, 0.2))
        kicked = apply_cross_kerr(state, KerrCoupling(0, "V", 0, +1))
        assert kicked == state

    def test_opposite_kicks_cancel(self):
        state = new_state([(0.6, 0.8)]).activate_probe(ProbeMode(3.0, 0.2))
        forward = apply_cross_kerr(state, KerrCoupling(0, "V", 0, +1))
        back = apply_cross_kerr(forward, KerrCoupling(0, "V", 0, -1))
        assert back == state

    def test_kicks_on_different_qubits_commute_exactly(self):
        state = new_state([(SQRT_HALF, SQRT_HALF)] * 2).activate_probe(ProbeMode(2.0, 0.4))
        a = KerrCoupling(0, "H", 0, +1)
        b = KerrCoupling(1, "H", 0, -1)
        ab = apply_cross_kerr(apply_cross_kerr(state, a), b)
        ba = apply_cross_kerr(apply_cross_kerr(state, b), a)
        assert ab == ba

    def test_inactive_probe_is_contract_error(self):
        from kerrgate import ContractError

        state = new_state([(1, 0)])
        with pytest.raises(ContractError):
            apply_cross_kerr(state, KerrCoupling(0, "H", 0, +1))


class TestParityCouplingPair:
    def test_net_phases_match_parity_classes(self):
        # [c0 d0 |HH> + c1 d1 |VV>]|a> + c0 d1 |HV>|a e^{i t}> + c1 d0 |VH>|a e^{-i t}>
        state = new_state([(0.6, 0.8), (0.28, 0.96)]).activate_probe(ProbeMode(2.0, 0.3))
        for coupling in build_parity_coupling_pair(0, 1, 0):
            state = apply_cross_kerr(state, coupling)
        phases = {b.basis: b.phases[0] for b in state.branches}
        assert phases == {
            ("H", "H"): 0,
            ("V", "V"): 0,
            ("H", "V"): +1,
            ("V", "H"): -1,
        }
        amps = amplitudes(state)
        assert amps[("H", "V")] == pytest.approx(0.6 * 0.96)
        assert amps[("V", "H")] == pytest.approx(0.8 * 0.28)

    def test_hh_input_picks_up_no_phase(self):
        state = new_state([(1, 0), (1, 0)]).activate_probe(ProbeMode(2.0, 0.3))
        for coupling in build_parity_coupling_pair(0, 1, 0):
            state = apply_cross_kerr(state, coupling)
        assert [b.phases for b in state.branches] == [(0,)]

    def test_vh_input_gets_minus_one_index(self):
        state = new_state([(0, 1), (1, 0)]).activate_probe(ProbeMode(2.0, 0.3))
        for coupling in build_parity_coupling_pair(0, 1, 0):
            state = apply_cross_kerr(state, coupling)
        assert [b.phases for b in state.branches] == [(-1,)]

    def test_same_qubit_twice_rejected(self):
        with pytest.raises(ValidationError):
            build_parity_coupling_pair(1, 1, 0)


def test_random_gate_sequences_preserve_norm():
    rng = np.random.default_rng(7)
    state = new_state([(SQRT_HALF, SQRT_HALF), (1, 0)]).activate_probe(ProbeMode(1.5, 0.5))
    for _ in range(25):
        if rng.random() < 0.5:
            # random unitary from QR decomposition
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            q = q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
            state = apply_single_qubit(state, SingleQubitGate(q, int(rng.integers(2))))
        else:
            state = apply_cross_kerr(
                state,
                KerrCoupling(int(rng.integers(2)), "V", 0, int(rng.choice([-1, 1]))),
            )
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-11)

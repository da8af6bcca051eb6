"""State construction, norms with coherent overlaps, merging, fidelity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import (
    ContractError,
    HybridState,
    ProbeMode,
    ValidationError,
    coherent_overlap,
    fidelity,
    merge_and_prune,
    new_state,
    norm_squared,
    run_shots,
)
from kerrgate.fock import oracle_embed, oracle_inner
from kerrgate.measurement import qnd_photon_measure, sample_and_collapse
from kerrgate.optics import (
    KerrCoupling,
    SingleQubitGate,
    apply_cross_kerr,
    apply_single_qubit,
    diagonal_basis_change,
)
from kerrgate.states import _merged_state, renormalized

SQRT_HALF = 1.0 / math.sqrt(2.0)

#: a valid state whose squared norm overflows to inf
HUGE = HybridState.from_branches(1, [(1e200, "H", 0)])


# ---------------------------------------------------------------------------
# new_state


def test_single_basis_state():
    state = new_state([(1, 0)])
    assert state.branches == (((1 + 0j), ("H",), 0),)


def test_uniform_product_has_four_quarter_branches():
    state = new_state([(SQRT_HALF, SQRT_HALF)] * 2)
    assert len(state.branches) == 4
    for b in state.branches:
        assert b.amplitude == pytest.approx(0.5)


def test_tensor_product_expansion_by_hand():
    # (0.6|H> + 0.8|V>) x |H>  ->  0.6|HH> + 0.8|VH>
    state = new_state([(0.6, 0.8), (1, 0)])
    amps = {b.basis: b.amplitude for b in state.branches}
    assert amps == {("H", "H"): 0.6 + 0j, ("V", "H"): 0.8 + 0j}


def test_new_state_rejects_unnormalized_pair():
    with pytest.raises(ValidationError):
        new_state([(0.6, 0.7)])


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (complex(math.nan, 0), 1.0)])
@pytest.mark.parametrize(
    "prepare",
    [
        lambda pairs: new_state(pairs),
        lambda pairs: run_shots("parity", pairs, 8.0, 0.5, 4, 0),
    ],
    ids=["new_state", "run_shots"],
)
def test_non_finite_pairs_are_not_normalized(prepare, bad):
    """NaN fails every comparison, so it must not slip past as 'close to 1'."""
    with pytest.raises(ValidationError, match="qubit 1 amplitude pair is not normalized"):
        prepare([(1.0, 0.0), bad])


@pytest.mark.parametrize(
    "specs",
    [[(1, 0, 0), (1, 0)], [(1,), (1, 0)], [("x", 1), (1, 0)], [(None, 1), (1, 0)]],
    ids=["three", "one", "string", "none"],
)
@pytest.mark.parametrize(
    "prepare",
    [
        lambda pairs: new_state(pairs),
        lambda pairs: run_shots("parity", pairs, 20.0, 0.5, 3, 1),
    ],
    ids=["new_state", "run_shots"],
)
def test_specs_that_are_not_amplitude_pairs_are_rejected(prepare, specs):
    with pytest.raises(ValidationError, match="qubit 0 spec .* is not an amplitude pair"):
        prepare(specs)


def test_new_state_rejects_zero_qubits():
    with pytest.raises(ValidationError):
        new_state([])


# ---------------------------------------------------------------------------
# norm


def test_fresh_product_state_has_unit_norm():
    state = new_state([(0.6, 0.8), (SQRT_HALF, SQRT_HALF * 1j)])
    assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)


def test_single_branch_norm_is_amplitude():
    state = HybridState.from_branches(1, [(0.5, "H", 0)])
    assert norm_squared(state) == pytest.approx(0.25)


def test_norm_with_probe_cross_terms_matches_formula_and_oracle():
    # same basis attached to two coherent labels: norm picks up their overlap
    alpha, theta = 2.0, 0.4
    probe = ProbeMode(alpha, theta)
    state = HybridState.from_branches(
        1,
        [(SQRT_HALF, "H", 0), (SQRT_HALF, "H", 1)],
        probe=probe,
    )
    expected_sq = 1.0 + cmath.exp(alpha**2 * (cmath.exp(-1j * theta) - 1)).real
    assert norm_squared(state) == pytest.approx(expected_sq, abs=1e-12)

    embedded = oracle_embed(state, 60)
    oracle_sq = oracle_inner(embedded, embedded).real
    assert norm_squared(state) == pytest.approx(oracle_sq, abs=1e-9)


def test_overlap_of_identical_labels_is_exactly_one():
    assert coherent_overlap(1.5 + 0.2j, 1.5 + 0.2j) == 1.0
    assert coherent_overlap(0.0, 0.0) == 1.0


@given(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_overlap_magnitude_decreases_with_label_distance(re, im, step):
    """|<b'|b>| is monotone decreasing in |b - b'| along any ray."""
    base = complex(re, im)
    direction = cmath.exp(1j * 0.7)
    near = abs(coherent_overlap(base + step * direction, base))
    far = abs(coherent_overlap(base + 2 * step * direction, base))
    assert far < near <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# merge_and_prune


def test_merge_sums_identical_keys():
    state = HybridState.from_branches(1, [(0.3, "H", 0), (0.2, "H", 0)])
    assert state.branches == (((0.5 + 0j), ("H",), 0),)


def branch_keys(state):
    return [(b.basis, b.phase) for b in state.branches]


def test_every_operation_keeps_branches_merged_and_sorted():
    """from_branches and every operation leave one branch per (basis, phase)
    key, in key order."""
    state = HybridState.from_branches(
        2, [(0.5, "VV", 0), (0.5j, "HV", 0), (-0.5, "VH", 0), (0.5, "HH", 0), (0.0, "VH", 0)]
    )
    probe = ProbeMode(3.0, 0.4)
    steps = [
        lambda s: s.activate_probe(probe),
        lambda s: apply_cross_kerr(s, KerrCoupling(0, "H", 1)),
        lambda s: apply_cross_kerr(s, KerrCoupling(1, "V", -1)),
        lambda s: apply_single_qubit(s, diagonal_basis_change(0)),
        lambda s: sample_and_collapse(s, None, force_x=5.0)[1],
        lambda s: s.activate_probe(probe),
        lambda s: apply_cross_kerr(s, KerrCoupling(1, "V", -1)),
        lambda s: apply_single_qubit(s, diagonal_basis_change(0)),
        lambda s: sample_and_collapse(s, None, force_x=4.0)[1],
        merge_and_prune,
    ]
    for step in [lambda s: s] + steps:
        state = step(state)
        assert branch_keys(state) == sorted(set(branch_keys(state)))
        assert len(state.branches) > 1


def test_prune_reports_lost_mass():
    state = HybridState.from_branches(1, [(1.0, "H", 0), (1e-15, "V", 0)])
    pruned = merge_and_prune(state, 1e-12)
    assert [b.basis for b in pruned.branches] == [("H",)]
    assert pruned.pruned_mass == pytest.approx(1e-30, rel=1e-6)
    # no renormalization happened
    assert norm_squared(pruned) == pytest.approx(1.0)


@pytest.mark.parametrize("epsilon", [-1e-12, math.nan])
def test_prune_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValidationError, match="epsilon"):
        merge_and_prune(new_state([(0.6, 0.8)]), epsilon)


def test_prune_is_noop_on_distinct_large_branches():
    state = new_state([(0.6, 0.8)])
    assert merge_and_prune(state, 1e-12) == state


@given(st.lists(st.tuples(st.sampled_from("HV"), st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_merge_and_prune_is_idempotent(raw):
    branches = [(complex(a, b), lab, 0) for lab, a, b in raw]
    state = HybridState.from_branches(1, branches)
    once = merge_and_prune(state, 1e-3)
    twice = merge_and_prune(once, 1e-3)
    assert once == twice


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_with_itself():
    state = new_state([(0.6, 0.8j), (SQRT_HALF, -SQRT_HALF)])
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_states():
    hh = new_state([(1, 0), (1, 0)])
    vv = new_state([(0, 1), (0, 1)])
    assert fidelity(hh, vv) == 0.0


def test_fidelity_projection_onto_component():
    bell = HybridState.from_branches(2, [(SQRT_HALF, "HH", 0), (SQRT_HALF, "VV", 0)])
    hh = new_state([(1, 0), (1, 0)])
    assert fidelity(bell, hh) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "state, reference",
    [
        (HUGE, HUGE),
        (HUGE, new_state([(1, 0)])),
        (new_state([(1, 0)]), HUGE),
        (HybridState(1, ()), new_state([(1, 0)])),
    ],
    ids=["huge-both", "huge-state", "huge-reference", "zero"],
)
def test_fidelity_rejects_zero_or_non_finite_norm(state, reference):
    # |1e200|^2 overflows to inf, and inf / inf would be reported as nan
    with pytest.raises(ValidationError, match="finite, nonzero norm"):
        fidelity(state, reference)


def test_fidelity_rejects_active_probes():
    state = new_state([(1, 0)]).activate_probe(ProbeMode(1.0, 0.3))
    with pytest.raises(ContractError):
        fidelity(state, state)


# ---------------------------------------------------------------------------
# one probe at a time


def test_a_second_active_probe_is_a_contract_error():
    state = new_state([(1, 0)]).activate_probe(ProbeMode(1.0, 0.3))
    with pytest.raises(ContractError, match="already active"):
        state.activate_probe(ProbeMode(2.0, 0.5))


@pytest.mark.parametrize("phase", [1, -2])
def test_from_branches_rejects_a_phase_without_a_probe(phase):
    with pytest.raises(ValidationError, match="needs an active probe"):
        HybridState.from_branches(1, [(SQRT_HALF, "H", 0), (SQRT_HALF, "V", phase)])
    state = HybridState.from_branches(1, [(1.0, "V", phase)], probe=ProbeMode(1.0, 0.3))
    assert state.branches[0].phase == phase


# ---------------------------------------------------------------------------
# invariants

angles = st.floats(-math.pi, math.pi)


@st.composite
def unitaries(draw):
    """e^{ia} [[e^{ib} cos t, e^{ic} sin t], [-e^{-ic} sin t, e^{-ib} cos t]]."""
    a, b, c, t = (draw(angles) for _ in range(4))
    cos, sin = math.cos(t), math.sin(t)
    return cmath.exp(1j * a) * np.array(
        [
            [cmath.exp(1j * b) * cos, cmath.exp(1j * c) * sin],
            [-cmath.exp(-1j * c) * sin, cmath.exp(-1j * b) * cos],
        ]
    )


#: kicks and rotations twice, so that basis strings often hold several probe
#: labels that a later rotation or collapse has to merge
OPERATIONS = (
    "kick", "kick", "rotate", "rotate", "collapse", "activate", "photon", "renormalize", "prune"
)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_merging_again_after_any_operation_changes_nothing(data):
    """Every operation leaves the HybridState invariant in place, so the
    operations that skip the merge (kicks, photon readout, renormalization,
    pruning) skip only a no-op."""
    n_qubits = data.draw(st.integers(1, 3), label="qubits")
    specs = []
    for _ in range(n_qubits):
        t, p = data.draw(angles), data.draw(angles)
        specs.append((math.cos(t), cmath.exp(1j * p) * math.sin(t)))
    state = new_state(specs)
    qubits = st.integers(0, n_qubits - 1)
    # theta > 0: at theta = 0 distinct phase indices name one coherent state,
    # and their branches could cancel to a zero norm
    probes = st.builds(ProbeMode, st.floats(0.5, 3.0), st.floats(0.1, math.pi))
    state = state.activate_probe(data.draw(probes))
    for op in data.draw(st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=16)):
        if op == "activate" or (state.probe is None and op in ("kick", "collapse")):
            if state.probe is None:
                state = state.activate_probe(data.draw(probes))
        elif op == "kick":
            coupling = KerrCoupling(
                data.draw(qubits),
                data.draw(st.sampled_from("HV")),
                data.draw(st.sampled_from((1, -1))),
            )
            state = apply_cross_kerr(state, coupling)
        elif op == "rotate":
            gate = SingleQubitGate(data.draw(unitaries()), data.draw(qubits))
            state = apply_single_qubit(state, gate)
        elif op == "collapse":
            x = data.draw(st.floats(-2.0, 8.0))
            state = sample_and_collapse(state, None, force_x=x)[1]
        elif op == "photon":
            q = data.draw(qubits)
            # an outcome whose probability underflows to 0 cannot be renormalized
            likely = {b.basis[q] for b in state.branches if abs(b.amplitude) > 1e-6}
            outcome = data.draw(st.sampled_from(sorted(likely)))
            state = qnd_photon_measure(state, q, None, force_outcome=outcome)[1]
        elif op == "renormalize":
            state = renormalized(state)
        else:
            state = merge_and_prune(state)
        merged = _merged_state(state.n_qubits, state.branches, state.probe, state.pruned_mass)
        assert merged == state


def test_branch_count_bound_per_phase_configuration():
    state = new_state([(SQRT_HALF, SQRT_HALF)] * 3).activate_probe(ProbeMode(2.0, 0.3))
    per_config: dict = {}
    for b in state.branches:
        per_config[b.phase] = per_config.get(b.phase, 0) + 1
    assert all(count <= 2**3 for count in per_config.values())


def test_probe_mode_validation():
    with pytest.raises(ValidationError):
        ProbeMode(-1.0, 0.3)
    with pytest.raises(ValidationError):
        ProbeMode(1.0, 3.5)
    # theta = 0 is the degenerate no-coupling limit and is allowed
    assert ProbeMode(1.0, 0.0).label(5) == pytest.approx(1.0)

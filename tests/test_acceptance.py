"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from kerrgate import (
    ANCILLA_PLUS,
    HybridState,
    ProbeMode,
    apply_cross_kerr,
    apply_single_qubit,
    build_parity_coupling_pair,
    cnot,
    diagonal_gate,
    fidelity,
    new_state,
    norm_squared,
    outcome_density,
    parity_gate,
    recycle_ancilla,
    sample_and_collapse,
)
from kerrgate.analysis import p_error, run_shots
from kerrgate.cli import main as cli_main
from kerrgate.fock import (
    oracle_apply_single_qubit,
    oracle_cross_kerr,
    oracle_embed,
    oracle_fidelity,
    oracle_homodyne_density,
    required_truncation,
)
from kerrgate.optics import SingleQubitGate

SQRT_HALF = 1.0 / math.sqrt(2.0)
UNIFORM = (SQRT_HALF, SQRT_HALF)

# frozen from an independent 40-digit erfc evaluation (mpmath)
P_ERROR_AT_XD_9 = 3.3976731247300603e-06


def theta_for_separation(alpha, xd):
    return math.acos(1.0 - xd / (2.0 * alpha))


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {title}")
                raise
            print(f"[criterion {number}] PASS: {title}")

        return wrapper

    return decorate


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


@criterion(1, "CNOT truth table exact under forced-correct records")
def test_criterion_1_truth_table():
    alpha = 25.0
    probe = ProbeMode(alpha, theta_for_separation(alpha, 14.0))
    x_even, x_odd = 2 * alpha, 2 * alpha * math.cos(probe.theta)
    rng = np.random.default_rng(0)

    inputs = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))]
    sampler = np.random.default_rng(2024)
    for _ in range(20):
        raw = sampler.normal(size=4) + 1j * sampler.normal(size=4)
        c = tuple(raw[:2] / np.linalg.norm(raw[:2]))
        d = tuple(raw[2:] / np.linalg.norm(raw[2:]))
        inputs.append((c, d))

    start = time.perf_counter()
    worst = 1.0
    for c, d in inputs:
        for fx1 in (x_even, x_odd):
            for fx2 in (x_even, x_odd):
                for photon in ("H", "V"):
                    state = new_state([c, ANCILLA_PLUS, d])
                    _, out = cnot(
                        state, 0, 1, 2, (probe, probe), rng,
                        force_x1=fx1, force_x2=fx2, force_photon=photon,
                    )
                    worst = min(worst, fidelity(out, ideal_cnot_output(c, d, photon)))
    elapsed = time.perf_counter() - start
    assert worst >= 1 - 1e-10, f"worst truth-table fidelity {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


@criterion(2, "parity projection: frequencies and collapse forms at 1e5 shots")
def test_criterion_2_parity_projection():
    alpha, theta = 400.0, 0.2  # separation ~ 16
    probe = ProbeMode(alpha, theta)
    even_form = HybridState.from_branches(2, [(SQRT_HALF, "HH", 0), (SQRT_HALF, "VV", 0)])
    odd_form = HybridState.from_branches(2, [(SQRT_HALF, "HV", 0), (SQRT_HALF, "VH", 0)])

    start = time.perf_counter()
    shots = 100_000
    even_count = 0
    for i in range(shots):
        state = new_state([UNIFORM, UNIFORM])
        record, post = parity_gate(
            state, 0, 1, probe, np.random.default_rng([2, i])
        )
        if record.parity == "even":
            even_count += 1
            assert fidelity(post, even_form) >= 1 - 1e-9
        else:
            corrected = apply_single_qubit(post, diagonal_gate(0, -record.phi, record.phi))
            assert fidelity(corrected, odd_form) >= 1 - 1e-9
    elapsed = time.perf_counter() - start
    sigma = math.sqrt(0.25 / shots)
    assert abs(even_count / shots - 0.5) < 3 * sigma
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


@criterion(3, "empirical misclassification matches the analytic error formula")
def test_criterion_3_error_formula_consistency():
    alpha = 8.0
    theta = theta_for_separation(alpha, 4.1)
    perr = p_error(alpha, theta)
    assert 1e-3 < perr < 1e-1

    start = time.perf_counter()
    stats = run_shots("parity", [(1, 0), (1, 0)], alpha, theta, 100_000, 3)
    elapsed = time.perf_counter() - start
    sigma = math.sqrt(perr * (1 - perr) / stats.shots)
    assert abs(stats.logical_error_rate - perr) < 3 * sigma
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


@criterion(4, "analytic error below 1e-5 at separation 9 (frozen regression)")
def test_criterion_4_headline_bound():
    alpha = 50.0
    theta = theta_for_separation(alpha, 9.0)
    value = p_error(alpha, theta)
    assert value < 1e-5
    assert value == pytest.approx(P_ERROR_AT_XD_9, rel=1e-12)


@criterion(5, "oracle equivalence: evolution and homodyne density, 50 trials")
def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for trial in range(50):
        alpha = rng.uniform(0.2, 3.0)
        theta = rng.uniform(1e-3, math.pi)
        probe = ProbeMode(alpha, theta)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = tuple(raw[:2] / np.linalg.norm(raw[:2]))
        d = tuple(raw[2:] / np.linalg.norm(raw[2:]))
        n_trunc = required_truncation(alpha) + 5

        state = new_state([c, d]).activate_probe(probe)
        embedded = oracle_embed(state, n_trunc)
        for coupling in build_parity_coupling_pair(0, 1):
            state = apply_cross_kerr(state, coupling)
            embedded = oracle_cross_kerr(embedded, coupling)
        # a random extra rotation exercises the single-qubit diagram too
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(m)
        gate = SingleQubitGate(q, int(rng.integers(2)))
        state = apply_single_qubit(state, gate)
        embedded = oracle_apply_single_qubit(embedded, gate)

        assert oracle_fidelity(embedded, oracle_embed(state, n_trunc)) >= 1 - 1e-9

        grid = np.linspace(2 * alpha * math.cos(theta) - 10, 2 * alpha + 10, 1501)
        deviation = np.max(
            np.abs(outcome_density(state)(grid) - oracle_homodyne_density(embedded)(grid))
        )
        assert deviation < 1e-6, f"trial {trial}: density deviation {deviation}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


@criterion(6, "feed-forward removes all x dependence on the odd branch")
def test_criterion_6_x_independence():
    alpha, theta = 6.0, 0.9
    probe = ProbeMode(alpha, theta)
    x0 = alpha * (1 + math.cos(theta))
    rng = np.random.default_rng(6)

    pairs_checked = 0
    while pairs_checked < 100:
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw = raw / np.linalg.norm(raw)
        odd_input = HybridState.from_branches(
            2, [(raw[0], "HV", 0), (raw[1], "VH", 0)]
        ).activate_probe(probe)
        for coupling in build_parity_coupling_pair(0, 1):
            odd_input = apply_cross_kerr(odd_input, coupling)

        x_a, x_b = rng.uniform(x0 - 9.0, x0 - 1e-3, size=2)
        corrected = []
        for x in (x_a, x_b):
            record, post = sample_and_collapse(odd_input, rng, force_x=x)
            assert record.parity == "odd"
            corrected.append(
                apply_single_qubit(post, diagonal_gate(0, -record.phi, record.phi))
            )
        assert fidelity(corrected[0], corrected[1]) >= 1 - 1e-9
        pairs_checked += 1


@criterion(7, "one recyclable ancilla serves an n-qubit multi-CNOT circuit")
def test_criterion_7_resource_claims():
    n = 3
    ancilla = n
    alpha = 25.0
    probe = ProbeMode(alpha, theta_for_separation(alpha, 14.0))
    state = new_state([UNIFORM, (1, 0), (0.6, 0.8), ANCILLA_PLUS])
    assert state.n_qubits == n + 1  # n logical photons plus one ancilla

    rng = np.random.default_rng(7)
    for control, target in ((0, 1), (1, 2), (0, 2)):
        trace, state = cnot(state, control, ancilla, target, (probe, probe), rng)
        outcome = trace.photon_outcomes[0][1]
        # ancilla still present, in a pure recorded basis state on every branch
        ancilla_labels = {b.basis[ancilla] for b in state.branches}
        assert ancilla_labels == {outcome}
        state = recycle_ancilla(state, ancilla, outcome)
    assert state.n_qubits == n + 1
    assert norm_squared(state) == pytest.approx(1.0, abs=1e-9)


@criterion(8, "CLI reruns with one seed are byte-identical")
def test_criterion_8_cli_determinism(tmp_path):
    for fmt in ("csv", "json"):
        args = [
            "--experiment", "entangler", "--alpha", "12", "--theta", "0.6",
            "--shots", "400", "--seed", "13", "--format", fmt,
        ]
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        assert cli_main(args + ["--output", str(first)]) == 0
        assert cli_main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    # json output stays parseable on top of being byte-stable
    assert json.loads((tmp_path / "first.json").read_text())

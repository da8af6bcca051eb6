"""Truncated-Fock oracle: embedding, Kerr evolution, homodyne density."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

import kerrgate
from kerrgate import (
    ContractError,
    HybridState,
    KerrCoupling,
    ProbeMode,
    SingleQubitGate,
    ValidationError,
    apply_cross_kerr,
    apply_single_qubit,
    build_parity_coupling_pair,
    coherent_overlap,
    diagonal_basis_change,
    new_state,
    outcome_density,
)
from kerrgate.fock import (
    TRUNCATION_BOUND,
    coherent_coefficients,
    oracle_apply_single_qubit,
    oracle_cross_kerr,
    oracle_embed,
    oracle_fidelity,
    oracle_homodyne_density,
    oracle_inner,
    oscillator_eigenfunctions,
    required_truncation,
    truncation_loss,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def parity_state(alpha, theta, c=(SQRT_HALF, SQRT_HALF), d=(SQRT_HALF, SQRT_HALF)):
    state = new_state([c, d]).activate_probe(ProbeMode(alpha, theta))
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
    return state


class TestEmbedding:
    def test_vacuum_probe_occupies_only_ground_level(self):
        state = new_state([(1, 0)]).activate_probe(ProbeMode(0.0, 0.3))
        embedded = oracle_embed(state, 10)
        occupied = np.nonzero(np.abs(embedded.vector) > 0)
        assert list(occupied[-1]) == [0]

    def test_embedding_needs_an_active_probe(self):
        with pytest.raises(ContractError, match="no probe is active"):
            oracle_embed(new_state([(1, 0)]), 10)

    def test_truncation_loss_alpha2_n40_below_1e12(self):
        assert truncation_loss(2.0, 40) < 1e-12

    def test_truncation_bound_violation_names_required_cutoff(self):
        state = new_state([(1, 0)]).activate_probe(ProbeMode(3.0, 0.3))
        with pytest.raises(ValidationError, match=str(required_truncation(3.0))):
            oracle_embed(state, 12)

    def test_embedding_preserves_inner_products(self):
        # branch-model coherent overlap vs the dense Fock inner product
        probe = ProbeMode(2.0, 0.4)
        s_zero = HybridState.from_branches(1, [(1.0, "H", 0)], probe=probe)
        s_one = HybridState.from_branches(1, [(1.0, "H", 1)], probe=probe)
        dense = oracle_inner(oracle_embed(s_zero, 60), oracle_embed(s_one, 60))
        exact = coherent_overlap(probe.label(0), probe.label(1))
        assert dense == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 0.5, math.pi])
    def test_shared_labels_embed_as_one_expansion_per_branch(self, theta):
        # same-basis branches on three labels each, which at theta = 0 or pi
        # coincide across phase indices
        probe = ProbeMode(1.4, theta)
        state = parity_state(1.4, theta, c=(0.6, 0.8j), d=(0.28, 0.96))
        state = apply_single_qubit(state, diagonal_basis_change(0))
        state = apply_single_qubit(state, diagonal_basis_change(1))
        assert len(state.branches) == 12
        n = required_truncation(1.4) + 5
        expected = np.zeros((2, 2, n + 1), dtype=complex)
        for b in state.branches:
            rails = tuple("HV".index(lab) for lab in b.basis)
            expected[rails] += b.amplitude * coherent_coefficients(probe.label(b.phase), n)
        np.testing.assert_array_equal(oracle_embed(state, n).vector, expected)

    def test_coherent_coefficients_are_normalized(self):
        coeffs = coherent_coefficients(2.5 * np.exp(0.3j), 60)
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)


LOSS_ALPHAS = [0.0, 1e-8, *np.linspace(0.1, 10.0, 100)]


def poisson_truncation(alpha, bound):
    """The cutoff search as written against ``scipy.stats.poisson.sf``."""
    n = max(int(alpha**2), 1)
    while (float(stats.poisson.sf(n, alpha**2)) if alpha > 0 else 0.0) > bound:
        n += 1
    return n


#: 3000 amplitudes over the oracle's working range, where the cutoffs are small
DENSE_ALPHAS = np.linspace(0.25, 3.0, 3000)


class TestTruncationLoss:
    def test_matches_mpmath_poisson_tail(self):
        # P(n > N) at mean alpha^2 is the regularized lower incomplete gamma
        # function P(N + 1, alpha^2), here at 50 digits from the exact square
        # of the double alpha; SciPy's own worst case on this grid is 1.4e-13.
        # At alpha = 1e-8, n = 0 the tail is 1e-16, which 1 - P(n <= 0) would
        # round to 2**-53
        with mpmath.workdps(50):
            for alpha in LOSS_ALPHAS:
                lam = mpmath.mpf(float(alpha)) ** 2
                for n in range(81):
                    got = truncation_loss(alpha, n)
                    if alpha == 0:
                        assert got == 0.0
                        continue
                    expected = mpmath.gammainc(n + 1, 0, lam, regularized=True)
                    if expected < 1e-290:
                        continue
                    assert abs(got / expected - 1) <= 2e-13, (alpha, n, got)

    def test_large_means_start_from_the_logarithm(self):
        # e^-lam underflows beyond lam ~ 708; there the first term comes from
        # exp(k log lam - lam - lgamma(k + 1)), whose exponent of order 1e4
        # costs up to about 5e-12 in rounding
        with mpmath.workdps(50):
            for alpha in (27.0, 40.0):
                lam = mpmath.mpf(alpha) ** 2
                for n in range(int(0.6 * alpha**2), int(1.6 * alpha**2), 37):
                    expected = mpmath.gammainc(n + 1, 0, lam, regularized=True)
                    if expected >= 1e-290:
                        assert abs(truncation_loss(alpha, n) / expected - 1) <= 2e-11, (alpha, n)

    def test_negative_cutoff_loses_all_mass(self):
        for alpha in (1e-8, 0.5, 3.0):
            assert truncation_loss(alpha, -1) == 1.0

    def test_a_huge_cutoff_returns_at_once(self):
        # the product form of a Poisson term multiplied all k factors even
        # after it had underflowed to 0.0: k = 1e8 took 2 s and k = 1e30 never
        # returned; a child process keeps a regression from hanging the suite
        code = (
            "from kerrgate.fock import truncation_loss\n"
            "print(truncation_loss(2.0, 10**8), truncation_loss(2.0, 10**30),"
            " truncation_loss(30.0, 10**30))"
        )
        src = os.path.dirname(os.path.dirname(kerrgate.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0.0", "0.0", "0.0"]

    @pytest.mark.parametrize("n", [10**306, 10**308, 10**400], ids=["1e306", "1e308", "1e400"])
    def test_a_cutoff_past_the_float_range_loses_nothing(self, n):
        # at a mean past e^-lam's range the first term comes from lgamma(k + 1),
        # which overflows past k ~ 2.6e305, as k itself does past ~1.8e308:
        # both raised a raw OverflowError
        assert truncation_loss(30.0, n) == 0.0

    def test_an_integer_cutoff_of_any_type_is_accepted(self):
        assert truncation_loss(2.0, np.int64(40)) == truncation_loss(2.0, 40)

    # required_truncation has one bound; the parameter names it in the test id
    @pytest.mark.parametrize("bound", [TRUNCATION_BOUND])
    def test_required_truncation_matches_poisson_search(self, bound):
        for alpha in [*np.linspace(0.0, 10.0, 101), *DENSE_ALPHAS]:
            assert required_truncation(alpha) == poisson_truncation(alpha, bound), alpha

    @pytest.mark.parametrize("bound", [TRUNCATION_BOUND])
    def test_required_truncation_is_the_first_cutoff_within_bound(self, bound):
        for alpha in DENSE_ALPHAS[::50]:
            n = required_truncation(alpha)
            assert truncation_loss(alpha, n) <= bound
            assert n == max(int(alpha**2), 1) or truncation_loss(alpha, n - 1) > bound


class TestOracleCrossKerr:
    def test_untriggered_basis_is_identity(self):
        state = new_state([(1, 0)]).activate_probe(ProbeMode(2.0, 0.3))
        embedded = oracle_embed(state, 40)
        kicked = oracle_cross_kerr(embedded, KerrCoupling(0, "V", +1))
        np.testing.assert_array_equal(kicked.vector, embedded.vector)

    def test_kick_equals_analytic_coherent_rotation(self):
        probe = ProbeMode(2.0, 0.3)
        state = new_state([(0, 1)]).activate_probe(probe)
        kicked = oracle_cross_kerr(oracle_embed(state, 60), KerrCoupling(0, "V", +1))
        rotated = HybridState.from_branches(1, [(1.0, "V", 1)], probe=probe)
        assert oracle_fidelity(kicked, oracle_embed(rotated, 60)) >= 1 - 1e-10

    def test_diagram_commutes_with_branch_model(self):
        state = parity_state(2.0, 0.5, c=(0.6, 0.8), d=(0.28, 0.96))
        n = required_truncation(2.0) + 5
        base = new_state([(0.6, 0.8), (0.28, 0.96)]).activate_probe(ProbeMode(2.0, 0.5))
        embedded = oracle_embed(base, n)
        for coupling in build_parity_coupling_pair(0, 1):
            embedded = oracle_cross_kerr(embedded, coupling)
        assert oracle_fidelity(embedded, oracle_embed(state, n)) >= 1 - 1e-9

    def test_single_qubit_gates_commute_too(self):
        probe = ProbeMode(1.5, 0.7)
        state = new_state([(0.6, 0.8), (1, 0)]).activate_probe(probe)
        state = apply_cross_kerr(state, KerrCoupling(0, "V", +1))
        gate = diagonal_basis_change(0)
        n = required_truncation(1.5) + 5
        via_oracle = oracle_apply_single_qubit(oracle_embed(state, n), gate)
        via_branches = oracle_embed(apply_single_qubit(state, gate), n)
        assert oracle_fidelity(via_oracle, via_branches) >= 1 - 1e-9

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_a_qubit_past_the_qubit_axes_is_refused(self, qubit):
        # unchecked, qubit 2 of two would index the Fock axis and qubit -1 qubit 0's
        embedded = oracle_embed(parity_state(1.5, 0.7), required_truncation(1.5) + 5)
        with pytest.raises(ValidationError, match="qubit index"):
            oracle_cross_kerr(embedded, KerrCoupling(qubit, "V", +1))
        with pytest.raises(ValidationError, match="qubit index"):
            oracle_apply_single_qubit(embedded, diagonal_basis_change(qubit))

    def test_every_qubit_axis_of_three_follows_the_branch_model(self):
        # every other oracle test has one or two qubits: the middle axis of
        # three is indexed only here
        rng = np.random.default_rng(2024)
        probe = ProbeMode(1.5, 0.7)
        pairs = [tuple(p / np.linalg.norm(p)) for p in rng.normal(size=(3, 2)) + 0.3j]
        state = new_state(pairs).activate_probe(probe)
        n = required_truncation(1.5) + 5
        embedded = oracle_embed(state, n)
        for qubit in range(3):
            for trigger, sign in [("H", +1), ("V", +1), ("V", -1), ("H", -1)]:
                coupling = KerrCoupling(qubit, trigger, sign)
                state = apply_cross_kerr(state, coupling)
                embedded = oracle_cross_kerr(embedded, coupling)
                assert oracle_fidelity(embedded, oracle_embed(state, n)) >= 1 - 1e-9
            # a Haar-random unitary, from the QR decomposition of a Ginibre matrix
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gate = SingleQubitGate(q * (np.diag(r) / np.abs(np.diag(r))), qubit)
            state = apply_single_qubit(state, gate)
            embedded = oracle_apply_single_qubit(embedded, gate)
            assert oracle_fidelity(embedded, oracle_embed(state, n)) >= 1 - 1e-9
        grid = np.linspace(-2 * 1.5 - 10, 2 * 1.5 + 10, 1001)
        deviation = np.abs(oracle_homodyne_density(embedded)(grid) - outcome_density(state)(grid))
        assert np.max(deviation) < 1e-6


class TestOracleHomodyneDensity:
    def test_vacuum_density_is_standard_gaussian(self):
        state = new_state([(1, 0)]).activate_probe(ProbeMode(0.0, 0.3))
        density = oracle_homodyne_density(oracle_embed(state, 30))
        grid = np.linspace(-6, 6, 401)
        np.testing.assert_allclose(density(grid), stats.norm.pdf(grid), atol=1e-12)

    def test_coherent_density_is_displaced_gaussian(self):
        state = new_state([(1, 0)]).activate_probe(ProbeMode(2.0, 0.3))
        density = oracle_homodyne_density(oracle_embed(state, 60))
        grid = np.linspace(-2, 10, 601)
        assert np.max(np.abs(density(grid) - stats.norm.pdf(grid, loc=4.0))) < 1e-8

    def test_parity_state_density_matches_branch_model(self):
        state = parity_state(2.0, 0.5)
        embedded = oracle_embed(state, required_truncation(2.0) + 5)
        grid = np.linspace(2 * 2 * math.cos(0.5) - 10, 2 * 2 + 10, 2001)
        deviation = np.max(
            np.abs(oracle_homodyne_density(embedded)(grid) - outcome_density(state)(grid))
        )
        assert deviation < 1e-6

    @pytest.mark.parametrize(
        "alpha, theta, c, d",
        [(0.3, 0.7, (0.6, 0.8j), (0.28, 0.96)), (2.2, 1.9, (SQRT_HALF, SQRT_HALF), (0.8, -0.6j)),
         (3.0, 0.0, (0.6, 0.8), (1.0, 0.0))],
    )
    def test_matches_complex_matmul(self, alpha, theta, c, d):
        # the real-arithmetic density against |C psi|^2 with complex C
        embedded = oracle_embed(parity_state(alpha, theta, c, d), required_truncation(alpha) + 5)
        grid = np.linspace(2 * alpha * math.cos(theta) - 10, 2 * alpha + 10, 2001)
        psi = oscillator_eigenfunctions(embedded.n_trunc, grid)
        rows = embedded.vector.reshape(-1, embedded.n_trunc + 1)  # one per basis string
        expected = np.sum(np.abs(rows @ psi) ** 2, 0)
        got = oracle_homodyne_density(embedded)(grid)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(expected)
        assert oracle_homodyne_density(embedded)(grid[700]) == pytest.approx(got[700], rel=1e-14)


def recurrence_eigenfunctions(n_max, x):
    """The oscillator recurrence as one expression per row."""
    u = x / math.sqrt(2.0)
    psi = np.empty((n_max + 1, x.size))
    psi[0] = (2.0 * math.pi) ** -0.25 * np.exp(-0.25 * x**2)
    if n_max >= 1:
        psi[1] = math.sqrt(2.0) * u * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = math.sqrt(2.0 / (n + 1)) * u * psi[n] - math.sqrt(n / (n + 1)) * psi[n - 1]
    return psi


class TestOscillatorEigenfunctions:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 45])
    def test_in_place_rows_equal_the_recurrence(self, n_max):
        x = np.linspace(-25.0, 31.0, 2001)
        np.testing.assert_array_equal(
            oscillator_eigenfunctions(n_max, x), recurrence_eigenfunctions(n_max, x)
        )

    def test_ground_state_matches_kernel_normalization(self):
        x = np.linspace(-5, 5, 11)
        psi = oscillator_eigenfunctions(0, x)
        expected = (2 * math.pi) ** -0.25 * np.exp(-0.25 * x**2)
        np.testing.assert_allclose(psi[0], expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 7, 25, 42, 60])
    def test_recurrence_stays_normalized_to_n60(self, n):
        total, _ = integrate.quad(
            lambda x: oscillator_eigenfunctions(n, np.array([x]))[n, 0] ** 2,
            -40,
            40,
            limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality_of_neighbouring_levels(self):
        grid = np.linspace(-40, 40, 40001)
        psi = oscillator_eigenfunctions(12, grid)
        gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], grid, axis=-1)
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-8)


def test_randomized_commuting_diagram_small_amplitudes():
    """Branch model and oracle agree on evolution for random alpha, theta."""
    rng = np.random.default_rng(123)
    for _ in range(15):
        alpha = rng.uniform(0.3, 3.0)
        theta = rng.uniform(0.05, math.pi)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = amps[:2] / np.linalg.norm(amps[:2])
        d = amps[2:] / np.linalg.norm(amps[2:])
        state = parity_state(alpha, theta, c=tuple(c), d=tuple(d))
        n = required_truncation(alpha) + 5
        base = new_state([tuple(c), tuple(d)]).activate_probe(ProbeMode(alpha, theta))
        embedded = oracle_embed(base, n)
        for coupling in build_parity_coupling_pair(0, 1):
            embedded = oracle_cross_kerr(embedded, coupling)
        assert oracle_fidelity(embedded, oracle_embed(state, n)) >= 1 - 1e-9

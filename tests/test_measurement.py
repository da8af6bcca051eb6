"""Homodyne kernel, outcome density, sampler, collapse, and QND readout."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from kerrgate import (
    ContractError,
    HybridState,
    ProbeMode,
    SingleQubitGate,
    ValidationError,
    apply_cross_kerr,
    apply_single_qubit,
    build_parity_coupling_pair,
    diagonal_gate,
    fidelity,
    kernel_value,
    new_state,
    norm_squared,
    outcome_density,
    qnd_photon_measure,
    sample_and_collapse,
    sample_quadrature,
)
from kerrgate import batch
from kerrgate.analysis import p_error
from kerrgate.measurement import gaussian

SQRT_HALF = 1.0 / math.sqrt(2.0)
TWO_PI_QUARTER = (2.0 * math.pi) ** -0.25


def parity_state(c, d, alpha, theta):
    """Pre-measurement state of the parity detector on a product input."""
    state = new_state([c, d]).activate_probe(ProbeMode(alpha, theta))
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
    return state


def uniform_parity_state(alpha, theta):
    return parity_state((SQRT_HALF, SQRT_HALF), (SQRT_HALF, SQRT_HALF), alpha, theta)


# ---------------------------------------------------------------------------
# kernel


class TestKernel:
    def test_peak_value_at_twice_real_amplitude(self):
        beta = 1.7
        assert kernel_value(2 * beta, beta) == pytest.approx(0.63161878, abs=1e-8)
        assert kernel_value(2 * beta, beta) == pytest.approx(TWO_PI_QUARTER, abs=1e-15)

    def test_vacuum_kernel_at_origin(self):
        assert kernel_value(0.0, 0.0) == pytest.approx(TWO_PI_QUARTER)

    def test_squared_kernel_normalizes_for_complex_label(self):
        beta = 3 + 2j
        total, _ = integrate.quad(lambda x: abs(kernel_value(x, beta)) ** 2, -20, 40)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_real_label_magnitude_matches_gaussian_form(self):
        beta, x = 2.5, 3.1
        expected = math.exp(-0.25 * (x - 2 * beta) ** 2) * TWO_PI_QUARTER
        assert abs(kernel_value(x, beta)) == pytest.approx(expected, abs=1e-15)

    def test_kernel_overlap_reproduces_coherent_overlap(self):
        # integral over x of conj(<x|b'>) <x|b> equals <b'|b>
        from kerrgate import coherent_overlap

        b1, b2 = 1.2 + 0.4j, 0.8 - 0.3j
        re, _ = integrate.quad(
            lambda x: (kernel_value(x, b2).conjugate() * kernel_value(x, b1)).real, -15, 15
        )
        im, _ = integrate.quad(
            lambda x: (kernel_value(x, b2).conjugate() * kernel_value(x, b1)).imag, -15, 15
        )
        expected = coherent_overlap(b2, b1)
        assert complex(re, im) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("x", [2e3, 1e160, math.inf, -math.inf])
    @pytest.mark.parametrize("beta", [100.0, 100 + 5j])
    def test_unreachable_outcome_has_zero_amplitude(self, x, beta):
        # the square overflows, or the magnitude underflows, before any phase
        assert kernel_value(x, beta) == 0j

    def test_nan_outcome_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="nan"):
            kernel_value(math.nan, 1.0 + 0.5j)

    def test_overflowing_phase_is_a_validation_error(self):
        # at x = 2 Re beta the magnitude is 1, but Im beta (x - Re beta) overflows
        with pytest.raises(ValidationError, match="phase .* is inf"):
            kernel_value(2e154, 1e154 + 1e155j)


# ---------------------------------------------------------------------------
# outcome density


class TestOutcomeDensity:
    def test_parity_state_density_is_equal_weight_bimodal(self):
        alpha, theta = 8.0, 0.5
        state = uniform_parity_state(alpha, theta)
        density = outcome_density(state)
        grid = np.linspace(2 * alpha * math.cos(theta) - 8, 2 * alpha + 8, 1501)
        mixture = 0.5 * stats.norm.pdf(grid, loc=2 * alpha) + 0.5 * stats.norm.pdf(
            grid, loc=2 * alpha * math.cos(theta)
        )
        np.testing.assert_allclose(density(grid), mixture, atol=1e-12)
        mass, _ = integrate.quad(density, grid[0], grid[-1])
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_hh_input_gives_single_gaussian(self):
        alpha = 5.0
        state = parity_state((1, 0), (1, 0), alpha, 0.5)
        grid = np.linspace(2 * alpha - 8, 2 * alpha + 8, 801)
        np.testing.assert_allclose(
            outcome_density(state)(grid), stats.norm.pdf(grid, loc=2 * alpha), atol=1e-12
        )

    def test_zero_theta_gives_single_gaussian_for_any_input(self):
        alpha = 4.0
        state = parity_state((0.6, 0.8), (SQRT_HALF, SQRT_HALF), alpha, 0.0)
        grid = np.linspace(2 * alpha - 8, 2 * alpha + 8, 801)
        np.testing.assert_allclose(
            outcome_density(state)(grid), stats.norm.pdf(grid, loc=2 * alpha), atol=1e-12
        )

    def test_density_normalizes_with_interfering_labels(self):
        # same basis carrying two labels: interference term must keep mass 1
        probe = ProbeMode(2.0, 0.7)
        state = HybridState.from_branches(
            1,
            [(SQRT_HALF, "H", 0), (SQRT_HALF, "H", 1)],
            probe=probe,
        )
        scale = 1.0 / math.sqrt(norm_squared(state))
        state = HybridState.from_branches(
            1, [(b.amplitude * scale, b.basis, b.phase) for b in state.branches], probe=probe
        )
        mass, _ = integrate.quad(outcome_density(state), -10, 25)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_inactive_probe_is_contract_error(self):
        with pytest.raises(ContractError):
            outcome_density(new_state([(1, 0)]))


#: a fixed unitary with no zero entry, standing in for a random gate
GATE = np.exp(0.3j) * np.array(
    [
        [np.exp(1.1j) * math.cos(0.9), np.exp(-0.7j) * math.sin(0.9)],
        [-np.exp(0.7j) * math.sin(0.9), np.exp(-1.1j) * math.cos(0.9)],
    ]
)


def interfering_state(qubit, read_out=False):
    """Parity kicks, then :data:`GATE` on ``qubit``: every basis string holds
    two probe labels, so same-basis branches interfere.  A gate after the
    kicks leaves the probe's reduced state alone, so the pair terms cancel
    across basis strings; with ``read_out`` the qubit is then read as H,
    which keeps two labels per remaining basis string and the pair terms
    that do not cancel."""
    state = parity_state((0.6, 0.8j), (0.28, 0.96), 1.3, 0.9)
    state = apply_single_qubit(state, SingleQubitGate(GATE, qubit))
    if read_out:
        _, state = qnd_photon_measure(state, qubit, None, force_outcome="H")
    return state


def einsum_density(state, xs):
    """The outcome density as a per-basis-group einsum over complex kernels."""
    probe = state.probe
    groups = {}
    for b in state.branches:
        groups.setdefault(b.basis, []).append(b)
    out = np.zeros_like(xs)
    for group in groups.values():
        amps = np.array([b.amplitude for b in group])
        labels = np.array([probe.label(b.phase) for b in group])
        re, im = labels.real[:, None], labels.imag[:, None]
        v = (
            amps[:, None]
            * TWO_PI_QUARTER
            * np.exp(-0.25 * (xs[None, :] - 2.0 * re) ** 2)
            * np.exp(1j * im * (xs[None, :] - re))
        )
        out += np.real(np.einsum("ix,jx->x", v, v.conj()))
    return out


#: 8 branches over 4 basis strings: same-basis branches interfere
CROSS_STATE = interfering_state(0)


def diagonal_density(state, xs):
    """The density without its same-basis pair terms."""
    return sum(
        abs(b.amplitude) ** 2
        * TWO_PI_QUARTER**2
        * np.exp(-0.5 * (xs - 2.0 * state.probe.label(b.phase).real) ** 2)
        for b in state.branches
    )


class TestOutcomeDensityCrossTerms:
    """The same-basis pair terms, which no circuit's pre-measurement state
    reaches, against the einsum over every pair."""

    XS = np.linspace(-8.0, 14.0, 2001)

    def test_state_has_same_basis_branches(self):
        bases = [b.basis for b in CROSS_STATE.branches]
        assert (len(bases), len(set(bases))) == (8, 4)

    @pytest.mark.parametrize(
        "state",
        [
            CROSS_STATE,
            interfering_state(0, read_out=True),
            parity_state((0.6, 0.8j), (0.28, 0.96), 2.4, 1.1),
        ],
        ids=["interfering", "read-out", "one-branch-per-basis"],
    )
    def test_matches_einsum_over_all_pairs(self, state):
        expected = einsum_density(state, self.XS)
        got = outcome_density(state)(self.XS)
        assert np.max(np.abs(got - expected)) <= 1e-15 * max(1.0, np.max(expected))

    def test_cross_terms_shape_a_read_out_state(self):
        state = interfering_state(0, read_out=True)
        got = outcome_density(state)(self.XS)
        assert np.max(np.abs(got - diagonal_density(state, self.XS))) > 1e-3

    def test_later_qubit_gates_leave_first_probe_density_unchanged(self):
        # each basis string's pair terms are non-zero, but they cancel across
        # basis strings: the probe reads out as the plain parity state
        plain = outcome_density(parity_state((0.6, 0.8j), (0.28, 0.96), 1.3, 0.9))(self.XS)
        assert np.max(np.abs(outcome_density(CROSS_STATE)(self.XS) - plain)) <= 1e-15

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_integrates_to_one(self, qubit):
        state = interfering_state(qubit, read_out=True)
        mass, _ = integrate.quad(outcome_density(state), -15, 20, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_collapse_consistency_density_equals_weighted_norm():
    """p(x) equals the squared norm of the kernel-weighted state, any fixed x."""
    alpha, theta = 3.0, 0.8
    state = parity_state((0.6, 0.8), (0.28, 0.96j), alpha, theta)
    probe = state.probe
    density = outcome_density(state)
    for x in (2 * alpha - 1.3, alpha * (1 + math.cos(theta)), 2 * alpha * math.cos(theta) + 0.4):
        weighted = HybridState.from_branches(
            state.n_qubits,
            [
                (b.amplitude * kernel_value(x, probe.label(b.phase)), b.basis, 0)
                for b in state.branches
            ],
        )
        assert density(x) == pytest.approx(norm_squared(weighted), abs=1e-10)


# ---------------------------------------------------------------------------
# sample_quadrature


def zero_norm_state():
    return HybridState.from_branches(1, [], probe=ProbeMode(2.0, 0.5))


#: ``gaussian``'s largest |z|, at ``1 - u1 = 2**-53``
BOX_MULLER_EDGE = math.sqrt(-2.0 * math.log(2.0**-53))


class TestGaussian:
    """Box-Muller normals checked against the standard library only: both
    engines draw their noise from :func:`gaussian`, so replaying one engine
    through the other cannot certify it."""

    #: draws, and the false-alarm probability each statistical check allows
    N = 100_000
    FALSE_ALARM = 1e-6

    @pytest.fixture(scope="class")
    def z(self):
        # the two normals of each cnot shot, made from its words 1, 2 and 4, 5
        words = np.random.default_rng(2024).random((self.N // 2, batch.CIRCUITS["cnot"].words))
        return np.sort(gaussian(words[:, [1, 4]], words[:, [2, 5]]).ravel())

    def test_kolmogorov_smirnov_against_math_erfc(self, z):
        """Dvoretzky-Kiefer-Wolfowitz with Massart's constant,
        P(D > eps) <= 2 exp(-2 N eps**2), sets eps for a false alarm of at
        most 1e-6 (eps ~ 0.0085 at N = 1e5)."""
        eps = math.sqrt(math.log(2.0 / self.FALSE_ALARM) / (2.0 * self.N))
        phi = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z])
        n = len(z)
        d = max(np.max(np.arange(1, n + 1) / n - phi), np.max(phi - np.arange(n) / n))
        assert d < eps

    def test_draws_are_bounded_and_symmetric(self, z):
        """Signs: Hoeffding, P(|k - N/2| >= t) <= 2 exp(-2 t**2 / N), sets t
        for a false alarm of at most 1e-6."""
        assert BOX_MULLER_EDGE == pytest.approx(8.5717, abs=1e-4)
        assert np.all(np.abs(z) <= BOX_MULLER_EDGE)
        t = math.sqrt(self.N * math.log(2.0 / self.FALSE_ALARM) / 2.0)
        assert abs(np.count_nonzero(z > 0) - self.N / 2) < t

    def test_edges(self):
        top = np.nextafter(1.0, 0.0)  # the largest random()
        u1 = np.array([0.0, top, top, 0.5])
        u2 = np.array([0.3, 0.0, 0.5, 0.25])
        z = gaussian(u1, u2)
        assert z[0] == 0.0
        assert z[1] == pytest.approx(BOX_MULLER_EDGE, rel=1e-15)
        assert z[2] == pytest.approx(-BOX_MULLER_EDGE, rel=1e-15)
        assert abs(z[3]) < 1e-15


class TestSampleQuadrature:
    @pytest.mark.parametrize("theta", [0.4, 0.0])
    def test_samples_follow_the_two_peak_mixture(self, theta):
        """One-sample KS against the exact mixture CDF, fixed seed."""
        alpha = 6.0
        state = uniform_parity_state(alpha, theta)
        xs = sample_quadrature(state, np.random.default_rng(11), 20_000)

        def cdf(x):
            return 0.5 * stats.norm.cdf(x, loc=2 * alpha) + 0.5 * stats.norm.cdf(
                x, loc=2 * alpha * math.cos(theta)
            )

        assert stats.kstest(xs, cdf).pvalue > 0.01

    def test_basis_with_two_labels_is_rejected(self):
        # one basis string on two probe labels: the peaks interfere, so the
        # outcome is no Gaussian mixture; only a forced collapse accepts it
        probe = ProbeMode(2.0, 0.5)
        state = HybridState.from_branches(
            1, [(SQRT_HALF, "H", 0), (SQRT_HALF, "H", 1)], probe=probe
        )
        with pytest.raises(ValidationError, match="one branch per basis string"):
            sample_quadrature(state, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="one branch per basis string"):
            sample_and_collapse(state, np.random.default_rng(0))
        _, post = sample_and_collapse(state, np.random.default_rng(0), force_x=probe.x0)
        assert norm_squared(post) == pytest.approx(1.0)

    def test_zero_norm_state_is_rejected(self):
        with pytest.raises(ValidationError, match="zero-norm"):
            sample_quadrature(zero_norm_state(), np.random.default_rng(0))

    def test_zero_norm_state_is_rejected_by_collapse(self):
        with pytest.raises(ValidationError, match="zero-norm"):
            sample_and_collapse(zero_norm_state(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# sample_and_collapse


#: forced outcomes no collapse can represent: nan, and values far past every peak
FAR_OUTCOMES = (math.nan, 1e10, 1e160, 1e300, math.inf, -math.inf)


class TestSampleAndCollapse:
    @pytest.mark.parametrize(
        "theta,x",
        [(theta, x) for x in FAR_OUTCOMES for theta in (0.0, 0.5)],
        # the nan cases keep their ids from before the far outcomes were added
        ids=[
            f"{theta}" if math.isnan(x) else f"{theta}-{x}"
            for x in FAR_OUTCOMES
            for theta in (0.0, 0.5)
        ],
    )
    def test_nan_outcome_is_rejected(self, theta, x):
        """A nan outcome makes every amplitude nan, and an outcome far past
        every peak (whose kernel underflows, overflows in its square or has
        an infinite phase) weighs every branch 0; neither leaves a state."""
        state = parity_state((0.6, 0.8), (0.28, 0.96), 5.0, theta)
        with pytest.raises(ValidationError, match=r"collapse at x=.* zero-norm"):
            sample_and_collapse(state, np.random.default_rng(0), force_x=x)

    def test_labels_of_one_basis_string_merge_in_the_collapse(self):
        # H on labels 0 and 1 and V on labels 0 and -1: the collapse weighs
        # each by its kernel and merges each basis string into one branch
        probe = ProbeMode(1.5, 0.6)
        amps = {("H", 0): 0.5, ("H", 1): 0.5j, ("V", -1): -0.5, ("V", 0): 0.5}
        state = HybridState.from_branches(
            1, [(a, basis, phase) for (basis, phase), a in amps.items()], probe=probe
        )
        x = 2.2
        _, post = sample_and_collapse(state, None, force_x=x)
        k = {phase: kernel_value(x, probe.label(phase)) for phase in (-1, 0, 1)}
        expected = {
            ("H",): 0.5 * k[0] + 0.5j * k[1],
            ("V",): 0.5 * k[0] - 0.5 * k[-1],
        }
        assert post.probe is None
        assert [(b.basis, b.phase) for b in post.branches] == [(("H",), 0), (("V",), 0)]
        scale = post.branches[0].amplitude / expected[("H",)]
        assert scale.real > 0.0 and scale.imag == pytest.approx(0.0, abs=1e-12)
        for b in post.branches:
            assert b.amplitude == pytest.approx(scale * expected[b.basis], abs=1e-14)
        assert norm_squared(post) == pytest.approx(1.0, abs=1e-12)

    def test_even_outcome_projects_onto_even_subspace(self):
        # x > x0 -> c0 d0 |HH> + c1 d1 |VV>
        alpha, theta = 50.0, math.acos(1 - 9.0 / (2 * 50.0))  # X_d = 9
        c, d = (0.6, 0.8), (0.28, 0.96)
        state = parity_state(c, d, alpha, theta)
        record, collapsed = sample_and_collapse(state, np.random.default_rng(0), force_x=2 * alpha)
        assert record.parity == "even"
        expected = HybridState.from_branches(
            2, [(c[0] * d[0], "HH", 0), (c[1] * d[1], "VV", 0)]
        )
        assert fidelity(collapsed, expected) == pytest.approx(1.0, abs=1e-12)

    def test_odd_outcome_carries_measured_phase(self):
        # x < x0 -> c0 d1 e^{i phi} |HV> + c1 d0 e^{-i phi} |VH>
        alpha, theta = 50.0, math.acos(1 - 12.0 / (2 * 50.0))
        c, d = (0.6, 0.8), (0.28, 0.96)
        state = parity_state(c, d, alpha, theta)
        x = 2 * alpha * math.cos(theta) - 0.7
        record, collapsed = sample_and_collapse(state, np.random.default_rng(0), force_x=x)
        assert record.parity == "odd"
        ph = np.exp(1j * record.phi)
        expected = HybridState.from_branches(
            2, [(c[0] * d[1] * ph, "HV", 0), (c[1] * d[0] / ph, "VH", 0)]
        )
        assert fidelity(collapsed, expected) == pytest.approx(1.0, abs=1e-9)

    def test_record_phi_matches_kernel_derived_form(self):
        alpha, theta = 7.0, 0.6
        state = uniform_parity_state(alpha, theta)
        x = 2 * alpha * math.cos(theta) - 1.1
        record, _ = sample_and_collapse(state, np.random.default_rng(3), force_x=x)
        expected = (alpha * x * math.sin(theta) - 0.5 * alpha**2 * math.sin(2 * theta)) % (
            2 * math.pi
        )
        assert record.phi == pytest.approx(expected, abs=1e-9)
        assert record.x0 == pytest.approx(alpha * (1 + math.cos(theta)))

    def test_hh_input_even_frequency_matches_analytic_error(self):
        # single-Gaussian tail mass vs threshold, cross-checked by Monte Carlo
        alpha, theta = 8.0, 0.734  # p_error ~ 2e-2
        perr = p_error(alpha, theta)
        assert 1e-3 < perr < 1e-1
        shots = 20_000
        odd = 0
        for i in range(shots):
            state = parity_state((1, 0), (1, 0), alpha, theta)
            record, collapsed = sample_and_collapse(state, np.random.default_rng([21, i]))
            if record.parity == "odd":
                odd += 1
            if i < 100:
                # the collapsed state is |HH> regardless of classification
                assert fidelity(collapsed, new_state([(1, 0), (1, 0)])) == pytest.approx(1.0)
        sigma = math.sqrt(perr * (1 - perr) / shots)
        assert abs(odd / shots - perr) < 3 * sigma

    def test_phase_undo_restores_odd_state_for_every_sampled_x(self):
        """Inverse correction phases recover c0 d1 |HV> + c1 d0 |VH> exactly."""
        alpha, theta = 6.0, 0.9
        c0, c1, d0, d1 = 0.6, 0.8, 0.28, 0.96
        target = HybridState.from_branches(
            2, [(c0 * d1, "HV", 0), (c1 * d0, "VH", 0)]
        )
        pure_odd = HybridState.from_branches(
            2, [(c0 * d1 / math.sqrt(c0**2 * d1**2 + c1**2 * d0**2), "HV", 0),
                (c1 * d0 / math.sqrt(c0**2 * d1**2 + c1**2 * d0**2), "VH", 0)]
        ).activate_probe(ProbeMode(alpha, theta))
        for coupling in build_parity_coupling_pair(0, 1):
            pure_odd = apply_cross_kerr(pure_odd, coupling)
        rng = np.random.default_rng(5)
        for _ in range(25):
            record, collapsed = sample_and_collapse(pure_odd, rng)
            corrected = apply_single_qubit(
                collapsed, diagonal_gate(0, -record.phi, record.phi)
            )
            assert fidelity(corrected, target) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e3, 1e5, 1e7, 1e9, 1e11])
    def test_phase_undo_is_exact_in_the_weak_kerr_limit(self, alpha):
        """At fixed xd = 20 the odd-branch phase grows like alpha^2 theta ~ 1e17
        rad; the recorded phi must still equal the collapse's phase mod 2 pi."""
        theta = 2.0 * math.asin(math.sqrt(20.0 / (4.0 * alpha)))
        c0, c1, d0, d1 = 0.6, 0.8, 0.28, 0.96
        state = parity_state((c0, c1), (d0, d1), alpha, theta)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = 2 * alpha * math.cos(theta) + rng.standard_normal()
            record, collapsed = sample_and_collapse(state, rng, force_x=x)
            assert record.parity == "odd"
            assert 0.0 <= record.phi <= 2 * math.pi
            corrected = apply_single_qubit(
                collapsed, diagonal_gate(0, -record.phi, record.phi)
            )
            target = HybridState.from_branches(
                2, [(c0 * d1, "HV", 0), (c1 * d0, "VH", 0)]
            )
            assert fidelity(corrected, target) == pytest.approx(1.0, abs=1e-12)

    def test_force_x_bypasses_sampling_deterministically(self):
        state = uniform_parity_state(5.0, 0.5)
        r1, s1 = sample_and_collapse(state, np.random.default_rng(0), force_x=9.0)
        r2, s2 = sample_and_collapse(state, np.random.default_rng(99), force_x=9.0)
        assert r1 == r2
        assert s1 == s2


# ---------------------------------------------------------------------------
# QND photon measurement


class TestQndPhotonMeasure:
    def test_v_eigenstate_yields_v_with_certainty(self):
        state = new_state([(0, 1)])
        outcome, post = qnd_photon_measure(state, 0, np.random.default_rng(0))
        assert outcome == "V"
        assert fidelity(post, state) == pytest.approx(1.0)

    def test_h_eigenstate_is_unchanged(self):
        state = new_state([(1, 0)])
        outcome, post = qnd_photon_measure(state, 0, np.random.default_rng(0))
        assert outcome == "H"
        assert post == state

    def test_photon_survives_measurement(self):
        state = new_state([(SQRT_HALF, SQRT_HALF), (0.6, 0.8)])
        _, post = qnd_photon_measure(state, 0, np.random.default_rng(1))
        assert post.n_qubits == 2  # nondestructive: the qubit is still there
        assert norm_squared(post) == pytest.approx(1.0, abs=1e-12)

    def test_born_rule_frequencies_on_superposition(self):
        shots = 100_000
        v_count = 0
        state = new_state([(SQRT_HALF, SQRT_HALF)])
        for i in range(shots):
            outcome, _ = qnd_photon_measure(state, 0, np.random.default_rng([17, i]))
            v_count += outcome == "V"
        sigma = math.sqrt(0.25 / shots)
        assert abs(v_count / shots - 0.5) < 3 * sigma

    def test_zero_norm_state_is_rejected(self):
        with pytest.raises(ValidationError, match="zero-norm"):
            qnd_photon_measure(zero_norm_state(), 0, np.random.default_rng(0))

    def test_forced_outcome_whose_mass_underflows_is_rejected(self):
        """A V amplitude of 1.9e-207 is a branch whose squared norm is zero."""
        t = 1.9e-207
        rotation = SingleQubitGate(
            np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]), 0
        )
        state = apply_single_qubit(new_state([(1, 0)]), rotation)
        assert len(state.branches) == 2
        with pytest.raises(ValidationError, match="forced outcome 'V' has zero probability"):
            qnd_photon_measure(state, 0, np.random.default_rng(0), force_outcome="V")

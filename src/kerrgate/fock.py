"""Dense truncated Fock-space oracle for validating the branch-label model.

The oracle expands every coherent label of the state's one active probe into
explicit Fock coefficients and evolves the full vector, so it shares no code
path with the branch model: a cross-Kerr kick is a diagonal phase per photon
number, and the homodyne density is assembled from harmonic-oscillator
eigenfunctions.  Those are real, so the density is evaluated in real
arithmetic, from the real and the imaginary parts of the Fock coefficients.  It is only meant for small probe
amplitudes (Fock cutoffs up to ~80); the branch model itself is exact at any
amplitude.  The cutoff is chosen from the truncation loss, the Poisson upper
tail of |alpha>'s photon number, summed here in plain floating point: the
runtime needs NumPy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ValidationError
from .optics import KerrCoupling, SingleQubitGate
from .states import HybridState, ProbeMode

#: largest admissible truncation loss when embedding a coherent state
TRUNCATION_BOUND = 1e-10


#: below this mean photon number e^-lam is a normal double, so a Poisson term
#: is built as a product; above it the term starts from its logarithm
_PRODUCT_LAM_MAX = 700.0

#: a Poisson tail stops at the first term this far below its largest one
_NEGLIGIBLE = 2.0**-60


def _poisson_term(k: int, lam: float) -> float:
    """P(N = k) for N ~ Poisson(lam), lam > 0.

    As the product e^-lam (lam / 1) ... (lam / k) every factor rounds once,
    so the relative error stays near k ulp.  The logarithmic form
    exp(k log lam - lam - lgamma(k + 1)) loses about (k log lam) ulp to the
    rounding of its exponent (~1e-13 at lam = 100, ~5e-12 at lam = 1600), so
    it serves only the means where e^-lam underflows.
    """
    if lam >= _PRODUCT_LAM_MAX:
        return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
    p = math.exp(-lam)
    for j in range(1, k + 1):
        p *= lam / j
    return p


def _tail_terms(lam: float, k: int, scale: float | None = None) -> list[float]:
    """Poisson terms p_k, p_{k+1}, ..., which must decrease (k + 1 > lam),
    until one falls to ``_NEGLIGIBLE`` times ``scale`` (by default p_k) or
    underflows."""
    p = _poisson_term(k, lam)
    floor = (p if scale is None else scale) * _NEGLIGIBLE
    terms = []
    while p > floor and p > 0.0:
        terms.append(p)
        k += 1
        p *= lam / k
    return terms


def truncation_loss(alpha: float, n_trunc: int) -> float:
    """Probability mass of |alpha> beyond Fock level ``n_trunc``.

    This is the Poisson upper tail P(n > n_trunc) at mean lam = alpha**2,
    summed over its smaller side.  When the terms beyond ``n_trunc``
    decrease (n_trunc + 2 > lam) the tail is their sum.  Otherwise the
    cutoff lies below lam - ln 2, a lower bound on the Poisson median, so
    the tail exceeds 1/2 and 1 - P(n <= n_trunc) is good to an ulp.
    Against 50-digit ``mpmath.gammainc`` the relative error is below 1e-14
    for alpha <= 10, n_trunc <= 80 wherever the tail is at least 1e-290.
    An empty mode (alpha = 0) loses nothing, and a negative cutoff keeps no
    level: its loss is 1.
    """
    if not alpha > 0:
        return 0.0
    if n_trunc < 0:
        return 1.0
    lam = alpha**2
    if n_trunc + 2 > lam:
        return math.fsum(_tail_terms(lam, n_trunc + 1))
    # the head terms decrease from p_n towards p_0
    p = _poisson_term(n_trunc, lam)
    head = [p]
    for k in range(n_trunc, 0, -1):
        p *= k / lam
        if p <= head[0] * _NEGLIGIBLE:
            break
        head.append(p)
    return 1.0 - math.fsum(head)


def required_truncation(alpha: float, bound: float = TRUNCATION_BOUND) -> int:
    """Smallest cutoff n >= max(int(alpha**2), 1) meeting the truncation bound
    for amplitude ``alpha``.

    One pass: the Poisson terms beyond the first candidate decrease, so they
    are listed once, down to far below ``bound``, and summed from the far
    end; the tails P(n > m) grow as m falls, and the cutoff is the last m
    before the tail exceeds ``bound``.
    """
    if bound < 0:
        raise ValidationError(f"truncation bound must be >= 0, got {bound}")
    n = max(int(alpha**2), 1)
    if not alpha > 0:
        return n
    terms = _tail_terms(alpha**2, n + 1, scale=bound)
    tail = 0.0
    for i in range(len(terms) - 1, -1, -1):
        tail += terms[i]  # P(N > n + i)
        if tail > bound:
            return n + i + 1
    return n


def coherent_coefficients(beta: complex, n_trunc: int) -> np.ndarray:
    """Fock coefficients e^{-|beta|^2/2} beta^n / sqrt(n!), built iteratively."""
    coeffs = np.empty(n_trunc + 1, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, n_trunc + 1):
        coeffs[n] = coeffs[n - 1] * beta / math.sqrt(n)
    return coeffs


@dataclass(frozen=True)
class FockOracleState:
    """Dense vector over (basis strings) x (Fock levels of the probe).

    ``vector`` has shape ``(2**n_qubits, n_trunc + 1)``; basis strings index
    the first axis with H=0, V=1, qubit 0 most significant.
    """

    vector: np.ndarray
    probe: ProbeMode

    @property
    def n_qubits(self) -> int:
        return self.vector.shape[0].bit_length() - 1

    @property
    def n_trunc(self) -> int:
        return self.vector.shape[1] - 1


def _basis_index(basis: tuple[str, ...]) -> int:
    idx = 0
    for lab in basis:
        idx = (idx << 1) | (1 if lab == "V" else 0)
    return idx


def oracle_embed(state: HybridState, n_trunc: int) -> FockOracleState:
    """Expand a branch-label state with an active probe into the truncated
    Fock representation."""
    probe = state.require_probe()
    loss = truncation_loss(probe.alpha, n_trunc)
    if loss > TRUNCATION_BOUND:
        raise ValidationError(
            f"truncation loss {loss:.3e} at N={n_trunc} exceeds {TRUNCATION_BOUND:.0e} "
            f"for alpha={probe.alpha}; need N >= {required_truncation(probe.alpha)}"
        )
    vector = np.zeros((2**state.n_qubits, n_trunc + 1), dtype=complex)
    # branches share few labels (a parity kick leaves at most three), and the
    # coefficients depend on nothing else, so each label is expanded once
    expansions: dict[complex, np.ndarray] = {}
    for b in state.branches:
        label = probe.label(b.phase)
        if label not in expansions:
            expansions[label] = coherent_coefficients(label, n_trunc)
        vector[_basis_index(b.basis)] += b.amplitude * expansions[label]
    return FockOracleState(vector, probe)


def oracle_inner(a: FockOracleState, b: FockOracleState) -> complex:
    """<a|b> in the truncated space."""
    if a.vector.shape != b.vector.shape:
        raise ValidationError("oracle states have different shapes")
    return complex(np.vdot(a.vector, b.vector))


def oracle_fidelity(a: FockOracleState, b: FockOracleState) -> float:
    na = np.vdot(a.vector, a.vector).real
    nb = np.vdot(b.vector, b.vector).real
    return abs(oracle_inner(a, b)) ** 2 / (na * nb)


@lru_cache(maxsize=None)
def _trigger_mask(n_qubits: int, qubit_index: int, trigger: str) -> np.ndarray:
    """Read-only mask of the basis strings whose ``qubit_index`` is ``trigger``."""
    idx = np.arange(2**n_qubits)
    bit = (idx >> (n_qubits - 1 - qubit_index)) & 1
    mask = bit == (1 if trigger == "V" else 0)
    mask.setflags(write=False)  # cached and shared by every kick
    return mask


def oracle_cross_kerr(state: FockOracleState, coupling: KerrCoupling) -> FockOracleState:
    """Exact diagonal unitary: e^{i sign theta n} per probe photon number on
    the triggered basis strings."""
    phases = np.exp(1j * coupling.sign * state.probe.theta * np.arange(state.n_trunc + 1))
    mask = _trigger_mask(state.n_qubits, coupling.qubit_index, coupling.trigger_polarization)
    vector = state.vector.copy()
    vector[mask] = vector[mask] * phases
    return FockOracleState(vector, state.probe)


def oracle_apply_single_qubit(state: FockOracleState, gate: SingleQubitGate) -> FockOracleState:
    """Mix basis-string pairs differing on one qubit by the gate matrix."""
    n = state.n_qubits
    bitpos = n - 1 - gate.qubit_index
    m = gate.matrix
    vector = state.vector.copy()
    for idx in range(2**n):
        if (idx >> bitpos) & 1:
            continue
        ih, iv = idx, idx | (1 << bitpos)
        vh, vv = state.vector[ih], state.vector[iv]
        vector[ih] = m[0, 0] * vh + m[0, 1] * vv
        vector[iv] = m[1, 0] * vh + m[1, 1] * vv
    return FockOracleState(vector, state.probe)


def oscillator_eigenfunctions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions psi_n(x) for the x = a + a^dagger
    convention, rows n = 0..n_max.

    psi_n(x) = (2 pi)^{-1/4} (2^n n!)^{-1/2} H_n(x / sqrt 2) e^{-x^2/4},
    evaluated by the orthonormal three-term recurrence (the raw Hermite
    polynomials overflow near n = 60; the normalized functions stay bounded)

        psi_{n+1} = sqrt(2 / (n + 1)) u psi_n - sqrt(n / (n + 1)) psi_{n-1},

    with u = x / sqrt 2.  Each row is written in place, in that operation
    order, so no row allocates a temporary.
    """
    x = np.asarray(x, dtype=float)
    u = x / math.sqrt(2.0)
    psi = np.empty((n_max + 1, x.size), dtype=float)
    psi[0] = (2.0 * math.pi) ** -0.25 * np.exp(-0.25 * x**2)
    if n_max >= 1:
        np.multiply(u, math.sqrt(2.0), out=psi[1])
        psi[1] *= psi[0]
    tail = np.empty_like(u)
    for n in range(1, n_max):
        row = psi[n + 1]
        np.multiply(u, math.sqrt(2.0 / (n + 1)), out=row)
        row *= psi[n]
        np.multiply(psi[n - 1], math.sqrt(n / (n + 1)), out=tail)
        row -= tail
    return psi


def oracle_homodyne_density(state: FockOracleState) -> Callable[[np.ndarray], np.ndarray]:
    """Exact X-quadrature density of an oracle state's probe.

    The density is sum_s |sum_n c_sn psi_n(x)|^2 over basis strings s.  The
    eigenfunctions are real, so it is evaluated as
    sum_s (Re c_s . psi)^2 + (Im c_s . psi)^2: one real matrix product with
    the real and imaginary coefficient rows stacked.
    """
    # (2 * 2**n, n_trunc + 1): the real rows, then the imaginary rows
    parts = np.concatenate([state.vector.real, state.vector.imag])

    def density(x):
        x = np.asarray(x, dtype=float)
        psi = oscillator_eigenfunctions(state.n_trunc, np.atleast_1d(x))
        waves = parts @ psi  # (2 * 2**n, len(x))
        out = np.einsum("sx,sx->x", waves, waves)
        return out if x.shape else float(out[0])

    return density

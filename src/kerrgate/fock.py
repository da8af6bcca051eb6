"""Dense truncated Fock-space oracle for validating the branch-label model.

The oracle expands every coherent label into explicit Fock coefficients and
evolves the full vector, so it shares no code path with the branch model: a
cross-Kerr kick is a diagonal phase per photon number, and the homodyne
density is assembled from harmonic-oscillator eigenfunctions.  Those are
real, so the density is evaluated in real arithmetic, from the real and the
imaginary parts of the Fock coefficients.  It is only meant for small probe
amplitudes (Fock cutoffs up to ~80); the branch model itself is exact at any
amplitude.  The cutoff is chosen from the truncation loss, the Poisson upper
tail of |alpha>'s photon number, which ``scipy.special.pdtrc`` gives
directly; ``scipy.stats`` is not imported, because loading it dominated the
package's start-up time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import ValidationError
from .optics import KerrCoupling, SingleQubitGate
from .states import HybridState, ProbeMode

#: largest admissible truncation loss when embedding a coherent state
TRUNCATION_BOUND = 1e-10


def truncation_loss(alpha: float, n_trunc: int) -> float:
    """Probability mass of |alpha> beyond Fock level ``n_trunc``.

    This is the Poisson upper tail P(n > n_trunc) at mean alpha**2,
    ``scipy.special.pdtrc(n_trunc, alpha**2)``, the same function
    ``scipy.stats.poisson.sf`` evaluates, so every value is bit-identical to
    it.  A negative cutoff keeps no level: its loss is 1 (``pdtrc`` would
    return NaN there).
    """
    if not alpha > 0:
        return 0.0
    if n_trunc < 0:
        return 1.0
    return float(special.pdtrc(n_trunc, alpha**2))


def required_truncation(alpha: float, bound: float = TRUNCATION_BOUND) -> int:
    """Smallest cutoff meeting the truncation bound for amplitude ``alpha``."""
    n = max(int(alpha**2), 1)
    while truncation_loss(alpha, n) > bound:
        n += 1
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
    """Dense vector over (basis strings) x (Fock levels per probe).

    ``vector`` has shape ``(2**n_qubits,) + (n_trunc + 1,) * len(probes)``;
    basis strings index the first axis with H=0, V=1, qubit 0 most
    significant.
    """

    n_qubits: int
    n_trunc: int
    vector: np.ndarray
    probes: tuple[ProbeMode, ...]


def _basis_index(basis: tuple[str, ...]) -> int:
    idx = 0
    for lab in basis:
        idx = (idx << 1) | (1 if lab == "V" else 0)
    return idx


def oracle_embed(state: HybridState, n_trunc: int) -> FockOracleState:
    """Expand a branch-label state into the truncated Fock representation."""
    for probe in state.probes:
        loss = truncation_loss(probe.alpha, n_trunc)
        if loss > TRUNCATION_BOUND:
            raise ValidationError(
                f"truncation loss {loss:.3e} at N={n_trunc} exceeds {TRUNCATION_BOUND:.0e} "
                f"for alpha={probe.alpha}; need N >= {required_truncation(probe.alpha)}"
            )
    shape = (2**state.n_qubits,) + (n_trunc + 1,) * len(state.probes)
    vector = np.zeros(shape, dtype=complex)
    # branches share few labels (a parity kick leaves at most three), and the
    # coefficients depend on nothing else, so each label is expanded once
    expansions: dict[complex, np.ndarray] = {}
    for b in state.branches:
        block = np.array(b.amplitude)
        for p, probe in enumerate(state.probes):
            label = probe.label(b.phases[p])
            if label not in expansions:
                expansions[label] = coherent_coefficients(label, n_trunc)
            block = np.multiply.outer(block, expansions[label])
        vector[_basis_index(b.basis)] += block
    return FockOracleState(state.n_qubits, n_trunc, vector, state.probes)


def oracle_inner(a: FockOracleState, b: FockOracleState) -> complex:
    """<a|b> in the truncated space."""
    if a.vector.shape != b.vector.shape:
        raise ValidationError("oracle states have different shapes")
    return complex(np.vdot(a.vector, b.vector))


def oracle_fidelity(a: FockOracleState, b: FockOracleState) -> float:
    na = np.vdot(a.vector, a.vector).real
    nb = np.vdot(b.vector, b.vector).real
    return abs(oracle_inner(a, b)) ** 2 / (na * nb)


def _trigger_mask(n_qubits: int, qubit_index: int, trigger: str) -> np.ndarray:
    idx = np.arange(2**n_qubits)
    bit = (idx >> (n_qubits - 1 - qubit_index)) & 1
    return bit == (1 if trigger == "V" else 0)


def oracle_cross_kerr(state: FockOracleState, coupling: KerrCoupling) -> FockOracleState:
    """Exact diagonal unitary: e^{i sign theta n} per probe photon number on
    the triggered basis strings."""
    probe = state.probes[coupling.probe_index]
    phases = np.exp(
        1j * coupling.sign * probe.theta * np.arange(state.n_trunc + 1)
    )
    shape = [1] * state.vector.ndim
    shape[1 + coupling.probe_index] = state.n_trunc + 1
    mask = _trigger_mask(state.n_qubits, coupling.qubit_index, coupling.trigger_polarization)
    vector = state.vector.copy()
    vector[mask] = vector[mask] * phases.reshape(shape)[0]
    return FockOracleState(state.n_qubits, state.n_trunc, vector, state.probes)


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
    return FockOracleState(n, state.n_trunc, vector, state.probes)


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
    """Exact X-quadrature density of a single-probe oracle state.

    The density is sum_s |sum_n c_sn psi_n(x)|^2 over basis strings s.  The
    eigenfunctions are real, so it is evaluated as
    sum_s (Re c_s . psi)^2 + (Im c_s . psi)^2: one real matrix product with
    the real and imaginary coefficient rows stacked.
    """
    if len(state.probes) != 1:
        raise ValidationError("oracle homodyne density is defined for exactly one probe")

    # (2 * 2**n, n_trunc + 1): the real rows, then the imaginary rows
    parts = np.concatenate([state.vector.real, state.vector.imag])

    def density(x):
        x = np.asarray(x, dtype=float)
        psi = oscillator_eigenfunctions(state.n_trunc, np.atleast_1d(x))
        waves = parts @ psi  # (2 * 2**n, len(x))
        out = np.einsum("sx,sx->x", waves, waves)
        return out if x.shape else float(out[0])

    return density

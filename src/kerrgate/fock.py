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
import operator
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .measurement import _outcomes
from .optics import KerrCoupling, SingleQubitGate
from .states import HybridState, ProbeMode, _integer, _real, check_qubit

#: largest admissible truncation loss when embedding a coherent state
TRUNCATION_BOUND = 1e-10


#: below this mean photon number e^-lam is a normal double, so a Poisson term
#: is built as a product; above it the term starts from its logarithm
_PRODUCT_LAM_MAX = 700.0

#: a Poisson tail stops at the first term this far below its largest one
_NEGLIGIBLE = 2.0**-60

#: the most terms one walk over a Poisson tail or head lists, about 10 alpha
#: near the mean: alpha ~ 1e5, whose ~alpha**2 Fock levels no oracle vector
#: could hold anyway
_TAIL_TERMS_MAX = 2**20


def _poisson_term(k: int, lam: float) -> float:
    """P(N = k) for N ~ Poisson(lam), lam > 0.

    As the product e^-lam (lam / 1) ... (lam / k) every factor rounds once,
    so the relative error stays near k ulp.  The logarithmic form
    exp(k log lam - lam - lgamma(k + 1)) loses about (k log lam) ulp to the
    rounding of its exponent (~1e-13 at lam = 100, ~5e-12 at lam = 1600), so
    it serves only the means where e^-lam underflows.  Where lgamma(k + 1)
    overflows, past k ~ 2.6e305, the term is 0.0 beyond k = 3 lam.
    """
    if lam >= _PRODUCT_LAM_MAX:
        try:
            return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
        except OverflowError:  # P(N = k) < (e / 3)^k there
            if k // 3 > lam:
                return 0.0
            raise ValidationError(f"Poisson term past k = 2.6e305 at mean {lam:.3g}") from None
    p = math.exp(-lam)
    for j in range(1, k + 1):
        p *= lam / j
        if p == 0.0:  # underflowed: no positive factor lifts it again
            break
    return p


def _too_many_terms(lam: float) -> ValidationError:
    return ValidationError(f"Poisson sum at mean {lam:.3g} needs over {_TAIL_TERMS_MAX} terms")


def _tail_terms(lam: float, k: int, scale: float | None = None) -> list[float]:
    """Poisson terms p_k, p_{k+1}, ..., which must decrease (k + 1 > lam),
    until one falls to ``_NEGLIGIBLE`` times ``scale`` (by default p_k) or
    underflows; more than ``_TAIL_TERMS_MAX`` raise ``ValidationError``."""
    p = _poisson_term(k, lam)
    floor = (p if scale is None else scale) * _NEGLIGIBLE
    terms = []
    for k in range(k + 1, k + 2 + _TAIL_TERMS_MAX):
        if not (p > floor and p > 0.0):
            break
        terms.append(p)
        p *= lam / k
    else:
        raise _too_many_terms(lam)
    return terms


def _mean_photon_number(alpha: float) -> float:
    """``alpha**2``, for a finite real ``alpha >= 0`` whose square is finite."""
    value = _real(alpha, "alpha")
    try:
        lam = value**2
    except OverflowError:  # from the square
        lam = math.inf
    if not (value >= 0.0 and lam < math.inf):  # also catches NaN
        raise ValidationError(f"alpha must be finite and >= 0, with a finite square, got {alpha!r}")
    return lam


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
    level: its loss is 1.  A negative or non-finite ``alpha``, one whose
    square overflows, a cutoff that is not an integer, or a sum of more than
    ``_TAIL_TERMS_MAX`` terms (alpha past about 1e5) raises ``ValidationError``.
    """
    n_trunc = _integer(n_trunc, "cutoff")
    lam = _mean_photon_number(alpha)
    if not alpha > 0:
        return 0.0
    if n_trunc < 0:
        return 1.0
    if n_trunc + 2 > lam:
        return math.fsum(_tail_terms(lam, n_trunc + 1))
    # the head terms decrease from p_n towards p_0
    p = _poisson_term(n_trunc, lam)
    head = [p]
    stop = n_trunc - _TAIL_TERMS_MAX  # above 0, the walk stops short of p_0
    for k in range(n_trunc, max(stop, 0), -1):
        p *= k / lam
        if p <= head[0] * _NEGLIGIBLE:
            break
        head.append(p)
    else:
        if stop > 0:
            raise _too_many_terms(lam)
    return 1.0 - math.fsum(head)


def required_truncation(alpha: float) -> int:
    """Smallest cutoff n >= max(int(alpha**2), 1) whose truncation loss is
    at most ``TRUNCATION_BOUND`` for amplitude ``alpha``.

    One pass: the Poisson terms beyond the first candidate decrease, so they
    are listed once, down to far below the bound, and summed from the far
    end; the tails P(n > m) grow as m falls, and the cutoff is the last m
    before the tail exceeds the bound.  ``alpha`` must be finite and >= 0,
    with a finite square, and the list at most ``_TAIL_TERMS_MAX`` terms
    long (alpha below about 1e5), else ``ValidationError``.
    """
    lam = _mean_photon_number(alpha)
    n = max(int(lam), 1)
    if not alpha > 0:
        return n
    terms = _tail_terms(lam, n + 1, scale=TRUNCATION_BOUND)
    tail = 0.0
    for i in range(len(terms) - 1, -1, -1):
        tail += terms[i]  # P(N > n + i)
        if tail > TRUNCATION_BOUND:
            return n + i + 1
    return n


def coherent_coefficients(beta: complex, n_trunc: int) -> np.ndarray:
    """Fock coefficients e^{-|beta|^2/2} beta^n / sqrt(n!), built iteratively,
    for n = 0..n_trunc; a cutoff that is not an integer >= 0 raises
    ``ValidationError``."""
    if _integer(n_trunc, "cutoff") < 0:
        raise ValidationError(f"cutoff must be >= 0, got {n_trunc}")
    coeffs = np.empty(n_trunc + 1, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, n_trunc + 1):
        coeffs[n] = coeffs[n - 1] * beta / math.sqrt(n)
    return coeffs


@dataclass(frozen=True)
class FockOracleState:
    """Dense vector over the qubits' polarizations and the probe's Fock levels.

    ``vector`` has shape ``(2,) * n_qubits + (n_trunc + 1,)``: axis ``q`` is
    qubit ``q``'s polarization rail (H = 0, V = 1) and the last axis the
    probe's photon number.
    """

    vector: np.ndarray
    probe: ProbeMode

    @property
    def n_qubits(self) -> int:
        return self.vector.ndim - 1

    @property
    def n_trunc(self) -> int:
        return self.vector.shape[-1] - 1


#: the rail index of each polarization label
_RAIL = {"H": 0, "V": 1}


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
    vector = np.zeros((2,) * state.n_qubits + (n_trunc + 1,), dtype=complex)
    # branches share few labels (a parity kick leaves at most three), and the
    # coefficients depend on nothing else, so each label is expanded once
    expansions: dict[complex, np.ndarray] = {}
    for b in state.branches:
        label = probe.label(b.phase)
        if label not in expansions:
            expansions[label] = coherent_coefficients(label, n_trunc)
        # its basis string's rails; for one qubit an int, which indexes alike
        vector[operator.itemgetter(*b.basis)(_RAIL)] += b.amplitude * expansions[label]
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


def _rails(state: FockOracleState, qubit_index: int) -> tuple[tuple, tuple]:
    """The H and the V rail of qubit ``qubit_index``'s axis; a qubit out of
    range, as the Fock axis lies past the qubits', raises ``ValidationError``."""
    axis = (slice(None),) * check_qubit(qubit_index, state.n_qubits)
    return axis + (0,), axis + (1,)


def oracle_cross_kerr(state: FockOracleState, coupling: KerrCoupling) -> FockOracleState:
    """Exact diagonal unitary: e^{i sign theta n} per probe photon number on
    the coupled qubit's trigger rail."""
    phases = np.exp(1j * coupling.sign * state.probe.theta * np.arange(state.n_trunc + 1))
    rail = _rails(state, coupling.qubit_index)[_RAIL[coupling.trigger_polarization]]
    vector = state.vector.copy()
    vector[rail] *= phases
    return FockOracleState(vector, state.probe)


def oracle_apply_single_qubit(state: FockOracleState, gate: SingleQubitGate) -> FockOracleState:
    """Mix the H and V rails of one qubit's axis by the gate matrix."""
    h_rail, v_rail = _rails(state, gate.qubit_index)
    h, v = state.vector[h_rail], state.vector[v_rail]
    m = gate.matrix
    vector = np.empty_like(state.vector)
    vector[h_rail] = m[0, 0] * h + m[0, 1] * v
    vector[v_rail] = m[1, 0] * h + m[1, 1] * v
    return FockOracleState(vector, state.probe)


#: -log of the smallest normal double: where x^2/4 exceeds it, past |x| =
#: 53.23, the recurrence's seed psi_0 ~ e^{-x^2/4} is subnormal, then 0.0
_LOG_TINY = -math.log(sys.float_info.min)


def oscillator_eigenfunctions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions psi_n(x) for the x = a + a^dagger
    convention, rows n = 0..n_max.

    psi_n(x) = (2 pi)^{-1/4} (2^n n!)^{-1/2} H_n(x / sqrt 2) e^{-x^2/4},
    evaluated by the orthonormal three-term recurrence (the raw Hermite
    polynomials overflow near n = 60; the normalized functions stay bounded)

        psi_{n+1} = sqrt(2 / (n + 1)) u psi_n - sqrt(n / (n + 1)) psi_{n-1},

    with u = x / sqrt 2.  Each row is written in place, in that operation
    order, so no row allocates a temporary.  An ``x`` that is not an array
    of reals or holds a nan, read as both homodyne densities read it
    (:func:`~kerrgate.measurement._outcomes`), or whose ``x^2/4`` exceeds
    ``_LOG_TINY`` (|x| past about 53.23), where psi_0 underflows and every
    row would read 0 or lost digits, raises ``ValidationError``, as does an
    ``n_max`` that is not an integer >= 0.
    """
    if _integer(n_max, "n_max") < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    x = _outcomes(x)
    with np.errstate(over="ignore"):  # a square past the float range is refused below
        exponent = -0.25 * x**2
    if np.minimum.reduce(exponent, axis=None, initial=0.0) < -_LOG_TINY:
        bad = float(x[exponent < -_LOG_TINY][0])
        raise ValidationError(
            f"oscillator eigenfunctions underflow at x = {bad!r}: "
            f"e^(-x^2/4) is subnormal past |x| = {2.0 * math.sqrt(_LOG_TINY):.6g}"
        )
    u = x / math.sqrt(2.0)
    psi = np.empty((n_max + 1, x.size), dtype=float)
    psi[0] = (2.0 * math.pi) ** -0.25 * np.exp(exponent)
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

    The density is sum_s |sum_n c_sn psi_n(x)|^2 over basis strings s, the
    rows of the vector's qubit axes.  The eigenfunctions are real, so it is
    evaluated as sum_s (Re c_s . psi)^2 + (Im c_s . psi)^2: one real matrix
    product with the real and imaginary coefficient rows stacked.
    """
    rows = state.vector.reshape(-1, state.n_trunc + 1)  # a view: (2**n, n_trunc + 1)
    parts = np.concatenate([rows.real, rows.imag])  # the real rows, then the imaginary

    def density(x):
        psi = oscillator_eigenfunctions(state.n_trunc, np.atleast_1d(x))
        waves = parts @ psi  # (2 * 2**n, len(x))
        out = np.einsum("sx,sx->x", waves, waves)
        return out if np.ndim(x) else float(out[0])

    return density

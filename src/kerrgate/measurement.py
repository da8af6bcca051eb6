"""Homodyne X-quadrature measurement of a probe and QND polarization readout.

Quadrature convention
---------------------
The measured quadrature is ``x = a + a^dagger``: a coherent state ``|beta>``
has position wavefunction

    <x|beta> = (2 pi)^(-1/4) * exp(-x^2/4 + beta x - beta^2/2 - |beta|^2/2),

i.e. a Gaussian of variance 1 centred on ``2 Re beta``.  For real ``beta``
this is exactly ``exp(-(x - 2 beta)^2 / 4) / (2 pi)^(1/4)``.

Correction phase
----------------
Under this convention a branch attached to ``alpha e^{i theta}`` acquires,
relative to the ``alpha`` branch, the measurement-dependent phase

    phi(x) = alpha x sin(theta) - (alpha^2 / 2) sin(2 theta)   (mod 2 pi).

Note the ``alpha^2/2`` in the x-independent offset: a commonly quoted form of
this phase carries ``alpha^2 sin(2 theta)`` instead, which is inconsistent
with the kernel normalization above.  The feed-forward corrections in the
gates module always use the kernel-derived value, so they undo exactly the
phases the collapse produced; the discrepancy is a fixed offset and is
documented here rather than silently reconciled.

Sampling
--------
Every circuit built here keeps one branch per polarization basis string, so
an X outcome is drawn exactly from a mixture of unit-variance Gaussians, one
per branch.  :func:`outcome_density` also evaluates states whose branches
interfere (a basis string attached to two labels of the probe, as when a
rotation follows the kicks); sampling such a state raises
``ValidationError``.  A state has at most one active probe, and every
function here measures that one.

Every stochastic operation takes an explicit ``numpy.random.Generator``
and reads the words :data:`kerrgate.gates.STEP_KINDS` gives its step kind;
identical generators give identical outcomes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ValidationError
from .states import (
    Branch,
    HybridState,
    _amplitude,
    _array,
    _instance,
    _label,
    _merged_state,
    _real,
    norm_squared,
    renormalized,
    require_norm,
)

_TWO_PI = 2.0 * math.pi
#: (2 pi)^(-1/4), the kernel peak value
KERNEL_PEAK = _TWO_PI ** -0.25


def kernel_value(x: float, beta: complex) -> complex:
    """Position-space amplitude <x|beta> of a coherent state.

    Evaluated as ``exp(-(x - 2 Re beta)^2 / 4) * exp(i Im beta (x - Re beta))``
    times the peak constant; this rearrangement of the defining exponent is
    exact and avoids catastrophic cancellation for large |beta|.  An
    outcome so far from ``2 Re beta`` that the square overflows or the
    magnitude underflows has amplitude ``0j``, whatever its phase; an ``x``
    that is not a real or is NaN, a ``beta`` that is not a finite amplitude,
    or a phase that overflows where the magnitude does not, raises
    ``ValidationError``.
    """
    x = _real(x, "homodyne outcome x")
    if math.isnan(x):
        raise ValidationError("homodyne outcome x is nan")
    beta = _amplitude(beta, "coherent label beta")
    if not cmath.isfinite(beta):
        raise ValidationError(f"coherent label beta must be finite, got {beta!r}")
    a, b = beta.real, beta.imag
    try:
        mag = math.exp(-0.25 * (x - 2.0 * a) ** 2)
    except OverflowError:  # from the square
        return 0j
    if mag == 0.0:
        return 0j
    if b == 0.0:
        return KERNEL_PEAK * mag
    phase = b * (x - a)
    if not math.isfinite(phase):
        raise ValidationError(f"kernel phase Im(beta) (x - Re(beta)) is {phase} at x={x}, {beta=}")
    return KERNEL_PEAK * mag * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class HomodyneRecord:
    """Outcome of one probe quadrature measurement.

    ``parity`` is the threshold classification (even iff ``x > x0``) and
    ``phi`` the kernel-derived correction phase at the measured ``x``,
    reduced mod 2 pi.
    """

    x: float
    x0: float
    parity: Literal["even", "odd"]
    phi: float


def _outcomes(x) -> np.ndarray:
    """The homodyne outcome ``x``, a real or a 1-d array of reals
    (:func:`~kerrgate.states._array`), as a float array of its shape;
    ``ValidationError`` for any other kind or shape, or a NaN entry.  Both
    densities, the branch model's and the oracle's, read their outcomes
    through it."""
    xs = _array(x, "homodyne outcome x", "iuf").astype(float, copy=False)
    if xs.ndim > 1:
        raise ValidationError(
            f"homodyne outcome x must be a real or a 1-d array, got shape {xs.shape}"
        )
    if np.isnan(xs).any():
        raise ValidationError("homodyne outcome x is nan")
    return xs


def _same_basis_pairs(state: HybridState) -> list[tuple[int, int]]:
    """Index pairs ``i < j`` of branches that share a basis string."""
    if len({b.basis for b in state.branches}) == len(state.branches):
        return []  # every circuit built here
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, b in enumerate(state.branches):
        groups.setdefault(b.basis, []).append(i)
    return [pair for group in groups.values() for pair in itertools.combinations(group, 2)]


def outcome_density(state: HybridState) -> Callable[[np.ndarray], np.ndarray]:
    """Exact probability density of the X outcome when measuring the probe.

    With ``v_i(x) = a_i <x|l_i>`` the wavefunction of branch ``i``,

        p(x) = sum_i |a_i|^2 K^2 exp(-(x - 2 Re l_i)^2 / 2)
               + sum_{i<j, same basis} 2 Re(v_i conj v_j),

    where ``K`` is the kernel peak.  The diagonal terms are real Gaussians,
    all branches in one matrix product; only same-basis pairs interfere and
    need the complex kernel, and distinct basis strings add incoherently.
    When every basis string has one branch (every circuit built here) the
    pair list is empty and the interference term is skipped.  The returned
    callable accepts scalars or arrays and integrates to the state's squared
    norm (1 for normalized states); an outcome that is not a real, or is
    nan, raises ``ValidationError`` (:func:`_outcomes`), as
    :func:`kernel_value` does.
    """
    _instance(state, HybridState, "state")
    probe = state.require_probe()
    amps = np.array([b.amplitude for b in state.branches], dtype=complex)
    labels = np.array([probe.label(b.phase) for b in state.branches], dtype=complex)
    means = 2.0 * labels.real[:, None]
    weights = (amps.real**2 + amps.imag**2) * KERNEL_PEAK**2
    pairs = _same_basis_pairs(state)
    if pairs:
        first, second = np.array(pairs, dtype=int).T

    def waves(index, xs):
        # v_i(x) = a_i * <x|l_i> for the branches in ``index``
        re = labels.real[index, None]
        im = labels.imag[index, None]
        mag = np.exp(-0.25 * (xs - 2.0 * re) ** 2)
        # a phase that overflows has a zero magnitude, as in kernel_value
        phase = np.where(mag > 0.0, im * (xs - re), 0.0)
        return amps[index, None] * KERNEL_PEAK * mag * np.exp(1j * phase)

    def density(x):
        xs = _outcomes(x)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        # an outcome whose squared distance to a peak overflows has density 0
        with np.errstate(over="ignore"):
            out = weights @ np.exp(-0.5 * (xs - means) ** 2)
            if pairs:
                cross = waves(first, xs) * waves(second, xs).conj()
                out += 2.0 * np.sum(cross.real, axis=0)
        return float(out[0]) if scalar else out

    return density


def gaussian(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms ``u1, u2`` in [0, 1), by Box-Muller.

    ``sqrt(-2 log(1 - u1)) cos(2 pi u2)`` takes exactly two words of a
    generator's ``random()`` per normal, so a block of them is one
    ``random`` call.  ``1 - u1 >= 2**-53`` caps ``|z|`` at
    ``sqrt(-2 ln 2**-53) ~ 8.57``.  Both engines draw their noise here.
    The radius and the angle are each computed in place in one new array.
    """
    z = np.negative(u1)
    np.log1p(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    angle = u2 * _TWO_PI
    np.cos(angle, out=angle)
    z *= angle
    return z


def pick_branches(weights: np.ndarray, u: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """The branch each uniform ``u`` picks by ``weights``, one row for every
    ``u`` or a row each: the count of entries ``<= u`` of the weights' CDF,
    divided by its last entry so that no ``u`` in [0, 1) picks past the last
    nonzero weight.  ``totals`` is ``np.add.reduce(weights, axis=-1)``, which
    each caller has already taken to check the norm.  Both shot engines pick
    their branches here.

    A row every ``u`` shares (1-D weights, or one row) is searched once,
    ``searchsorted(u, "right")``, which is that same count: the CDF never
    decreases, or, once a weight is nan, is nan throughout, and the search
    places nan after every ``u``.  A row each is compared and counted.
    """
    cdf = np.add.accumulate(weights / totals[..., None], axis=-1)
    cdf /= cdf[..., -1:]
    if cdf.ndim == 1 or len(cdf) == 1:
        return cdf.reshape(-1).searchsorted(u, "right")
    return np.add.reduce(cdf <= u[:, None], axis=-1)


def sample_quadrature(state: HybridState, rng: np.random.Generator) -> float:
    """Draw one X sample from the outcome density.

    With one branch per basis string (every circuit built here) the density
    is exactly a mixture of unit-variance Gaussians, one per branch.  The
    sample reads one row, ``rng.random((1, 3))``, the homodyne words of
    :data:`kerrgate.gates.STEP_KINDS`, as a shot does: it picks a branch
    (:func:`pick_branches`) by the first word and adds the standard normal
    that :func:`gaussian` makes from the other two.  Box-Muller's tail
    stops near 8.57 sigma, which matters only for error rates below ~1e-17.
    A state where some basis string holds two branches has interfering
    peaks and raises ``ValidationError``, as does a zero or overflowing norm.
    """
    _instance(state, HybridState, "state")
    _instance(rng, np.random.Generator, "rng")
    probe = state.require_probe()
    if _same_basis_pairs(state):
        raise ValidationError(
            "sampling needs one branch per basis string; this state has interfering branches"
        )
    with np.errstate(over="ignore"):  # require_norm rejects a norm that overflows
        weights = np.abs(np.array([b.amplitude for b in state.branches])) ** 2
        total = require_norm(np.add.reduce(weights, axis=-1), "sample")
    means = np.array([2.0 * probe.label(b.phase).real for b in state.branches])
    u = rng.random((1, 3))
    x = means[pick_branches(weights, u[:, 0], total)] + gaussian(u[:, 1], u[:, 2])
    return float(x[0])


def sample_and_collapse(
    state: HybridState,
    rng: np.random.Generator,
    force_x: float | None = None,
) -> tuple[HomodyneRecord, HybridState]:
    """Measure the probe's X quadrature and collapse the state.

    Each branch amplitude is multiplied by its label's kernel value at the
    measured ``x``; the probe is released (every phase index back to 0) and
    the state is renormalized.  ``force_x`` bypasses sampling (tests use it
    to pin the measurement record, and then ``rng`` is not read); the
    collapse itself is identical either way.  A ``force_x`` that is not a
    real (:func:`~kerrgate.states._real`) raises ``ValidationError``.
    """
    _instance(state, HybridState, "state")
    probe = state.require_probe()
    if force_x is None:
        x = sample_quadrature(state, rng)
    else:
        x = _real(force_x, "forced x")
    try:
        # weighting and releasing the probe in one merge: two labels of one
        # basis string become one branch here
        weighted = [
            Branch(b.amplitude * kernel_value(x, probe.label(b.phase)), b.basis, 0)
            for b in state.branches
        ]
        collapsed = renormalized(_merged_state(state.n_qubits, weighted, None, state.pruned_mass))
    except ValidationError:
        # kernel_value's nan outcome, or renormalized's zero norm (an x too
        # far out has a zero kernel on every branch) or overflowing one
        raise ValidationError(f"collapse at x={x} leaves a zero-norm or non-finite state") from None
    # after the collapse, which refuses an x whose p is infinite: p = b (x - a)
    # is label(1)'s kernel phase, reduced through sin/cos, which reduce the
    # float argument exactly, as the kernel does (``p % _TWO_PI`` would be off
    # by ~0.01 rad once |p| ~ 1e14, alpha ~ 1e9)
    p = probe.b * (x - probe.a)
    phi = math.atan2(math.sin(p), math.cos(p)) % _TWO_PI
    parity = "even" if x > probe.x0 else "odd"
    return HomodyneRecord(x=x, x0=probe.x0, parity=parity, phi=phi), collapsed


def qnd_photon_measure(
    state: HybridState,
    qubit_index: int,
    rng: np.random.Generator,
    force_outcome: str | None = None,
) -> tuple[str, HybridState]:
    """Nondestructive {H, V} measurement of one qubit by the Born rule.

    The photon stays in the state (the qubit is projected, not removed).
    ``force_outcome``, ``"H"`` or ``"V"``, bypasses sampling, and ``rng``
    is not read.
    """
    _instance(state, HybridState, "state")
    state.require_qubit(qubit_index)
    total = require_norm(norm_squared(state), "measure")
    projected_v = HybridState(
        state.n_qubits,
        tuple(b for b in state.branches if b.basis[qubit_index] == "V"),
        state.probe,
        state.pruned_mass,
    )
    p_v = norm_squared(projected_v) / total
    if force_outcome is None:
        outcome = "V" if _instance(rng, np.random.Generator, "rng").random() < p_v else "H"
    else:
        outcome = _label(force_outcome, "forced outcome")
    kept = tuple(b for b in state.branches if b.basis[qubit_index] == outcome)
    collapsed = HybridState(state.n_qubits, kept, state.probe, state.pruned_mass)
    try:
        # the kept mass, not the kept branches: amplitudes ~1e-200 square to zero
        return outcome, renormalized(collapsed)
    except ValidationError:
        raise ValidationError(f"forced outcome {outcome!r} has zero probability") from None

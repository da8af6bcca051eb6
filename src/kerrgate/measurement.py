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

Every stochastic operation takes an explicit ``numpy.random.Generator``;
identical generators give identical outcomes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ValidationError
from .states import (
    Branch,
    HybridState,
    _merged_state,
    merge_and_prune,
    norm_squared,
    renormalized,
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
    magnitude underflows has amplitude ``0j``, whatever its phase; a NaN
    outcome, or a phase that overflows where the magnitude does not,
    raises ``ValidationError``.
    """
    if math.isnan(x):
        raise ValidationError("homodyne outcome x is nan")
    beta = complex(beta)
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


def kernel_phase(x: float, beta: complex) -> float:
    """Phase of <x|beta> in radians, unwrapped (not reduced mod 2 pi)."""
    beta = complex(beta)
    return beta.imag * (x - beta.real)


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
    norm (1 for normalized states).
    """
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
        return (
            amps[index, None]
            * KERNEL_PEAK
            * np.exp(-0.25 * (xs - 2.0 * re) ** 2)
            * np.exp(1j * im * (xs - re))
        )

    def density(x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, dtype=float))
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
    """
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(_TWO_PI * u2)


def sample_quadrature(state: HybridState, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw ``n`` independent X samples from the outcome density.

    With one branch per basis string (every circuit built here) the density
    is exactly a mixture of unit-variance Gaussians, one per branch: each
    sample picks a branch by its weight (``rng.choice``, one ``random()``
    word per sample) and adds a standard normal made by :func:`gaussian`
    from two more words (``rng.random((n, 2))``).  Box-Muller's tail stops
    near 8.57 sigma, which matters only for error rates below ~1e-17.  A
    state where some basis string holds two branches has interfering peaks
    and raises ``ValidationError``, as does a zero-norm state.
    """
    probe = state.require_probe()
    if _same_basis_pairs(state):
        raise ValidationError(
            "sampling needs one branch per basis string; this state has interfering branches"
        )
    weights = np.array([abs(b.amplitude) ** 2 for b in state.branches])
    total = weights.sum()
    if not total > 0.0:
        raise ValidationError("cannot sample a zero-norm state")
    means = np.array([2.0 * probe.label(b.phase).real for b in state.branches])
    picks = rng.choice(len(weights), size=n, p=weights / total)
    u = rng.random((n, 2))
    return means[picks] + gaussian(u[:, 0], u[:, 1])


def sample_and_collapse(
    state: HybridState,
    rng: np.random.Generator,
    force_x: float | None = None,
) -> tuple[HomodyneRecord, HybridState]:
    """Measure the probe's X quadrature and collapse the state.

    Each branch amplitude is multiplied by its label's kernel value at the
    measured ``x``; the probe is released (every phase index back to 0) and
    the state is renormalized.  ``force_x`` bypasses sampling (tests use it
    to pin the measurement record); the collapse itself is identical either
    way.
    """
    probe = state.require_probe()
    if force_x is None:
        x = float(sample_quadrature(state, rng, 1)[0])
    else:
        x = float(force_x)
    x0 = probe.x0
    parity = "even" if x > x0 else "odd"
    # reduce through sin/cos, which reduce the float argument exactly, as the
    # collapse's kernel does; ``p % _TWO_PI`` would reduce by the float
    # nearest 2 pi and be off by ~0.01 rad once |p| ~ 1e14 (alpha ~ 1e9)
    p = kernel_phase(x, probe.label(1)) - kernel_phase(x, probe.label(0))
    phi = math.atan2(math.sin(p), math.cos(p)) % _TWO_PI
    record = HomodyneRecord(x=x, x0=x0, parity=parity, phi=phi)

    try:
        # weighting and releasing the probe in one merge: two labels of one
        # basis string become one branch here
        weighted = [
            Branch(b.amplitude * kernel_value(x, probe.label(b.phase)), b.basis, 0)
            for b in state.branches
        ]
        collapsed = renormalized(_merged_state(state.n_qubits, weighted, None, state.pruned_mass))
    except ValidationError:
        # kernel_value's nan outcome, or renormalized's zero norm: an x too
        # far out has a zero kernel on every branch
        raise ValidationError(f"collapse at x={x} leaves a zero-norm state") from None
    return record, merge_and_prune(collapsed)


def qnd_photon_measure(
    state: HybridState,
    qubit_index: int,
    rng: np.random.Generator,
    force_outcome: str | None = None,
) -> tuple[str, HybridState]:
    """Nondestructive {H, V} measurement of one qubit by the Born rule.

    The photon stays in the state (the qubit is projected, not removed).
    """
    state.require_qubit(qubit_index)
    total = norm_squared(state)
    if not total > 0.0:
        raise ValidationError("cannot measure a zero-norm state")
    projected_v = HybridState(
        state.n_qubits,
        tuple(b for b in state.branches if b.basis[qubit_index] == "V"),
        state.probe,
        state.pruned_mass,
    )
    p_v = norm_squared(projected_v) / total
    if force_outcome is None:
        outcome = "V" if rng.random() < p_v else "H"
    else:
        if force_outcome not in ("H", "V"):
            raise ValidationError("forced outcome must be 'H' or 'V'")
        outcome = force_outcome
    kept = tuple(b for b in state.branches if b.basis[qubit_index] == outcome)
    collapsed = HybridState(state.n_qubits, kept, state.probe, state.pruned_mass)
    try:
        # the kept mass, not the kept branches: amplitudes ~1e-200 square to zero
        return outcome, renormalized(collapsed)
    except ValidationError:
        raise ValidationError(f"forced outcome {outcome!r} has zero probability") from None

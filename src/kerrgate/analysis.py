"""Closed-form figures of merit and the Monte Carlo experiment harness.

The homodyne outcome is a pair of unit-variance Gaussians centred on
``2 alpha`` (even parity) and ``2 alpha cos theta`` (odd parity), the probe's
threshold ``x0`` midway between them and ``xd`` apart (``ProbeMode``).
Classifying by ``x0`` misreads a peak's tail with probability
``p_error = erfc(xd / (2 sqrt 2)) / 2``, from the standard library's ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import CIRCUITS, run_block
from .errors import ValidationError
from .states import ProbeMode, _checked_cache, _integer, _label, _real, check_normalized

#: shots simulated together; a constant, so peak memory does not grow with
#: the shot count and results do not depend on a tunable
BLOCK_SHOTS = 1024

#: fidelity below which a shot counts as a logical error
LOGICAL_ERROR_FIDELITY = 1.0 - 1e-6

EXPERIMENTS = tuple(CIRCUITS)


@_checked_cache(
    lambda alpha, theta: (_real(alpha, "probe alpha"), _real(theta, "probe theta")), maxsize=128
)
def geometry(alpha: float, theta: float) -> ProbeMode:
    """The validated ``ProbeMode(alpha, theta)`` (else ``ValidationError``), whose
    ``x0`` is the threshold and ``xd ~ alpha theta^2`` the peak separation;
    the one cache of probes, keyed by the two reals as floats, checked before
    the lookup, which never holds an error."""
    return ProbeMode(alpha, theta)


def p_error(alpha: float, theta: float) -> float:
    """Midpoint-threshold misclassification probability, in [0, 1/2]."""
    return 0.5 * math.erfc(geometry(alpha, theta).xd / (2.0 * math.sqrt(2.0)))


@dataclass(frozen=True)
class ShotStats:
    """Aggregate of one Monte Carlo run; CI half-widths are 3 binomial sigma."""

    shots: int
    seed: int
    logical_error_rate: float
    error_ci: float
    mean_fidelity: float
    parity_frequencies: tuple[float, float]


def run_shots(
    experiment: str,
    inputs,
    alpha: float,
    theta: float,
    shots: int,
    seed: int,
) -> ShotStats:
    """Run a gate ``shots`` times on one seeded stream and aggregate.

    ``inputs`` is a pair of qubit amplitude pairs: the two gated qubits for
    parity/entangler experiments, or (control, target) for the CNOT, whose
    ancilla is prepared internally.  A shot is a logical error when the final
    state's fidelity with the record-conditional ideal output falls below
    ``1 - 1e-6`` (or when the classification contradicts the input outright).
    That threshold separates corrected states from misclassification
    casualties only when the peaks are well split (roughly ``xd >= 12``); at
    poor discrimination the collapse keeps visible weight on both parity
    components and the reported rate saturates accordingly.

    Shots run in fixed-size blocks through :mod:`kerrgate.batch`, each
    continuing the run's one generator, ``Generator(PCG64(seed))``, which is
    what ``default_rng(seed)`` returns for an int seed.  A call takes its
    validated probe from the cache :func:`geometry`, once, and reads only
    each block's odd records and fidelities.  RNG contract: the run
    reads one stream, ``np.random.default_rng(seed).random()``, and shot
    ``i`` takes its words ``i K .. i K + K - 1``, ``K`` being the circuit's
    ``Circuit.words``.  Each measurement reads the words that
    :data:`kerrgate.gates.STEP_KINDS` gives its kind, in circuit order,
    exactly as :func:`kerrgate.gates.run_steps` reads them from a
    generator when it runs the circuit's steps on one state; both engines
    check those steps' kinds, arities, qubits and actions against that table
    first (:func:`kerrgate.gates.check_steps`).  Identical
    arguments therefore give identical results whatever the block size, and
    shot ``i`` replays through ``run_steps`` on ``default_rng(seed)``
    advanced by ``i K`` (``Generator.bit_generator.advance``).  ``seed`` must be a
    non-negative integer (``TypeError`` for a bool, float, string, sequence,
    ``SeedSequence`` or ``Generator``; ``ValidationError``, a ``ValueError``,
    when negative).
    """
    experiment = _label(experiment, "experiment", EXPERIMENTS)
    shots = _integer(shots, "shots")
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    inputs = check_normalized(inputs)
    if len(inputs) != 2:
        raise ValidationError(f"{experiment} takes two qubit amplitude pairs")
    probe = geometry(alpha, theta)
    try:
        seed = _integer(seed, "seed")
    except ValidationError:
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))

    errors = 0
    fidelity_sum = 0.0
    odd = 0
    for start in range(0, shots, BLOCK_SHOTS):
        block = run_block(experiment, inputs, probe, rng, min(BLOCK_SHOTS, shots - start))
        odd += int(np.count_nonzero(block._odd[0]))
        fidelity_sum += float(np.add.reduce(block.fidelity))
        errors += int(np.count_nonzero(block.fidelity < LOGICAL_ERROR_FIDELITY))

    even = shots - odd
    rate = errors / shots
    ci = 3.0 * math.sqrt(rate * (1.0 - rate) / shots)
    return ShotStats(
        shots=shots,
        seed=seed,
        logical_error_rate=rate,
        error_ci=ci,
        mean_fidelity=fidelity_sum / shots,
        parity_frequencies=(even / shots, 1.0 - even / shots),
    )

"""Closed-form figures of merit and the Monte Carlo experiment harness.

The homodyne outcome is a pair of unit-variance Gaussians centred on
``2 alpha`` (even parity) and ``2 alpha cos theta`` (odd parity), so the
threshold sits at ``x0 = alpha (1 + cos theta)`` and the peaks are separated
by ``xd = 2 alpha (1 - cos theta)``.  Classifying by the midpoint threshold
misreads a peak's tail with probability ``p_error = erfc(xd / (2 sqrt 2)) / 2``,
evaluated with the standard library's ``math.erfc``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .batch import CIRCUITS, run_block
from .errors import ValidationError
from .states import ProbeMode, check_normalized

#: shots simulated together; a constant, so peak memory does not grow with
#: the shot count and results do not depend on a tunable
BLOCK_SHOTS = 1024

#: fidelity below which a shot counts as a logical error
LOGICAL_ERROR_FIDELITY = 1.0 - 1e-6

EXPERIMENTS = tuple(CIRCUITS)


@dataclass(frozen=True)
class DiscriminationGeometry:
    """Threshold midpoint and peak separation; ``xd ~ alpha theta^2`` at small theta."""

    x0: float
    xd: float


def geometry(alpha: float, theta: float) -> DiscriminationGeometry:
    probe = ProbeMode(alpha, theta)  # validates the regime
    # 1 - cos theta = 2 sin^2(theta / 2), without the cancellation at small theta
    return DiscriminationGeometry(x0=probe.x0, xd=4.0 * alpha * math.sin(0.5 * theta) ** 2)


def p_error(alpha: float, theta: float) -> float:
    """Midpoint-threshold misclassification probability, in [0, 1/2]."""
    xd = geometry(alpha, theta).xd
    return 0.5 * math.erfc(xd / (2.0 * math.sqrt(2.0)))


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
    continuing the run's one generator.  RNG contract: the run reads one
    stream, ``np.random.default_rng(seed).random()``, and shot ``i`` takes
    its words ``i K .. i K + K - 1``, ``K`` being the circuit's
    ``Circuit.words``.  In circuit order a homodyne measurement
    reads one word for its branch pick and two for its noise, which
    :func:`kerrgate.measurement.gaussian` turns into a standard normal, and
    the CNOT's photon readout one word -- exactly what the scalar gates in
    :mod:`kerrgate.gates` read from a generator.  Identical arguments
    therefore give identical results whatever the block size, and shot ``i``
    replays through the scalar gates on ``default_rng(seed)`` advanced by
    ``i K`` (``Generator.bit_generator.advance``).  ``seed`` must be a
    non-negative integer (``TypeError`` for a float, string, sequence,
    ``SeedSequence`` or ``Generator``; ``ValueError`` when negative).
    """
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENTS}")
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    inputs = list(inputs)
    if len(inputs) != 2:
        raise ValidationError(f"{experiment} takes two qubit amplitude pairs")
    check_normalized(inputs)
    inputs = [(complex(c0), complex(c1)) for c0, c1 in inputs]
    probe = ProbeMode(alpha, theta)
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)

    errors = 0
    fidelity_sum = 0.0
    odd = 0
    for start in range(0, shots, BLOCK_SHOTS):
        block = run_block(experiment, inputs, probe, rng, min(BLOCK_SHOTS, shots - start))
        odd += int(np.count_nonzero(block.odd[:, 0]))
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

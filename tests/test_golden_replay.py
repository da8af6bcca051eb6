"""The pinned shot rows of ``test_cli.ERFC_GOLDEN``, replayed at 50 digits.

Each shot row's shots are rerun here in ``mpmath`` from the same stream words
(``default_rng(seed).random((shots, K))``, the homodyne's branch pick and
Box-Muller pair, the photon readout's uniform), with every step written from
the paper's formulas rather than from :mod:`kerrgate.batch`: the parity
detector's labels ``alpha e^{ik theta}`` (``HV -> +1``, ``VH -> -1``), the
coherent-state wavefunction ``<x|beta>`` for the ``X = a + a^dagger``
quadrature, the feed-forward rules of Nemoto and Munro's entanglers and CNOT,
and their ideal outputs.  ``mean_fidelity`` must lie within 4 ulp of the
reference, so that a change of the engine's arithmetic that moves a pinned
digit is re-pinned against this reference rather than by judgement.  The
``validate-oracle`` rows run no shots and are not replayed here.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from test_cli import ERFC_GOLDEN

from kerrgate import ANCILLA_PLUS
from kerrgate.cli import CSV_HEADER

DIGITS = 50
ULPS = 4
#: stream words per shot: a homodyne's pick and noise pair, a photon readout's uniform
WORDS = {"parity": 3, "entangler": 3, "entangler45": 3, "cnot": 7}


def shot_rows():
    """``(case, row)`` for every ERFC_GOLDEN row that runs shots."""
    return [
        (f"{case}[{i}]", dict(zip(CSV_HEADER.split(","), line.split(","))))
        for case, (_, lines) in sorted(ERFC_GOLDEN.items())
        for i, line in enumerate(lines)
        if not line.startswith("validate-oracle")
    ]


class Replay:
    """A polarization state as ``{basis string: amplitude}``, 'H'/'V' per qubit,
    at ``DIGITS`` digits, and the gate steps of the paper."""

    def __init__(self, alpha, theta):
        self.alpha = mpmath.mpf(alpha)
        self.theta = mpmath.mpf(theta)

    @staticmethod
    def product(*pairs):
        state = {"": mpmath.mpc(1)}
        for c_h, c_v in pairs:
            state = {
                s + p: a * mpmath.mpc(c)
                for s, a in state.items()
                for p, c in (("H", c_h), ("V", c_v))
            }
        return state

    @staticmethod
    def rotate(state, *qubits):
        """H -> (H + V)/sqrt 2, V -> (H - V)/sqrt 2 on each of ``qubits``."""
        half = 1 / mpmath.sqrt(2)
        for q in qubits:
            out = {}
            for s, a in state.items():
                for p in "HV":
                    sign = -1 if s[q] == p == "V" else 1
                    t = s[:q] + p + s[q + 1 :]
                    out[t] = out.get(t, 0) + sign * half * a
            state = out
        return state

    @staticmethod
    def flip(state, q):
        swap = {"H": "V", "V": "H"}
        return {s[:q] + swap[s[q]] + s[q + 1 :]: a for s, a in state.items()}

    @staticmethod
    def sign_flip(state, q):
        return {s: -a if s[q] == "V" else a for s, a in state.items()}

    @staticmethod
    def undo_phase(state, q, eip):
        """V of qubit ``q`` times ``e^{i phi}``, H times ``e^{-i phi}``."""
        return {s: a * (eip if s[q] == "V" else mpmath.conj(eip)) for s, a in state.items()}

    def label(self, k):
        return self.alpha * mpmath.expj(k * self.theta)

    @staticmethod
    def wavefunction(x, beta):
        """``<x|beta>`` for ``X = a + a^dagger``."""
        return (2 * mpmath.pi) ** mpmath.mpf(-0.25) * mpmath.exp(
            -x * x / 4 + beta * x - beta * beta / 2 - abs(beta) ** 2 / 2
        )

    def homodyne(self, state, a, b, u, u1, u2):
        """Parity kicks on (a, b), X sample from the words, collapse.  Returns
        the collapsed state, whether it reads odd and the phase ``e^{i phi}``
        of label +1's wavefunction at the outcome."""
        kick = {("H", "V"): 1, ("V", "H"): -1}
        labels = {s: self.label(kick.get((s[a], s[b]), 0)) for s in state}
        # the branch pick: the first basis string, in H < V order, whose
        # cumulative weight exceeds u of the total
        order = sorted(state)
        weights = [abs(state[s]) ** 2 for s in order]
        total, acc, pick = sum(weights), 0, order[-1]
        for s, w in zip(order, weights):
            acc += w
            if acc > u * total:
                pick = s
                break
        z = mpmath.sqrt(-2 * mpmath.log(1 - u1)) * mpmath.cos(2 * mpmath.pi * u2)
        x = 2 * mpmath.re(labels[pick]) + z
        collapsed = {s: amp * self.wavefunction(x, labels[s]) for s, amp in state.items()}
        kernel = self.wavefunction(x, self.label(1))
        threshold = self.alpha * (1 + mpmath.cos(self.theta))  # midway between the peaks
        return collapsed, x <= threshold, kernel / abs(kernel)

    def entangler(self, state, a, b, words, diagonal=False):
        """The (diagonal-frame) entangler: parity detector, then on odd the
        phase undo on ``a`` and a flip, of ``b`` (or of ``a`` in the diagonal
        frame).  Returns the state and the record's parity."""
        if diagonal:
            state = self.rotate(state, a, b)
        state, odd, eip = self.homodyne(state, a, b, *words)
        if odd:
            state = self.flip(self.undo_phase(state, a, eip), a if diagonal else b)
        if diagonal:
            state = self.rotate(state, a, b)
        return state, odd

    def shot(self, experiment, c, d, words):
        """One shot: ``(final state, record-conditional ideal)``, the ideal
        ``None`` where the record contradicts the input."""
        c, d = [tuple(map(mpmath.mpc, pair)) for pair in (c, d)]
        if experiment == "parity":
            final, odd, eip = self.homodyne(self.product(c, d), 0, 1, *words[:3])
            (c0, c1), (d0, d1) = c, d
            ideal = (
                {"HV": c0 * d1 * eip, "VH": c1 * d0 * mpmath.conj(eip)}
                if odd else {"HH": c0 * d0, "VV": c1 * d1}
            )
            return final, ideal
        if experiment in ("entangler", "entangler45"):
            diagonal = experiment == "entangler45"
            final, odd = self.entangler(self.product(c, d), 0, 1, words[:3], diagonal)
            # the even-parity part of the product, in the gate's frame; an odd
            # record first flips the second input (the first's sign, diagonally)
            (c0, c1), (d0, d1) = c, d
            if diagonal:
                c = (c0, -c1) if odd else c
                even = self.rotate(self.product(c, d), 0, 1)
                ideal = self.rotate({s: even[s] for s in ("HH", "VV")}, 0, 1)
            else:
                d = (d1, d0) if odd else d
                ideal = {"HH": c[0] * d[0], "VV": c[1] * d[1]}
            return final, ideal
        state = self.product(c, tuple(map(mpmath.mpf, ANCILLA_PLUS)), d)
        state, _ = self.entangler(state, 0, 1, words[0:3])
        state, odd = self.entangler(state, 1, 2, words[3:6], diagonal=True)
        if odd:
            state = self.sign_flip(state, 0)
        total = sum(abs(a) ** 2 for a in state.values())
        p_v = sum(abs(a) ** 2 for s, a in state.items() if s[1] == "V") / total
        reading = "V" if words[6] < p_v else "H"
        state = {s: a for s, a in state.items() if s[1] == reading}
        if reading == "V":
            state = self.flip(state, 2)
        (c0, c1), (d0, d1) = c, d
        r = reading
        ideal = {"H" + r + "H": c0 * d0, "H" + r + "V": c0 * d1,
                 "V" + r + "V": c1 * d0, "V" + r + "H": c1 * d1}
        return state, ideal


def fidelity(state, ideal):
    """``|<ideal|state>|^2 / (|ideal|^2 |state|^2)``; 0 for a contradicting record."""
    ideal_n2 = sum(abs(a) ** 2 for a in ideal.values())
    if ideal_n2 == 0:
        return mpmath.mpf(0)
    overlap = sum(mpmath.conj(a) * state.get(s, 0) for s, a in ideal.items())
    return abs(overlap) ** 2 / (ideal_n2 * sum(abs(a) ** 2 for a in state.values()))


@lru_cache(maxsize=None)
def reference_mean_fidelity(experiment, alpha, theta, shots, seed):
    """The exact mean fidelity of the run's shots, at ``DIGITS`` digits."""
    words = np.random.default_rng(seed).random((shots, WORDS[experiment]))
    replay = Replay(alpha, theta)
    with mpmath.workdps(DIGITS):
        total = mpmath.mpf(0)
        for row in words:
            total += fidelity(*replay.shot(experiment, ANCILLA_PLUS, ANCILLA_PLUS, row))
        return total / shots


@pytest.mark.parametrize("case,row", shot_rows(), ids=[case for case, _ in shot_rows()])
def test_pinned_mean_fidelity_within_4_ulp_of_the_50_digit_replay(case, row):
    """The CLI's default input is ANCILLA_PLUS for both qubits."""
    args = (row["experiment"], float(row["alpha"]), float(row["theta"]),
            int(row["shots"]), int(row["seed"]))
    reference = reference_mean_fidelity(*args)
    pinned = float(row["mean_fidelity"])
    ulp = math.ulp(float(reference))
    assert abs(pinned - reference) <= ULPS * ulp, (
        f"{case}: {row['mean_fidelity']} is {float(abs(pinned - reference)) / ulp:.2f} ulp "
        f"from {mpmath.nstr(reference, 20)}"
    )

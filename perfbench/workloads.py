"""The benchmark's workloads: seeded inputs, calls into kerrgate's public entry
points (``analysis.run_shots`` and ``cli.main``), and a check on every call.

A workload is an endless sequence of *rounds*; round ``i`` is a fixed-size
list of calls whose inputs depend only on ``(seed, workload, i)``, so a run of
any length sees the same calls in the same order, and the traced run repeats
the untraced run's first rounds exactly.  Call *slot* ``k`` of every round
makes the same kind of call (same experiment, alpha or alpha stratum, and
input kind), so the calls in one slot are comparable across rounds and seeds.

Operations are shots (``run_shots`` workloads) or oracle points
(``oracle-cli``).  An operation *fails* when its call raises or when
``validate-oracle`` exits non-zero.  A shot that returns but ends in a logical
error at ``xd = 20`` is a *logical error*: the program's own measure of gate
quality, counted separately and reported through ``ok_share``, never hidden.
A *problem* is an output that contradicts a check the benchmark makes
independently of the program; any problem makes the run's ``correct`` false.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kerrgate import analysis, cli

#: peak separation of every shot workload; the analytic error rate is ~1e-23
XD = 20.0
#: fixed z-bound on each experiment's even-parity count over a run, against the Born rule
Z_BOUND = 6.0
#: a single call's even-parity count is a problem when its exact binomial tail
#: probability under the Born rule falls below this
TAIL_LEVEL = 1e-9
#: a shot with fidelity below this is a logical error (the program's contract)
LOGICAL_ERROR_FIDELITY = 1.0 - 1e-6
#: an oracle row passes with density deviation below / state fidelity above these
ORACLE_DEVIATION_MAX = 1e-6
ORACLE_FIDELITY_MIN = 1.0 - 1e-9
CSV_HEADER = (
    "experiment,alpha,theta,shots,seed,x0,xd,p_error_analytic,error_rate,error_ci,mean_fidelity"
)
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_ROUNDOFF = 1e-9

Pair = tuple[complex, complex]


def theta_for(alpha: float, xd: float = XD) -> float:
    """Kerr phase unit giving peak separation ``xd`` at ``alpha``.

    ``2 asin(sqrt(xd / 4 alpha))`` avoids the ``1 - cos theta`` cancellation
    that ``acos(1 - xd / 2 alpha)`` suffers at large alpha.
    """
    return 2.0 * math.asin(math.sqrt(xd / (4.0 * alpha)))


@dataclass
class Ledger:
    """Operations attempted and failed, logical errors, and check violations,
    over a run."""

    attempted: int = 0
    failed: int = 0
    logical_errors: int = 0
    problems: list[str] = field(default_factory=list)
    #: experiment -> [even shots seen, even shots expected, variance]
    born: dict[str, list[float]] = field(default_factory=dict)

    def problem(self, call, message: str) -> None:
        self.problems.append(f"{call.describe()}: {message}")

    def ok_share(self) -> float:
        """Share of operations that neither failed nor ended in a logical error."""
        return 1.0 - (self.failed + self.logical_errors) / self.attempted

    def close(self) -> None:
        """Check each experiment's even-parity count over the run against the
        Born rule; one call is too short to catch a biased sampler."""
        for experiment, (seen, expected, variance) in sorted(self.born.items()):
            if abs(seen - expected) > Z_BOUND * math.sqrt(variance) + _ROUNDOFF:
                z = (seen - expected) / math.sqrt(variance) if variance else math.inf
                self.problems.append(
                    f"{experiment}: {seen:.0f} even shots over the run, Born expects "
                    f"{expected:.1f} (z = {z:.2f}, bound {Z_BOUND})"
                )


def quiet_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def haar_pair(rng: np.random.Generator) -> Pair:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def basis_pair(rng: np.random.Generator) -> Pair:
    return (1 + 0j, 0j) if rng.random() < 0.5 else (0j, 1 + 0j)


def even_probability(experiment: str, c: Pair, d: Pair) -> float:
    """Born probability that the call's first homodyne record reads even."""
    if experiment == "cnot":
        # the first record is the entangler on (control, ancilla |+>)
        d = (_SQRT_HALF, _SQRT_HALF)
    elif experiment == "entangler45":
        # parity is read after both qubits enter the diagonal basis
        c = ((c[0] + c[1]) * _SQRT_HALF, (c[0] - c[1]) * _SQRT_HALF)
        d = ((d[0] + d[1]) * _SQRT_HALF, (d[0] - d[1]) * _SQRT_HALF)
    return abs(c[0] * d[0]) ** 2 + abs(c[1] * d[1]) ** 2


def binomial_tail(k: int, n: int, p: float) -> float:
    """Smaller of P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return min(sum(pmf[: k + 1]), sum(pmf[k:]))


@dataclass(frozen=True)
class ShotCall:
    experiment: str
    inputs: tuple[Pair, Pair]
    alpha: float
    shots: int
    seed: int

    @property
    def ops(self) -> int:
        return self.shots

    def describe(self) -> str:
        return f"{self.experiment}(alpha={self.alpha:g}, inputs={self.inputs}, seed={self.seed})"

    def invoke(self):
        return analysis.run_shots(
            self.experiment, self.inputs, self.alpha, theta_for(self.alpha), self.shots, self.seed
        )

    def check(self, stats, ledger: Ledger) -> None:
        shots = self.shots
        errors = round(stats.logical_error_rate * shots)
        ledger.logical_errors += errors
        if (stats.shots, stats.seed) != (shots, self.seed):
            ledger.problem(self, f"echoed shots/seed {stats.shots}/{stats.seed}")
        if abs(errors - stats.logical_error_rate * shots) > 1e-6:
            ledger.problem(self, f"error rate {stats.logical_error_rate!r} is not a shot count")
        even, odd = stats.parity_frequencies
        if abs(even + odd - 1.0) > _ROUNDOFF:
            ledger.problem(self, f"parity frequencies {even!r} + {odd!r} != 1")
        p = even_probability(self.experiment, *self.inputs)
        evens = round(even * shots)
        if binomial_tail(evens, shots, p) < TAIL_LEVEL:
            ledger.problem(
                self, f"{evens}/{shots} even shots vs Born {p:.6f}: tail below {TAIL_LEVEL}"
            )
        born = ledger.born.setdefault(self.experiment, [0.0, 0.0, 0.0])
        born[0] += evens
        born[1] += p * shots
        born[2] += p * (1.0 - p) * shots
        # good shots have fidelity >= the threshold, logical errors below it
        good = shots - errors
        lo = good * LOGICAL_ERROR_FIDELITY / shots
        hi = (good + errors * LOGICAL_ERROR_FIDELITY) / shots
        if not (lo - _ROUNDOFF <= stats.mean_fidelity <= hi + _ROUNDOFF):
            ledger.problem(
                self, f"mean fidelity {stats.mean_fidelity!r} outside [{lo}, {hi}] for {errors} errors"
            )


@dataclass(frozen=True)
class OracleCall:
    alpha: float
    theta: float
    inputs: tuple[Pair, Pair]
    output: Path

    ops = 1

    def describe(self) -> str:
        return f"validate-oracle(alpha={self.alpha!r}, theta={self.theta!r}, inputs={self.inputs})"

    def argv(self) -> list[str]:
        pairs = ";".join(f"{a!r},{b!r}" for a, b in self.inputs)
        return [
            "--experiment", "validate-oracle",
            "--alpha", repr(self.alpha),
            "--theta", repr(self.theta),
            "--input", pairs,
            "--output", str(self.output),
        ]

    def invoke(self):
        return quiet_main(self.argv())

    def check(self, outcome, ledger: Ledger) -> None:
        code, out, err = outcome
        if code != 0:
            ledger.failed += 1
            print(f"perfbench: {self.describe()} exited {code}: {err.strip()}", file=sys.stderr)
        try:
            lines = self.output.read_text().splitlines()
            self.output.unlink()
        except OSError as exc:
            if code == 0:
                ledger.problem(self, f"no output file: {exc}")
            return
        if len(lines) != 2 or lines[0] != CSV_HEADER:
            ledger.problem(self, f"output is not one row under the CSV header: {lines!r}")
            return
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        if row["experiment"] != "validate-oracle":
            ledger.problem(self, f"row experiment {row['experiment']!r}")
        if (float(row["alpha"]), float(row["theta"])) != (self.alpha, self.theta):
            ledger.problem(self, f"row echoes alpha={row['alpha']} theta={row['theta']}")
        x0 = self.alpha * (1.0 + math.cos(self.theta))
        if not math.isclose(float(row["x0"]), x0, rel_tol=1e-12, abs_tol=1e-12):
            ledger.problem(self, f"row x0 {row['x0']} != {x0!r}")
        passed = (
            float(row["error_rate"]) < ORACLE_DEVIATION_MAX
            and float(row["mean_fidelity"]) >= ORACLE_FIDELITY_MIN
        )
        if passed != (code == 0):
            ledger.problem(self, f"exit code {code} disagrees with row {lines[1]!r}")
        if "rows=1" not in out:
            ledger.problem(self, f"summary line {out.strip()!r}")


class Workload:
    """Seeded call sequence; see the module docstring."""

    name: str
    #: index mixed into every round's seed, so workloads draw unrelated inputs
    tag: int
    #: layers this workload exists to stress (checked by selftest.py)
    stress_layers: tuple[str, ...]
    #: rounds repeated under tracing; fixed so span counts repeat per seed
    traced_rounds: int

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, index])

    def round(self, index: int) -> list:
        raise NotImplementedError


class CnotDeep(Workload):
    """``cnot`` calls at one point: the deepest circuit, about 23 state
    constructions per shot, where a batched shot engine would show most."""

    name = "cnot-deep"
    tag = 1
    stress_layers = ("states", "optics", "measurement", "gates", "analysis")
    traced_rounds = 5
    ALPHA = 100.0
    SHOTS = 50
    #: calls per round; the last uses basis-state inputs (fewer branches)
    CALLS = 5

    def round(self, index: int) -> list:
        rng = self.rng(index)
        calls = []
        for slot in range(self.CALLS):
            make = basis_pair if slot == self.CALLS - 1 else haar_pair
            inputs = (make(rng), make(rng))
            calls.append(ShotCall("cnot", inputs, self.ALPHA, self.SHOTS, int(rng.integers(2**31))))
        return calls


class KerrLadder(Workload):
    """Every experiment at alpha = 1e2 ... 1e9 with xd fixed: short calls where
    per-call set-up and the per-shot RNG weigh more, across the weak-Kerr domain."""

    name = "kerr-ladder"
    tag = 2
    stress_layers = ("states", "optics", "measurement", "gates", "analysis")
    traced_rounds = 5
    ALPHAS = tuple(10.0**k for k in range(2, 10))
    EXPERIMENTS = ("parity", "entangler", "entangler45", "cnot")
    SHOTS = 10

    def round(self, index: int) -> list:
        rng = self.rng(index)
        return [
            ShotCall(
                experiment,
                (haar_pair(rng), haar_pair(rng)),
                alpha,
                self.SHOTS,
                int(rng.integers(2**31)),
            )
            for alpha in self.ALPHAS
            for experiment in self.EXPERIMENTS
        ]


class OracleCli(Workload):
    """``validate-oracle`` through ``cli.main``: the only path into ``fock`` and
    ``outcome_density``, plus the CLI's parse, render and write path."""

    name = "oracle-cli"
    tag = 3
    stress_layers = ("fock", "measurement", "cli", "analysis")
    traced_rounds = 20
    ALPHA_RANGE = (0.25, 3.0)  # the CLI refuses alpha > 3
    THETA_RANGE = (0.1, 3.0)
    #: one point per alpha stratum per round, so every round costs about the same
    STRATA = 8

    def round(self, index: int) -> list:
        rng = self.rng(index)
        lo, hi = self.ALPHA_RANGE
        width = (hi - lo) / self.STRATA
        return [
            OracleCall(
                alpha=lo + (k + rng.random()) * width,
                theta=float(rng.uniform(*self.THETA_RANGE)),
                inputs=(haar_pair(rng), haar_pair(rng)),
                output=self.scratch / f"oracle-{index}-{k}.csv",
            )
            for k in range(self.STRATA)
        ]


WORKLOADS = {w.name: w for w in (CnotDeep, KerrLadder, OracleCli)}


def execute(call, ledger: Ledger) -> float:
    """Make one call, check its output, and return the seconds the call took."""
    ledger.attempted += call.ops
    start = time.perf_counter()
    try:
        outcome = call.invoke()
    except Exception:  # a raising call is a failed operation; keep measuring
        seconds = time.perf_counter() - start
        ledger.failed += call.ops
        print(f"perfbench: {call.describe()} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return seconds
    seconds = time.perf_counter() - start
    call.check(outcome, ledger)
    return seconds


def warm_up(scratch: Path) -> None:
    """One small call of each CLI experiment, so imports and lazy set-up finish."""
    alpha = CnotDeep.ALPHA
    theta = theta_for(alpha)
    point = ["--alpha", repr(alpha), "--theta", repr(theta), "--shots", "2", "--seed", "1"]
    runs = [["--experiment", e, *point] for e in KerrLadder.EXPERIMENTS]
    runs.append(["--experiment", "sweep", *point,
                 "--grid-alpha", f"{alpha!r}:{alpha!r}:1", "--grid-theta", f"{theta!r}:{theta!r}:1"])
    runs.append(["--experiment", "validate-oracle", "--alpha", "1.0", "--theta", "0.5"])
    for argv in runs:
        code, _, err = quiet_main([*argv, "--output", str(scratch / "warm-up.csv")])
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}: {err.strip()}")

"""Command-line front end: configure an experiment, run it, emit CSV/JSON rows.

Every run is fully determined by its configuration; seeds are never derived
from the clock, and repeated invocations write byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, fock
from .errors import ValidationError
from .gates import ANCILLA_PLUS
from .measurement import outcome_density
from .optics import apply_cross_kerr, build_parity_coupling_pair
from .states import ProbeMode, new_state

EXPERIMENTS = analysis.EXPERIMENTS + ("sweep", "validate-oracle")

CSV_HEADER = "experiment,alpha,theta,shots,seed,x0,xd,p_error_analytic,error_rate,error_ci,mean_fidelity"

_FIELDS = CSV_HEADER.split(",")

#: all probe amplitudes the oracle can certify (truncation stays tractable)
ORACLE_ALPHA_MAX = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's configuration; the defaults here are the CLI's defaults."""

    experiment: str
    alpha: float
    theta: float
    shots: int = 10_000
    seed: int = 42
    input_state: tuple[tuple[complex, complex], ...] | None = None
    sweep_alpha: tuple[float, ...] | None = None
    sweep_theta: tuple[float, ...] | None = None
    sweep_gate: str = "parity"
    output_path: str = "results.csv"
    output_format: str = "csv"


class ConfigError(ValidationError):
    """Configuration problem; maps to exit code 2."""


def _parse_pairs(text: str) -> tuple[tuple[complex, complex], ...]:
    """Parse 'c0,c1;c0,c1' into normalized amplitude pairs."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"input: expected 'c0,c1' pairs, got {chunk!r}")
        try:
            c0, c1 = complex(parts[0]), complex(parts[1])
        except ValueError as exc:
            raise ConfigError(f"input: bad amplitude in {chunk!r}: {exc}") from exc
        if not (cmath.isfinite(c0) and cmath.isfinite(c1)):
            raise ConfigError(f"input: amplitudes must be finite, got {chunk!r}")
        try:
            nrm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        except OverflowError as exc:
            raise ConfigError(f"input: amplitudes too large to normalize in {chunk!r}") from exc
        if nrm == 0:
            raise ConfigError(f"input: zero amplitude pair {chunk!r}")
        pairs.append((c0 / nrm, c1 / nrm))
    return tuple(pairs)


def _parse_grid(text: str, key: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if count < 1:
        raise ConfigError(f"{key}: count must be >= 1")
    return tuple(float(v) for v in np.linspace(start, stop, count))


_FILE_KEYS = {
    "experiment": str,
    "alpha": float,
    "theta": float,
    "shots": int,
    "seed": int,
    "input": str,
    "grid_alpha": str,
    "grid_theta": str,
    "sweep_gate": str,
    "output": str,
    "format": str,
}

#: the :class:`ExperimentConfig` field of each config key not named as its field
_KEY_FIELDS = {
    "input": "input_state",
    "grid_alpha": "sweep_alpha",
    "grid_theta": "sweep_theta",
    "output": "output_path",
    "format": "output_format",
}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _FILE_KEYS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {key}: {exc}") from exc
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The flag parser, built once; ``parse_args`` leaves it unchanged, so
    every call shares it."""
    parser = argparse.ArgumentParser(
        prog="kerrgate",
        description="Run weak-Kerr QND parity/entangler/CNOT experiments.",
    )
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--alpha", type=float, help="probe coherent amplitude")
    parser.add_argument("--theta", type=float, help="Kerr phase unit per photon, radians")
    parser.add_argument("--shots", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--input", help="qubit amplitude pairs 'c0,c1;c0,c1' (renormalized; complex OK)"
    )
    parser.add_argument("--grid-alpha", help="sweep grid 'start:stop:count'")
    parser.add_argument("--grid-theta", help="sweep grid 'start:stop:count'")
    parser.add_argument("--sweep-gate", choices=analysis.EXPERIMENTS)
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"))
    return parser


#: flags whose value may start with '-': an amplitude list or a grid
_SIGNED_VALUE_FLAGS = ("--input", "--grid-alpha", "--grid-theta")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag VALUE`` as ``--flag=VALUE`` when VALUE starts with '-'.

    argparse reads a separate argument starting with '-' as a flag unless it
    is a plain negative number, so ``--input -0.6,0.8;1,0`` or
    ``--grid-alpha -1:4:2`` would fail with "expected one argument".
    Abbreviations of the flags count too.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        flag, value = argv[i], argv[i + 1]
        takes_signed = len(flag) > 2 and any(f.startswith(flag) for f in _SIGNED_VALUE_FLAGS)
        if takes_signed and value.startswith("-") and not value.startswith("--"):
            argv[i : i + 2] = [f"{flag}={value}"]
    return argv


def parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Merge config file and flags (flags win) into a validated config."""
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_signed_values(argv))
    values = _read_config_file(args.config) if args.config else {}
    for key in _FILE_KEYS:  # each flag's dest is its config key
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag

    if "experiment" not in values:
        raise ConfigError("experiment: required (flag --experiment or config key)")
    if values["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment {values['experiment']!r}")
    if "alpha" not in values or "theta" not in values:
        raise ConfigError("alpha, theta: both are required")

    if "input" in values:
        values["input"] = _parse_pairs(values["input"])
    for key in ("grid_alpha", "grid_theta"):
        if key in values:
            values[key] = _parse_grid(values[key], key)
    # the keys left unset keep the dataclass defaults
    config = ExperimentConfig(**{_KEY_FIELDS.get(k, k): v for k, v in values.items()})
    _validate_config(config)
    return config


def _require_probe(key: str, alpha: float, theta: float) -> None:
    """``ProbeMode``'s range checks, as a ``ConfigError`` naming ``key``."""
    try:
        ProbeMode(alpha, theta)
    except ValidationError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _validate_config(config: ExperimentConfig) -> None:
    # theta = 0 is always valid, so the first check can fail on alpha only,
    # and each later check on the one value it names
    _require_probe("alpha", config.alpha, 0.0)
    _require_probe("theta", config.alpha, config.theta)
    if config.shots < 1:
        raise ConfigError(f"shots: must be >= 1, got {config.shots}")
    if config.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {config.seed}")
    if config.output_format not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {config.output_format!r}")
    if config.experiment == "sweep":
        if config.sweep_alpha is None or config.sweep_theta is None:
            raise ConfigError("grid_alpha, grid_theta: sweep needs both grids")
        if config.sweep_gate not in analysis.EXPERIMENTS:
            raise ConfigError(f"sweep_gate: unknown gate {config.sweep_gate!r}")
        for a in config.sweep_alpha:
            _require_probe("grid_alpha", a, config.theta)
        for t in config.sweep_theta:
            _require_probe("grid_theta", config.alpha, t)
    if config.experiment == "validate-oracle" and config.alpha > ORACLE_ALPHA_MAX:
        raise ConfigError(
            f"alpha: validate-oracle needs alpha <= {ORACLE_ALPHA_MAX} "
            "(Fock truncation stays tractable only at small amplitude)"
        )
    if config.input_state is not None and len(config.input_state) != 2:
        raise ConfigError("input: expected exactly two amplitude pairs")


_UNIFORM = (complex(ANCILLA_PLUS[0]), complex(ANCILLA_PLUS[1]))


def _row(experiment, alpha, theta, shots, seed, stats=None, fidelity=None, deviation=None):
    geo = analysis.geometry(alpha, theta)
    return {
        "experiment": experiment,
        "alpha": alpha,
        "theta": theta,
        "shots": shots,
        "seed": seed,
        "x0": geo.x0,
        "xd": geo.xd,
        "p_error_analytic": analysis.p_error(alpha, theta),
        "error_rate": stats.logical_error_rate if stats else deviation,
        "error_ci": stats.error_ci if stats else 0.0,
        "mean_fidelity": stats.mean_fidelity if stats else fidelity,
    }


def _validate_oracle(config: ExperimentConfig, inputs) -> tuple[dict, bool]:
    """Cross-check the branch model against the Fock oracle at one (alpha, theta).

    Runs the parity-detector circuit on ``inputs`` along both paths and
    reports the worst state-fidelity deficit and homodyne-density deviation.
    """
    probe = ProbeMode(config.alpha, config.theta)
    state = new_state(list(inputs)).activate_probe(probe)
    n_trunc = fock.required_truncation(config.alpha) + 5

    embedded = fock.oracle_embed(state, n_trunc)
    for coupling in build_parity_coupling_pair(0, 1, 0):
        state = apply_cross_kerr(state, coupling)
        embedded = fock.oracle_cross_kerr(embedded, coupling)
    re_embedded = fock.oracle_embed(state, n_trunc)
    state_fid = fock.oracle_fidelity(embedded, re_embedded)

    lo = 2.0 * config.alpha * math.cos(config.theta) - 10.0
    hi = 2.0 * config.alpha + 10.0
    grid = np.linspace(lo, hi, 2001)
    dev = float(np.max(np.abs(outcome_density(state, 0)(grid) - fock.oracle_homodyne_density(embedded)(grid))))

    row = _row(
        "validate-oracle",
        config.alpha,
        config.theta,
        config.shots,
        config.seed,
        fidelity=state_fid,
        deviation=dev,
    )
    ok = dev < 1e-6 and state_fid >= 1.0 - 1e-9
    return row, ok


def _format_value(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_format_value(row[k]) for k in _FIELDS))
    return "\n".join(lines) + "\n"


def _render_json(rows: list[dict]) -> str:
    # hand-rolled so floats keep the same 17-significant-digit form as the CSV
    parts = []
    for row in rows:
        fields = []
        for k in _FIELDS:
            v = row[k]
            rendered = _format_value(v) if isinstance(v, (int, float)) else json.dumps(v)
            fields.append(f'"{k}": {rendered}')
        parts.append("  {" + ", ".join(fields) + "}")
    return "[\n" + ",\n".join(parts) + "\n]\n"


def run(config: ExperimentConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    start = time.perf_counter()
    rows: list[dict] = []
    ok = True
    inputs = config.input_state or (_UNIFORM, _UNIFORM)
    if config.experiment == "validate-oracle":
        row, ok = _validate_oracle(config, inputs)
        rows.append(row)
    elif config.experiment == "sweep":
        for alpha in config.sweep_alpha:
            for theta in config.sweep_theta:
                stats = analysis.run_shots(
                    config.sweep_gate, inputs, alpha, theta, config.shots, config.seed
                )
                rows.append(
                    _row(config.sweep_gate, alpha, theta, config.shots, config.seed, stats)
                )
    else:
        stats = analysis.run_shots(
            config.experiment, inputs, config.alpha, config.theta, config.shots, config.seed
        )
        rows.append(
            _row(config.experiment, config.alpha, config.theta, config.shots, config.seed, stats)
        )

    text = _render_csv(rows) if config.output_format == "csv" else _render_json(rows)
    try:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.output_path!r}: {exc}", file=sys.stderr)
        return 1

    runtime = time.perf_counter() - start
    first = rows[0]
    print(
        f"{config.experiment}: p_error_analytic={first['p_error_analytic']:.3e} "
        f"empirical_error_rate={first['error_rate']:.3e} "
        f"rows={len(rows)} runtime={runtime:.2f}s"
    )
    if not ok:
        print("error: oracle validation outside tolerance", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ValidationError as exc:  # includes ConfigError: input the simulator cannot represent
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure -> exit 1, per contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

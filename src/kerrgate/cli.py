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
from collections.abc import Callable
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
    """A run's configuration: one field per run key, whose defaults are the
    CLI's defaults."""

    experiment: str
    alpha: float
    theta: float
    shots: int = 10_000
    seed: int = 42
    input: tuple[tuple[complex, complex], ...] | None = None
    grid_alpha: tuple[float, ...] | None = None
    grid_theta: tuple[float, ...] | None = None
    sweep_gate: str = "parity"
    output: str = "results.csv"
    format: str = "csv"


class ConfigError(ValidationError):
    """Configuration problem; maps to exit code 2."""


def _parse_pairs(text: str) -> tuple[tuple[complex, complex], ...]:
    """Parse 'c0,c1;c0,c1' into normalized amplitude pairs."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"expected 'c0,c1' pairs, got {chunk!r}")
        try:
            c0, c1 = complex(parts[0]), complex(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad amplitude in {chunk!r}: {exc}") from exc
        if not (cmath.isfinite(c0) and cmath.isfinite(c1)):
            raise ConfigError(f"amplitudes must be finite, got {chunk!r}")
        try:
            nrm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
        except OverflowError as exc:
            raise ConfigError(f"amplitudes too large to normalize in {chunk!r}") from exc
        if nrm == 0:
            raise ConfigError(f"zero amplitude pair {chunk!r}")
        pairs.append((c0 / nrm, c1 / nrm))
    return tuple(pairs)


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected 'start:stop:count', got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ConfigError("count must be >= 1")
    if not math.isfinite(stop - start):  # also an infinite or nan endpoint
        raise ConfigError(f"endpoints and their span must be finite, got {text!r}")
    try:
        grid = np.linspace(start, stop, count)
    except (MemoryError, ValueError) as exc:  # ValueError past NumPy's largest array
        raise ConfigError(f"cannot build a grid of {count} points: {exc}") from None
    return tuple(float(v) for v in grid)


@dataclass(frozen=True)
class _Key:
    """How a run key's text is read, from its flag and from a config file alike.

    ``parse`` turns the merged text into the field's value; such a value, an
    amplitude list or a grid, may start with '-'.
    """

    type: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    help: str | None = None
    parse: Callable[[str], object] | None = None


#: every run key, each the flag ``--key`` (``_`` written ``-``), the config-file
#: key and the :class:`ExperimentConfig` field of that name
_KEYS = {
    "experiment": _Key(choices=EXPERIMENTS),
    "alpha": _Key(float, help="probe coherent amplitude"),
    "theta": _Key(float, help="Kerr phase unit per photon, radians"),
    "shots": _Key(int),
    "seed": _Key(int),
    "input": _Key(
        help="qubit amplitude pairs 'c0,c1;c0,c1' (renormalized; complex OK)", parse=_parse_pairs
    ),
    "grid_alpha": _Key(help="sweep grid 'start:stop:count'", parse=_parse_grid),
    "grid_theta": _Key(help="sweep grid 'start:stop:count'", parse=_parse_grid),
    "sweep_gate": _Key(choices=analysis.EXPERIMENTS),
    "output": _Key(help="output file path"),
    "format": _Key(choices=("csv", "json")),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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
        spec = _KEYS.get(key)
        if spec is None:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = spec.type(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc} (config line {lineno})") from exc
        if spec.choices is not None and values[key] not in spec.choices:
            raise ConfigError(
                f"{key}: invalid choice {raw!r}, choose from {', '.join(spec.choices)} "
                f"(config line {lineno})"
            )
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
    for key, spec in _KEYS.items():
        parser.add_argument(_flag(key), type=spec.type, choices=spec.choices, help=spec.help)
    return parser


_SIGNED_VALUE_FLAGS = tuple(_flag(key) for key, spec in _KEYS.items() if spec.parse)


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
    for key in _KEYS:  # each flag's dest is its key
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag

    if "experiment" not in values:
        raise ConfigError("experiment: required (flag --experiment or config key)")
    if "alpha" not in values or "theta" not in values:
        raise ConfigError("alpha, theta: both are required")
    for key, spec in _KEYS.items():
        if spec.parse is not None and key in values:
            try:
                values[key] = spec.parse(values[key])
            except ValueError as exc:  # ConfigError, or a bad number in a grid
                raise ConfigError(f"{key}: {exc}") from None
    config = ExperimentConfig(**values)  # the keys left unset keep its defaults
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
    if config.experiment == "sweep":
        if config.grid_alpha is None or config.grid_theta is None:
            raise ConfigError("grid_alpha, grid_theta: sweep needs both grids")
        for a in config.grid_alpha:
            _require_probe("grid_alpha", a, config.theta)
        for t in config.grid_theta:
            _require_probe("grid_theta", config.alpha, t)
    if config.experiment == "validate-oracle" and config.alpha > ORACLE_ALPHA_MAX:
        raise ConfigError(
            f"alpha: validate-oracle needs alpha <= {ORACLE_ALPHA_MAX} "
            "(Fock truncation stays tractable only at small amplitude)"
        )
    if config.input is not None and len(config.input) != 2:
        raise ConfigError("input: expected exactly two amplitude pairs")


_UNIFORM = (complex(ANCILLA_PLUS[0]), complex(ANCILLA_PLUS[1]))


def _row(config, experiment, alpha, theta, error_rate, error_ci, mean_fidelity):
    geo = analysis.geometry(alpha, theta)
    return {
        "experiment": experiment,
        "alpha": alpha,
        "theta": theta,
        "shots": config.shots,
        "seed": config.seed,
        "x0": geo.x0,
        "xd": geo.xd,
        "p_error_analytic": analysis.p_error(alpha, theta),
        "error_rate": error_rate,
        "error_ci": error_ci,
        "mean_fidelity": mean_fidelity,
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
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
        embedded = fock.oracle_cross_kerr(embedded, coupling)
    re_embedded = fock.oracle_embed(state, n_trunc)
    state_fid = fock.oracle_fidelity(embedded, re_embedded)

    lo = 2.0 * config.alpha * math.cos(config.theta) - 10.0
    hi = 2.0 * config.alpha + 10.0
    grid = np.linspace(lo, hi, 2001)
    dev = float(np.max(np.abs(outcome_density(state)(grid) - fock.oracle_homodyne_density(embedded)(grid))))

    row = _row(config, "validate-oracle", config.alpha, config.theta, dev, 0.0, state_fid)
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
    inputs = config.input or (_UNIFORM, _UNIFORM)
    if config.experiment == "validate-oracle":
        row, ok = _validate_oracle(config, inputs)
        rows = [row]
    else:  # a shot experiment is a one-point sweep
        if config.experiment == "sweep":
            gate, alphas, thetas = config.sweep_gate, config.grid_alpha, config.grid_theta
        else:
            gate, alphas, thetas = config.experiment, (config.alpha,), (config.theta,)
        ok, rows = True, []
        for alpha in alphas:
            for theta in thetas:
                stats = analysis.run_shots(gate, inputs, alpha, theta, config.shots, config.seed)
                rows.append(_row(config, gate, alpha, theta, stats.logical_error_rate,
                                 stats.error_ci, stats.mean_fidelity))

    text = _render_csv(rows) if config.format == "csv" else _render_json(rows)
    try:
        with open(config.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.output!r}: {exc}", file=sys.stderr)
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

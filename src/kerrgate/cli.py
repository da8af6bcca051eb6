"""Command-line front end: configure an experiment, run it, emit CSV/JSON rows.

Every run is fully determined by its configuration; seeds are never derived
from the clock, and repeated invocations write byte-identical files.  The
output is overwritten in place and cut to length only when it was longer;
it is never fsynced.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import analysis, fock
from .errors import ValidationError
from .gates import ANCILLA_PLUS
from .measurement import outcome_density
from .optics import apply_cross_kerr, build_parity_coupling_pair
from .states import ProbeMode, _integer, new_state

EXPERIMENTS = analysis.EXPERIMENTS + ("sweep", "validate-oracle")

CSV_HEADER = "experiment,alpha,theta,shots,seed,x0,xd,p_error_analytic,error_rate,error_ci,mean_fidelity"

_FIELDS = CSV_HEADER.split(",")

#: all probe amplitudes the oracle can certify (truncation stays tractable)
ORACLE_ALPHA_MAX = 3.0


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


def _key(*spec, default=MISSING, **named):
    """A run key's field: its default and its :class:`_Key`."""
    return field(default=default, metadata={"key": _Key(*spec, **named)})


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's configuration, checked when it is built.  Each field is a run
    key, the flag ``--key`` (``_`` written ``-``) and the config-file key of
    its name, read as its :class:`_Key` says; its default is the CLI's."""

    experiment: str = _key(choices=EXPERIMENTS)
    alpha: float = _key(float, help="probe coherent amplitude")
    theta: float = _key(float, help="Kerr phase unit per photon, radians")
    shots: int = _key(int, default=10_000)
    seed: int = _key(int, default=42)
    input: tuple[tuple[complex, complex], ...] = _key(
        default=(ANCILLA_PLUS, ANCILLA_PLUS),
        help="qubit amplitude pairs 'c0,c1;c0,c1' (renormalized; complex OK)", parse=_parse_pairs,
    )
    grid_alpha: tuple[float, ...] | None = _key(
        default=None, help="sweep grid 'start:stop:count'", parse=_parse_grid
    )
    grid_theta: tuple[float, ...] | None = _key(
        default=None, help="sweep grid 'start:stop:count'", parse=_parse_grid
    )
    sweep_gate: str = _key(default="parity", choices=analysis.EXPERIMENTS)
    output: str = _key(default="results.csv", help="output file path")
    format: str = _key(default="csv", choices=("csv", "json"))

    def __post_init__(self):
        """Raise a ``ConfigError`` naming the key of a value the CLI refuses."""
        for key, spec in _CHECKED_KEYS:
            value = getattr(self, key)
            if spec.choices is not None:
                if value not in spec.choices:
                    raise ConfigError(_invalid_choice(key, spec, value))
            else:  # an int key
                try:
                    _integer(value, f"{key}:")
                except ValidationError as exc:
                    raise ConfigError(str(exc)) from None
        if self.experiment == "sweep":  # no row reads --alpha, --theta; still required, so valid
            _probe(self.alpha, self.theta, "alpha", "theta")
            if self.grid_alpha is None or self.grid_theta is None:
                raise ConfigError("grid_alpha, grid_theta: sweep needs both grids")
        if self.shots < 1:
            raise ConfigError(f"shots: must be >= 1, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        # the probe's alpha, a real once built: text is refused there as for
        # every experiment, not compared here
        if self.experiment == "validate-oracle" and self.probes[0].alpha > ORACLE_ALPHA_MAX:
            raise ConfigError(
                f"alpha: validate-oracle needs alpha <= {ORACLE_ALPHA_MAX} "
                "(Fock truncation stays tractable only at small amplitude)"
            )
        if len(self.input) != 2:
            raise ConfigError("input: expected exactly two amplitude pairs")
        self.probes  # every row's probe, before any row runs; last, as it costs most

    @functools.cached_property
    def probes(self) -> tuple[ProbeMode, ...]:
        """The probe of every row the config writes, in row order, built once
        for validation and the run alike: the one ``(alpha, theta)`` of a
        shot experiment or ``validate-oracle``, or each ``(grid_alpha[i],
        grid_theta[j])`` pair of a sweep, ``i`` outermost."""
        if self.experiment != "sweep":
            return (_probe(self.alpha, self.theta, "alpha", "theta"),)
        return tuple(_probe(alpha, theta, "grid_alpha", "grid_theta")
                     for alpha in self.grid_alpha for theta in self.grid_theta)


#: each run key's :class:`_Key`, by its :class:`ExperimentConfig` field
_KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}

#: the keys whose value a config checks against their choices or as an integer
_CHECKED_KEYS = tuple(
    (key, spec) for key, spec in _KEYS.items() if spec.choices is not None or spec.type is int
)


def _invalid_choice(key: str, spec: _Key, value) -> str:
    return f"{key}: invalid choice {value!r}, choose from {', '.join(spec.choices)}"


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
            raise ConfigError(f"{_invalid_choice(key, spec, raw)} (config line {lineno})")
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


#: each flag whose value may start with '-', and each abbreviation of it
#: longer than "--"
_SIGNED_VALUE_PREFIXES = frozenset(
    flag[:end]
    for flag in (_flag(key) for key, spec in _KEYS.items() if spec.parse)
    for end in range(3, len(flag) + 1)
)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag VALUE`` as ``--flag=VALUE`` when VALUE starts with '-'.

    argparse reads a separate argument starting with '-' as a flag unless it
    is a plain negative number, so ``--input -0.6,0.8;1,0`` or
    ``--grid-alpha -1:4:2`` would fail with "expected one argument".
    Abbreviations of the flags count too; an ambiguous one still gets
    argparse's own error.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        flag, value = argv[i], argv[i + 1]
        if flag in _SIGNED_VALUE_PREFIXES and value.startswith("-") and not value.startswith("--"):
            argv[i : i + 2] = [f"{flag}={value}"]
    return argv


def parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Merge config file and flags (flags win) into a config."""
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
    return ExperimentConfig(**values)  # the keys left unset keep its defaults


def _probe(alpha: float, theta: float, alpha_key: str, theta_key: str) -> ProbeMode:
    """``analysis.geometry(alpha, theta)``, or a ``ConfigError`` naming
    ``alpha_key`` if the amplitude alone is refused (at theta = 0) and
    ``theta_key`` otherwise."""
    try:
        return analysis.geometry(alpha, theta)
    except ValidationError as exc:
        refused = exc
    try:
        analysis.geometry(alpha, 0.0)
    except ValidationError as exc:
        raise ConfigError(f"{alpha_key}: {exc}") from None
    raise ConfigError(f"{theta_key}: {refused}") from None


def _row(config, experiment, probe, error_rate, error_ci, mean_fidelity) -> dict:
    """The output row of ``experiment`` at ``probe``, with the run's shots and
    seed and the probe's ``x0``, ``xd`` and ``p_error`` beside the figures given."""
    return {
        "experiment": experiment,
        "alpha": probe.alpha,
        "theta": probe.theta,
        "shots": config.shots,
        "seed": config.seed,
        "x0": probe.x0,
        "xd": probe.xd,
        "p_error_analytic": analysis.p_error(probe.alpha, probe.theta),
        "error_rate": error_rate,
        "error_ci": error_ci,
        "mean_fidelity": mean_fidelity,
    }


def _validate_oracle(config: ExperimentConfig, probe: ProbeMode) -> tuple[dict, bool]:
    """Cross-check the branch model against the Fock oracle at ``probe``.

    Runs the parity-detector circuit on ``config.input`` along both paths.
    Returns the row, whose ``error_rate`` is the worst homodyne-density
    deviation and ``mean_fidelity`` the state fidelity, and whether both are
    in tolerance.
    """
    state = new_state(list(config.input)).activate_probe(probe)
    n_trunc = fock.required_truncation(probe.alpha) + 5

    embedded = fock.oracle_embed(state, n_trunc)
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
        embedded = fock.oracle_cross_kerr(embedded, coupling)
    re_embedded = fock.oracle_embed(state, n_trunc)
    state_fid = fock.oracle_fidelity(embedded, re_embedded)

    # from the odd peak to the even one, 10 sigma past each
    grid = np.linspace(probe.peaks[0] - 10.0, probe.peaks[1] + 10.0, 2001)
    dev = float(np.max(np.abs(outcome_density(state)(grid) - fock.oracle_homodyne_density(embedded)(grid))))

    row = _row(config, "validate-oracle", probe, dev, 0.0, state_fid)
    return row, dev < 1e-6 and state_fid >= 1.0 - 1e-9


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


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in place, creating it with mode 0o666 less
    the umask.

    The file is never truncated to zero first: on ext4 (``auto_da_alloc``) a
    truncating rewrite waits for the previous write's writeback, tens of
    milliseconds per rerun.  A longer old file is cut to length after the
    write; a FIFO or a device reports size 0 and is never cut.  Nothing is
    fsynced.  A failed write raises ``OSError`` and may leave a tail of the
    old bytes.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def run(config: ExperimentConfig) -> int:
    """Execute a config; returns the process exit code."""
    start = time.perf_counter()
    gate = config.sweep_gate if config.experiment == "sweep" else config.experiment
    ok, rows = True, []
    for probe in config.probes:
        if gate == "validate-oracle":  # its only point
            row, ok = _validate_oracle(config, probe)
        else:
            stats = analysis.run_shots(gate, config.input, probe.alpha, probe.theta,
                                       config.shots, config.seed)
            row = _row(config, gate, probe, stats.logical_error_rate, stats.error_ci,
                       stats.mean_fidelity)
        rows.append(row)

    text = _render_csv(rows) if config.format == "csv" else _render_json(rows)
    try:
        _write_output(config.output, text)
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
        return run(parse_config(argv))
    except ValidationError as exc:  # a ConfigError, or input the simulator cannot represent
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure -> exit 1, per contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

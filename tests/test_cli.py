"""Flag/config parsing, experiment execution, output schema, determinism."""

import ast
import builtins
import io
import json
import math
import os
import shlex
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kerrgate
from kerrgate import ContractError, analysis, cli, fock
from kerrgate.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run,
)


def theta_for_separation(alpha, xd):
    return math.acos(1.0 - xd / (2.0 * alpha))


class TestParseConfig:
    def test_flags_build_valid_config(self):
        config = parse_config(
            "--experiment cnot --alpha 50 --theta 0.5 --shots 100000 --seed 7".split()
        )
        assert config.experiment == "cnot"
        assert config.alpha == 50.0
        assert config.theta == 0.5
        assert config.shots == 100_000
        assert config.seed == 7

    def test_defaults(self):
        config = parse_config("--experiment parity --alpha 8 --theta 0.5".split())
        assert config.shots == 10_000
        assert config.seed == 42
        assert config.format == "csv"

    def test_theta_out_of_range_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = parity\nalpha = 8\ntheta = 4.0\n")
        with pytest.raises(ConfigError, match="theta"):
            parse_config(["--config", str(cfg)])

    @pytest.mark.parametrize(
        "flag,value,key",
        [
            ("--alpha", "inf", "alpha"),
            ("--theta", "-0.1", "theta"),
            ("--grid-theta", "0.1:3.5:2", "grid_theta"),
            ("--grid-alpha", "-1:4:2", "grid_alpha"),
        ],
    )
    def test_out_of_regime_value_exits_2_naming_its_key(self, flag, value, key, capsys):
        values = {"--alpha": "8", "--theta": "0.5", "--grid-alpha": "5:10:2",
                  "--grid-theta": "0.2:0.5:2", flag: value}
        args = ["--experiment", "sweep", *(arg for item in values.items() for arg in item)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_sweep_without_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config("--experiment sweep --alpha 8 --theta 0.5".split())

    def test_sweep_without_grid_exits_2(self, capsys):
        assert main("--experiment sweep --alpha 8 --theta 0.5".split()) == 2
        assert "grid" in capsys.readouterr().err

    def test_unknown_config_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = parity\nalpha = 8\ntheta = 0.5\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(["--config", str(cfg)])

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "experiment = parity\n"
            "alpha = 8\n"
            "theta = 0.5\n"
            "seed = 1\n"
        )
        config = parse_config(["--config", str(cfg), "--seed", "99"])
        assert config.seed == 99
        assert config.alpha == 8.0

    def test_input_pairs_are_parsed_and_renormalized(self):
        config = parse_config(
            ["--experiment", "parity", "--alpha", "8", "--theta", "0.5",
             "--input", "0.70710678,0.70710678;1,0"]
        )
        (c0, c1), (d0, d1) = config.input
        assert abs(c0) ** 2 + abs(c1) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert (d0, d1) == (1, 0)

    def test_oracle_alpha_cap(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("--experiment validate-oracle --alpha 9 --theta 0.5".split())

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = "--experiment parity --alpha 20 --theta 0.5 --shots 10 --seed -3".split()
        assert main(args + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: seed: must be >= 0, got -3" in err
        assert "internal error" not in err
        assert not out.exists()

    def test_negative_seed_in_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = cnot\nalpha = 20\ntheta = 0.5\nseed = -1\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(["--config", str(cfg)])

    @pytest.mark.parametrize("experiment", ["parity", "cnot", "validate-oracle"])
    @pytest.mark.parametrize("pairs", ["nan,1;1,0", "inf,1;1,0", "1,0;0,-inf", "1,nanj;1,0"])
    def test_non_finite_input_exits_2(self, experiment, pairs, tmp_path, capsys):
        out = tmp_path / "run.csv"
        args = ["--experiment", experiment, "--alpha", "2", "--theta", "0.5",
                "--shots", "10", "--input", pairs, "--output", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error: input: amplitudes must be finite" in err
        assert "internal error" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_alpha_exits_2(self, tmp_path, capsys):
        # alpha = 1e300 is past the largest amplitude the engines can
        # represent: a config error, and no raw NumPy warning before it
        out = tmp_path / "run.csv"
        args = "--experiment parity --alpha 1e300 --theta 0.5 --shots 10".split()
        assert main(args + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: alpha: " in err
        assert "internal error" not in err
        assert not out.exists()

    def test_other_failures_stay_internal_errors(self, monkeypatch, capsys):
        def broken(config):
            raise ContractError("no such plan")

        monkeypatch.setattr(cli, "run", broken)
        assert main("--experiment parity --alpha 20 --theta 0.5".split()) == 1
        assert "internal error: no such plan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--input", "--inp"])
    def test_input_starting_with_minus_needs_no_equals_sign(self, flag, tmp_path):
        base = ["--experiment", "parity", "--alpha", "20", "--theta", "0.5",
                "--shots", "50", "--seed", "9"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(base + [flag, "-0.6,0.8;1,0", "--output", str(spaced)]) == 0
        assert main(base + ["--input=-0.6,0.8;1,0", "--output", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_every_abbreviation_of_a_signed_flag_takes_a_signed_value(self):
        """A flag (or an abbreviation of one, longer than ``--``) whose value
        may start with '-' gets its value attached; no other flag does."""
        signed = [f"--{key.replace('_', '-')}" for key, spec in cli._KEYS.items() if spec.parse]
        parser = cli._build_parser()
        flags = [option for action in parser._actions for option in action.option_strings]
        for flag in flags:
            for end in range(1, len(flag) + 1):
                prefix = flag[:end]
                takes = end > 2 and any(s.startswith(prefix) for s in signed)
                expected = [f"{prefix}=-1:4:2"] if takes else [prefix, "-1:4:2"]
                assert cli._attach_signed_values([prefix, "-1:4:2"]) == expected, prefix

    @pytest.mark.parametrize("flag", ["--g", "--grid"])
    def test_ambiguous_abbreviation_of_signed_flags_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(
                ["--experiment", "sweep", "--alpha", "20", "--theta", "0.5", flag, "-1:4:2"]
            )
        assert exc.value.code == 2
        assert f"ambiguous option: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--bogus", "-1"], ["--input", "--seed", "3"]])
    def test_unknown_flag_and_missing_input_still_exit_2(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--experiment", "parity", "--alpha", "20", "--theta", "0.5", *extra])
        assert exc.value.code == 2
        assert ("unrecognized arguments" if extra[0] == "--bogus" else "expected one argument") in (
            capsys.readouterr().err
        )

    def test_overflowing_input_exits_2(self, capsys):
        args = ["--experiment", "parity", "--alpha", "2", "--theta", "0.5",
                "--input", "1e200,1;1,0"]
        assert main(args) == 2
        assert "error: input: amplitudes too large to normalize" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "grid",
        ["1:inf:2", "-inf:1:2", "nan:1:2", "1e308:-1e308:3", f"1:2:{10**15}", f"1:2:{10**19}"],
        ids=["inf-stop", "inf-start", "nan", "infinite-span", "unallocatable", "past-numpy-max"],
    )
    def test_grid_numpy_cannot_build_exits_2(self, grid, tmp_path, capsys):
        # 10**15 float64 points exceed any address space, so the allocation
        # fails at once; past 2**63 NumPy refuses the size outright
        out = tmp_path / "run.csv"
        args = ["--experiment", "sweep", "--alpha", "8", "--theta", "0.5", "--shots", "10",
                "--grid-alpha", grid, "--grid-theta", "0.5:0.5:1", "--output", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid_alpha: ")
        assert "Traceback" not in err and "internal error" not in err
        assert not out.exists()


#: the weak-Kerr point where ``alpha (1 + cos theta)`` rounds onto the even
#: peak ``2 alpha``: at xd = 20 every even shot would read odd
UNRESOLVABLE = ("1e17", "1.4142135623730951e-08")
POINT = ["--alpha", "8", "--theta", "0.5", "--shots", "10"]
SWEEP = ["--experiment", "sweep", *POINT, "--grid-alpha", "8:8:1", "--grid-theta", "0.5:0.5:1"]

#: (argv, config-file text or None, the start of stderr) of runs that exit 2
#: before any output is written; "CONFIG" in argv is the config file's path
EXIT_2 = {
    "input-not-a-pair": (
        ["--experiment", "parity", *POINT, "--input", "1,0,0;1,0"], None,
        "error: input: expected 'c0,c1' pairs, got '1,0,0'",
    ),
    "input-bad-amplitude": (
        ["--experiment", "parity", *POINT, "--input", "1,x;1,0"], None,
        "error: input: bad amplitude in '1,x': ",
    ),
    "input-zero-pair": (
        ["--experiment", "parity", *POINT, "--input", "0,0j;1,0"], None,
        "error: input: zero amplitude pair '0,0j'",
    ),
    "input-three-pairs": (
        ["--experiment", "cnot", *POINT, "--input", "1,0;1,0;0,1"], None,
        "error: input: expected exactly two amplitude pairs",
    ),
    "grid-not-a-triple": (
        SWEEP + ["--grid-alpha", "1:2"], None,
        "error: grid_alpha: expected 'start:stop:count', got '1:2'",
    ),
    "grid-count-zero": (
        SWEEP + ["--grid-theta", "0.1:0.2:0"], None,
        "error: grid_theta: count must be >= 1",
    ),
    "config-unreadable": (
        ["--config", "CONFIG.missing", "--experiment", "parity", *POINT], None,
        "error: config: cannot read ",
    ),
    "config-line-without-equals": (
        ["--config", "CONFIG", *POINT], "experiment = parity\nshots 10\n",
        "error: config line 2: expected 'key = value', got 'shots 10'",
    ),
    "experiment-missing": (
        POINT, None, "error: experiment: required (flag --experiment or config key)",
    ),
    "theta-missing": (
        ["--experiment", "parity", "--alpha", "8"], None, "error: alpha, theta: both are required",
    ),
    "alpha-missing": (
        ["--experiment", "parity", "--theta", "0.5"], None,
        "error: alpha, theta: both are required",
    ),
    "shots-zero": (
        ["--experiment", "parity", *POINT, "--shots", "0"], None,
        "error: shots: must be >= 1, got 0",
    ),
    "threshold-unresolvable": (
        ["--experiment", "parity", "--alpha", UNRESOLVABLE[0], "--theta", UNRESOLVABLE[1],
         "--input", "1,0;1,0", "--shots", "1000"], None,
        "error: theta: probe theta 1.414213562373095e-08 at alpha 1e+17 is unresolvable",
    ),
    "sweep-point-unresolvable": (
        SWEEP + ["--grid-alpha", f"{UNRESOLVABLE[0]}:{UNRESOLVABLE[0]}:1",
                 "--grid-theta", f"{UNRESOLVABLE[1]}:{UNRESOLVABLE[1]}:1"], None,
        "error: grid_theta: probe theta 1.414213562373095e-08 at alpha 1e+17 is unresolvable",
    ),
}


#: (fields, the flags of the same run, the start of the message) of configs
#: that are refused when they are built, by the CLI and a direct caller alike
REFUSED_CONFIGS = {
    "sweep-without-grids": (
        dict(experiment="sweep", alpha=8.0, theta=0.5), ["--experiment", "sweep", *POINT],
        "grid_alpha, grid_theta: sweep needs both grids",
    ),
    "shots-zero": (
        dict(experiment="parity", alpha=8.0, theta=0.5, shots=0),
        ["--experiment", "parity", *POINT, "--shots", "0"], "shots: must be >= 1, got 0",
    ),
    "seed-negative": (
        dict(experiment="parity", alpha=8.0, theta=0.5, seed=-3),
        ["--experiment", "parity", *POINT, "--seed", "-3"], "seed: must be >= 0, got -3",
    ),
    "input-three-pairs": (
        dict(experiment="cnot", alpha=8.0, theta=0.5, input=((1, 0), (1, 0), (0, 1))),
        ["--experiment", "cnot", *POINT, "--input", "1,0;1,0;0,1"],
        "input: expected exactly two amplitude pairs",
    ),
    "validate-oracle-alpha-5": (
        dict(experiment="validate-oracle", alpha=5.0, theta=0.5),
        ["--experiment", "validate-oracle", "--alpha", "5", "--theta", "0.5"],
        "alpha: validate-oracle needs alpha <= 3.0 (Fock truncation stays tractable",
    ),
    "alpha-1e300": (
        dict(experiment="parity", alpha=1e300, theta=0.5),
        ["--experiment", "parity", "--alpha", "1e300", "--theta", "0.5"], "alpha: probe alpha",
    ),
}


#: (fields, the message) of configs that argparse and the config-file reader
#: refuse before any is built, which a direct build refuses too: a value
#: outside its key's choices, an integer key's value that is no integer, or
#: a real key's value as text, which the readers parse before a build
REFUSED_BUILDS = {
    "format-xml": (
        dict(experiment="parity", alpha=8.0, theta=0.5, format="xml"),
        "format: invalid choice 'xml', choose from csv, json",
    ),
    "sweep-of-the-oracle": (
        dict(experiment="sweep", sweep_gate="validate-oracle", alpha=0.5, theta=0.5,
             grid_alpha=(0.5, 5.0), grid_theta=(0.5,)),
        "sweep_gate: invalid choice 'validate-oracle', choose from parity, entangler, "
        "entangler45, cnot",
    ),
    "seed-fractional": (
        dict(experiment="parity", alpha=8.0, theta=0.5, seed=1.5),
        "seed: must be an integer, got 1.5",
    ),
    "shots-fractional": (
        dict(experiment="parity", alpha=8.0, theta=0.5, shots=2.5),
        "shots: must be an integer, got 2.5",
    ),
    "validate-oracle-text-alpha": (
        dict(experiment="validate-oracle", alpha="8", theta=0.5),
        "alpha: probe alpha must be a real number, got '8'",
    ),
    "experiment-unknown": (
        dict(experiment="teleport", alpha=8.0, theta=0.5),
        "experiment: invalid choice 'teleport', choose from parity, entangler, entangler45, "
        "cnot, sweep, validate-oracle",
    ),
}


class TestErrorExits:
    @pytest.mark.parametrize("case", list(REFUSED_BUILDS))
    def test_a_config_refuses_what_the_flag_and_file_readers_refuse(self, case, tmp_path):
        values, message = REFUSED_BUILDS[case]
        out = tmp_path / "run.csv"
        with pytest.raises(ConfigError) as info:
            cli.run(ExperimentConfig(**values, output=str(out)))
        assert str(info.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("case", list(REFUSED_CONFIGS))
    def test_a_config_is_refused_when_built_as_main_refuses_it(self, case, tmp_path, capsys):
        values, argv, message = REFUSED_CONFIGS[case]
        out = tmp_path / "run.csv"
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**values, output=str(out))
        assert str(info.value).startswith(message)
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", list(EXIT_2))
    def test_rejected_run_exits_2_and_writes_nothing(self, case, tmp_path, capsys):
        argv, config_text, message = EXIT_2[case]
        config = tmp_path / "run.cfg"
        if config_text is not None:
            config.write_text(config_text)
        argv = [arg.replace("CONFIG", str(config)) for arg in argv]
        out = tmp_path / "run.csv"
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1 and "internal error" not in err
        assert not out.exists()

    def test_validate_oracle_outside_tolerance_exits_1_and_writes_its_row(
        self, monkeypatch, tmp_path, capsys
    ):
        exact = fock.oracle_homodyne_density

        def shifted(state):
            density = exact(state)
            return lambda x: density(x) + 1e-3

        monkeypatch.setattr(fock, "oracle_homodyne_density", shifted)
        out = tmp_path / "oracle.csv"
        args = ["--experiment", "validate-oracle", "--alpha", "2", "--theta", "0.5"]
        assert main([*args, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: oracle validation outside tolerance\n"
        assert captured.out.startswith("validate-oracle: ")
        header, row = out.read_text().splitlines()
        assert header == CSV_HEADER
        fields = dict(zip(CSV_HEADER.split(","), row.split(",")))
        assert float(fields["error_rate"]) == pytest.approx(1e-3, rel=1e-3)
        assert float(fields["mean_fidelity"]) >= 1 - 1e-9


def count_run_shots(monkeypatch):
    """Wrap ``analysis.run_shots`` in a call counter; returns the count list."""
    calls = []
    run_shots = analysis.run_shots

    def counted(*args, **kwargs):
        calls.append(args)
        return run_shots(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_shots", counted)
    return calls


class TestSweepPoints:
    """A sweep checks every (grid_alpha, grid_theta) pair it runs, and only those."""

    def test_every_valid_pair_runs_whatever_the_scalar_alpha(self, tmp_path):
        # theta 1e-8 is unresolvable at --alpha 1e17, but no row runs there
        out = tmp_path / "sweep.csv"
        args = ["--experiment", "sweep", "--alpha", "1e17", "--theta", "0.5",
                "--grid-alpha", "100:1000:2", "--grid-theta", "1e-8:1e-7:2", "--shots", "10"]
        assert main([*args, "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_validation_and_the_run_share_one_probe_per_row(self, monkeypatch, tmp_path):
        """A sweep asks for its ``--alpha``/``--theta`` probe and each grid
        pair's once: the run reuses the list validation built, so a sweep
        wider than the ``analysis.geometry`` cache builds no probe twice."""
        asked = []
        probe = cli._probe

        def counted(alpha, theta, *keys):
            asked.append((alpha, theta))
            return probe(alpha, theta, *keys)

        monkeypatch.setattr(cli, "_probe", counted)
        args = ["--experiment", "sweep", "--alpha", "8", "--theta", "0.5",
                "--grid-alpha", "6:10:3", "--grid-theta", "0.4:0.8:2", "--shots", "5"]
        assert main([*args, "--output", str(tmp_path / "sweep.csv")]) == 0
        grid = [(a, t) for a in (6.0, 8.0, 10.0) for t in (0.4, 0.8)]
        assert asked == [(8.0, 0.5), *grid]

    def test_one_refused_pair_exits_2_before_any_shot(self, monkeypatch, tmp_path, capsys):
        calls = count_run_shots(monkeypatch)
        out = tmp_path / "sweep.csv"
        args = ["--experiment", "sweep", "--alpha", "100", "--theta", "0.5",
                "--grid-alpha", "100:1e17:2", "--grid-theta", "0.5:1.4142135623730951e-08:2"]
        assert main([*args, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: grid_theta: probe theta 1.414213562373095e-08 at alpha 1e+17 is unresolvable"
        )
        assert not out.exists()
        assert calls == []

    @given(
        alpha_exponents=st.lists(st.floats(2.0, 18.0), min_size=2, max_size=2),
        theta_exponents=st.lists(st.floats(-9.0, 0.0), min_size=2, max_size=2),
        n_alpha=st.integers(1, 3),
        n_theta=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_sweep_fails_before_its_first_shot_or_not_at_all(
        self, monkeypatch, tmp_path, alpha_exponents, theta_exponents, n_alpha, n_theta
    ):
        # the grids' endpoints straddle the threshold guard's onset (alpha
        # above about 1e7 with theta below about 1e-6)
        a0, a1 = (10.0**e for e in alpha_exponents)
        t0, t1 = (10.0**e for e in theta_exponents)
        with monkeypatch.context() as patch:
            calls = count_run_shots(patch)
            code = main(["--experiment", "sweep", *POINT, "--shots", "1",
                         "--grid-alpha", f"{a0!r}:{a1!r}:{n_alpha}",
                         "--grid-theta", f"{t0!r}:{t1!r}:{n_theta}",
                         "--output", str(tmp_path / "sweep.csv")])
        assert (code, calls) == (2, []) or code == 0


#: a value for each run key, each unlike its default; ``input`` starts with '-'
KEY_VALUES = {
    "experiment": "sweep",
    "alpha": "2.5",
    "theta": "0.3",
    "shots": "7",
    "seed": "5",
    "input": "-0.6,0.8j;1,0",
    "grid_alpha": "1:4:2",
    "grid_theta": "0.1:0.2:3",
    "sweep_gate": "cnot",
    "output": "elsewhere.json",
    "format": "json",
}


class TestRunKeys:
    """Each run key reads the same from its flag and from a config file."""

    def test_every_config_field_is_a_key(self):
        assert set(cli._KEYS) == set(KEY_VALUES) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("key", sorted(KEY_VALUES))
    def test_config_line_and_flag_build_equal_configs(self, key, tmp_path):
        base = {k: v for k, v in KEY_VALUES.items() if k != key}
        argv = [arg for k, v in base.items() for arg in (f"--{k.replace('_', '-')}", v)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {KEY_VALUES[key]}\n")
        from_file = parse_config(["--config", str(cfg), *argv])
        from_flag = parse_config([*argv, f"--{key.replace('_', '-')}", KEY_VALUES[key]])
        assert from_file == from_flag
        default = next(f.default for f in fields(ExperimentConfig) if f.name == key)
        assert getattr(from_file, key) != default

    @pytest.mark.parametrize(
        "key,value", [("experiment", "teleport"), ("format", "xml"), ("sweep_gate", "sweep"),
                      ("shots", "many")]
    )
    def test_bad_config_value_exits_2_naming_its_key(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "run.csv"
        args = ["--config", str(cfg), "--alpha", "8", "--theta", "0.5", "--output", str(out)]
        if key != "experiment":
            args += ["--experiment", "sweep", "--grid-alpha", "8:8:1", "--grid-theta", "0.5:0.5:1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert repr(value) in err and "config line 1" in err
        assert not out.exists()


class TestParserReuse:
    """One parser serves every call; no call may leave state behind."""

    BASE = ["--experiment", "parity", "--alpha", "8", "--theta", "0.5"]

    def test_seed_flag_does_not_carry_over(self):
        assert parse_config(self.BASE + ["--seed", "99"]).seed == 99
        assert parse_config(self.BASE).seed == 42

    def test_config_file_values_do_not_carry_over(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "experiment = cnot\nalpha = 20\ntheta = 0.3\nshots = 7\nseed = 5\n"
            "input = 1,0;0,1\nformat = json\noutput = elsewhere.json\n"
        )
        first = parse_config(["--config", str(cfg)])
        assert (first.experiment, first.shots, first.seed) == ("cnot", 7, 5)
        assert parse_config(self.BASE) == ExperimentConfig(
            experiment="parity", alpha=8.0, theta=0.5
        )

    def test_bad_experiment_still_exits_2_after_good_call(self, capsys):
        parse_config(self.BASE)
        with pytest.raises(SystemExit) as exc:
            parse_config(["--experiment", "teleport", "--alpha", "8", "--theta", "0.5"])
        assert exc.value.code == 2
        assert "invalid choice: 'teleport'" in capsys.readouterr().err
        assert parse_config(self.BASE).experiment == "parity"

    @pytest.mark.parametrize("experiment", ["validate-oracle", "cnot"])
    def test_repeated_main_calls_write_identical_files(self, experiment, tmp_path):
        out = tmp_path / "run.json"
        args = ["--experiment", experiment, "--alpha", "2.2", "--theta", "0.7",
                "--shots", "64", "--seed", "17", "--input", "0.6,0.8j;1,2",
                "--format", "json", "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(args) == 0
        assert out.read_bytes() == first


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(text: str, after: str) -> str:
    """The first fenced block of ``text`` after the line ``after``."""
    rest = text.split(f"\n{after}\n", 1)[1]
    return rest.split("```", 2)[1].split("\n", 1)[1]


def test_the_readme_cli_examples_run(tmp_path, monkeypatch):
    """Each ``kerrgate`` command in README's CLI section, its ``\\``
    continuations joined, exits 0 and writes its ``--output`` with the
    README's output schema: the CSV header, or those JSON fields."""
    text = README.read_text()
    schema = "Output schema (CSV header, mirrored by JSON field names):"
    header = readme_block(text, schema).strip()
    commands = readme_block(text, "## CLI").replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in commands:
        if not line.startswith("kerrgate "):
            continue
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = Path(argv[argv.index("--output") + 1]).read_text()
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            rows = json.loads(out)
            assert rows and all(list(row) == header.split(",") for row in rows), line
        else:
            assert out.splitlines()[0] == header, line
        ran += 1
    assert ran


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominated start-up time and memory; the CLI path needs none of it
    src = os.path.dirname(os.path.dirname(kerrgate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, kerrgate.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_cli_runs_load_no_scipy_module():
    # the runtime needs NumPy and the standard library only; SciPy serves
    # the tests as an independent reference
    src = os.path.dirname(os.path.dirname(kerrgate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    point = ["--alpha", "20", "--theta", "0.5", "--shots", "4", "--seed", "1"]
    runs = [["--experiment", e, *point] for e in ("parity", "entangler", "entangler45", "cnot")]
    runs.append(["--experiment", "sweep", *point, "--grid-alpha", "20:20:1", "--grid-theta", "0.5:0.5:1"])
    runs.append(["--experiment", "validate-oracle", "--alpha", "1.0", "--theta", "0.5"])
    code = (
        "import contextlib, io, os, sys, tempfile\n"
        "from kerrgate import cli\n"
        "out = os.path.join(tempfile.mkdtemp(), 'run.csv')\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--output', out]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _shot_args(experiment, theta):
    return ["--experiment", experiment, "--alpha", "20", "--theta", theta,
            "--shots", "200", "--seed", "4242"]


#: CLI rows as written while ``p_error`` called ``scipy.special.erfc``; each
#: entry is (argv, rows).  ``math.erfc`` moved ``p_error_analytic`` once, in
#: its last digits, and left every other column as it was.  The theta = 0.3
#: rows and the first three ``sweep`` rows were written again, whole, when
#: each run began to read one random stream (``default_rng(seed)``, shot ``i``
#: from word ``i K``); their shot columns moved then, with the same
#: statistics.  The theta = 0.9 rows, the last ``sweep`` row and the
#: ``validate-oracle`` rows are the scipy-era rows.  When the shot engine
#: began to normalize once per shot, ``mean_fidelity`` of ``entangler-0.3``
#: and ``cnot-0.3`` moved in their last digits, each closer to the 50-digit
#: replay in ``test_golden_replay.py``, which holds every shot row's
#: ``mean_fidelity`` within 4 ulp of it.
ERFC_GOLDEN = {
    "parity-0.3": (_shot_args("parity", "0.3"), [
        "parity,20,0.29999999999999999,200,4242,39.106729782512119,1.786540434975759,"
        "0.18585624154237917,1,0,0.81151094227567455",
    ]),
    "parity-0.9": (_shot_args("parity", "0.9"), [
        "parity,20,0.90000000000000002,200,4242,32.43219936541329,15.135601269173424,"
        "1.8979797331643401e-14,0,0,1",
    ]),
    "entangler-0.3": (_shot_args("entangler", "0.3"), [
        "entangler,20,0.29999999999999999,200,4242,39.106729782512119,1.786540434975759,"
        "0.18585624154237917,1,0,0.81151094227567455",
    ]),
    "entangler-0.9": (_shot_args("entangler", "0.9"), [
        "entangler,20,0.90000000000000002,200,4242,32.43219936541329,15.135601269173424,"
        "1.8979797331643401e-14,0,0,1",
    ]),
    "entangler45-0.3": (_shot_args("entangler45", "0.3"), [
        "entangler45,20,0.29999999999999999,200,4242,39.106729782512119,1.786540434975759,"
        "0.18585624154237917,0.19,0.083219589040081171,0.81000000000000005",
    ]),
    "entangler45-0.9": (_shot_args("entangler45", "0.9"), [
        "entangler45,20,0.90000000000000002,200,4242,32.43219936541329,15.135601269173424,"
        "1.8979797331643401e-14,0,0,1",
    ]),
    "cnot-0.3": (_shot_args("cnot", "0.3"), [
        "cnot,20,0.29999999999999999,200,4242,39.106729782512119,1.786540434975759,"
        "0.18585624154237917,1,0,0.77240489272773194",
    ]),
    "cnot-0.9": (_shot_args("cnot", "0.9"), [
        "cnot,20,0.90000000000000002,200,4242,32.43219936541329,15.135601269173424,"
        "1.8979797331643401e-14,0,0,1",
    ]),
    "sweep": (["--experiment", "sweep", "--alpha", "20", "--theta", "0.5",
               "--grid-alpha", "5:45:2", "--grid-theta", "0.2:1.1:2", "--sweep-gate", "cnot",
               "--shots", "40", "--seed", "4242"], [
        "cnot,5,0.20000000000000001,40,4242,9.9003328892062079,0.19933422158758371,"
        "0.46030430613840601,1,0,0.49745254034361042",
        "cnot,5,1.1000000000000001,40,4242,7.2679806071278863,5.4640387857442274,"
        "0.0031473717845409599,0.52500000000000002,0.23687417546030631,0.99645119598078691",
        "cnot,45,0.20000000000000001,40,4242,89.102996002855875,1.7940079942882534,"
        "0.18485839206251214,1,0,0.83536614995835878",
        "cnot,45,1.1000000000000001,40,4242,65.411825464150979,49.176349071698048,"
        "8.4518685489841914e-134,0,0,1",
    ]),
    **{
        f"validate-oracle-{alpha}": (
            ["--experiment", "validate-oracle", "--alpha", alpha, "--theta", "0.5"], [row]
        )
        for alpha, row in [
            ("0.3", "validate-oracle,0.29999999999999999,0.5,10000,42,0.56327476856711178,"
                    "0.073450462865776375,0.48535204521804526,8.3427154073945076e-12,0,"
                    "0.99999999999999989"),
            ("1.0", "validate-oracle,1,0.5,10000,42,1.8775825618903728,0.24483487621925459,"
                    "0.45128421438166233,9.6803745575080313e-10,0,1"),
            ("2.2", "validate-oracle,2.2000000000000002,0.5,10000,42,4.1306816361588208,"
                    "0.53863672768236015,0.393842350889896,3.4755622713156242e-08,0,1"),
            ("3.0", "validate-oracle,3,0.5,10000,42,5.6327476856711183,0.73450462865776378,"
                    "0.35671541010713748,2.5014308221993353e-08,0,1.0000000000000002"),
        ]
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(ERFC_GOLDEN))
def test_rows_move_only_in_p_error_roundoff(case, fmt, tmp_path):
    argv, golden_rows = ERFC_GOLDEN[case]
    out = tmp_path / f"run.{fmt}"
    assert main([*argv, "--format", fmt, "--output", str(out)]) == 0
    text = out.read_text()
    if fmt == "csv":
        header, *lines = text.splitlines()
        assert header == CSV_HEADER
        rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines]
    else:
        # every number as the token written, to compare it with the CSV text
        rows = json.loads(text, parse_float=str, parse_int=str)
    assert len(rows) == len(golden_rows)
    for got, line in zip(rows, golden_rows):
        golden = dict(zip(CSV_HEADER.split(","), line.split(",")))
        p_got, p_golden = float(got.pop("p_error_analytic")), float(golden.pop("p_error_analytic"))
        assert abs(p_got - p_golden) <= 1e-12 * p_golden
        assert got == golden


#: ``validate-oracle`` rows at theta = 0.7, input "0.6,0.8j;0.28,0.96", as
#: written when the homodyne densities were evaluated in complex arithmetic
ORACLE_GOLDEN = {
    0.3: "validate-oracle,0.29999999999999999,0.69999999999999996,10000,42,0.52945265618534654,"
    "0.14109468762930694,0.47187900973731739,4.0536463075113716e-12,0,1",
    1.0: "validate-oracle,1,0.69999999999999996,10000,42,1.7648421872844886,"
    "0.47031562543102312,0.40704312423212635,2.4956364752526383e-09,0,1.0000000000000002",
    2.2: "validate-oracle,2.2000000000000002,0.69999999999999996,10000,42,3.8826528120258752,"
    "1.034694375948251,0.30245690952976234,2.9560537850858992e-08,0,1",
    3.0: "validate-oracle,3,0.69999999999999996,10000,42,5.2945265618534663,"
    "1.4109468762930693,0.24025782809800372,3.3965341539321514e-08,0,1",
}


#: ``error_rate`` at ORACLE_GOLDEN's points as the real-arithmetic densities
#: write it, every digit
ORACLE_ERROR_RATES = {
    0.3: "4.0537018186626028e-12",
    1.0: "2.4956364197414871e-09",
    2.2: "2.9560537850858992e-08",
    3.0: "3.3965341483810363e-08",
}


@pytest.mark.parametrize("alpha", sorted(ORACLE_GOLDEN))
def test_validate_oracle_rows_move_only_in_error_rate_roundoff(alpha, tmp_path):
    """Real-arithmetic densities change ``error_rate`` in its last digits only;
    every other column is the same string, and ``error_rate`` is pinned to
    the last bit by ORACLE_ERROR_RATES."""
    out = tmp_path / "oracle.csv"
    assert main(["--experiment", "validate-oracle", "--alpha", repr(alpha), "--theta", "0.7",
                 "--input", "0.6,0.8j;0.28,0.96", "--output", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == CSV_HEADER
    got = dict(zip(CSV_HEADER.split(","), row.split(",")))
    golden = dict(zip(CSV_HEADER.split(","), ORACLE_GOLDEN[alpha].split(",")))
    assert got["error_rate"] == ORACLE_ERROR_RATES[alpha]
    assert abs(float(got.pop("error_rate")) - float(golden.pop("error_rate"))) <= 1e-15
    assert got == golden


class TestRun:
    def test_cnot_row_surfaces_headline_error_bound(self, tmp_path):
        # separation 9: the analytic error in the output is below 1e-5
        alpha = 50.0
        theta = theta_for_separation(alpha, 9.0)
        out = tmp_path / "cnot.csv"
        config = ExperimentConfig(
            experiment="cnot", alpha=alpha, theta=theta, shots=50, seed=3,
            output=str(out),
        )
        assert run(config) == 0
        header, row = out.read_text().strip().split("\n")
        assert header == CSV_HEADER
        fields = dict(zip(CSV_HEADER.split(","), row.split(",")))
        assert fields["experiment"] == "cnot"
        assert float(fields["p_error_analytic"]) < 1e-5
        assert float(fields["xd"]) == pytest.approx(9.0)

    def test_validate_oracle_within_tolerance(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        config = ExperimentConfig(
            experiment="validate-oracle", alpha=2.0, theta=0.5, output=str(out)
        )
        assert run(config) == 0
        row = out.read_text().strip().split("\n")[1]
        fields = dict(zip(CSV_HEADER.split(","), row.split(",")))
        assert float(fields["error_rate"]) < 1e-6  # density sup-norm deviation
        assert float(fields["mean_fidelity"]) >= 1 - 1e-9

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = [
            "--experiment", "parity", "--alpha", "8", "--theta", "0.5",
            "--shots", "500", "--seed", "21",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirrors_csv_fields(self, tmp_path):
        out = tmp_path / "run.json"
        config = ExperimentConfig(
            experiment="parity", alpha=8.0, theta=0.5, shots=200, seed=4,
            output=str(out), format="json",
        )
        assert run(config) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert list(rows[0].keys()) == CSV_HEADER.split(",")

    def test_sweep_emits_one_row_per_grid_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "--experiment", "sweep", "--alpha", "8", "--theta", "0.5",
            "--grid-alpha", "6:10:3", "--grid-theta", "0.4:0.8:2",
            "--shots", "50", "--seed", "2", "--output", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == 3 * 2

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        config = ExperimentConfig(
            experiment="parity", alpha=8.0, theta=0.5, shots=10, seed=1,
            output=str(tmp_path / "no" / "such" / "dir" / "out.csv"),
        )
        assert run(config) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_summary_line_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        main(["--experiment", "parity", "--alpha", "8", "--theta", "0.5",
              "--shots", "100", "--seed", "5", "--output", str(out)])
        stdout = capsys.readouterr().out
        assert "parity" in stdout
        assert "p_error_analytic" in stdout
        assert "runtime" in stdout

    def test_floats_carry_17_significant_digits(self, tmp_path):
        out = tmp_path / "run.csv"
        config = ExperimentConfig(
            experiment="parity", alpha=1 / 3, theta=0.5, shots=10, seed=1,
            output=str(out),
        )
        assert run(config) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        alpha_text = row[1]
        assert float(alpha_text) == 1 / 3  # round-trips exactly
        assert len(alpha_text.replace(".", "").lstrip("0")) >= 16


class TestOutputFile:
    """``run`` rewrites its output in place: the bytes of a run to a fresh
    path, on the same inode, never truncated to zero first."""

    ARGS = ["--experiment", "parity", "--alpha", "8", "--theta", "0.72",
            "--shots", "64", "--seed", "4242"]

    def fresh_bytes(self, tmp_path, fmt="csv"):
        out = tmp_path / f"fresh.{fmt}"
        assert main([*self.ARGS, "--format", fmt, "--output", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("old", [b"\x00junk" * 2000, b"x"], ids=["10kB-of-junk", "1-byte"])
    def test_a_rewrite_leaves_exactly_the_new_bytes(self, old, fmt, tmp_path):
        out = tmp_path / f"old.{fmt}"
        out.write_bytes(old)
        assert main([*self.ARGS, "--format", fmt, "--output", str(out)]) == 0
        assert out.read_bytes() == self.fresh_bytes(tmp_path, fmt)

    def test_a_rewrite_keeps_the_inode(self, tmp_path):
        out = tmp_path / "run.csv"
        out.write_bytes(b"junk" * 2500)
        inode = out.stat().st_ino
        assert main([*self.ARGS, "--output", str(out)]) == 0
        assert main([*self.ARGS, "--output", str(out)]) == 0
        assert out.stat().st_ino == inode

    def test_a_symlink_writes_through_to_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"junk" * 2500)
        link.symlink_to(target)
        assert main([*self.ARGS, "--output", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == self.fresh_bytes(tmp_path)

    def test_a_new_file_gets_the_default_mode_less_the_umask(self, tmp_path):
        out = tmp_path / "new.csv"
        old_mask = os.umask(0o027)
        try:
            assert main([*self.ARGS, "--output", str(out)]) == 0
        finally:
            os.umask(old_mask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_dev_null_exits_0(self):
        assert main([*self.ARGS, "--output", os.devnull]) == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_device_exits_1(self, capsys):
        assert main([*self.ARGS, "--output", "/dev/full"]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_a_directory_exits_1(self, tmp_path, capsys):
        assert main([*self.ARGS, "--output", str(tmp_path)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_the_output_is_opened_once_without_o_trunc(self, monkeypatch, tmp_path):
        # a truncating rewrite stalls on ext4 until the last write's writeback
        out = tmp_path / "run.csv"
        out.write_bytes(b"junk" * 2500)
        os_opens, other_opens = [], []
        real_os_open, real_open = os.open, builtins.open

        def spy_os_open(path, flags, *args, **kwargs):
            os_opens.append((os.fspath(path), flags))
            return real_os_open(path, flags, *args, **kwargs)

        def spy_open(file, *args, **kwargs):
            other_opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(io, "open", spy_open)
        assert main([*self.ARGS, "--output", str(out)]) == 0
        assert [path for path, _ in os_opens] == [str(out)]
        assert not os_opens[0][1] & os.O_TRUNC
        assert str(out) not in [os.fspath(f) for f in other_opens if isinstance(f, (str, Path))]


class _WriteSites(ast.NodeVisitor):
    """Each ``os.open`` call, with the function it is in, and each other
    ``open(...)`` call whose mode may write, in one module."""

    def __init__(self, name):
        self.name, self.scope = name, []
        self.os_opens, self.writing_opens = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and ast.unparse(func) == "os.open":
            self.os_opens.append(f"{self.name}.{'.'.join(self.scope)}")
        elif ast.unparse(func).split(".")[-1] == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            # a mode that is not a literal may write too
            if not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                self.writing_opens.append(f"{self.name} line {node.lineno}")
        self.generic_visit(node)


def test_only_the_output_helper_opens_a_file_for_writing():
    # the source half of the guard against truncating writes: no open() in a
    # mode that writes, and os.open only in cli._write_output
    os_opens, writing_opens = [], []
    for path in sorted(Path(kerrgate.__file__).parent.glob("*.py")):
        sites = _WriteSites(path.stem)
        sites.visit(ast.parse(path.read_text(), str(path)))
        os_opens += sites.os_opens
        writing_opens += sites.writing_opens
    assert os_opens == ["cli._write_output"]
    assert writing_opens == []

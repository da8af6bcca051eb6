"""Flag/config parsing, experiment execution, output schema, determinism."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import kerrgate
from kerrgate import ContractError, cli
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
#: ``validate-oracle`` rows are the scipy-era rows.
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
        "0.18585624154237917,1,0,0.81151094227567488",
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
        "0.18585624154237917,1,0,0.77240489272773205",
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

"""Flag/config parsing, experiment execution, output schema, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import kerrgate
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
        assert config.output_format == "csv"

    def test_theta_out_of_range_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = parity\nalpha = 8\ntheta = 4.0\n")
        with pytest.raises(ConfigError, match="theta"):
            parse_config(["--config", str(cfg)])

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
        (c0, c1), (d0, d1) = config.input_state
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

    def test_overflowing_input_exits_2(self, capsys):
        args = ["--experiment", "parity", "--alpha", "2", "--theta", "0.5",
                "--input", "1e200,1;1,0"]
        assert main(args) == 2
        assert "error: input: amplitudes too large to normalize" in capsys.readouterr().err


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


class TestRun:
    def test_cnot_row_surfaces_headline_error_bound(self, tmp_path):
        # separation 9: the analytic error in the output is below 1e-5
        alpha = 50.0
        theta = theta_for_separation(alpha, 9.0)
        out = tmp_path / "cnot.csv"
        config = ExperimentConfig(
            experiment="cnot", alpha=alpha, theta=theta, shots=50, seed=3,
            output_path=str(out),
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
            experiment="validate-oracle", alpha=2.0, theta=0.5, output_path=str(out)
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
            output_path=str(out), output_format="json",
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
            output_path=str(tmp_path / "no" / "such" / "dir" / "out.csv"),
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
            output_path=str(out),
        )
        assert run(config) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        alpha_text = row[1]
        assert float(alpha_text) == 1 / 3  # round-trips exactly
        assert len(alpha_text.replace(".", "").lstrip("0")) >= 16

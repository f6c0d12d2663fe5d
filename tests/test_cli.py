import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

import dfrc
import dfrc.cli as cli_mod
from dfrc.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_scenario,
    load_config,
    main,
)

REFERENCE = {
    "scenario": {
        "num_antennas": 10,
        "spacing_over_wavelength": 0.5,
        "target_angle_deg": -30.0,
        "user_angle_deg": 0.0,
        "power": 1.0,
        "target_amplitude": 1.0,
    },
    "radar": {"gamma": 5.0},
}

ROOT = Path(__file__).resolve().parents[1]

# the README's `dfrc solve` block for configs/reference.yaml
REFERENCE_SOLVE_STDOUT = """\
case: active
gamma: 5
snr_loss_db: -3.0102999566398121
coeff_a: 0.15971914124998507+0.1597191412499849j
coeff_b: 0.19166296949998199+0j
capacity_bits: 2.887525270741587
radar_snr: 50.000000000000007
trace: 1
"""


def child_env():
    """Environment in which a child ``python -m dfrc`` imports this dfrc."""
    src = str(Path(dfrc.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""))


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = json.loads(json.dumps(REFERENCE))  # deep copy
    for section, values in (overrides or {}).items():
        if values is None:
            cfg.pop(section, None)
        else:
            cfg.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def write_channel_config(tmp_path, channel, **scenario):
    """The reference config with an explicit channel in place of the user angle."""
    cfg = json.loads(json.dumps(REFERENCE))
    del cfg["scenario"]["user_angle_deg"]
    cfg["scenario"].update(num_antennas=len(channel), channel=channel, **scenario)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


COMMANDS = ("solve", "sweep", "beampattern", "verify")


def assert_error_line(tmp_path, capsys, path, message, commands=COMMANDS):
    """Each command exits 1 with ``error: message`` as its one stderr line, printing nothing."""
    for command in commands:
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (rc, captured.err, captured.out) == (EXIT_USAGE, f"error: {message}\n", ""), command


class TestConfigHandling:
    def test_load_and_build(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        sc = build_scenario(cfg)
        assert sc.geometry.num_antennas == 10
        assert sc.power_budget == 1.0
        assert abs(sc.cross_gain) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_explicit_channel(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {
                    "num_antennas": 3,
                    "channel": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]],
                }
            },
        )
        cfg = load_config(path)
        cfg["scenario"].pop("user_angle_deg")
        sc = build_scenario(cfg)
        assert sc.channel[1] == 1.0j
        assert sc.channel[2] == -1.0 + 0.5j

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.yaml")])
        assert rc == EXIT_USAGE
        assert "nope.yaml" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed\n")
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad.yaml" in err

    def test_missing_radar_section(self, tmp_path, capsys):
        path = write_config(tmp_path, {"radar": None})
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_USAGE
        assert "radar" in capsys.readouterr().err

    def test_two_radar_fields_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"radar": {"snr_loss_db": -3.0}})
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_USAGE

    def test_unknown_argument_is_usage_error(self, tmp_path):
        rc = main(["solve", "--config", str(write_config(tmp_path)), "--bogus"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("command", ["solve", "sweep", "beampattern"])
    def test_seed_is_a_verify_flag(self, tmp_path, capsys, command):
        # only verify draws random beams; elsewhere --seed would do nothing
        rc = main([command, "--config", str(write_config(tmp_path)), "--seed", "1"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed 1\n"

    def test_readme_schema_names_every_key(self):
        # the README's schema block, commented alternatives included, names
        # exactly the sections and keys of the CLI's schema table
        readme = (ROOT / "README.md").read_text()
        block = readme.split("### Config schema\n\n```yaml\n", 1)[1].split("```", 1)[0]
        sections, keys = [], set()
        for line in block.splitlines():
            match = re.match(r"( *)(?:# )?(\w+):", line)
            if match and match[1]:
                keys.add(f"{sections[-1]}.{match[2]}")
            elif match:
                sections.append(match[2])
        assert sections == list(cli_mod._SCHEMA)
        assert keys == {f"{s}.{k}" for s, table in cli_mod._SCHEMA.items() for k in table}

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE


class TestSolveCommand:
    def test_reference_output(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(write_config(tmp_path))])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        fields = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        assert fields["case"] == "active"
        assert float(fields["capacity_bits"]) == pytest.approx(
            math.log2(7.4), abs=1e-9
        )
        assert float(fields["radar_snr"]) == pytest.approx(50.0, rel=1e-9)
        assert float(fields["trace"]) == pytest.approx(1.0, rel=1e-12)

    def test_out_file(self, tmp_path):
        out = tmp_path / "solution.txt"
        rc = main(
            ["solve", "--config", str(write_config(tmp_path)), "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert "capacity_bits" in out.read_text()

    @pytest.mark.parametrize(
        "key, field",
        [
            ("power", "power_budget"),
            ("target_amplitude", "target_amplitude"),
            ("spacing_over_wavelength", "spacing_over_wavelength"),
        ],
    )
    def test_non_finite_scenario_value_is_named(self, tmp_path, capsys, key, field):
        # every command prints the library's own message as its error line
        path = write_config(tmp_path, {"scenario": {key: math.inf}})
        assert_error_line(tmp_path, capsys, path, f"{field} must be positive and finite, got inf")

    @pytest.mark.parametrize(
        "entry, message",
        [
            pytest.param(
                1e200,
                "channel norm overflows float64 (squared norm is not finite); rescale the channel",
                id="1e+200-overflows float64",
            ),
            pytest.param(
                1e-170,
                "channel norm underflows float64 (squared norm is 0 but some entries are"
                " nonzero); rescale the channel",
                id="1e-170-underflows",
            ),
        ],
    )
    def test_channel_norm_out_of_range_is_usage_error(
        self, tmp_path, capsys, entry, message
    ):
        path = write_channel_config(tmp_path, [[entry, 0.0], [0.0, entry]])
        assert_error_line(tmp_path, capsys, path, message)

    def test_cross_gain_overflow_is_usage_error(self, tmp_path, capsys):
        path = write_channel_config(tmp_path, [[4e153, 0.0]] * 10, target_angle_deg=0.0)
        assert_error_line(
            tmp_path, capsys, path,
            "channel/steering cross gain |h^H a_t|^2 overflows float64; rescale the channel",
        )

    def test_power_product_overflow_is_usage_error(self, tmp_path, capsys):
        # every input is finite, P ||h||^2 is not: capacity would come out inf
        path = write_channel_config(
            tmp_path, [[4e148, 0.0]] * 10, target_angle_deg=0.0, power=1e11
        )
        assert_error_line(
            tmp_path, capsys, path,
            "power * ||h||^2 overflows float64; rescale the channel or the power",
        )

    def test_matched_weight_overflow_is_usage_error(self, tmp_path, capsys):
        # P ||h||^2 and P M are finite, P / ||h||^2 is not: the matched beam
        # would come out as inf entries next to a finite capacity
        path = write_channel_config(
            tmp_path, [[1e-140, 0.0]] * 10, target_angle_deg=0.0, power=1e300
        )
        assert_error_line(
            tmp_path, capsys, path,
            "power / ||h||^2 overflows float64; rescale the channel or the power",
        )

    @pytest.mark.parametrize(
        "radar, message",
        [
            ({"gamma": -1.0}, "gamma must be nonnegative, got -1.0"),
            ({"snr0": -1.0}, "snr_threshold must be nonnegative, got -1.0"),
            ({"snr_loss_db": 1.0}, "snr_loss_db must be <= 0, got 1.0"),
        ],
        ids=["gamma", "snr0", "snr_loss_db"],
    )
    def test_radar_requirement_rejected_by_the_library(self, tmp_path, capsys, radar, message):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cfg["radar"] = radar
        path.write_text(yaml.safe_dump(cfg))
        assert_error_line(tmp_path, capsys, path, message, commands=("solve", "verify"))

    def test_out_file_rewritten_exactly(self, tmp_path, capsys):
        out = tmp_path / "solution.txt"
        out.write_text("stale\n" * 1000)
        args = ["solve", "--config", str(write_config(tmp_path))]
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert out.read_text() == printed

    def test_out_dev_stdout_through_a_pipe(self, tmp_path):
        # a pipe cannot be truncated; the output must still arrive whole
        path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "dfrc", "solve", "--config", str(path), "--out", "/dev/stdout"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("case: active\n")
        assert proc.stdout.endswith("\nwrote /dev/stdout\n")

    def test_infeasible_exit_code_and_message(self, tmp_path, capsys):
        path = write_config(tmp_path, {"radar": {"gamma": 11.0}})
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "10" in err  # names the feasible maximum

    def test_loss_input(self, tmp_path, capsys):
        path = write_config(tmp_path)
        cfg = yaml.safe_load(path.read_text())
        cfg["radar"] = {"snr_loss_db": 10.0 * math.log10(0.5)}
        path.write_text(yaml.safe_dump(cfg))
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_OK
        fields = dict(
            line.split(": ", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(fields["gamma"]) == pytest.approx(5.0, rel=1e-12)


def _radar_corpus_scenario(seed):
    """Seeded scenario and gamma: M up to 600, LoS or Rayleigh, any regime."""
    rng = np.random.default_rng([13, seed])
    m = int(rng.integers(1, 601))
    geometry = dfrc.ArrayGeometry(m, float(rng.choice([0.25, 0.5, 0.7])))
    target = float(rng.uniform(-1.4, 1.4))
    power = float(10.0 ** rng.uniform(-2.0, 3.0))
    amplitude = float(10.0 ** rng.uniform(-1.0, 1.0))
    if seed % 2:
        user = float(rng.uniform(-1.57, 1.57))
        sc = dfrc.Scenario.with_los_user(geometry, target, user, power, amplitude)
    else:
        h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** rng.uniform(-3, 3)
        sc = dfrc.Scenario(geometry, target, h, power, amplitude)
    fraction = (0.0, float(rng.uniform(0.0, 1.0)), 1.0)[seed % 3]
    return sc, fraction * sc.max_target_power


def _printed_radar_snr(monkeypatch, capsys, config, sc, gamma):
    # the real `dfrc solve` path, handed the scenario without a YAML round trip
    monkeypatch.setattr(cli_mod, "build_scenario", lambda config: sc)
    monkeypatch.setattr(cli_mod, "resolve_gamma", lambda config, scenario: gamma)
    assert main(["solve", "--config", str(config)]) == EXIT_OK
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    return float(fields["radar_snr"]), fields


def _exact_target_power(at, c) -> Fraction:
    # |a_t^H c|^2 of the float vectors in exact rational arithmetic
    re = im = Fraction(0)
    for x, y in zip(at.tolist(), c.tolist()):
        xr, xi, yr, yi = map(Fraction, (x.real, x.imag, y.real, y.imag))
        re += xr * yr + xi * yi
        im += xr * yi - xi * yr
    return re * re + im * im


class TestRankOneSolve:
    """`dfrc solve` reads every printed number off the beam c."""

    def test_reference_config_stdout_is_frozen(self, capsys):
        rc = main(["solve", "--config", str(ROOT / "configs" / "reference.yaml")])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == REFERENCE_SOLVE_STDOUT
        assert "```\n" + REFERENCE_SOLVE_STDOUT + "```" in (ROOT / "README.md").read_text()

    def test_radar_snr_matches_covariance_reference(self, tmp_path, monkeypatch, capsys):
        # reference: target_amplitude^2 * M * a_t^H (c c^H) a_t from the full
        # covariance. Both forms round |a_t^H c| with an absolute error of
        # about eps * ||a_t|| ||c||, so their relative difference scales with
        # kappa = sqrt(P M / |a_t^H c|^2), 1 for a beam straight at the target
        config = write_config(tmp_path)
        for seed in range(240):
            sc, gamma = _radar_corpus_scenario(seed)
            got, fields = _printed_radar_snr(monkeypatch, capsys, config, sc, gamma)
            c = dfrc.solve_closed_form(sc, gamma).vector_c
            at = sc.target_steering
            covariance = np.outer(c, c.conj())
            target_power = float(np.vdot(at, covariance @ at).real)
            ref = sc.target_amplitude**2 * sc.steering_norm_sq * target_power
            kappa = math.sqrt(sc.max_target_power / target_power)
            assert abs(got - ref) <= 1e-14 * kappa * ref, (seed, got, ref, kappa)
            assert float(fields["trace"]) == float(np.trace(covariance).real)

    def test_radar_snr_close_to_exact_when_ill_conditioned(self, tmp_path, monkeypatch, capsys):
        # where the two forms differ most, the beam-based value is within its
        # own rounding bound of the exact |a_t^H c|^2
        config = write_config(tmp_path)
        checked = 0
        for seed in range(240):
            sc, gamma = _radar_corpus_scenario(seed)
            c = dfrc.solve_closed_form(sc, gamma).vector_c
            if sc.max_target_power < 100.0 * abs(np.vdot(sc.target_steering, c)) ** 2:
                continue
            exact_tp = _exact_target_power(sc.target_steering, c)
            kappa = math.sqrt(sc.max_target_power / float(exact_tp))
            got, _ = _printed_radar_snr(monkeypatch, capsys, config, sc, gamma)
            exact = float(Fraction(sc.target_amplitude**2 * sc.steering_norm_sq) * exact_tp)
            assert abs(got - exact) <= 1e-14 * kappa * exact, (seed, got, exact, kappa)
            checked += 1
        assert checked >= 10

    def test_large_array_memory(self, tmp_path, capsys):
        # c c^H alone would take 256 MiB at M = 4,096
        path = write_config(tmp_path, {"scenario": {"num_antennas": 4096}})
        tracemalloc.start()
        try:
            rc = main(["solve", "--config", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("case: ")
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestSweepCommand:
    def test_single_sweep_csv(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"sweep": {"loss_start_db": -10.0, "loss_stop_db": 0.0, "loss_step_db": 2.5}},
        )
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        csv_path = tmp_path / "out" / "tradeoff.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "snr_loss_db,gamma,capacity_bits,case"
        assert len(lines) == 1 + 5

    def test_batch_user_angles(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "sweep": {
                    "loss_grid_db": [-5.0, 0.0],
                    "user_angles_deg": [-30.0, 0.0, 30.0],
                }
            },
        )
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        names = {p.name for p in (tmp_path / "out").glob("*.csv")}
        assert names == {
            "tradeoff_userm30deg.csv",
            "tradeoff_user0deg.csv",
            "tradeoff_user30deg.csv",
        }

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"loss_grid_db": [-3.0, -1.0, 0.0]}})
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "a")])
        assert rc == EXIT_OK
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "b")])
        assert rc == EXIT_OK
        a = (tmp_path / "a" / "tradeoff.csv").read_bytes()
        b = (tmp_path / "b" / "tradeoff.csv").read_bytes()
        assert a == b

    def test_descending_grid_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep": {"loss_grid_db": [0.0, -5.0]}})
        assert_error_line(
            tmp_path, capsys, path, "loss grid must be strictly ascending", commands=["sweep"]
        )

    def test_positive_grid_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep": {"loss_grid_db": [-5.0, 1.0]}})
        assert_error_line(
            tmp_path, capsys, path, "loss grid entries must be <= 0 dB", commands=["sweep"]
        )

    def test_repeated_minus_inf_rejected(self, tmp_path, capsys):
        # the difference of two -inf is NaN, which no "<= 0" test catches
        path = write_config(tmp_path, {"sweep": {"loss_grid_db": [-math.inf, -math.inf]}})
        assert "-.inf" in path.read_text()
        assert_error_line(
            tmp_path, capsys, path, "loss grid must be strictly ascending", commands=["sweep"]
        )
        assert not (tmp_path / "out" / "tradeoff.csv").exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"loss_grid_db": [math.nan, -1.0]}, "loss grid entries must be <= 0 dB"),
            (
                {"loss_grid_db": ["abc", -1.0]},
                "'sweep.loss_grid_db[0]' must be a number, got 'abc'",
            ),
            (
                {"loss_start_db": math.nan, "loss_stop_db": 0.0, "loss_step_db": 1.0},
                "loss grid bounds and step must be finite",
            ),
            (
                {"loss_start_db": -math.inf, "loss_stop_db": 0.0, "loss_step_db": 1.0},
                "loss grid bounds and step must be finite",
            ),
        ],
        ids=["nan-entry", "text-entry", "nan-start", "inf-start"],
    )
    def test_bad_grid_is_config_error(self, tmp_path, capsys, sweep, message):
        path = write_config(tmp_path, {"sweep": sweep})
        assert_error_line(tmp_path, capsys, path, message, commands=["sweep"])


    @pytest.mark.parametrize(
        "sweep, key",
        [
            ({"loss_grid_db": [-2.0, False]}, "'sweep.loss_grid_db[1]'"),
            ({"loss_grid_db": [None, -1.0]}, "'sweep.loss_grid_db[0]'"),
            ({"user_angles_deg": [None]}, "'sweep.user_angles_deg[0]'"),
            ({"user_angles_deg": [0.0, "north"]}, "'sweep.user_angles_deg[1]'"),
        ],
        ids=["bool-loss", "null-loss", "null-angle", "text-angle"],
    )
    def test_bad_list_entry_is_named(self, tmp_path, capsys, sweep, key):
        path = write_config(tmp_path, {"sweep": sweep})
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a number")
        assert not (tmp_path / "out" / "tradeoff.csv").exists()


    @pytest.mark.parametrize(
        "text, fix",
        [("1e-310", "1.0e-310"), ("2E+3", "2000.0"), ("-2e1", "-20.0"), ("1.5e16", "1.5e+16")],
    )
    def test_float_without_a_dot_names_the_fix(self, tmp_path, capsys, text, fix):
        # YAML 1.1 reads 1e-310 as text; the message says how to write it
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("power: 1.0", f"power: {text}"))
        assert yaml.safe_load(path.read_text())["scenario"]["power"] == text
        assert main(["solve", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: 'scenario.power' must be a number, got '{text}';"
            f" write it with a decimal point, as {fix}\n"
        )
        path.write_text(path.read_text().replace(f"power: {text}", f"power: {fix}"))
        assert isinstance(yaml.safe_load(path.read_text())["scenario"]["power"], float)

    def test_list_entry_without_a_dot_names_the_fix(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep": {"beampattern_losses_db": [-20.0, -5.0]}})
        path.write_text(
            path.read_text().replace("- -20.0", "- -2e1").replace("- -5.0", "- -5e0")
        )
        assert yaml.safe_load(path.read_text())["sweep"]["beampattern_losses_db"] == [
            "-2e1", "-5e0"
        ]
        rc = main(["beampattern", "--config", str(path), "--out", str(tmp_path / "bp")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: 'sweep.beampattern_losses_db[0]' must be a number, got '-2e1';"
            " write it with a decimal point, as -20.0\n"
        )

    @pytest.mark.parametrize("text", ["north", "nan", "inf"])
    def test_text_that_is_no_finite_float_gets_no_fix(self, tmp_path, capsys, text):
        path = write_config(tmp_path, {"scenario": {"power": text}})
        assert main(["solve", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: 'scenario.power' must be a number, got '{text}'\n"
        )


class TestBeampatternCommand:
    def test_default_losses_csv(self, tmp_path):
        path = write_config(tmp_path)
        rc = main(["beampattern", "--config", str(path), "--out", str(tmp_path / "bp")])
        assert rc == EXIT_OK
        lines = (tmp_path / "bp" / "beampattern.csv").read_text().splitlines()
        assert lines[0] == "snr_loss_db,angle_deg,power"
        assert len(lines) == 1 + 4 * 721

    def test_custom_losses(self, tmp_path):
        path = write_config(
            tmp_path, {"sweep": {"beampattern_losses_db": [-6.0, 0.0]}}
        )
        rc = main(["beampattern", "--config", str(path), "--out", str(tmp_path / "bp")])
        assert rc == EXIT_OK
        lines = (tmp_path / "bp" / "beampattern.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 721

    def test_empty_losses_rejected(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"beampattern_losses_db": []}})
        rc = main(["beampattern", "--config", str(path), "--out", str(tmp_path / "bp")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "losses, message",
        [
            ([-3.0, 1.0], "loss grid entries must be <= 0 dB"),
            ([0.0, -3.0], "loss grid must be strictly ascending"),
        ],
        ids=["positive", "descending"],
    )
    def test_losses_rejected_by_the_library(self, tmp_path, capsys, losses, message):
        path = write_config(tmp_path, {"sweep": {"beampattern_losses_db": losses}})
        assert_error_line(tmp_path, capsys, path, message, commands=["beampattern"])


    @pytest.mark.parametrize(
        "losses", [[-6.0, True], [None], ["-3"]], ids=["bool", "null", "text"]
    )
    def test_bad_loss_entry_is_named(self, tmp_path, capsys, losses):
        path = write_config(tmp_path, {"sweep": {"beampattern_losses_db": losses}})
        rc = main(["beampattern", "--config", str(path), "--out", str(tmp_path / "bp")])
        assert rc == EXIT_USAGE
        index = len(losses) - 1
        assert capsys.readouterr().err.startswith(
            f"error: 'sweep.beampattern_losses_db[{index}]' must be a number"
        )


class TestVerifyCommand:
    def test_passing_report(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"verify": {"resolution": 129, "trials": 3000, "seed": 1}}
        )
        rc = main(["verify", "--config", str(path)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["settings"]["resolution"] == 129
        assert report["settings"]["trials"] == 3000
        assert report["settings"]["seed"] == 1

    def test_cli_overrides_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"verify": {"resolution": 129, "trials": 3000, "seed": 1}}
        )
        rc = main(
            [
                "verify",
                "--config",
                str(path),
                "--resolution",
                "257",
                "--trials",
                "2000",
                "--seed",
                "9",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["settings"]["resolution"] == 257
        assert report["settings"]["trials"] == 2000
        assert report["settings"]["seed"] == 9

    @pytest.mark.parametrize("seed, same_as", [(-7, 2**64 - 7), (2**64 + 5, 5)])
    def test_out_of_range_seed(self, tmp_path, capsys, seed, same_as):
        path = write_config(
            tmp_path, {"verify": {"resolution": 129, "trials": 2000}}
        )
        reports = []
        for s in (seed, same_as):
            assert main(["verify", "--config", str(path), "--seed", str(s)]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["settings"]["seed"] == seed
        assert reports[0]["falsifier"] == reports[1]["falsifier"]
        assert reports[0]["falsifier"]["num_feasible"] > 0

    def test_deterministic_output_bytes(self, tmp_path):
        path = write_config(
            tmp_path, {"verify": {"resolution": 129, "trials": 2000, "seed": 3}}
        )
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["verify", "--config", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["verify", "--config", str(path), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_infeasible_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {"radar": {"gamma": 20.0}})
        rc = main(["verify", "--config", str(path)])
        assert rc == EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("resolution", 10, "resolution must be at least 64, got 10"),
            ("trials", 0, "trials must be at least 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_library_rejection_is_usage_error(
        self, tmp_path, capsys, key, value, message, source
    ):
        # the oracle and the falsifier check these themselves; the CLI only
        # turns their ValueError into an error line and exit code 1
        settings = {"resolution": 129, "trials": 500}
        flags = []
        if source == "config":
            settings[key] = value
        else:
            flags = [f"--{key}", str(value)]
        path = write_config(tmp_path, {"verify": settings})
        rc = main(["verify", "--config", str(path), *flags])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", [1]),
            ("seed", [1]),
            ("trials", 2.7),
            ("trials", True),
            ("seed", 1.0),
            ("resolution", "abc"),
            ("resolution", 2.5),
            ("resolution", [1]),
        ],
        ids=repr,
    )
    def test_non_integer_setting_is_usage_error(self, tmp_path, capsys, key, value):
        settings = {"resolution": 129, "trials": 500, key: value}
        path = write_config(tmp_path, {"verify": settings})
        rc = main(["verify", "--config", str(path)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {key} must be an integer, got {value!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", [10.0, "10", True, [10]], ids=repr)
    def test_non_integer_antenna_count_is_usage_error(self, tmp_path, capsys, value):
        path = write_config(tmp_path, {"scenario": {"num_antennas": value}})
        assert_error_line(
            tmp_path, capsys, path, f"num_antennas must be an integer, got {value!r}"
        )

    def test_console_script_runs(self, tmp_path):
        path = write_config(
            tmp_path, {"verify": {"resolution": 129, "trials": 500, "seed": 0}}
        )
        proc = subprocess.run(
            [sys.executable, "-m", "dfrc", "verify", "--config", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True


class TestQuietProcess:
    def test_solve_leaves_stderr_empty(self, tmp_path):
        path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "dfrc", "solve", "--config", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert proc.stdout.startswith("case: active\n")


class TestImport:
    def test_cli_import_leaves_dataclasses_unloaded(self):
        # the value types are NamedTuples and slotted classes, and neither
        # numpy nor PyYAML imports dataclasses
        code = "import sys, dfrc.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "False\n"


class TestVerifyFailurePath:
    def test_corrupted_solution_exits_3(self, tmp_path, capsys, monkeypatch):
        # drive the report through the library hook that perturbs the beam
        import dfrc.cli as cli_mod
        from dfrc.verify import run_verification as real_run

        def corrupted(scenario, gamma, **kw):
            kw["perturb"] = 1e-3
            return real_run(scenario, gamma, **kw)

        monkeypatch.setattr(cli_mod, "run_verification", corrupted)
        path = write_config(
            tmp_path, {"verify": {"resolution": 129, "trials": 500, "seed": 0}}
        )
        rc = main(["verify", "--config", str(path)])
        assert rc == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is False
        assert "solution_power" in report["failed"]
        assert "solution_power" in captured.err


# an integer beyond float range; YAML reads 1.0e400 as inf but this as an int
HUGE_INTEGER = "1" + "0" * 400
# every config key that holds numbers, with its kind
NUMBER_KEYS = [
    (section, key, kind)
    for section, table in cli_mod._SCHEMA.items()
    for key, (kind, _, _) in table.items()
    if kind in ("number", "numbers", "channel")
]


class TestHugeIntegers:
    @pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
    @pytest.mark.parametrize(
        "section, key, kind", NUMBER_KEYS, ids=[f"{s}.{k}" for s, k, _ in NUMBER_KEYS]
    )
    def test_huge_integer_reads_as_infinity(self, tmp_path, capsys, section, key, kind, sign):
        # the same exit code and messages as the key written as .inf or -.inf
        cfg = json.loads(json.dumps(REFERENCE))
        marker = 123.25
        value = {"number": marker, "numbers": [marker], "channel": [[marker, 0.0], [0.0, 1.0]]}
        if section == "radar":
            cfg["radar"] = {}
        if kind == "channel":
            del cfg["scenario"]["user_angle_deg"]
            cfg["scenario"]["num_antennas"] = 2
        cfg.setdefault(section, {})[key] = value[kind]
        text = yaml.safe_dump(cfg)
        assert text.count(str(marker)) == 1
        if section != "sweep":
            command = "solve"
        else:
            command = "beampattern" if key == "beampattern_losses_db" else "sweep"
        path = tmp_path / "config.yaml"
        outcomes = []
        for written in (sign + HUGE_INTEGER, sign + ".inf"):
            path.write_text(text.replace(str(marker), written))
            rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            captured = capsys.readouterr()
            outcomes.append((rc, captured.err, captured.out))
        assert isinstance(yaml.safe_load(f"x: {sign}{HUGE_INTEGER}")["x"], int)
        assert outcomes[0] == outcomes[1]


class TestCountsBeyondLimits:
    # counts numpy cannot index, and more falsifier draws than the cap,
    # fail at once with an error line that names the setting and the limit
    @pytest.mark.parametrize("command", ["solve", "sweep", "beampattern", "verify"])
    def test_antenna_count(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"scenario": {"num_antennas": int(HUGE_INTEGER)}})
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: num_antennas must be at most {2**63 - 1}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, message",
        [
            ("resolution", f"resolution must be at most {2**63 - 1}"),
            ("trials", "trials must be at most 1000000000"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_verify_setting(self, tmp_path, capsys, monkeypatch, key, message, source):
        # rejected before solving: a solve would raise AssertionError
        monkeypatch.setattr(dfrc.verify, "solve_closed_form", _must_not_run)
        settings = {"resolution": 129, "trials": 500}
        flags = []
        if source == "config":
            settings[key] = int(HUGE_INTEGER)
        else:
            flags = [f"--{key}", HUGE_INTEGER]
        path = write_config(tmp_path, {"verify": settings})
        rc = main(["verify", "--config", str(path), *flags])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_trials_cap_is_inclusive(self, tmp_path, capsys, monkeypatch):
        # 10^9 itself passes the check and reaches the solver
        monkeypatch.setattr(dfrc.verify, "solve_closed_form", _must_not_run)
        path = write_config(tmp_path, {"verify": {"resolution": 129, "trials": 10**9}})
        with pytest.raises(AssertionError, match="solved"):
            main(["verify", "--config", str(path)])


def _must_not_run(*args):
    raise AssertionError("solved")


class TestUnknownConfigKeys:
    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"scenario": {"powr": 100.0}}, "scenario.powr"),
            ({"radar": {"gama": 5.0}}, "radar.gama"),
            ({"sweep": {"loss_step": 0.5}}, "sweep.loss_step"),
            ({"verify": {"trails": 10}}, "verify.trails"),
            ({"output": {"dir": "elsewhere"}}, "output.dir"),
            ({"scenaro": {"power": 2.0}}, "scenaro"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "sweep", "beampattern", "verify"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, overrides, name, command):
        path = write_config(tmp_path, overrides)
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown config key '{name}'\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_malformed_section_keeps_its_message(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"scenario": [1, 2], "radar": {"gamma": 5.0}}))
        assert main(["solve", "--config", str(path)]) == EXIT_USAGE
        assert "config section 'scenario' must be a mapping" in capsys.readouterr().err


class TestValuesOfTheWrongKind:
    @pytest.mark.parametrize("command", ["sweep", "beampattern"])
    @pytest.mark.parametrize("directory", [5, ["a", "b"], True], ids=repr)
    def test_output_directory_must_be_a_path(self, tmp_path, capsys, command, directory):
        path = write_config(tmp_path, {"output": {"directory": directory}})
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: 'output.directory' must be a path, got {directory!r}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "entry, got",
        [([True, False], "True"), (["1", "0"], "'1'"), ([1.0, None], "None")],
        ids=repr,
    )
    def test_channel_parts_must_be_numbers(self, tmp_path, capsys, entry, got):
        channel = [[1.0, 0.0], entry]
        path = write_config(tmp_path, {"scenario": {"num_antennas": 2, "channel": channel}})
        cfg = load_config(path)
        cfg["scenario"].pop("user_angle_deg")
        path.write_text(yaml.safe_dump(cfg))
        assert main(["solve", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"error: 'scenario.channel[1]' must be a number, got {got}"
        )

    def test_channel_part_without_a_dot_names_the_fix(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(
            "scenario: {num_antennas: 2, target_angle_deg: -30.0,"
            " channel: [[1.0, 0.0], [1e-3, 0.0]]}\nradar: {gamma: 0.5}\n"
        )
        assert main(["solve", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: 'scenario.channel[1]' must be a number, got '1e-3';"
            " write it with a decimal point, as 0.001\n"
        )

    def test_refused_allocation_is_an_error_line(self, tmp_path, capsys):
        # a count numpy can index but no machine can hold: 10^17 8-byte
        # elements take 711 PiB, more than the 2^57-byte (128 PiB) virtual
        # address space of 64-bit CPUs, so the allocation fails at once; the
        # error line names the setting and its value, then numpy's reason
        count = 10**17
        cases = [({"scenario": {"num_antennas": count}}, "num_antennas", COMMANDS)]
        cases += [({"verify": {"resolution": count, "trials": 10}}, "resolution", ["verify"])]
        for overrides, name, commands in cases:
            path = write_config(tmp_path, overrides)
            for command in commands:
                rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
                captured = capsys.readouterr()
                assert rc == EXIT_USAGE
                assert captured.err.startswith(f"error: {name} {count} is too large: Unable to ")
                assert captured.err.count("\n") == 1 and captured.out == ""

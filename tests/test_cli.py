import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import dfrc
from dfrc.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_scenario,
    load_config,
    main,
    serialize_config,
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


class TestConfigHandling:
    def test_load_and_build(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        sc = build_scenario(cfg)
        assert sc.geometry.num_antennas == 10
        assert sc.power_budget == 1.0
        assert abs(sc.cross_gain) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_serialize_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        text = serialize_config(cfg)
        again = yaml.safe_load(text)
        assert again == cfg

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
        path = write_config(tmp_path, {"scenario": {key: math.inf}})
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario") and field in err

    @pytest.mark.parametrize(
        "entry, message", [(1e200, "overflows float64"), (1e-170, "underflows")]
    )
    def test_channel_norm_out_of_range_is_usage_error(
        self, tmp_path, capsys, entry, message
    ):
        cfg = json.loads(json.dumps(REFERENCE))
        del cfg["scenario"]["user_angle_deg"]
        cfg["scenario"].update(num_antennas=2, channel=[[entry, 0.0], [0.0, entry]])
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        rc = main(["solve", "--config", str(path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario: ") and message in err

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
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert "ascending" in capsys.readouterr().err

    def test_positive_grid_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep": {"loss_grid_db": [-5.0, 1.0]}})
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "sweep",
        [
            {"loss_grid_db": [math.nan, -1.0]},
            {"loss_grid_db": ["abc", -1.0]},
            {"loss_start_db": math.nan, "loss_stop_db": 0.0, "loss_step_db": 1.0},
            {"loss_start_db": -math.inf, "loss_stop_db": 0.0, "loss_step_db": 1.0},
        ],
        ids=["nan-entry", "text-entry", "nan-start", "inf-start"],
    )
    def test_bad_grid_is_config_error(self, tmp_path, capsys, sweep):
        path = write_config(tmp_path, {"sweep": sweep})
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


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
        assert report["settings"]["resolution"] == [129, 129]
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
        assert report["settings"]["resolution"] == [257, 257]
        assert report["settings"]["trials"] == 2000
        assert report["settings"]["seed"] == 9

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
        assert "kkt_stationarity" in report["failed"]
        assert "kkt_stationarity" in captured.err

"""Command-line interface: solve | sweep | beampattern | verify.

All subcommands read a YAML config describing the scenario and the radar
requirement; see configs/reference.yaml for the full schema. Exit codes:
0 success, 1 usage or config error, 2 infeasible radar requirement,
3 verification failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from .closed_form import solve_closed_form
from .model import (
    ArrayGeometry,
    InfeasibleRadarRequirement,
    RadarSnrSpec,
    Scenario,
    resolve_radar_spec,
)
from .sweep import (
    DEFAULT_BEAMPATTERN_LOSSES_DB,
    _check_loss_grid,
    _overwrite,
    beampattern_sweep,
    default_loss_grid_db,
    tradeoff_sweep,
    write_beampattern_csv,
    write_tradeoff_csv,
)
from .verify import DEFAULT_SEED, DEFAULT_TRIALS, run_verification

__all__ = ["ConfigError", "build_scenario", "load_config", "main", "serialize_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


class ConfigError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


# every key a config may hold, by section (None is the top level); any other
# key is a misspelling, rejected before anything is built
_KNOWN_KEYS = {
    None: ("scenario", "radar", "sweep", "verify", "output"),
    "scenario": (
        "num_antennas",
        "spacing_over_wavelength",
        "target_angle_deg",
        "user_angle_deg",
        "channel",
        "power",
        "target_amplitude",
    ),
    "radar": ("gamma", "snr0", "snr_loss_db"),
    "sweep": (
        "loss_grid_db",
        "loss_start_db",
        "loss_stop_db",
        "loss_step_db",
        "user_angles_deg",
        "beampattern_losses_db",
    ),
    "verify": ("resolution", "trials", "seed"),
    "output": ("directory",),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route them through ConfigError so
    # exit code 2 stays reserved for infeasibility
    def error(self, message):
        raise ConfigError(message)


def load_config(path) -> dict:
    """Parse a YAML config file into a dict, with path context on errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    _check_known_keys(data)
    return data


def _check_known_keys(config: dict) -> None:
    for section, known in _KNOWN_KEYS.items():
        block = config if section is None else config.get(section)
        if not isinstance(block, dict):
            continue  # a missing or malformed section is reported where it is read
        for key in block:
            if key not in known:
                name = key if section is None else f"{section}.{key}"
                raise ConfigError(f"unknown config key '{name}'")


def serialize_config(config: dict) -> str:
    """Canonical YAML for a config dict; parses back equal via load."""
    return yaml.safe_dump(config, sort_keys=True, default_flow_style=False)


def _section(config: dict, name: str, required: bool = True) -> dict:
    block = config.get(name)
    if block is None:
        if required:
            raise ConfigError(f"config is missing the '{name}' section")
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    return block


def _is_number(value) -> bool:
    # YAML booleans are ints to Python; they are not numbers here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _not_a_number(name: str, value) -> ConfigError:
    """The error for a config value that is not a number.

    YAML 1.1 reads a float only with a decimal point and a signed exponent,
    so ``1e-310`` arrives as text; for text that reads as a finite float the
    message says how to write it.
    """
    message = f"'{name}' must be a number, got {value!r}"
    try:
        number = float(value) if isinstance(value, str) else math.nan
    except ValueError:
        number = math.nan
    if math.isfinite(number):
        mantissa, e, exponent = repr(number).partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        message += f"; write it with a decimal point, as {mantissa}{e}{exponent}"
    return ConfigError(message)


def _number(block: dict, section: str, key: str, default=None):
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"config is missing '{section}.{key}'")
    if not _is_number(value):
        raise _not_a_number(f"{section}.{key}", value)
    return value


def _integer(block: dict, section: str, key: str, default=None) -> int:
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"config is missing '{section}.{key}'")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"'{section}.{key}' must be an integer, got {value!r}")
    return value


def _number_list(values, name: str) -> list:
    """``values`` if it is a nonempty list of numbers; ``name`` is its config key."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"'{name}' must be a nonempty list")
    for index, value in enumerate(values):
        if not _is_number(value):
            raise _not_a_number(f"{name}[{index}]", value)
    return values


def build_scenario(config: dict, user_angle_deg=None) -> Scenario:
    """Scenario from the 'scenario' config section.

    ``user_angle_deg`` overrides the configured user direction (used by
    batch sweeps). The channel comes either from 'user_angle_deg'
    (line of sight) or from 'channel' as [[re, im], ...] entries.
    """
    sc = _section(config, "scenario")
    m = _integer(sc, "scenario", "num_antennas")
    spacing = float(_number(sc, "scenario", "spacing_over_wavelength", 0.5))
    target_deg = float(_number(sc, "scenario", "target_angle_deg"))
    power = float(_number(sc, "scenario", "power", 1.0))
    amplitude = float(_number(sc, "scenario", "target_amplitude", 1.0))
    try:
        geometry = ArrayGeometry(m, spacing)
        if user_angle_deg is None and "channel" in sc:
            if "user_angle_deg" in sc:
                raise ConfigError(
                    "give either 'scenario.user_angle_deg' or 'scenario.channel', not both"
                )
            try:
                pairs = [(re, im) for re, im in sc["channel"]]
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    "'scenario.channel' must be a list of [re, im] pairs"
                ) from exc
            for k, pair in enumerate(pairs):
                for part in pair:
                    if not _is_number(part):
                        raise _not_a_number(f"scenario.channel[{k}]", part)
            channel = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
            return Scenario(geometry, math.radians(target_deg), channel, power, amplitude)
        if user_angle_deg is None:
            user_angle_deg = _number(sc, "scenario", "user_angle_deg")
        return Scenario.with_los_user(
            geometry,
            math.radians(target_deg),
            math.radians(float(user_angle_deg)),
            power,
            amplitude,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def build_radar_spec(config: dict) -> RadarSnrSpec:
    rb = _section(config, "radar")
    keys = [k for k in ("snr_loss_db", "gamma", "snr0") if k in rb]
    if len(keys) != 1:
        raise ConfigError(
            f"'radar' must contain exactly one of snr_loss_db, gamma, snr0; got {keys or 'none'}"
        )
    value = _number(rb, "radar", keys[0])
    field = {"snr0": "snr_threshold"}.get(keys[0], keys[0])
    return RadarSnrSpec(**{field: float(value)})


def resolve_gamma(config: dict, scenario: Scenario) -> float:
    try:
        return resolve_radar_spec(build_radar_spec(config), scenario).gamma
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid radar requirement: {exc}") from exc


def _loss_grid(config: dict) -> np.ndarray:
    sw = _section(config, "sweep", required=False)
    if "loss_grid_db" in sw:
        values = _number_list(sw["loss_grid_db"], "sweep.loss_grid_db")
    elif {"loss_start_db", "loss_stop_db", "loss_step_db"} & sw.keys():
        start = float(_number(sw, "sweep", "loss_start_db", -40.0))
        stop = float(_number(sw, "sweep", "loss_stop_db", 0.0))
        step = float(_number(sw, "sweep", "loss_step_db", 0.25))
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError("loss grid bounds and step must be finite")
        if not step > 0:
            raise ConfigError("'sweep.loss_step_db' must be positive")
        count = round((stop - start) / step)
        if count < 1 or abs(count * step - (stop - start)) > 1e-9:
            raise ConfigError("loss grid bounds must differ by a whole number of steps")
        values = np.linspace(start, stop, count + 1)
    else:
        return default_loss_grid_db()
    try:
        return _check_loss_grid(values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid loss grid: {exc}") from exc


def _out_dir(config: dict, args) -> Path:
    directory = args.out
    if directory is None:
        directory = _section(config, "output", required=False).get("directory", ".")
        if not isinstance(directory, str):
            raise ConfigError(f"'output.directory' must be a path, got {directory!r}")
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc}") from exc
    return directory


def _emit_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        try:
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            _overwrite(path, text.encode("utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        print(f"wrote {path}")


def _angle_label(angle_deg: float) -> str:
    text = f"{angle_deg:g}".replace("-", "m").replace(".", "p")
    return f"user{text}deg"


def cmd_solve(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    gamma = resolve_gamma(config, scenario)
    solution = solve_closed_form(scenario, gamma)
    spec = resolve_radar_spec(RadarSnrSpec(gamma=gamma), scenario)
    # every printed number is a scalar function of the beam c; c c^H is
    # never formed
    c = solution.vector_c
    ac = np.vdot(scenario.target_steering, c)
    target_power = float(ac.real * ac.real + ac.imag * ac.imag)
    achieved = resolve_radar_spec(RadarSnrSpec(gamma=target_power), scenario)
    lines = [
        f"case: {solution.case.value}",
        f"gamma: {gamma:.17g}",
        f"snr_loss_db: {spec.snr_loss_db:.17g}",
        f"coeff_a: {solution.coeff_a.real:.17g}{solution.coeff_a.imag:+.17g}j",
        f"coeff_b: {solution.coeff_b.real:.17g}{solution.coeff_b.imag:+.17g}j",
        f"capacity_bits: {solution.capacity_bits:.17g}",
        f"radar_snr: {achieved.snr_threshold:.17g}",
        f"trace: {float(np.sum(c * c.conj()).real):.17g}",
    ]
    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    losses = _loss_grid(config)
    sw = _section(config, "sweep", required=False)
    out_dir = _out_dir(config, args)
    angles = sw.get("user_angles_deg")
    if angles is not None:
        _number_list(angles, "sweep.user_angles_deg")
        jobs = [
            (f"tradeoff_{_angle_label(float(a))}.csv", build_scenario(config, float(a)))
            for a in angles
        ]
    else:
        jobs = [("tradeoff.csv", build_scenario(config))]
    for filename, scenario in jobs:
        points = tradeoff_sweep(scenario, losses)
        path = write_tradeoff_csv(points, out_dir / filename)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_beampattern(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    sw = _section(config, "sweep", required=False)
    losses = sw.get("beampattern_losses_db")
    if losses is None:
        losses = list(DEFAULT_BEAMPATTERN_LOSSES_DB)
    _number_list(losses, "sweep.beampattern_losses_db")
    out_dir = _out_dir(config, args)
    try:
        patterns = beampattern_sweep(scenario, [float(v) for v in losses])
    except ValueError as exc:
        raise ConfigError(f"invalid beampattern losses: {exc}") from exc
    path = write_beampattern_csv(patterns, out_dir / "beampattern.csv")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    gamma = resolve_gamma(config, scenario)
    vb = _section(config, "verify", required=False)
    resolution = args.resolution
    if resolution is None and vb.get("resolution") is not None:
        resolution = _integer(vb, "verify", "resolution")
    trials = args.trials
    if trials is None:
        trials = _integer(vb, "verify", "trials", DEFAULT_TRIALS)
    seed = args.seed
    if seed is None:
        seed = _integer(vb, "verify", "seed", DEFAULT_SEED)
    report = run_verification(
        scenario, gamma, resolution=resolution, trials=trials, seed=seed
    )
    _emit_text(json.dumps(report, indent=2) + "\n", args.out)
    if not report["passed"]:
        print(
            "verification FAILED: " + ", ".join(report["failed"]), file=sys.stderr
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dfrc", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config path")
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--seed", type=int, default=None, help="falsifier seed (verify)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="closed-form beamformer and capacity")
    p.set_defaults(func=cmd_solve)
    p = sub.add_parser("sweep", parents=[common], help="capacity versus SNR-loss CSV")
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("beampattern", parents=[common], help="beam patterns at several SNR losses")
    p.set_defaults(func=cmd_beampattern)
    p = sub.add_parser("verify", parents=[common], help="cross-check the solution with the oracles")
    p.add_argument("--resolution", type=int, default=None, help="oracle grid points per axis")
    p.add_argument("--trials", type=int, default=None, help="falsifier trial count")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleRadarRequirement as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, MemoryError) as exc:
        # a ConfigError, an input the library itself rejects (such as the
        # oracle's grid size or the falsifier's trial count), or an array
        # numpy cannot allocate (such as the steering vector of a huge array)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

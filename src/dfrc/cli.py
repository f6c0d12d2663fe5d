"""Command-line interface: solve | sweep | beampattern | verify.

All subcommands read a YAML config describing the scenario and the radar
requirement. ``_SCHEMA`` below is the one statement of the config schema:
each key's kind, default and required flag (configs/reference.yaml is a
full example). Exit codes: 0 success, 1 usage or config error,
2 infeasible radar requirement, 3 verification failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from .closed_form import beam_powers, solve_closed_form
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
    tradeoff_sweep,
    write_beampattern_csv,
    write_tradeoff_csv,
)
from .verify import DEFAULT_RESOLUTION, DEFAULT_SEED, DEFAULT_TRIALS, run_verification

__all__ = ["ConfigError", "build_scenario", "load_config", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


class ConfigError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


# The config schema: section -> key -> (kind, default, required). A key left
# out or null takes its default; a required key has none. A command reads a
# key only when it uses it: only the given one of the radar keys, and the
# user angle only when no channel is given. An integer is passed on as it is:
# the library checks it, and every value's range, where it enters.
_SCHEMA = {
    "scenario": {
        "num_antennas": ("integer", None, True),
        "spacing_over_wavelength": ("number", 0.5, False),
        "target_angle_deg": ("number", None, True),
        "user_angle_deg": ("number", None, True),
        "channel": ("channel", None, True),
        "power": ("number", 1.0, False),
        "target_amplitude": ("number", 1.0, False),
    },
    "radar": dict.fromkeys(("gamma", "snr0", "snr_loss_db"), ("number", None, True)),
    "sweep": {
        "loss_grid_db": ("numbers", None, False),
        "loss_start_db": ("number", -40.0, False),
        "loss_stop_db": ("number", 0.0, False),
        "loss_step_db": ("number", 0.25, False),
        "user_angles_deg": ("numbers", None, False),
        "beampattern_losses_db": ("numbers", DEFAULT_BEAMPATTERN_LOSSES_DB, False),
    },
    "verify": {
        "resolution": ("integer", DEFAULT_RESOLUTION, False),
        "trials": ("integer", DEFAULT_TRIALS, False),
        "seed": ("integer", DEFAULT_SEED, False),
    },
    "output": {"directory": ("path", ".", False)},
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
    # any key the schema does not name is a misspelling, rejected before
    # anything is built; a malformed section is reported where it is read
    unknown = [name for name in data if name not in _SCHEMA]
    for name, keys in _SCHEMA.items():
        if isinstance(data.get(name), dict):
            unknown += [f"{name}.{key}" for key in data[name] if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}'")
    return data


def _section(config: dict, name: str) -> dict:
    block = config.get(name)
    if block is None:
        if any(required for _, _, required in _SCHEMA[name].values()):
            raise ConfigError(f"config is missing the '{name}' section")
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    return block


def _float(value, name: str) -> float:
    """``value`` as a float if it is a number; ``name`` is its config key.

    YAML 1.1 reads a float only with a decimal point and a signed exponent,
    so ``1e-310`` arrives as text; for text that reads as a finite float the
    message says how to write it. An integer too large for a float is read
    as the infinity YAML gives for ``1.0e400``.
    """
    # YAML booleans are ints to Python; they are not numbers here
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
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
    raise ConfigError(message)


def _value(config: dict, section: str, key: str):
    """The value of ``section.key``, checked against its kind in ``_SCHEMA``."""
    kind, default, required = _SCHEMA[section][key]
    value = _section(config, section).get(key)
    name = f"{section}.{key}"
    if value is None:
        if required:
            raise ConfigError(f"config is missing '{name}'")
        return default
    if kind == "number":
        return _float(value, name)
    if kind == "path" and not isinstance(value, str):
        raise ConfigError(f"'{name}' must be a path, got {value!r}")
    if kind == "numbers":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{name}' must be a nonempty list")
        return [_float(v, f"{name}[{index}]") for index, v in enumerate(value)]
    if kind == "channel":
        try:
            pairs = [(re, im) for re, im in value]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'{name}' must be a list of [re, im] pairs") from exc
        parts = [_float(part, f"{name}[{k}]") for k, pair in enumerate(pairs) for part in pair]
        return np.array(parts, dtype=np.float64).view(np.complex128)  # re, im, re, im, ...
    return value


def build_scenario(config: dict, user_angle_deg=None) -> Scenario:
    """Scenario from the 'scenario' config section.

    ``user_angle_deg`` overrides the configured user direction (used by
    batch sweeps). The channel comes either from 'user_angle_deg'
    (line of sight) or from 'channel' as [[re, im], ...] entries.
    """
    m = _value(config, "scenario", "num_antennas")
    spacing = _value(config, "scenario", "spacing_over_wavelength")
    target_deg = _value(config, "scenario", "target_angle_deg")
    power = _value(config, "scenario", "power")
    amplitude = _value(config, "scenario", "target_amplitude")
    sc = _section(config, "scenario")
    geometry = ArrayGeometry(m, spacing)
    if user_angle_deg is None and "channel" in sc:
        if "user_angle_deg" in sc:
            raise ConfigError(
                "give either 'scenario.user_angle_deg' or 'scenario.channel', not both"
            )
        channel = _value(config, "scenario", "channel")
        return Scenario(geometry, math.radians(target_deg), channel, power, amplitude)
    if user_angle_deg is None:
        user_angle_deg = _value(config, "scenario", "user_angle_deg")
    return Scenario.with_los_user(
        geometry,
        math.radians(target_deg),
        math.radians(user_angle_deg),
        power,
        amplitude,
    )


def resolve_gamma(config: dict, scenario: Scenario) -> float:
    """Target power from the one requirement in the 'radar' config section."""
    rb = _section(config, "radar")
    keys = [k for k in ("snr_loss_db", "gamma", "snr0") if k in rb]
    if len(keys) != 1:
        raise ConfigError(
            f"'radar' must contain exactly one of snr_loss_db, gamma, snr0; got {keys or 'none'}"
        )
    value = _value(config, "radar", keys[0])
    field = {"snr0": "snr_threshold"}.get(keys[0], keys[0])
    return resolve_radar_spec(RadarSnrSpec(**{field: value}), scenario).gamma


def _loss_grid(config: dict) -> np.ndarray:
    values = _value(config, "sweep", "loss_grid_db")
    if values is None:
        start, stop, step = (
            _value(config, "sweep", f"loss_{bound}_db") for bound in ("start", "stop", "step")
        )
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError("loss grid bounds and step must be finite")
        if not step > 0:
            raise ConfigError("'sweep.loss_step_db' must be positive")
        count = round((stop - start) / step)
        if count < 1 or abs(count * step - (stop - start)) > 1e-9:
            raise ConfigError("loss grid bounds must differ by a whole number of steps")
        values = np.linspace(start, stop, count + 1)
    return _check_loss_grid(values)


def _out_dir(config: dict, args) -> Path:
    directory = Path(_value(config, "output", "directory") if args.out is None else args.out)
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
    trace, target_power, _ = beam_powers(scenario, solution.vector_c)
    achieved = resolve_radar_spec(RadarSnrSpec(gamma=target_power), scenario)
    lines = [
        f"case: {solution.case.value}",
        f"gamma: {gamma:.17g}",
        f"snr_loss_db: {spec.snr_loss_db:.17g}",
        f"coeff_a: {solution.coeff_a.real:.17g}{solution.coeff_a.imag:+.17g}j",
        f"coeff_b: {solution.coeff_b.real:.17g}{solution.coeff_b.imag:+.17g}j",
        f"capacity_bits: {solution.capacity_bits:.17g}",
        f"radar_snr: {achieved.snr_threshold:.17g}",
        f"trace: {trace:.17g}",
    ]
    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    losses = _loss_grid(config)
    out_dir = _out_dir(config, args)
    angles = _value(config, "sweep", "user_angles_deg")
    if angles is not None:
        jobs = [(f"tradeoff_{_angle_label(a)}.csv", build_scenario(config, a)) for a in angles]
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
    losses = _value(config, "sweep", "beampattern_losses_db")
    out_dir = _out_dir(config, args)
    patterns = beampattern_sweep(scenario, losses)
    path = write_beampattern_csv(patterns, out_dir / "beampattern.csv")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    gamma = resolve_gamma(config, scenario)
    # each flag overrides its config key, which is then not read
    settings = {
        key: _value(config, "verify", key) if getattr(args, key) is None else getattr(args, key)
        for key in ("resolution", "trials", "seed")
    }
    report = run_verification(scenario, gamma, **settings)
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
    p.add_argument("--seed", type=int, default=None, help="falsifier seed")
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
        # a ConfigError, an input the library itself rejects (each with the
        # library's own message, such as the oracle's grid size or the
        # falsifier's trial count), or an array numpy cannot allocate (named
        # after the setting that sized it)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

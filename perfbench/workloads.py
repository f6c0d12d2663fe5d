"""The three seeded workloads: their inputs, one op, and the checks on it.

Each workload is a fixed list of items made from the seed, and op i runs
item i % len(items). The runner stops only at the end of a pass through the
list, so every run sees the same mix. ``run`` is the timed part of an op;
``check`` runs untimed afterwards and returns (ok, digest), where the digest
covers closed-form outputs, verdicts and CSV bytes but no oracle internals,
so that a change to the oracles' search may move them without changing it.

Functions are looked up on the ``dfrc`` modules at call time, so that a
traced pass sees the tracer's wrappers.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import dfrc
import dfrc.cli

COMMANDS = ("solve", "sweep", "beampattern", "verify")


def child_env(root):
    """Environment for a child process that imports dfrc from ``root``/src."""
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _angle_deg(rng, limit):
    # multiples of 0.25 degree, so a target direction lies on the pattern grid
    return float(rng.integers(-4 * limit, 4 * limit + 1)) / 4.0


def _scenario_params(rng, m, kind, power):
    params = {"m": m, "target_angle_deg": _angle_deg(rng, 60), "power": power}
    if kind == "los":
        params["user_angle_deg"] = _angle_deg(rng, 80)
    else:
        params["channel"] = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    return params


def _scenario(p):
    geometry = dfrc.ArrayGeometry(p["m"], 0.5)
    target = math.radians(p["target_angle_deg"])
    if "channel" in p:
        return dfrc.Scenario(geometry, target, p["channel"], p["power"])
    return dfrc.Scenario.with_los_user(
        geometry, target, math.radians(p["user_angle_deg"]), p["power"]
    )


def _channel_norm_sq(p):
    if "channel" in p:
        h = p["channel"]
        return float(np.sum(h.real * h.real + h.imag * h.imag))
    return float(p["m"])  # line of sight: unit-modulus entries


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


TRADEOFF_HEADER = "snr_loss_db,gamma,capacity_bits,case"
PATTERN_HEADER = "snr_loss_db,angle_deg,power"


def _csv_rows(data, header):
    lines = data.decode("ascii").split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"bad CSV framing, header {lines[0]!r}")
    return [line.split(",") for line in lines[1:-1]]


class VerifyCorpus:
    """run_verification on (scenario, gamma) points; every fifth is perturbed."""

    name = "verify_corpus"
    resolution = 257  # the acceptance gate's grid size
    trials = 5000  # keeps the falsifier and the grid oracle about even
    perturb = 1e-3
    gamma_fractions = (0.0, 0.3, 0.7, 1.0)  # times P*M, the feasible maximum

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng([seed, 1])
        self.items = []
        for m in range(2, 17):
            for kind in ("los", "rayleigh"):
                p = _scenario_params(rng, m, kind, 10.0 ** rng.uniform(-1.0, 1.0))
                scenario = _scenario(p)
                for frac in self.gamma_fractions:
                    k = len(self.items)
                    falsifier_seed = int(rng.integers(2**31))
                    self.items.append((scenario, frac * p["power"] * m, falsifier_seed, k % 5 == 4))

    def run(self, k):
        scenario, gamma, seed, perturbed = self.items[k]
        return dfrc.run_verification(
            scenario,
            gamma,
            resolution=self.resolution,
            trials=self.trials,
            seed=seed,
            perturb=self.perturb if perturbed else 0.0,
        )

    def check(self, k, report):
        perturbed = self.items[k][3]
        ok = report["passed"] is (not perturbed)
        kept = {key: report[key] for key in ("gamma", "closed_form", "checks", "passed")}
        return ok, _digest(json.dumps(kept, sort_keys=True).encode())


class DesignSweep:
    """A full design per scenario: tradeoff sweep, beam patterns, both CSVs."""

    name = "design_sweep"
    sizes = (8, 64, 512)  # per-point overhead, middle, M x M covariance cost
    per_kind = 2  # scenarios per size and channel kind, so no one draw sets a figure

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng([seed, 2])
        self.items = [
            _scenario_params(rng, m, kind, 10.0 ** rng.uniform(-1.0, 1.0))
            for m in self.sizes
            for kind in ("los", "rayleigh") * self.per_kind
        ]
        out = Path(work_dir) / "design"
        out.mkdir(parents=True, exist_ok=True)
        self.tradeoff_csv = out / "tradeoff.csv"
        self.pattern_csv = out / "beampattern.csv"

    def run(self, k):
        scenario = _scenario(self.items[k])
        points = dfrc.tradeoff_sweep(scenario)
        patterns = dfrc.beampattern_sweep(scenario)
        dfrc.write_tradeoff_csv(points, self.tradeoff_csv)
        dfrc.write_beampattern_csv(patterns, self.pattern_csv)
        return points, patterns

    def check(self, k, out):
        points, patterns = out
        p = self.items[k]
        tradeoff = self.tradeoff_csv.read_bytes()
        pattern = self.pattern_csv.read_bytes()
        t_rows = _csv_rows(tradeoff, TRADEOFF_HEADER)
        p_rows = _csv_rows(pattern, PATTERN_HEADER)
        ok = (
            len(t_rows) == 161
            and len(patterns) == 4
            and _rows_match_tradeoff(t_rows, points)
            and _rows_match_patterns(p_rows, patterns)
            and _tradeoff_ok(t_rows, p["power"], _channel_norm_sq(p))
            and _patterns_ok(p_rows, p["power"], p["m"], p["target_angle_deg"])
        )
        return ok, _digest(tradeoff, pattern)


def _rows_match_tradeoff(rows, points):
    """The CSV holds exactly the returned points (17 digits round-trip)."""
    return len(rows) == len(points) and all(
        (float(r[0]), float(r[1]), float(r[2]), r[3])
        == (pt.snr_loss_db, pt.gamma, pt.capacity_bits, pt.case.value)
        for r, pt in zip(rows, points)
    )


def _rows_match_patterns(rows, patterns):
    expected = [
        (loss, math.degrees(float(angle)), float(power))
        for loss, pat in patterns
        for angle, power in zip(pat.angles, pat.power)
    ]
    return [tuple(float(v) for v in r) for r in rows] == expected


def _tradeoff_ok(rows, power, channel_norm_sq):
    """Capacity never rises along the ascending loss grid; slack rows are log2(1 + P||h||^2)."""
    capacity = [float(r[2]) for r in rows]
    if any(b > a for a, b in zip(capacity, capacity[1:])):
        return False  # a looser radar requirement can never cost capacity
    free = math.log2(1.0 + power * channel_norm_sq)
    return all(
        abs(c - free) <= 1e-12 * free for c, r in zip(capacity, rows) if r[3] == "below_threshold"
    )


def _patterns_ok(rows, power, m, target_deg):
    """Each pattern puts at least gamma = P*M*10^(loss/10) on the target direction."""
    blocks = {}
    for r in rows:
        blocks.setdefault(r[0], []).append(r)
    for loss, block in blocks.items():
        angles = np.array([float(r[1]) for r in block])
        at_target = float(block[int(np.argmin(np.abs(angles - target_deg)))][2])
        gamma = power * m * 10.0 ** (float(loss) / 10.0)
        if not at_target >= gamma * (1.0 - 1e-9):
            return False
    return True


class CliReference:
    """A session of the four README commands on configs/reference.yaml.

    By default each command is its own ``python -m dfrc`` process; with
    ``in_process`` set, the session calls ``dfrc.cli.main`` directly, as the
    traced pass must. The seed only picks the falsifier seed of ``verify``.
    """

    name = "cli_reference"

    def __init__(self, seed, work_dir, root):
        self.root = Path(root)
        self.in_process = False
        self.items = [None]
        out = Path(work_dir) / "cli"
        out.mkdir(parents=True, exist_ok=True)
        self.out_dir = out
        config = self.root / "configs" / "reference.yaml"
        reference = yaml.safe_load(config.read_text(encoding="utf-8"))
        self.scenario = reference["scenario"]
        self.user_angles = reference["sweep"]["user_angles_deg"]
        config = str(config)
        self.argv = {
            "solve": ["solve", "--config", config],
            "sweep": ["sweep", "--config", config, "--out", str(out)],
            "beampattern": ["beampattern", "--config", config, "--out", str(out)],
            "verify": [
                "verify", "--config", config, "--out", str(out / "report.json"), "--seed", str(seed),
            ],
        }
        self.env = child_env(self.root)
        self.command_ms = {cmd: [] for cmd in COMMANDS}
        self.reference = None

    def _call(self, argv):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dfrc.cli.main(list(argv))
            return code, buf.getvalue().encode()
        proc = subprocess.run(
            [sys.executable, "-m", "dfrc", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def run(self, k):
        codes, solve_stdout = {}, b""
        for cmd in COMMANDS:
            start = time.perf_counter()
            codes[cmd], stdout = self._call(self.argv[cmd])
            self.command_ms[cmd].append((time.perf_counter() - start) * 1e3)
            if cmd == "solve":
                solve_stdout = stdout
        return codes, solve_stdout

    def check(self, k, out):
        codes, solve_stdout = out
        files = {"solve.stdout": solve_stdout}
        for path in sorted(self.out_dir.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()  # the next session must write it again
        if self.reference is None:
            self.reference = files
        report = json.loads(files.get("report.json", b"{}"))
        sc = self.scenario  # line-of-sight users, so ||h||^2 = M
        tradeoffs = [data for name, data in files.items() if name.startswith("tradeoff")]
        ok = (
            all(code == 0 for code in codes.values())
            and files == self.reference
            and report.get("passed") is True
            and len(tradeoffs) == len(self.user_angles)
            and all(
                _tradeoff_ok(_csv_rows(t, TRADEOFF_HEADER), sc["power"], sc["num_antennas"])
                for t in tradeoffs
            )
            and _patterns_ok(
                _csv_rows(files["beampattern.csv"], PATTERN_HEADER),
                sc["power"],
                sc["num_antennas"],
                sc["target_angle_deg"],
            )
        )
        kept = {key: report.get(key) for key in ("gamma", "closed_form", "checks", "passed")}
        parts = [files[name] for name in sorted(files) if name != "report.json"]
        return ok, _digest(*parts, json.dumps(kept, sort_keys=True).encode())


def make(name, seed, work_dir, root):
    if name == CliReference.name:
        return CliReference(seed, work_dir, root)
    return {VerifyCorpus.name: VerifyCorpus, DesignSweep.name: DesignSweep}[name](seed, work_dir)

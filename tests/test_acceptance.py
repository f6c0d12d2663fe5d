"""Acceptance gate: nine end-to-end criteria the library must meet.

Each test covers one numbered criterion and prints a single PASS/FAIL
verdict line with the measured margins. The randomized corpus (criteria
1, 2, 7) is built once per module; anchor values (criterion 4) are
re-derived inside the test from brute-force summation and the 2-D grid
oracle before the closed form is compared against them.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from dfrc import (
    ArrayGeometry,
    RadarSnrSpec,
    Scenario,
    beampattern_sweep,
    default_angle_grid,
    default_loss_grid_db,
    grid_search_oracle,
    kkt_check,
    optimal_received_power,
    random_falsifier,
    resolve_radar_spec,
    run_verification,
    solve_closed_form,
    steering_vector,
    tradeoff_sweep,
    write_tradeoff_csv,
)

CORPUS_SEED = 2024
CORPUS_SIZE = 200
GAMMAS_PER_SCENARIO = 10
ORACLE_RESOLUTION = 257
ORACLE_GAP_RTOL = 1e-4
FEASIBILITY_RTOL = 1e-9
FALSIFIER_SLACK = 1e-9
ANCHOR_ATOL = 1e-9
BOUNDARY_ATOL = 1e-9
CORPUS_TIME_BUDGET_S = 300.0
HARSH_SEED = 9
HARSH_DUAL_TOL = 1e-12


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{name} failed: {detail}"


def _reference_scenario() -> Scenario:
    geom = ArrayGeometry(num_antennas=10, spacing_over_wavelength=0.5)
    return Scenario.with_los_user(geom, np.deg2rad(-30.0), 0.0, 1.0)


@pytest.fixture(scope="module")
def corpus():
    """200 random scenarios, each with 10 thresholds spanning [0, P*M].

    Antenna counts cycle through 2..16 for the first fifteen entries so
    every array size is guaranteed present, then draw uniformly.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    entries = []
    for idx in range(CORPUS_SIZE):
        m = 2 + idx % 15 if idx < 15 else int(rng.integers(2, 17))
        geom = ArrayGeometry(num_antennas=m, spacing_over_wavelength=0.5)
        scenario = Scenario.with_los_user(
            geom,
            float(rng.uniform(-np.pi / 2, np.pi / 2)),
            float(rng.uniform(-np.pi / 2, np.pi / 2)),
            float(rng.uniform(0.1, 10.0)),
        )
        gammas = np.linspace(0.0, scenario.max_target_power, GAMMAS_PER_SCENARIO)
        solutions = [solve_closed_form(scenario, float(g)) for g in gammas]
        entries.append((scenario, gammas, solutions))
    return entries


def test_criterion_1_oracle_equivalence(corpus):
    worst_gap = 0.0
    worst_power_err = 0.0
    worst_snr_short = 0.0
    n = 0
    t0 = time.perf_counter()
    for scenario, gammas, solutions in corpus:
        p = scenario.power_budget
        floor = p * scenario.channel_norm_sq * 1e-9
        for gamma, solution in zip(gammas, solutions):
            gamma = float(gamma)
            exact = optimal_received_power(scenario, gamma)
            orc = grid_search_oracle(scenario, gamma, resolution=ORACLE_RESOLUTION)
            gap = abs(orc.objective - exact) / max(exact, floor)
            worst_gap = max(worst_gap, gap)
            c = solution.vector_c
            worst_power_err = max(
                worst_power_err, abs(float(np.vdot(c, c).real) - p) / p
            )
            target_power = abs(np.vdot(scenario.target_steering, c)) ** 2
            short = (gamma - target_power) / gamma if gamma > 0.0 else 0.0
            worst_snr_short = max(worst_snr_short, short)
            n += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gap <= ORACLE_GAP_RTOL
        and worst_power_err <= FEASIBILITY_RTOL
        and worst_snr_short <= FEASIBILITY_RTOL
        and elapsed < CORPUS_TIME_BUDGET_S
    )
    _verdict(
        "criterion 1 oracle equivalence",
        ok,
        f"{n} points, worst gap {worst_gap:.3e}, worst power err {worst_power_err:.3e}, "
        f"worst snr shortfall {worst_snr_short:.3e}, {elapsed:.1f}s",
    )


def _dual_margins(scenario, gamma, solution):
    """(beam gap D - |h^H c|^2, |reference - D|), in units of P ||h||^2."""
    cert = kkt_check(solution, scenario, gamma)
    unit = scenario.power_budget * scenario.channel_norm_sq
    received = abs(complex(np.vdot(scenario.channel, solution.vector_c))) ** 2
    reference = optimal_received_power(scenario, gamma)
    return (cert.bound - received) / unit, abs(reference - cert.bound) / unit


def test_criterion_2_kkt_certification(corpus):
    # the Lagrange-dual bound D is the optimum: every beam reaches it and the
    # analytical optimum equals it, the top of the feasible range included
    worst_gap = worst_bound = 0.0
    n = n_corner = 0
    for scenario, gammas, solutions in corpus:
        for gamma, solution in zip(gammas, solutions):
            gap, bound = _dual_margins(scenario, float(gamma), solution)
            worst_gap, worst_bound = max(worst_gap, gap), max(worst_bound, bound)
            n += 1
            n_corner += bool(gamma == scenario.max_target_power)
    _verdict(
        "criterion 2 kkt certification",
        worst_gap <= FALSIFIER_SLACK and worst_bound <= FALSIFIER_SLACK,
        f"{n} dual certificates ({n_corner} at the top of the feasible range), "
        f"worst beam gap {worst_gap:.1e}, worst |reference - D| {worst_bound:.1e} x P||h||^2",
    )


def test_criterion_3_falsification():
    rng = np.random.default_rng(77)
    trials = 100_000
    worst_excess = -math.inf
    total_feasible = 0
    for k in range(20):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(num_antennas=m, spacing_over_wavelength=0.5)
        scenario = Scenario.with_los_user(
            geom,
            float(rng.uniform(-np.pi / 2, np.pi / 2)),
            float(rng.uniform(-np.pi / 2, np.pi / 2)),
            float(rng.uniform(0.1, 10.0)),
        )
        # keep the rejection rate sane across the 2..16 antenna range
        gamma = float(rng.uniform(0.0, 0.5)) * scenario.max_target_power
        exact = optimal_received_power(scenario, gamma)
        result = random_falsifier(scenario, gamma, trials=trials, seed=1000 + k)
        total_feasible += result.num_feasible
        if result.num_feasible:
            worst_excess = max(worst_excess, result.best_objective - exact)
    ok = worst_excess <= FALSIFIER_SLACK and total_feasible >= 1000
    _verdict(
        "criterion 3 falsification",
        ok,
        f"20 scenarios x {trials} trials, {total_feasible} feasible draws, "
        f"worst excess over closed form {worst_excess:.3e}",
    )


def test_criterion_4_closed_form_anchors():
    scenario = _reference_scenario()
    m, d = 10, 0.5
    sin_t, sin_u = math.sin(math.radians(-30.0)), math.sin(0.0)

    # brute-force summation, sharing no code with the model helpers
    cross = sum(
        cmath.exp(2j * math.pi * k * d * (sin_u - sin_t)) for k in range(m)
    )
    ch_norm_sq = float(m)
    st_norm_sq = float(m)
    power = 1.0

    dev_cross = abs(abs(cross) - math.sqrt(2.0))
    threshold = power * abs(cross) ** 2 / ch_norm_sq
    dev_threshold = abs(threshold - 0.2)

    # below-threshold anchor, checked on both sides of the boundary
    cap_below = math.log2(11.0)
    dev_below = max(
        abs(solve_closed_form(scenario, g).capacity_bits - cap_below)
        for g in (0.0, 0.1, 0.2)
    )

    # active anchor at gamma=5 from the same brute-force quantities
    gamma = 5.0
    beta = (power * st_norm_sq - gamma) * (ch_norm_sq * st_norm_sq - abs(cross) ** 2)
    brute_received = (math.sqrt(gamma) * abs(cross) + math.sqrt(beta)) ** 2 / st_norm_sq**2
    cap_active = math.log2(7.4)
    dev_brute = abs(math.log2(1.0 + brute_received) - cap_active)
    dev_active = abs(solve_closed_form(scenario, gamma).capacity_bits - cap_active)

    # independent 2-D oracle agrees with both capacity anchors
    orc_below = grid_search_oracle(scenario, 0.1, resolution=513)
    orc_active = grid_search_oracle(scenario, gamma, resolution=513)
    dev_oracle = max(
        abs(math.log2(1.0 + orc_below.objective) - cap_below),
        abs(math.log2(1.0 + orc_active.objective) - cap_active),
    )

    devs = (dev_cross, dev_threshold, dev_below, dev_brute, dev_active, dev_oracle)
    _verdict(
        "criterion 4 closed-form anchors",
        max(devs) <= ANCHOR_ATOL,
        "deviations: cross gain {:.1e}, threshold {:.1e}, capacity below {:.1e}, "
        "brute active {:.1e}, closed-form active {:.1e}, oracle {:.1e}".format(*devs),
    )


def test_criterion_5_tradeoff_curve_shapes():
    geom = ArrayGeometry(num_antennas=10, spacing_over_wavelength=0.5)
    target = np.deg2rad(-30.0)
    losses = default_loss_grid_db()
    curves = {}
    for user_deg in (-30.0, 0.0, 30.0):
        scenario = Scenario.with_los_user(geom, target, np.deg2rad(user_deg), 1.0)
        curves[user_deg] = np.array(
            [pt.capacity_bits for pt in tradeoff_sweep(scenario, losses)]
        )
    cap_max = math.log2(1.0 + 1.0 * 10.0)
    parallel, mid, orthogonal = curves[-30.0], curves[0.0], curves[30.0]

    flat_dev = float(np.max(np.abs(parallel - cap_max)))
    orth_end = float(orthogonal[-1])
    orth_start_gap = cap_max - float(orthogonal[0])
    between = bool(np.all(orthogonal <= mid) and np.all(mid <= parallel))
    monotone = all(bool(np.all(np.diff(c) <= 0.0)) for c in curves.values())

    ok = (
        flat_dev <= 1e-9
        and orth_end <= 1e-9
        and orth_start_gap <= 0.01
        and between
        and monotone
    )
    _verdict(
        "criterion 5 tradeoff curve shapes",
        ok,
        f"parallel flatness {flat_dev:.1e}, orthogonal at 0 dB {orth_end:.1e} bits, "
        f"gap to max at -40 dB {orth_start_gap:.2e} bits, between={between}, "
        f"non-increasing={monotone}",
    )


def test_criterion_6_beampattern_shapes():
    geom = ArrayGeometry(num_antennas=10, spacing_over_wavelength=0.5)
    target = np.deg2rad(-30.0)
    parallel = Scenario.with_los_user(geom, target, target, 1.0)
    mid = Scenario.with_los_user(geom, target, 0.0, 1.0)
    grid = default_angle_grid()
    ti = int(np.argmin(np.abs(grid - target)))
    near = np.abs(grid - target) <= np.deg2rad(5.0)

    peak_ok = all(
        int(np.argmax(pat.power)) == ti for _, pat in beampattern_sweep(parallel)
    )

    worst_value_dev = 0.0
    masses = []
    for loss, pat in beampattern_sweep(mid):
        gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), mid).gamma
        value = float(pat.power[ti])
        # the target-direction power sits exactly at the threshold while the
        # constraint binds, and at the unconstrained level above it otherwise
        anchor = max(gamma, mid.free_target_power)
        worst_value_dev = max(worst_value_dev, abs(value - anchor) / anchor)
        assert value >= gamma * (1.0 - FEASIBILITY_RTOL)
        masses.append(float(pat.power[near].sum()))
    mass_monotone = all(a < b for a, b in zip(masses, masses[1:]))

    ok = peak_ok and worst_value_dev <= 1e-9 and mass_monotone
    _verdict(
        "criterion 6 beampattern shapes",
        ok,
        f"parallel argmax on target={peak_ok}, worst target-value dev {worst_value_dev:.1e}, "
        f"lobe mass by rising threshold {['%.1f' % v for v in masses]} monotone={mass_monotone}",
    )


def test_criterion_7_boundary_continuity(corpus):
    worst = 0.0
    for scenario, _, _ in corpus:
        cap_matched = math.log2(
            1.0 + scenario.power_budget * scenario.channel_norm_sq
        )
        cap_active = solve_closed_form(
            scenario, scenario.free_target_power
        ).capacity_bits
        worst = max(worst, abs(cap_active - cap_matched))
    _verdict(
        "criterion 7 boundary continuity",
        worst <= BOUNDARY_ATOL,
        f"worst capacity jump at the case boundary {worst:.3e} bits",
    )


def test_criterion_8_determinism(tmp_path):
    scenario = _reference_scenario()
    first = run_verification(scenario, 5.0, resolution=257, trials=20_000, seed=3)
    second = run_verification(scenario, 5.0, resolution=257, trials=20_000, seed=3)
    reports_equal = json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )

    losses = default_loss_grid_db()
    bytes_a = write_tradeoff_csv(
        tradeoff_sweep(scenario, losses), tmp_path / "a.csv"
    ).read_bytes()
    bytes_b = write_tradeoff_csv(
        tradeoff_sweep(scenario, losses), tmp_path / "b.csv"
    ).read_bytes()

    ok = reports_equal and first["passed"] and bytes_a == bytes_b
    _verdict(
        "criterion 8 determinism",
        ok,
        f"verify reports identical={reports_equal} (passed={first['passed']}), "
        f"sweep CSV byte-identical={bytes_a == bytes_b}",
    )


def _harsh_corpus():
    """(scenario, gamma) points far outside criteria 1-3's LoS corpus.

    M from 1 to 1,000; line-of-sight, Rayleigh, orthogonal and near-collinear
    channels and the exact integer channel h = (1, -1, ...) against a target
    at 0 (h^H a_t = 0 exactly); channel scales 1e-140 to 1e140, P from 1e-8
    to 1e8; gamma / (P M) up to 1 - 2^-52 and 1.
    """
    rng = np.random.default_rng(HARSH_SEED)
    fractions = (0.0, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-13, 1.0 - 2.0**-52, 1.0)
    points = []
    for m in (1, 2, 3, 10, 64, 1000):
        geom = ArrayGeometry(num_antennas=m, spacing_over_wavelength=0.5)
        at = steering_vector(geom, 0.3)
        rayleigh, nudge, h = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        channels = [
            (0.3, steering_vector(geom, -0.7)),
            (0.3, rayleigh),
            (0.3, np.exp(0.4j) * at + 1e-9 * nudge),
            (0.0, np.array([(-1.0) ** k for k in range(m)], dtype=np.complex128)),
        ]
        if m > 1:
            channels.append((0.3, h - np.vdot(at, h) / m * at))
        for target, h in channels:
            for scale in (1e-140, 1e-70, 1.0, 1e70, 1e140):
                for power in (1e-8, 1.0, 1e8):
                    scenario = Scenario(geom, target, scale * h, power)
                    points += [(scenario, f * power * m) for f in fractions]
    return points


def test_criterion_9_dual_bound_on_harsh_inputs():
    t0 = time.perf_counter()
    worst_gap = worst_bound = 0.0
    points = _harsh_corpus()
    for scenario, gamma in points:
        gap, bound = _dual_margins(scenario, gamma, solve_closed_form(scenario, gamma))
        worst_gap, worst_bound = max(worst_gap, gap), max(worst_bound, bound)
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 9 dual bound on harsh inputs",
        worst_gap <= HARSH_DUAL_TOL and worst_bound <= HARSH_DUAL_TOL and elapsed < 1.0,
        f"{len(points)} points, worst beam gap {worst_gap:.1e}, worst |reference - D| "
        f"{worst_bound:.1e} x P||h||^2, {elapsed:.2f}s",
    )

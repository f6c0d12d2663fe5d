import cmath
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from dfrc import InfeasibleRadarRequirement, Scenario, ArrayGeometry
from dfrc import kkt_check, solve_closed_form, steering_vector, verify
from dfrc.verify import run_verification


@pytest.fixture()
def quick(reference_scenario):
    def run(gamma, **kw):
        kw.setdefault("resolution", 129)
        kw.setdefault("trials", 5000)
        return run_verification(reference_scenario, gamma, **kw)

    return run


class TestRunVerification:
    def test_reference_passes_all_checks(self, quick):
        report = quick(5.0)
        assert report["passed"] is True
        assert report["failed"] == []
        assert all(report["checks"].values())
        assert report["closed_form"]["case"] == "active"
        assert report["closed_form"]["capacity_bits"] == pytest.approx(
            math.log2(7.4), abs=1e-9
        )
        assert report["oracle"]["gap_rel"] <= 1e-4

    def test_below_threshold_case(self, quick):
        report = quick(0.05)
        assert report["passed"] is True
        assert report["closed_form"]["case"] == "below_threshold"
        assert report["dual"]["lambda"] == 0.0

    def test_top_of_feasible_range_passes(self, reference_scenario, quick):
        # at gamma = P*M the only feasible beam is the scaled steering
        # vector; no finite multiplier exists there, but the dual bound does
        # and certifies the beam like anywhere else
        report = quick(reference_scenario.max_target_power)
        assert report["passed"] is True
        assert report["dual"]["lambda"] is None
        assert report["dual"]["bound"] == pytest.approx(0.2, rel=1e-12)
        assert report["closed_form"]["target_power"] == pytest.approx(
            reference_scenario.max_target_power, rel=1e-12
        )

    def test_report_is_json_round_trippable(self, quick):
        report = quick(2.0)
        text = json.dumps(report, indent=2)
        assert json.loads(text) == json.loads(json.dumps(report, indent=2))

    def test_deterministic_reports(self, quick):
        a = quick(3.0, seed=7)
        b = quick(3.0, seed=7)
        assert json.dumps(a, indent=2) == json.dumps(b, indent=2)

    def test_perturbed_solution_fails_power(self, quick):
        report = quick(5.0, perturb=1e-3)
        assert report["passed"] is False
        assert "solution_power" in report["failed"]

    def test_perturbation_scales_down_cleanly(self, quick):
        # tiny perturbation still passes: the certificate has real tolerance
        report = quick(5.0, perturb=1e-12)
        assert report["passed"] is True

    @pytest.mark.parametrize(
        "resolution",
        [129.0, np.int64(129) + 0.5, True, (129.5, 130), (129, True), [129],
         (np.int32(65), 129), [129, 65]],
    )
    def test_non_integer_resolution_rejected_before_solving(self, quick, resolution):
        # (129.5, 130) used to run a 129 x 130 grid and record [129, 130];
        # a pair of integers is not an integer either
        with mock.patch.object(verify, "solve_closed_form", side_effect=AssertionError):
            with pytest.raises(ValueError, match="^resolution must be an integer"):
                quick(5.0, resolution=resolution)

    @pytest.mark.parametrize(
        "resolution, want",
        [
            (np.int64(129), {"resolution": 129, "trials": 500, "seed": 0, "perturb": 0.0}),
            (np.int32(65), {"resolution": 65, "trials": 500, "seed": 0, "perturb": 0.0}),
            (np.uint16(257), {"resolution": 257, "trials": 500, "seed": 0, "perturb": 0.0}),
        ],
    )
    def test_integer_resolution_recorded(self, quick, resolution, want):
        # the settings block holds the validated int, and nothing else is set
        report = quick(5.0, resolution=resolution, trials=500)
        assert report["settings"] == want
        assert type(report["settings"]["resolution"]) is int
        assert report["passed"] is True

    def test_default_resolution(self, reference_scenario):
        report = run_verification(reference_scenario, 5.0, trials=500)
        assert report["settings"]["resolution"] == 2001
        assert report["oracle"] == run_verification(
            reference_scenario, 5.0, resolution=2001, trials=500
        )["oracle"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("resolution", 63, "resolution must be at least 64, got 63"),
            ("resolution", 2**63, f"resolution must be at most {2**63 - 1}"),
            ("trials", 0, "trials must be at least 1, got 0"),
            ("trials", 10**9 + 1, "trials must be at most 1000000000"),
            ("trials", 10**400, "trials must be at most 1000000000"),
        ],
        ids=["resolution-low", "resolution-high", "trials-low", "trials-high", "trials-huge"],
    )
    def test_out_of_range_setting_rejected_before_solving(self, quick, key, value, message):
        with mock.patch.object(verify, "solve_closed_form", side_effect=AssertionError):
            with pytest.raises(ValueError, match=f"^{message}$"):
                quick(5.0, **{key: value})

    @pytest.mark.parametrize(
        "perturb", [True, False, np.True_, -1e-3, -math.inf, math.inf, math.nan, "0.001", 1j]
    )
    def test_bad_perturb_rejected_before_solving(self, quick, perturb):
        # perturb=True used to be read as 1.0: a 100% corruption of the beam,
        # and "0.001" was accepted through float()
        with mock.patch.object(verify, "solve_closed_form", side_effect=AssertionError):
            with pytest.raises(ValueError, match="^perturb must be"):
                quick(5.0, perturb=perturb)

    @pytest.mark.parametrize("refine", ["no", 1, None])
    def test_non_bool_refine_rejected_before_solving(self, quick, refine):
        # the oracle always refines: refine= is gone, whatever its value
        with mock.patch.object(verify, "solve_closed_form", side_effect=AssertionError):
            with pytest.raises(TypeError, match="refine"):
                quick(5.0, refine=refine)

    def test_perturb_values_kept(self, quick):
        assert quick(5.0, trials=500, perturb=0.0) == quick(5.0, trials=500)
        report = quick(5.0, trials=500, perturb=np.float64(1e-3))
        assert report["settings"]["perturb"] == 1e-3
        assert type(report["settings"]["perturb"]) is float
        assert report["passed"] is False

    def test_infeasible_raises(self, reference_scenario):
        with pytest.raises(InfeasibleRadarRequirement):
            run_verification(reference_scenario, 11.0, resolution=129, trials=100)

    def test_orthogonal_scenario_passes(self, orthogonal_scenario):
        report = run_verification(
            orthogonal_scenario, 5.0, resolution=129, trials=5000
        )
        assert report["passed"] is True, report["failed"]

    def test_parallel_scenario_passes(self, parallel_scenario):
        report = run_verification(
            parallel_scenario, 9.0, resolution=129, trials=5000
        )
        assert report["passed"] is True, report["failed"]

    @pytest.mark.parametrize(
        "key, value", [("trials", 2.7), ("trials", True), ("seed", 1.5), ("seed", "0")]
    )
    def test_non_integer_settings_rejected_before_solving(self, quick, key, value):
        # trials=2.7 used to run 2 draws and record "trials": 2
        message = f"^{key} must be an integer, got {re.escape(repr(value))}$"
        with mock.patch.object(verify, "solve_closed_form", side_effect=AssertionError):
            with pytest.raises(ValueError, match=message):
                quick(5.0, **{key: value})

    def test_numpy_integer_settings(self, quick):
        want = quick(5.0, trials=3000, seed=4)
        got = quick(5.0, trials=np.int32(3000), seed=np.int64(4))
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_falsifier_entries_recorded(self, quick):
        report = quick(1.0, trials=2000, seed=5)
        f = report["falsifier"]
        assert f["num_trials"] == 2000
        assert 0 <= f["num_feasible"] <= 2000
        assert f["best_objective"] <= report["closed_form"]["objective"] + 1e-9


_SCALES = [1e-140, 1e-70, 1e-7, 1e-5, 1.0, 1e4, 1e6, 1e70, 1e140]
_POWERS = [1e-8, 1.0, 1e8]


def _rayleigh(scale, power):
    # a seeded Rayleigh channel at M = 10, scaled; gamma is P * M / 2
    rng = np.random.default_rng(2718)
    h = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    return Scenario(ArrayGeometry(10, 0.5), 0.3, scale * h, power)


def _target_beam(scenario, gamma):
    # feasible and power-exact, but all of it aimed at the target
    from dfrc.closed_form import solve_closed_form

    solution = solve_closed_form(scenario, gamma)
    c = scenario.target_steering * math.sqrt(
        scenario.power_budget / scenario.steering_norm_sq
    )
    return dataclasses.replace(solution, vector_c=c)


class TestScaleFreeBounds:
    """The verdicts do not depend on the channel scale or the power budget."""

    @pytest.mark.parametrize("power", _POWERS)
    @pytest.mark.parametrize("scale", _SCALES)
    def test_correct_beam_passes(self, scale, power):
        sc = _rayleigh(scale, power)
        report = run_verification(sc, 5.0 * power, resolution=257, trials=3000)
        assert report["passed"] is True, report["failed"]

    @pytest.mark.parametrize("power", _POWERS)
    @pytest.mark.parametrize("scale", _SCALES)
    def test_perturbed_beam_fails(self, scale, power):
        sc = _rayleigh(scale, power)
        report = run_verification(
            sc, 5.0 * power, resolution=257, trials=3000, perturb=1e-3
        )
        assert report["passed"] is False
        assert "solution_power" in report["failed"]

    @pytest.mark.parametrize("power", _POWERS)
    @pytest.mark.parametrize("scale", _SCALES)
    def test_target_beam_fails(self, scale, power):
        sc = _rayleigh(scale, power)
        with mock.patch.object(verify, "solve_closed_form", _target_beam):
            report = run_verification(sc, 5.0 * power, resolution=257, trials=3000)
        assert report["closed_form"]["solution_objective"] < 0.5 * report["closed_form"]["objective"]
        assert report["passed"] is False
        assert "dual_gap" in report["failed"]

    @pytest.mark.parametrize("scale", [2.0**-400, 2.0**-40, 2.0**40, 2.0**400])
    def test_multipliers_scale_with_the_channel(self, scale):
        # h -> s h leaves the beam unchanged and scales lambda and D by s^2;
        # for a power of two s, exactly
        unit = _rayleigh(1.0, 1.0)
        scaled = _rayleigh(scale, 1.0)
        base = kkt_check(solve_closed_form(unit, 5.0), unit, 5.0)
        cert = kkt_check(solve_closed_form(scaled, 5.0), scaled, 5.0)
        s2 = scale * scale
        assert cert.dual_lambda == base.dual_lambda * s2
        assert cert.bound == base.bound * s2

    @pytest.mark.parametrize("seed", range(6))
    def test_orthogonal_channel_at_zero_threshold(self, seed):
        # at gamma = 0 with h orthogonal to a_t the target constraint is
        # slack: lambda is exactly 0 and D is the matched beam's P ||h||^2
        rng = np.random.default_rng(seed)
        m = 2 + seed
        geom = ArrayGeometry(m, 0.5)
        at = steering_vector(geom, 0.4)
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h -= np.vdot(at, h) / m * at
        for scale in (1e-100, 1.0, 1e100):
            sc = Scenario(geom, 0.4, scale * h, 3.0)
            cert = kkt_check(solve_closed_form(sc, 0.0), sc, 0.0)
            assert cert.dual_lambda == 0.0
            assert cert.bound == pytest.approx(3.0 * sc.channel_norm_sq, rel=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.7, -2.9])
    def test_dual_invariance_under_channel_scale_and_phase(self, theta):
        # h -> s e^{j theta} h scales lambda and D by s^2 and leaves every
        # verdict unchanged, from s = 1e-140 to 1e140
        base_sc = _rayleigh(1.0, 1.0)
        base = run_verification(base_sc, 5.0, resolution=129, trials=1000)
        for scale in _SCALES:
            sc = _rayleigh(scale * cmath.exp(1j * theta), 1.0)
            report = run_verification(sc, 5.0, resolution=129, trials=1000)
            s2 = scale * scale
            assert report["checks"] == base["checks"]
            assert report["dual"]["lambda"] == pytest.approx(base["dual"]["lambda"] * s2, rel=1e-12)
            assert report["dual"]["bound"] == pytest.approx(base["dual"]["bound"] * s2, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-8, 3.0, 1e8])
    def test_dual_invariance_under_power_scale(self, t):
        # (P, gamma) -> t (P, gamma) scales D by t and leaves lambda unchanged
        unit = _rayleigh(1.0, 1.0)
        scaled = _rayleigh(1.0, t)
        for frac in (0.0, 0.3, 0.5, 0.9, 0.999):
            base = kkt_check(solve_closed_form(unit, frac * 10.0), unit, frac * 10.0)
            gamma = frac * 10.0 * t
            cert = kkt_check(solve_closed_form(scaled, gamma), scaled, gamma)
            assert cert.bound == pytest.approx(base.bound * t, rel=1e-12)
            assert cert.dual_lambda == pytest.approx(base.dual_lambda, rel=1e-12, abs=0.0)


def _exact_orthogonal(m, scale):
    # h = s (1, -1, ..., 1, -1) and a target at 0, so a_t = (1, ..., 1) and
    # h^H a_t = 0 exactly
    h = scale * np.array([(-1.0) ** k for k in range(m)], dtype=np.complex128)
    return Scenario(ArrayGeometry(m, 0.5), 0.0, h, 1.0)


@pytest.mark.parametrize("g", [0.0, 0.5, 0.99])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_target_beam_fails_on_exact_orthogonal_channel(m, scale, g):
    # the pure target beam is feasible, power-exact and a KKT point, so no
    # first-order check can tell it from the optimum; but its received power
    # is 0 against an optimum of P ||h||^2 (1 - g), which the dual bound shows
    sc = _exact_orthogonal(m, scale)
    with mock.patch.object(verify, "solve_closed_form", _target_beam):
        report = run_verification(sc, g * sc.max_target_power, resolution=129, trials=2000)
    # 0 up to rounding of the steering vector's entries
    assert report["closed_form"]["solution_objective"] <= 1e-30 * sc.channel_norm_sq
    assert report["dual"]["bound"] == pytest.approx((1.0 - g) * sc.channel_norm_sq, rel=1e-12)
    assert report["passed"] is False
    assert "dual_gap" in report["failed"]


@pytest.mark.parametrize("kind", ["reference", "orthogonal", "collinear"])
def test_report_is_strict_json_at_every_threshold(reference_scenario, kind):
    geom = ArrayGeometry(10, 0.5)
    sc = {
        "reference": reference_scenario,
        "orthogonal": _exact_orthogonal(10, 1.0),
        "collinear": Scenario(geom, 0.3, steering_vector(geom, 0.3), 1.0),
    }[kind]
    top = sc.max_target_power
    for gamma in (0.0, 0.5 * top, top):
        report = run_verification(sc, gamma, resolution=129, trials=1000)
        assert report["passed"] is True, report["failed"]
        json.dumps(report, allow_nan=False)
        if gamma == top:
            # no finite multiplier and no feasible random draw on the single
            # steering ray: both are null, not Infinity
            assert report["dual"]["lambda"] is None
            assert report["falsifier"]["best_objective"] is None
        else:
            assert math.isfinite(report["dual"]["lambda"])


def test_flushed_objective_scale_gives_a_strict_json_report():
    # P ||h||^2 = 1e-300 * 1e-29 flushes to 0, and the reference objective
    # with it: the relative oracle gap must not divide by zero
    geom = ArrayGeometry(10, 0.5)
    sc = Scenario(geom, -0.5, 1e-15 * steering_vector(geom, 0.2), 1e-300)
    assert sc.power_budget * sc.channel_norm_sq == 0.0
    for gamma in (0.0, 0.5 * sc.max_target_power):
        report = run_verification(sc, gamma, resolution=65, trials=500)
        assert report["closed_form"]["objective"] == 0.0
        assert report["oracle"]["gap_rel"] == 0.0
        json.dumps(report, allow_nan=False)

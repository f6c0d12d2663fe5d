import cmath
import dataclasses
import math

import numpy as np
import pytest

from dfrc import (
    ArrayGeometry,
    CaseTag,
    InfeasibleRadarRequirement,
    Scenario,
    assemble_covariance,
    optimal_received_power,
    solve_closed_form,
    steering_vector,
)
from dfrc import closed_form, sweep


def brute_force_two_beam_max(scenario, gamma, n=400):
    """Crude direct maximization in (amp, phase) for cross-checking.

    Same parametrization as the oracle module but written independently:
    python loops, steering weight from the power budget by bisection-free
    quadratic formula.
    """
    hh = scenario.channel_norm_sq
    aa = scenario.steering_norm_sq
    gabs = abs(scenario.cross_gain)
    garg = cmath.phase(scenario.cross_gain) if scenario.cross_gain != 0 else 0.0
    power = scenario.power_budget
    best = -math.inf
    for amp in np.linspace(0.0, math.sqrt(power / hh), n):
        for phase in np.linspace(0.0, 2 * math.pi, n, endpoint=False):
            cospsi = math.cos(phase - garg)
            sinpsi = math.sin(phase - garg)
            half_b = amp * gabs * cospsi
            disc = half_b * half_b + aa * (power - amp * amp * hh)
            if disc < 0:
                continue
            t = max((math.sqrt(disc) - half_b) / aa, 0.0)
            radar = (amp * gabs * cospsi + t * aa) ** 2 + (amp * gabs * sinpsi) ** 2
            if amp == 0.0:
                ok = gamma <= power * aa * (1 + 1e-12)
            else:
                ok = radar >= gamma
            if ok:
                obj = (amp * hh + t * gabs * cospsi) ** 2 + (t * gabs * sinpsi) ** 2
                best = max(best, obj)
    return best


def _case(scenario, gamma):
    return solve_closed_form(scenario, gamma).case


def _capacity(scenario, gamma):
    return solve_closed_form(scenario, gamma).capacity_bits


class TestClassifyCase:
    def test_reference_regimes(self, reference_scenario):
        sc = reference_scenario
        assert _case(sc, 0.0) is CaseTag.BELOW_THRESHOLD
        assert _case(sc, 0.1) is CaseTag.BELOW_THRESHOLD
        assert _case(sc, 0.2) is CaseTag.ACTIVE
        assert _case(sc, 5.0) is CaseTag.ACTIVE
        assert _case(sc, 10.0) is CaseTag.ACTIVE
        with pytest.raises(InfeasibleRadarRequirement):
            _case(sc, 11.0)

    def test_boundaries_go_to_active(self, reference_scenario):
        sc = reference_scenario
        assert _case(sc, sc.free_target_power) is CaseTag.ACTIVE
        assert _case(sc, sc.max_target_power) is CaseTag.ACTIVE
        # just inside the tolerance band still counts as the boundary
        assert _case(sc, sc.max_target_power * (1 + 1e-13)) is CaseTag.ACTIVE
        with pytest.raises(InfeasibleRadarRequirement):
            _case(sc, sc.max_target_power * (1 + 1e-9))

    def test_negative_gamma_rejected(self, reference_scenario):
        for solve in (solve_closed_form, optimal_received_power):
            with pytest.raises(ValueError, match="^gamma must be nonnegative, got -0.5$"):
                solve(reference_scenario, -0.5)

    def test_orthogonal_any_positive_threshold_binds(self, orthogonal_scenario):
        # free_target_power is float dust above zero, so exactly 0 is slack
        # and anything material binds
        assert _case(orthogonal_scenario, 0.0) is CaseTag.BELOW_THRESHOLD
        assert _case(orthogonal_scenario, 1e-6) is CaseTag.ACTIVE
        assert _case(orthogonal_scenario, 5.0) is CaseTag.ACTIVE


class TestCapacity:
    def test_reference_below_threshold(self, reference_scenario):
        # P*||h||^2 = 10: log2(11) whenever the constraint is slack
        expect = math.log2(11.0)
        for gamma in (0.0, 0.05, 0.1, 0.19, 0.2):
            assert _capacity(reference_scenario, gamma) == pytest.approx(
                expect, abs=1e-9
            )

    def test_reference_active_value(self, reference_scenario):
        # beta = (10 - 5) * (100 - 2) = 490; received power
        # (sqrt(5)*sqrt(2) + sqrt(490))^2 / 100 = 6.4 exactly
        assert optimal_received_power(reference_scenario, 5.0) == pytest.approx(
            6.4, rel=1e-12
        )
        assert _capacity(reference_scenario, 5.0) == pytest.approx(
            math.log2(7.4), abs=1e-9
        )

    def test_full_loss_monotone(self, reference_scenario):
        sc = reference_scenario
        gammas = np.linspace(0.0, sc.max_target_power, 200)
        caps = [_capacity(sc, float(g)) for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_boundary_continuity(self, reference_scenario):
        sc = reference_scenario
        g1 = sc.free_target_power
        inactive = math.log2(1.0 + sc.power_budget * sc.channel_norm_sq)
        # at the case boundary the binding formula must agree with the slack one
        assert _capacity(sc, g1) == pytest.approx(inactive, abs=1e-9)

    def test_infeasible_raises(self, reference_scenario):
        with pytest.raises(InfeasibleRadarRequirement) as err:
            _capacity(reference_scenario, 11.0)
        assert err.value.gamma == 11.0
        assert err.value.gamma_max == pytest.approx(10.0)

    def test_matches_independent_brute_force(self, make_random_scenario):
        rng = np.random.default_rng(17)
        for _ in range(5):
            sc = make_random_scenario(rng, m_lo=2, m_hi=8)
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            brute = brute_force_two_beam_max(sc, gamma, n=400)
            exact = optimal_received_power(sc, gamma)
            peak = sc.power_budget * sc.channel_norm_sq
            # a fixed grid can only undershoot the optimum; how much depends
            # on where gamma lands (the refined oracle owns tight accuracy)
            assert brute <= exact * (1 + 1e-12) + 1e-12
            assert brute >= exact - max(0.1 * exact, 0.01 * peak)


class TestSolveClosedForm:
    def test_below_threshold_is_matched_beam(self, reference_scenario):
        sc = reference_scenario
        sol = solve_closed_form(sc, 0.1)
        assert sol.case is CaseTag.BELOW_THRESHOLD
        assert sol.coeff_b == 0
        assert sol.coeff_a == pytest.approx(
            math.sqrt(sc.power_budget / sc.channel_norm_sq), rel=1e-14
        )
        np.testing.assert_allclose(
            sol.vector_c, sol.coeff_a * sc.channel, atol=1e-15
        )

    def test_reference_active_solution(self, reference_scenario):
        sc = reference_scenario
        sol = solve_closed_form(sc, 5.0)
        assert sol.case is CaseTag.ACTIVE
        # |a| = eta = sqrt((P*M - gamma) / (||h||^2 M - |g|^2)) = sqrt(5/98)
        assert abs(sol.coeff_a) == pytest.approx(math.sqrt(5.0 / 98.0), rel=1e-12)
        # |b| = sqrt(gamma)/M - |g| eta / M
        expect_b = math.sqrt(5.0) / 10.0 - math.sqrt(2.0) * math.sqrt(5.0 / 98.0) / 10.0
        assert sol.coeff_b.imag == 0.0
        assert sol.coeff_b.real == pytest.approx(expect_b, rel=1e-12)
        # phase alignment: coeff_a carries the phase of h^H a_t
        assert cmath.phase(sol.coeff_a) == pytest.approx(
            cmath.phase(sc.cross_gain), abs=1e-12
        )

    def test_power_budget_exact(self, make_random_scenario):
        rng = np.random.default_rng(5)
        for _ in range(40):
            sc = make_random_scenario(rng)
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            sol = solve_closed_form(sc, gamma)
            trace = float(np.trace(assemble_covariance(sol.vector_c)).real)
            assert trace == pytest.approx(sc.power_budget, rel=1e-9)

    def test_threshold_met_exactly_when_active(self, make_random_scenario):
        rng = np.random.default_rng(6)
        seen_active = 0
        for _ in range(60):
            sc = make_random_scenario(rng)
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            sol = solve_closed_form(sc, gamma)
            at = sc.target_steering
            r = assemble_covariance(sol.vector_c)
            delivered = float(np.vdot(at, r @ at).real)
            assert delivered >= gamma * (1 - 1e-9)
            if sol.case is CaseTag.ACTIVE and sol.coeff_b != 0:
                # active constraint binds exactly (algebraic identity)
                assert delivered == pytest.approx(gamma, rel=1e-9)
                seen_active += 1
        assert seen_active > 10

    def test_capacity_consistent_with_covariance(self, make_random_scenario):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sc = make_random_scenario(rng)
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            sol = solve_closed_form(sc, gamma)
            r = assemble_covariance(sol.vector_c)
            received = float(np.vdot(sc.channel, r @ sc.channel).real)
            assert math.log2(1.0 + received) == pytest.approx(sol.capacity_bits, rel=1e-12)

    def test_covariance_rank_one_psd(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 5.0)
        r = assemble_covariance(sol.vector_c)
        evals = np.linalg.eigvalsh(r)
        assert evals[-1] == pytest.approx(reference_scenario.power_budget, rel=1e-12)
        assert np.all(evals[:-1] < 1e-12)
        np.testing.assert_allclose(
            r, np.outer(sol.vector_c, sol.vector_c.conj()), atol=1e-15
        )

    def test_global_phase_invariance(self, reference_scenario):
        sc = reference_scenario
        sol = solve_closed_form(sc, 5.0)
        r0 = assemble_covariance(sol.vector_c)
        h = sc.channel
        for alpha in (0.3, 1.7, -2.2):
            rotated = cmath.exp(1j * alpha) * sol.vector_c
            r = assemble_covariance(rotated)
            np.testing.assert_allclose(r, r0, atol=1e-13)
            assert np.vdot(h, r @ h).real == pytest.approx(np.vdot(h, r0 @ h).real, rel=1e-12)

    def test_parallel_channel_any_feasible_gamma(self, parallel_scenario):
        sc = parallel_scenario
        for gamma in (0.0, 5.0, 9.999, 10.0):
            sol = solve_closed_form(sc, gamma)
            assert sol.coeff_b == 0
            # matched beam: c = sqrt(P) h / ||h||
            np.testing.assert_allclose(
                sol.vector_c,
                math.sqrt(sc.power_budget / sc.channel_norm_sq) * sc.channel,
                atol=1e-12,
            )
            assert sol.capacity_bits == pytest.approx(math.log2(11.0), rel=1e-12)
            at = sc.target_steering
            delivered = abs(np.vdot(at, sol.vector_c)) ** 2
            assert delivered >= gamma * (1 - 1e-9)

    def test_orthogonal_at_max_gamma_steers_everything(self, orthogonal_scenario):
        sc = orthogonal_scenario
        sol = solve_closed_form(sc, sc.max_target_power)
        # eta -> 0: all power on the steering beam
        assert abs(sol.coeff_a) == pytest.approx(0.0, abs=1e-12)
        assert sol.coeff_b.real == pytest.approx(
            math.sqrt(sc.power_budget / sc.steering_norm_sq), rel=1e-9
        )
        # capacity collapses with it
        assert sol.capacity_bits == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_capacity_formula(self, orthogonal_scenario):
        sc = orthogonal_scenario
        # |g| ~ 0: received power is (P*M - gamma) * ||h||^2 / M
        for gamma in (0.0, 2.0, 7.5):
            expect = (sc.power_budget * 10.0 - gamma) * sc.channel_norm_sq / 10.0
            assert optimal_received_power(sc, gamma) == pytest.approx(expect, rel=1e-9)

    def test_infeasible_raises_with_details(self, reference_scenario):
        with pytest.raises(InfeasibleRadarRequirement, match="10"):
            solve_closed_form(reference_scenario, 10.5)

    def test_vector_read_only(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 5.0)
        with pytest.raises(ValueError):
            sol.vector_c[0] = 0.0
        with pytest.raises(ValueError):
            assemble_covariance(sol.vector_c)[0, 0] = 0.0


class TestLazyCovariance:
    """c c^H is formed only when a caller asks assemble_covariance for it."""

    def test_replace_derives_from_new_vector(self, reference_scenario):
        # the solution holds nothing derived from c beyond its fields, so a
        # replaced beam (as verify's perturbation makes) leaves nothing stale
        import dataclasses

        sol = solve_closed_form(reference_scenario, 5.0)
        c = np.array(sol.vector_c) * 1j
        moved = dataclasses.replace(sol, vector_c=c)
        assert set(vars(moved)) == {f.name for f in dataclasses.fields(sol)}
        np.testing.assert_array_equal(assemble_covariance(moved.vector_c), np.outer(c, c.conj()))

    def test_huge_array_needs_no_covariance(self):
        # c c^H would take 149 GiB here; nothing on the solve path forms it
        m = 100_000
        sc = Scenario.with_los_user(ArrayGeometry(m, 0.5), 0.3, -0.2, 2.0)
        gamma = 0.5 * sc.max_target_power
        sol = solve_closed_form(sc, gamma)
        assert not hasattr(sol, "covariance")
        assert sol.case is CaseTag.ACTIVE
        assert sol.capacity_bits == math.log2(1.0 + optimal_received_power(sc, gamma))
        c = sol.vector_c
        assert c.shape == (m,)
        received = abs(np.vdot(sc.channel, c)) ** 2
        assert sol.capacity_bits == pytest.approx(math.log2(1.0 + received), rel=1e-9)
        assert float(np.vdot(c, c).real) == pytest.approx(sc.power_budget, rel=1e-9)
        target = abs(np.vdot(sc.target_steering, c)) ** 2
        assert target == pytest.approx(gamma, rel=1e-9)


class TestBeamPowers:
    def test_reference_beam(self, reference_scenario):
        # the power budget, the threshold it meets with equality, and 6.4
        sc = reference_scenario
        c = solve_closed_form(sc, 5.0).vector_c
        trace, target, received = closed_form.beam_powers(sc, c)
        assert (trace, target, received) == pytest.approx((1.0, 5.0, 6.4), rel=1e-12)
        assert all(type(v) is float for v in (trace, target, received))


class TestAssembleCovariance:
    def test_outer_product(self):
        c = np.array([1.0 + 1.0j, 2.0 - 0.5j])
        r = assemble_covariance(c)
        np.testing.assert_allclose(r, np.outer(c, c.conj()), atol=0.0)
        np.testing.assert_allclose(r, r.conj().T, atol=0.0)
        assert float(np.trace(r).real) == pytest.approx(float(np.vdot(c, c).real))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            assemble_covariance(np.eye(3, dtype=complex))


def _frozen_solve(scenario, gamma):
    """The solver's scalar algebra as a standalone copy, discriminant formed twice.

    Returns (a, b, eta, received) for a feasible ``gamma``; eta is None for
    the matched beam.
    """
    hh = scenario.channel_norm_sq
    aa = scenario.steering_norm_sq
    power = scenario.power_budget
    g = scenario.cross_gain
    gabs = abs(g)
    below = gamma < scenario.free_target_power * (1.0 - 1e-12)
    tag = CaseTag.BELOW_THRESHOLD if below else CaseTag.ACTIVE
    if tag is CaseTag.BELOW_THRESHOLD:
        received = power * hh
    else:
        beta = max(power * aa - gamma, 0.0) * max(hh * aa - gabs * gabs, 0.0)
        root = math.sqrt(gamma) * gabs + math.sqrt(beta)
        received = root * root / (aa * aa)
    matched = tag is CaseTag.BELOW_THRESHOLD
    if not matched:
        denom = hh * aa - gabs * gabs
        matched = denom <= 1e-12 * hh * aa
    if matched:
        return complex(math.sqrt(power / hh)), 0j, None, received
    eta = math.sqrt(max(power * aa - gamma, 0.0) / denom)
    b_mag = max(math.sqrt(gamma) / aa - gabs * eta / aa, 0.0)
    phase = cmath.phase(g) if g != 0 else 0.0
    return eta * cmath.exp(1j * phase), complex(b_mag), eta, received


def _solve_corpus():
    rng = np.random.default_rng(2024)
    geometry = ArrayGeometry(10, 0.5)
    target = math.radians(-30.0)
    cases = []
    for user_deg in (-30.0, 30.0, 0.0, -29.999999):  # parallel, orthogonal, generic, near-parallel
        sc = Scenario.with_los_user(geometry, target, math.radians(user_deg), 1.0)
        cases.append(sc)
    # denom / (||h||^2 M) at 0.75e-12 and 1.5e-12, either side of the
    # collinearity threshold: a_t plus a small component orthogonal to it
    a_t = steering_vector(geometry, target)
    orthogonal = steering_vector(geometry, math.radians(30.0))
    for ratio in (0.75e-12, 1.5e-12):
        cases.append(Scenario(geometry, target, a_t + math.sqrt(ratio) * orthogonal, 1.0))
    for _ in range(60):
        m = int(rng.integers(1, 65))
        h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** rng.uniform(-50, 50)
        power = float(10.0 ** rng.uniform(-3, 3))
        cases.append(Scenario(ArrayGeometry(m, 0.5), float(rng.uniform(-1.5, 1.5)), h, power))
    for sc in cases:
        g_free, g_max = sc.free_target_power, sc.max_target_power
        for gamma in (0.0, g_free * (1 - 1e-12), g_free, g_free * (1 + 1e-13),
                      0.5 * (g_free + g_max), g_max * (1 - 1e-15), g_max):
            if gamma <= g_max * (1 + 1e-12):
                yield sc, gamma


class TestDiscriminantFormedOnce:
    def test_same_bits_as_two_pass_algebra(self):
        seen = set()
        for sc, gamma in _solve_corpus():
            sol = solve_closed_form(sc, gamma)
            a, b, eta, received = _frozen_solve(sc, gamma)
            got = (sol.coeff_a, sol.coeff_b, sol.capacity_bits)
            assert repr(got) == repr((a, b, math.log2(1.0 + received)))
            assert repr(optimal_received_power(sc, gamma)) == repr(received)
            seen.add((sol.case, eta is None))
        # slack, binding with a split beam, binding with the matched beam
        assert seen == {
            (CaseTag.BELOW_THRESHOLD, True), (CaseTag.ACTIVE, False), (CaseTag.ACTIVE, True)
        }


class TestConstantsFormedOnce:
    def test_kept_on_the_scenario(self, reference_scenario, monkeypatch):
        # a sweep, the patterns and every single call form them once per
        # scenario; equal scenarios keep their own
        formed = []

        class Counting(closed_form._Constants):
            __slots__ = ()

            def __init__(self, scenario):
                formed.append(scenario)
                super().__init__(scenario)

        monkeypatch.setattr(closed_form, "_Constants", Counting)
        sc = reference_scenario
        sweep.tradeoff_sweep(sc)
        sweep.beampattern_sweep(sc)
        for gamma in (0.0, 5.0, 10.0):
            optimal_received_power(sc, gamma)
            solve_closed_form(sc, gamma)
        assert formed == [sc]
        twin = Scenario(sc.geometry, sc.target_angle, sc.channel, sc.power_budget)
        assert solve_closed_form(twin, 5.0).capacity_bits == solve_closed_form(sc, 5.0).capacity_bits
        assert len(formed) == 2 and formed[1] is twin
        assert closed_form._constants(twin) is not closed_form._constants(sc)

    def test_not_part_of_the_scenario_s_value(self, reference_scenario):
        sc = reference_scenario
        before = repr(sc)
        closed_form._constants(sc)
        assert repr(sc) == before
        assert "_closed_form" not in {f.name for f in dataclasses.fields(sc) if f.init}
        moved = dataclasses.replace(sc, power_budget=2.0)
        assert moved._closed_form is None
        assert optimal_received_power(moved, 0.0) == 2.0 * sc.channel_norm_sq

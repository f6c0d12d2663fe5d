import math
import re
import tracemalloc

import numpy as np
import pytest

from dfrc import kernels, oracle
from dfrc import (
    ArrayGeometry,
    InfeasibleRadarRequirement,
    Scenario,
    grid_search_oracle,
    kkt_check,
    optimal_received_power,
    random_falsifier,
    solve_closed_form,
    steering_vector,
)


class TestGridSearchOracle:
    def test_reference_value_without_refinement(self, reference_scenario):
        # 6.4 is exact for the reference scenario at threshold 5; the oracle's
        # 401 x 401 scan, before refinement, gets within its cell-size error
        # and never above
        sc = reference_scenario
        params = oracle._scan_params(sc, 5.0)
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 401)
        phases = np.linspace(0.0, 2.0 * math.pi, 401, endpoint=False)
        best, _, _ = kernels.grid_scan(
            amps, phases, params["cross_arg"], params["power"], params["gamma"],
            params["ch_norm_sq"], params["st_norm_sq"], params["cross_abs"],
        )
        assert best <= 6.4 * (1 + 1e-12)
        # raw cell error is first order in the phase step near the binding
        # constraint; 401 steps leave a few tenths of a percent
        assert best == pytest.approx(6.4, rel=5e-3)

    def test_refinement_reaches_tight_accuracy(self, reference_scenario):
        for gamma in (0.0, 0.1, 0.2, 5.0, 9.5, 10.0):
            orc = grid_search_oracle(reference_scenario, gamma, resolution=257)
            exact = optimal_received_power(reference_scenario, gamma)
            assert orc.objective <= exact + 1e-9
            assert orc.objective == pytest.approx(exact, rel=1e-6)

    def test_never_exceeds_closed_form(self, make_random_scenario):
        rng = np.random.default_rng(21)
        for _ in range(15):
            sc = make_random_scenario(rng, m_lo=2, m_hi=12)
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            orc = grid_search_oracle(sc, gamma, resolution=129)
            exact = optimal_received_power(sc, gamma)
            assert orc.objective <= exact + 1e-9
            assert orc.objective == pytest.approx(exact, rel=1e-4)

    def test_solution_point_is_power_exact_and_feasible(self, reference_scenario):
        sc = reference_scenario
        gamma = 5.0
        orc = grid_search_oracle(sc, gamma, resolution=257)
        c = (
            orc.amp_a * np.exp(1j * orc.phase_diff) * sc.channel
            + orc.amp_b * sc.target_steering
        )
        assert float(np.vdot(c, c).real) == pytest.approx(sc.power_budget, rel=1e-9)
        delivered = abs(np.vdot(sc.target_steering, c)) ** 2
        assert delivered >= gamma * (1 - 1e-9)
        assert abs(np.vdot(sc.channel, c)) ** 2 == pytest.approx(
            orc.objective, rel=1e-9
        )

    def test_infeasible_gamma_raises(self, reference_scenario):
        with pytest.raises(InfeasibleRadarRequirement):
            grid_search_oracle(reference_scenario, 10.5, resolution=129)

    def test_gamma_at_max_is_feasible(self, reference_scenario):
        sc = reference_scenario
        orc = grid_search_oracle(sc, sc.max_target_power, resolution=129)
        exact = optimal_received_power(sc, sc.max_target_power)
        assert orc.objective <= exact + 1e-9
        assert orc.objective == pytest.approx(exact, rel=1e-6)
        # the amp = 0 row is feasible at every gamma the oracle accepts, the
        # most it takes included, so even the coarsest scan finds a point: a
        # finite objective no better than the optimum
        cases = [(sc, sc.max_target_power * (1.0 + 1e-12))]
        for sc, gamma, _ in _harsh_corpus():
            cases += [(sc, gamma), (sc, sc.max_target_power * (1.0 + 1e-12))]
        for sc, gamma in cases:
            orc = grid_search_oracle(sc, gamma, resolution=64)
            exact = optimal_received_power(sc, gamma)
            assert math.isfinite(orc.objective), (sc, gamma)
            assert orc.objective <= exact + 1e-9 * sc.power_budget * sc.channel_norm_sq

    def test_resolution_validation(self, reference_scenario):
        with pytest.raises(ValueError, match="^resolution must be at least 64, got 32$"):
            grid_search_oracle(reference_scenario, 1.0, resolution=32)
        with pytest.raises(ValueError, match="^gamma must be nonnegative, got -1.0$"):
            grid_search_oracle(reference_scenario, -1.0)
        # more points than numpy can index, named before any array is made
        with pytest.raises(ValueError, match=f"^resolution must be at most {2**63 - 1}$"):
            grid_search_oracle(reference_scenario, 1.0, resolution=2**63)

    def test_scalar_resolution_broadcast(self, reference_scenario, monkeypatch):
        assert _scanned_grid(monkeypatch, reference_scenario, 65) == (65, 65)

    @pytest.mark.parametrize(
        "resolution, want",
        [
            (129, (129, 129)),
            (np.int64(129), (129, 129)),
            (np.uint16(65), (65, 65)),
            (np.int32(65), (65, 65)),
            (np.uint64(129), (129, 129)),
        ],
    )
    def test_integer_resolutions_accepted(self, reference_scenario, monkeypatch, resolution, want):
        got = _scanned_grid(monkeypatch, reference_scenario, resolution)
        assert got == want
        assert repr(grid_search_oracle(reference_scenario, 1.0, resolution=resolution)) == repr(
            grid_search_oracle(reference_scenario, 1.0, resolution=want[0])
        )

    @pytest.mark.parametrize(
        "resolution",
        [129.0, np.float64(129.0), True, "129", None, (129.5, 130), (129, 130.0),
         (True, 129), (129,), (129, 129, 129), (np.int32(65), 129), [65, np.int64(129)]],
    )
    def test_non_integer_resolutions_rejected(self, reference_scenario, resolution):
        # a float used to raise TypeError, and (129.5, 130) ran a 129 x 130
        # grid; a pair of integers is not an integer either
        with pytest.raises(ValueError, match="^resolution must be an integer"):
            grid_search_oracle(reference_scenario, 1.0, resolution=resolution)


    def test_refine_iters_removed(self, reference_scenario):
        # it was never validated: True ran one window, -3 none yet reported
        # refined=True, and 2.5 raised TypeError from range
        with pytest.raises(TypeError, match="refine_iters"):
            grid_search_oracle(reference_scenario, 1.0, resolution=129, refine_iters=3)

    @pytest.mark.parametrize("refine", ["no", 1, None])
    def test_non_bool_refine_rejected(self, reference_scenario, monkeypatch, refine):
        # the oracle always refines: refine= is gone, whatever its value
        monkeypatch.setattr(oracle.kernels, "grid_scan", None)
        with pytest.raises(TypeError, match="refine"):
            grid_search_oracle(reference_scenario, 1.0, resolution=129, refine=refine)

    @pytest.mark.parametrize("refine", [True, False])
    def test_numpy_bool_refine(self, reference_scenario, monkeypatch, refine):
        # the values it once accepted, Python and numpy bools, are gone too
        monkeypatch.setattr(oracle.kernels, "grid_scan", None)
        for value in (refine, np.bool_(refine)):
            with pytest.raises(TypeError, match="refine"):
                grid_search_oracle(reference_scenario, 1.0, resolution=129, refine=value)


def _scanned_grid(monkeypatch, scenario, resolution):
    """(amp points, phase points) of the grid the oracle scans at ``resolution``."""
    shapes = []

    def spy(amps, phases, *rest):
        shapes.append((len(amps), len(phases)))
        return scan(amps, phases, *rest)

    scan = oracle.kernels.grid_scan
    with monkeypatch.context() as patch:
        patch.setattr(oracle.kernels, "grid_scan", spy)
        grid_search_oracle(scenario, 1.0, resolution=resolution)
    (shape,) = shapes
    return shape


def _received(scenario, c):
    return abs(complex(np.vdot(scenario.channel, c))) ** 2


class TestKktCheck:
    def test_certificate_passes_on_solutions(self, make_random_scenario):
        # the dual bound is the optimum: the closed-form beam reaches it and
        # the analytical optimum equals it
        rng = np.random.default_rng(33)
        for _ in range(40):
            sc = make_random_scenario(rng)
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            sol = solve_closed_form(sc, gamma)
            cert = kkt_check(sol, sc, gamma)
            unit = sc.power_budget * sc.channel_norm_sq
            assert abs(cert.bound - _received(sc, sol.vector_c)) <= 1e-12 * unit
            assert abs(cert.bound - optimal_received_power(sc, gamma)) <= 1e-12 * unit

    def test_reference_multipliers(self, reference_scenario):
        # exact duals at gamma=5: mu = ||h||^2 + |b||g|/|a|,
        # lambda = mu |b| / (|a||g| + |b| M); the dual minimizer is the KKT
        # multiplier, and min D is the optimum 6.4 (capacity log2(7.4))
        sc = reference_scenario
        sol = solve_closed_form(sc, 5.0)
        cert = kkt_check(sol, sc, 5.0)
        a, b, g = abs(sol.coeff_a), abs(sol.coeff_b), abs(sc.cross_gain)
        mu = sc.channel_norm_sq + b * g / a
        lam = mu * b / (a * g + b * sc.steering_norm_sq)
        assert cert.dual_lambda == pytest.approx(lam, rel=1e-9)
        assert cert.bound == pytest.approx(6.4, rel=1e-12)

    def test_inactive_case_has_zero_lambda(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 0.1)
        cert = kkt_check(sol, reference_scenario, 0.1)
        assert cert.dual_lambda == 0.0
        assert cert.bound == pytest.approx(
            reference_scenario.power_budget * reference_scenario.channel_norm_sq, rel=1e-12
        )

    def test_orthogonal_active_duals(self, orthogonal_scenario):
        sc = orthogonal_scenario
        sol = solve_closed_form(sc, 5.0)
        cert = kkt_check(sol, sc, 5.0)
        # decoupled beams: lambda = ||h||^2 / M, D = ||h||^2 (P - gamma / M)
        assert cert.dual_lambda == pytest.approx(
            sc.channel_norm_sq / sc.steering_norm_sq, rel=1e-9
        )
        assert cert.bound == pytest.approx(5.0, rel=1e-12)

    def test_top_of_range_has_no_multiplier(self, reference_scenario):
        # at gamma = P*M the feasible set is the scaled steering ray: D is
        # only approached as lambda grows without bound, and its infimum is
        # the ray's received power P |h^H a_t|^2 / M
        sc = reference_scenario
        gamma = sc.max_target_power
        sol = solve_closed_form(sc, gamma)
        cert = kkt_check(sol, sc, gamma)
        assert cert.dual_lambda is None
        ray = sc.power_budget * abs(sc.cross_gain) ** 2 / sc.steering_norm_sq
        assert cert.bound == pytest.approx(ray, rel=1e-12)
        assert cert.bound == pytest.approx(_received(sc, sol.vector_c), rel=1e-12)

    def test_detects_corrupted_beam(self, reference_scenario):
        import dataclasses

        sc = reference_scenario
        sol = solve_closed_form(sc, 5.0)
        bad_c = sol.vector_c + 0.05 * np.exp(1j * 0.7) * np.ones(10)
        bad = dataclasses.replace(sol, vector_c=bad_c)
        cert = kkt_check(bad, sc, 5.0)
        # D bounds every feasible beam, so a beam above it is infeasible: this
        # one overshoots the power budget
        assert _received(sc, bad_c) > cert.bound + 1.0
        assert float(np.vdot(bad_c, bad_c).real) > 1.2 * sc.power_budget

    def test_suboptimal_feasible_beam_falls_short_of_the_bound(self, reference_scenario):
        import dataclasses

        sc = reference_scenario
        # feasible and power-exact, but aimed entirely at the target
        c = sc.target_steering * math.sqrt(
            sc.power_budget / sc.steering_norm_sq
        )
        sol = solve_closed_form(sc, 5.0)
        cand = dataclasses.replace(sol, vector_c=c)
        cert = kkt_check(cand, sc, 5.0)
        assert cert.bound - _received(sc, c) == pytest.approx(6.4 - 0.2, rel=1e-12)

    def test_candidate_shape_must_match(self, reference_scenario):
        import dataclasses

        sol = solve_closed_form(reference_scenario, 5.0)
        short = dataclasses.replace(sol, vector_c=sol.vector_c[:9])
        with pytest.raises(ValueError, match=r"candidate beam must have shape \(10,\), got \(9,\)"):
            kkt_check(short, reference_scenario, 5.0)

    def test_threshold_out_of_range_rejected(self, reference_scenario):
        # it used to return a bound for any float: P ||h||^2 at gamma = -1,
        # and rho P ||h||^2 above the top, where no beam is feasible
        sol = solve_closed_form(reference_scenario, 5.0)
        with pytest.raises(ValueError, match="^gamma must be nonnegative, got -1.0$"):
            kkt_check(sol, reference_scenario, -1.0)
        with pytest.raises(InfeasibleRadarRequirement):
            kkt_check(sol, reference_scenario, 11.0)


class TestRandomFalsifier:
    def test_never_beats_closed_form(self, make_random_scenario):
        rng = np.random.default_rng(55)
        for trial in range(10):
            sc = make_random_scenario(rng, m_lo=2, m_hi=12)
            gamma = float(rng.uniform(0.0, sc.max_target_power * 0.8))
            result = random_falsifier(sc, gamma, trials=20000, seed=trial)
            exact = optimal_received_power(sc, gamma)
            assert result.best_objective <= exact + 1e-9

    def test_small_array_statistics(self):
        # at M=3 and an unconstrained threshold, 1e5 isotropic draws land
        # within a few percent of the optimum P*||h||^2 = 3
        sc = Scenario.with_los_user(
            ArrayGeometry(3, 0.5), math.radians(-30.0), 0.0, 1.0
        )
        result = random_falsifier(sc, 0.0, trials=100_000, seed=0)
        assert result.num_feasible == 100_000
        top = sc.power_budget * sc.channel_norm_sq
        assert result.best_objective >= 0.95 * top
        assert result.best_objective <= top * (1 + 1e-9)
        # frozen regression value for the fixed seed
        assert result.best_objective == pytest.approx(2.993417495009647, rel=1e-12)
        assert result.best_trial == 49424

    @pytest.mark.parametrize("gamma_frac", [0.0, 0.3])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_gets_within_ten_percent_of_optimum(self, m, gamma_frac):
        # so a closed form that under-reports the optimum by 10% fails verify
        rng = np.random.default_rng(300 + m)
        for k in range(10):
            target, user = rng.uniform(-math.pi / 2, math.pi / 2, 2)
            power = float(rng.uniform(0.1, 10.0))
            sc = Scenario.with_los_user(ArrayGeometry(m, 0.5), target, user, power)
            gamma = gamma_frac * power * m
            result = random_falsifier(sc, gamma, trials=100_000, seed=k)
            assert result.best_objective >= 0.9 * optimal_received_power(sc, gamma)

    def test_reproducible_and_seed_sensitive(self, reference_scenario):
        a = random_falsifier(reference_scenario, 2.0, trials=5000, seed=9)
        b = random_falsifier(reference_scenario, 2.0, trials=5000, seed=9)
        c = random_falsifier(reference_scenario, 2.0, trials=5000, seed=10)
        assert a == b
        assert a.best_objective != c.best_objective

    def test_no_feasible_draws_reports_minus_inf(self, reference_scenario):
        sc = reference_scenario
        result = random_falsifier(
            sc, sc.max_target_power * 0.999, trials=3000, seed=0
        )
        assert result.num_feasible == 0
        assert result.best_objective == -math.inf
        assert result.num_trials == 3000

    def test_validates_inputs(self, reference_scenario):
        with pytest.raises(ValueError, match="^gamma must be nonnegative, got -1.0$"):
            random_falsifier(reference_scenario, -1.0, trials=10)
        with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
            random_falsifier(reference_scenario, 1.0, trials=0)

    @pytest.mark.parametrize(
        "key, value",
        [("trials", 2.7), ("trials", 2.0), ("trials", True), ("trials", np.True_),
         ("trials", "5"), ("trials", np.float64(3.0)), ("seed", 1.5), ("seed", False),
         ("seed", None)],
    )
    def test_rejects_non_integers(self, reference_scenario, key, value):
        # int() used to truncate: trials=2.7 ran 2 draws, seed=1.5 ran seed 1
        kwargs = {"trials": 10, "seed": 0, key: value}
        message = f"^{key} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            random_falsifier(reference_scenario, 1.0, **kwargs)

    def test_numpy_integers_accepted(self, reference_scenario):
        want = random_falsifier(reference_scenario, 2.0, trials=3000, seed=7)
        got = random_falsifier(reference_scenario, 2.0, trials=np.int64(3000), seed=np.uint8(7))
        assert got == want
        assert type(got.num_trials) is int


def _refine_all_iterations(amp0, phase0, step_amp, step_phase, amp_max, params, iters):
    # the refine loop without its fixed-point exit: always ``iters`` rounds
    window = oracle._WINDOW
    best_amp, best_phase = amp0, phase0
    obj, t = oracle._eval_window(np.array([amp0]), np.array([phase0]), params)
    best_obj, best_t = float(obj[0]), float(t[0])
    for _ in range(iters):
        amps = np.clip(
            np.linspace(best_amp - step_amp, best_amp + step_amp, window), 0.0, amp_max
        )
        phases = np.linspace(best_phase - step_phase, best_phase + step_phase, window)
        obj, t = oracle._eval_window(amps[:, None], phases[None, :], params)
        k = int(np.argmax(obj))
        i, j = divmod(k, window)
        if float(obj[i, j]) > best_obj:
            best_obj = float(obj[i, j])
            best_t = float(t[i, j])
            best_amp = float(amps[i])
            best_phase = float(phases[j])
        if 0 < i < window - 1:
            step_amp *= oracle._ZOOM
        if 0 < j < window - 1:
            step_phase *= oracle._ZOOM
    return best_obj, best_amp, best_phase, best_t


def _refine_corpus():
    rng = np.random.default_rng(2024)
    for index in range(40):
        m = int(rng.integers(2, 17))
        geometry = ArrayGeometry(m, 0.5)
        target = float(rng.uniform(-math.pi / 3, math.pi / 3))
        power = float(10.0 ** rng.uniform(-1.0, 1.0))
        if index % 2:
            channel = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
            sc = Scenario(geometry, target, channel, power)
        else:
            user = float(rng.uniform(-math.pi / 2, math.pi / 2))
            sc = Scenario.with_los_user(geometry, target, user, power)
        for fraction in (0.0, 0.3, 0.7, 1.0):
            yield sc, fraction * sc.max_target_power


def _counted_oracle(monkeypatch, sc, gamma):
    # the oracle's solution at 129 points a side and the number of refine
    # windows it ran (its first evaluation is the scan's best point)
    evaluate = oracle._eval_window
    calls = []

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_eval_window", counted)
        solution = grid_search_oracle(sc, gamma, resolution=129)
    return solution, len(calls) - 1


def _frozen(loop, iters):
    # ``loop`` in place of oracle._refine, run for ``iters`` windows
    def refine(amp0, phase0, step_amp, step_phase, amp_max, params, _):
        return loop(amp0, phase0, step_amp, step_phase, amp_max, params, iters)

    return refine


class TestRefineFixedPoint:
    def test_same_solution_as_all_iterations(self, monkeypatch):
        # every window the loop runs is a window of the uncapped loop, so
        # that loop stopped after as many windows gives the same solution;
        # the windows it would run after the stop gain at most 2^-40
        total = 0
        for sc, gamma in _refine_corpus():
            now, windows = _counted_oracle(monkeypatch, sc, gamma)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_refine", _frozen(_refine_all_iterations, windows))
                before = grid_search_oracle(sc, gamma, resolution=129)
                patch.setattr(oracle, "_refine", _refine_all_iterations)
                full = grid_search_oracle(sc, gamma, resolution=129)
            assert now == before
            assert full.objective - now.objective <= 2.0**-40 * now.objective, (sc, gamma)
            total += windows
        assert total < 160 * oracle.DEFAULT_REFINE_ITERS


def _refine_before(amp0, phase0, step_amp, step_phase, amp_max, params, iters):
    # the refine loop with np.linspace and np.clip, frozen: the lean loop
    # must give the same bits
    window = oracle._WINDOW
    best_amp, best_phase = amp0, phase0
    obj, t = oracle._eval_window(np.array([amp0]), np.array([phase0]), params)
    best_obj, best_t = float(obj[0]), float(t[0])
    previous = (best_amp, best_phase, best_obj, step_amp, step_phase)
    for _ in range(iters):
        amps = np.clip(
            np.linspace(best_amp - step_amp, best_amp + step_amp, window), 0.0, amp_max
        )
        phases = np.linspace(best_phase - step_phase, best_phase + step_phase, window)
        obj, t = oracle._eval_window(amps[:, None], phases[None, :], params)
        k = int(np.argmax(obj))
        i, j = divmod(k, window)
        if float(obj[i, j]) > best_obj:
            best_obj = float(obj[i, j])
            best_t = float(t[i, j])
            best_amp = float(amps[i])
            best_phase = float(phases[j])
        if 0 < i < window - 1:
            step_amp *= oracle._ZOOM
        if 0 < j < window - 1:
            step_phase *= oracle._ZOOM
        state = (best_amp, best_phase, best_obj, step_amp, step_phase)
        if state == previous:
            break
        previous = state
    return best_obj, best_amp, best_phase, best_t


def _harsh_corpus(count=600, seed=515):
    # LoS, Rayleigh, near-collinear and orthogonal channels; M up to 64;
    # power and channel scale over six decades; thresholds up to the top of
    # the feasible range; grids from 64 to 257 points a side. Every kind
    # meets every threshold fraction and every resolution.
    rng = np.random.default_rng(seed)
    kinds = ("los", "rayleigh", "collinear", "orthogonal")
    fractions = (0.0, 0.1, 0.5, 0.9, 0.999, 1.0)
    resolutions = (64, 129, 257)
    for index in range(count):
        kind = kinds[index % len(kinds)]
        m = int(rng.integers(2 if kind == "orthogonal" else 1, 65))
        geometry = ArrayGeometry(m, 0.5)
        target = float(rng.uniform(-math.pi / 2, math.pi / 2))
        power = float(10.0 ** rng.uniform(-3.0, 3.0))
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        at = steering_vector(geometry, target)
        if kind == "los":
            channel = steering_vector(geometry, float(rng.uniform(-math.pi / 2, math.pi / 2)))
        else:
            channel = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
            if kind == "collinear":
                channel = at * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) + 1e-3 * channel
            elif kind == "orthogonal":
                channel = channel - (np.vdot(at, channel) / m) * at
        sc = Scenario(geometry, target, scale * channel, power)
        gamma = fractions[(index // len(kinds)) % len(fractions)] * sc.max_target_power
        resolution = resolutions[(index // (len(kinds) * len(fractions))) % len(resolutions)]
        yield sc, gamma, resolution


class TestScaleInvariance:
    # h -> 2^k h and (power, gamma) -> 4^k (power, gamma) multiply every
    # amp, weight and objective the oracle forms by a power of two and leave
    # the phases as they are, so its search, its relative stop included, is
    # the same search on the same bits
    @pytest.mark.parametrize("kind", ["los", "rayleigh"])
    def test_power_of_two_scaling(self, monkeypatch, kind):
        geometry = ArrayGeometry(8, 0.5)
        if kind == "los":
            sc = Scenario.with_los_user(geometry, 0.3, -0.7, 2.0)
        else:
            rng = np.random.default_rng(5)
            channel = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / math.sqrt(2.0)
            sc = Scenario(geometry, -0.4, channel, 0.5)
        # 1.0 is the corner gamma = P M, where only the amp = 0 row is feasible
        for fraction in (0.0, 0.3, 0.7, 1.0):
            gamma = fraction * sc.max_target_power
            base, windows = _counted_oracle(monkeypatch, sc, gamma)
            for k in (-40, -8, 0, 8, 40):
                s = math.ldexp(1.0, k)
                channel = Scenario(geometry, sc.target_angle, s * sc.channel, sc.power_budget)
                power = Scenario(geometry, sc.target_angle, sc.channel, s * s * sc.power_budget)
                for scaled, g, amp_factor, weight_factor in (
                    (channel, gamma, 1.0 / s, 1.0),
                    (power, s * s * gamma, s, s),
                ):
                    got, got_windows = _counted_oracle(monkeypatch, scaled, g)
                    assert got.objective == s * s * base.objective, (kind, fraction, k)
                    assert got.amp_a == amp_factor * base.amp_a, (kind, fraction, k)
                    assert got.amp_b == weight_factor * base.amp_b, (kind, fraction, k)
                    assert got.phase_diff == base.phase_diff, (kind, fraction, k)
                    assert got_windows == windows, (kind, fraction, k)


class TestBracketRefine:
    def test_harsh_corpus_matches_closed_form(self):
        worst = 0.0
        for sc, gamma, resolution in _harsh_corpus():
            orc = grid_search_oracle(sc, gamma, resolution=resolution)
            exact = optimal_received_power(sc, gamma)
            scale = max(exact, sc.power_budget * sc.channel_norm_sq * 1e-9)
            assert orc.objective <= exact + 1e-11 * scale, (sc, gamma, resolution)
            worst = max(worst, abs(orc.objective - exact) / scale)
        assert worst <= 1e-9

    def test_window_count(self, monkeypatch):
        # bracketing zooms each interior axis by 2 / (_WINDOW - 1), and the
        # search stops once a window's spread is rounding noise: about 10.3
        # evaluations a call (15.6 without that stop; halving instead of
        # bracketing would need about twice the windows and hit the cap)
        # (one evaluation of the scan's best point plus one per window)
        calls = [
            1 + _counted_oracle(monkeypatch, sc, gamma)[1] for sc, gamma in _refine_corpus()
        ]
        assert len(calls) == 160
        assert sum(calls) / len(calls) <= 12
        assert max(calls) < 1 + oracle.DEFAULT_REFINE_ITERS


class TestLeanRefine:
    def test_same_bits_as_linspace_and_clip(self, monkeypatch):
        for sc, gamma in _refine_corpus():
            now, windows = _counted_oracle(monkeypatch, sc, gamma)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_refine", _frozen(_refine_before, windows))
                before = grid_search_oracle(sc, gamma, resolution=129)
            assert repr(now) == repr(before)

    def test_window_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(77)
        tiny = np.nextafter(0.0, 1.0)
        cases = [
            (0.0, 0.0),
            (1.0, 1.0),
            (-3.5, -1.25),
            (-1e300, 1e300),  # the span overflows to inf
            (1e308, 1.7e308),
            (0.0, 8 * tiny),  # step is the smallest subnormal
            (0.0, 3 * tiny),  # step underflows to zero: numpy's other branch
            (-5 * tiny, 2 * tiny),
            (2.0, 2.0 + 4e-16),  # step below the spacing of the values
            (5.0, -5.0),
        ]
        for _ in range(300):
            centre = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 300))
            half = float(10.0 ** rng.uniform(-323, 300))
            cases.append((centre - half, centre + half))
        for lo, hi in cases:
            got = oracle._window(lo, hi)
            want = np.linspace(lo, hi, oracle._WINDOW)
            assert got.tobytes() == want.tobytes(), (lo, hi)

    def test_default_resolution_memory_bounded(self, reference_scenario):
        tracemalloc.start()
        try:
            grid_search_oracle(reference_scenario, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

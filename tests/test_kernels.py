import math
import tracemalloc

import numpy as np
import pytest

from dfrc import kernels


class TestEvalCandidates:
    def test_power_budget_is_exact(self, reference_scenario):
        sc = reference_scenario
        rng = np.random.default_rng(2)
        g = sc.cross_gain
        amp_max = math.sqrt(sc.power_budget / sc.channel_norm_sq)
        amps = rng.uniform(0.0, amp_max, 200)
        psi = rng.uniform(0.0, 2.0 * math.pi, 200)
        obj, t = kernels.eval_candidates(
            amps,
            np.cos(psi),
            np.sin(psi),
            sc.power_budget,
            0.0,
            sc.channel_norm_sq,
            sc.steering_norm_sq,
            abs(g),
            True,
        )
        # reconstruct the beam and check ||c||^2 == power on every candidate
        h, at = sc.channel, sc.target_steering
        garg = float(np.angle(g))
        for amp, ph, tt in zip(amps, psi + garg, t):
            c = amp * np.exp(1j * ph) * h + tt * at
            assert float(np.vdot(c, c).real) == pytest.approx(
                sc.power_budget, rel=1e-9
            )
        assert np.all(np.isfinite(obj))

    def test_objective_matches_reconstruction(self, reference_scenario):
        sc = reference_scenario
        g = sc.cross_gain
        garg = float(np.angle(g))
        amps = np.array([0.05, 0.1, 0.2])
        psi = np.array([0.3, 1.2, 4.0])
        obj, t = kernels.eval_candidates(
            amps,
            np.cos(psi),
            np.sin(psi),
            sc.power_budget,
            0.0,
            sc.channel_norm_sq,
            sc.steering_norm_sq,
            abs(g),
            True,
        )
        for amp, ps, tt, ob in zip(amps, psi, t, obj):
            c = amp * np.exp(1j * (ps + garg)) * sc.channel + tt * sc.target_steering
            assert abs(np.vdot(sc.channel, c)) ** 2 == pytest.approx(ob, rel=1e-12)

    def test_infeasible_maps_to_minus_inf(self, reference_scenario):
        sc = reference_scenario
        # demand nearly the whole array gain: only near-steering beams survive
        gamma = sc.max_target_power * 0.999
        obj, _ = kernels.eval_candidates(
            np.array([0.2, 0.0]),
            np.array([1.0, 1.0]),
            np.array([0.0, 0.0]),
            sc.power_budget,
            gamma,
            sc.channel_norm_sq,
            sc.steering_norm_sq,
            abs(sc.cross_gain),
            True,
        )
        assert obj[0] == -math.inf  # big channel component cannot meet it
        assert np.isfinite(obj[1])  # anchored pure-steering candidate


class TestFalsifierStream:
    def test_deterministic_in_seed(self, reference_scenario):
        sc = reference_scenario
        a = kernels.falsifier_scan(3, 5000, sc.channel, sc.target_steering, 1.0, 1.0)
        b = kernels.falsifier_scan(3, 5000, sc.channel, sc.target_steering, 1.0, 1.0)
        c = kernels.falsifier_scan(4, 5000, sc.channel, sc.target_steering, 1.0, 1.0)
        assert a == b
        assert a != c

    def test_trial_prefix_property(self, reference_scenario):
        # counter-based: the first N trials of a longer run are the same draws
        sc = reference_scenario
        short = kernels.falsifier_scan(
            8, 3000, sc.channel, sc.target_steering, 1.0, 0.0
        )
        long = kernels.falsifier_scan(
            8, 6000, sc.channel, sc.target_steering, 1.0, 0.0
        )
        assert long[0] >= short[0]
        assert long[2] >= short[2]

    # 1025 = 4 * 256 + 1 leaves a one-trial tail chunk
    @pytest.mark.parametrize("trials, chunk", [(7777, 64), (1025, 256)])
    def test_falsifier_chunk_independent(self, reference_scenario, trials, chunk):
        sc = reference_scenario
        whole = kernels.falsifier_scan(
            5, trials, sc.channel, sc.target_steering, 1.0, 2.0
        )
        chunked = kernels.falsifier_scan(
            5, trials, sc.channel, sc.target_steering, 1.0, 2.0, chunk=chunk
        )
        assert whole == chunked

    def test_default_chunk_beyond_16_antennas(self, make_random_scenario):
        rng = np.random.default_rng(21)
        for m in (17, 100, 700):
            sc = make_random_scenario(rng, m_lo=m, m_hi=m)
            gamma = float(rng.uniform(0.0, 2.0 * sc.power_budget))
            default = kernels.falsifier_scan(
                4, 1500, sc.channel, sc.target_steering, sc.power_budget, gamma
            )
            small = kernels.falsifier_scan(
                4, 1500, sc.channel, sc.target_steering, sc.power_budget, gamma, chunk=97
            )
            assert default == small
            assert default[2] > 0

    def test_memory_bounded_at_256_antennas(self, make_random_scenario):
        sc = make_random_scenario(np.random.default_rng(3), m_lo=256, m_hi=256)
        tracemalloc.start()
        try:
            kernels.falsifier_scan(
                1, 4096, sc.channel, sc.target_steering, sc.power_budget, 0.0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_gamma_zero_all_feasible(self, reference_scenario):
        sc = reference_scenario
        best, best_trial, feasible = kernels.falsifier_scan(
            0, 4000, sc.channel, sc.target_steering, 1.0, 0.0
        )
        assert feasible == 4000
        assert 0 <= best_trial < 4000
        assert 0.0 < best <= sc.power_budget * sc.channel_norm_sq * (1 + 1e-9)

    def test_impossible_gamma_nothing_feasible(self, reference_scenario):
        sc = reference_scenario
        # isotropic draws essentially never hit the full array gain
        best, best_trial, feasible = kernels.falsifier_scan(
            0, 2000, sc.channel, sc.target_steering, 1.0, sc.max_target_power * 0.9999
        )
        assert feasible == 0
        assert best == -math.inf
        assert best_trial == -1

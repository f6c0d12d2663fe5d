import math

import numpy as np
import pytest

from dfrc import (
    ArrayGeometry,
    Scenario,
    beam_pattern,
    capacity_from_covariance,
    channel_power,
    radar_snr,
    solve_closed_form,
    steering_vector,
)
from dfrc import metrics
from dfrc.metrics import (
    _project,
    _steering_matrix,
    _steering_projections,
    default_angle_grid,
)


def random_psd(rng, m, trace):
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = x @ x.conj().T
    return r * (trace / np.trace(r).real)


class TestChannelPower:
    def test_direct_quadratic_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = int(rng.integers(2, 9))
            r = random_psd(rng, m, 2.0)
            h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            # naive double loop
            direct = 0j
            for i in range(m):
                for j in range(m):
                    direct += np.conj(h[i]) * r[i, j] * h[j]
            assert channel_power(r, h) == pytest.approx(direct.real, rel=1e-12)
            assert abs(direct.imag) < 1e-9

    def test_capacity_log(self):
        r = np.eye(3, dtype=complex) * 2.0
        h = np.array([1.0, 1.0j, -1.0])
        assert capacity_from_covariance(r, h) == pytest.approx(
            math.log2(1.0 + 6.0), rel=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            channel_power(np.eye(3, dtype=complex), np.ones(4, dtype=complex))


class TestRadarSnr:
    def test_reference_value(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 5.0)
        # amp^2 * M * gamma with the constraint met exactly
        assert radar_snr(sol.covariance, reference_scenario) == pytest.approx(
            50.0, rel=1e-9
        )

    def test_default_weights_equal_explicit_matched(self, reference_scenario):
        sc = reference_scenario
        sol = solve_closed_form(sc, 3.0)
        w = sc.target_steering / np.linalg.norm(sc.target_steering)
        assert np.vdot(w, w).real == pytest.approx(1.0, rel=1e-14)
        assert radar_snr(sol.covariance, sc, w) == pytest.approx(
            radar_snr(sol.covariance, sc), rel=1e-12
        )

    def test_matched_weights_are_optimal(self, reference_scenario):
        sc = reference_scenario
        sol = solve_closed_form(sc, 5.0)
        best = radar_snr(sol.covariance, sc)
        rng = np.random.default_rng(42)
        for _ in range(100):
            w = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            w = w / np.linalg.norm(w)
            assert radar_snr(sol.covariance, sc, w) <= best * (1 + 1e-9)

    def test_amplitude_scaling(self):
        base = Scenario.with_los_user(ArrayGeometry(10, 0.5), -0.3, 0.1, 1.0, 1.0)
        doubled = Scenario.with_los_user(ArrayGeometry(10, 0.5), -0.3, 0.1, 1.0, 2.0)
        sol = solve_closed_form(base, 2.0)
        assert radar_snr(sol.covariance, doubled) == pytest.approx(
            4.0 * radar_snr(sol.covariance, base), rel=1e-12
        )

    def test_non_unit_weights_rejected(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 5.0)
        w = np.ones(10, dtype=complex)
        with pytest.raises(ValueError):
            radar_snr(sol.covariance, reference_scenario, w)


class TestBeamPattern:
    def test_default_grid(self):
        grid = default_angle_grid()
        assert grid.size == 721
        assert grid[0] == pytest.approx(-math.pi / 2)
        assert grid[-1] == pytest.approx(math.pi / 2)
        steps = np.diff(np.degrees(grid))
        assert np.allclose(steps, 0.25, atol=1e-12)

    def test_pattern_values_match_quadratic_form(self, reference_scenario):
        sc = reference_scenario
        sol = solve_closed_form(sc, 5.0)
        angles = np.deg2rad(np.array([-90.0, -30.0, 0.0, 17.0, 90.0]))
        pat = beam_pattern(sol.covariance, sc.geometry, angles)
        for angle, power in zip(pat.angles, pat.power):
            a = steering_vector(sc.geometry, float(angle))
            expect = float(np.vdot(a, sol.covariance @ a).real)
            assert power == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_nonnegative_everywhere(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 7.0)
        pat = beam_pattern(sol.covariance, reference_scenario.geometry)
        assert pat.power.min() >= 0.0

    def test_uniform_covariance_flat_pattern(self):
        geom = ArrayGeometry(6, 0.5)
        r = np.eye(6, dtype=complex) / 6.0
        pat = beam_pattern(r, geom)
        np.testing.assert_allclose(pat.power, 1.0, rtol=1e-12)

    def test_target_value_equals_threshold_when_active(self, reference_scenario):
        sc = reference_scenario
        gamma = 5.0
        sol = solve_closed_form(sc, gamma)
        pat = beam_pattern(sol.covariance, sc.geometry, np.array([sc.target_angle]))
        assert pat.power[0] == pytest.approx(gamma, rel=1e-9)

    def test_rejects_non_psd(self):
        geom = ArrayGeometry(3, 0.5)
        r = -np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            beam_pattern(r, geom)

    def test_rejects_bad_grid(self, reference_scenario):
        sol = solve_closed_form(reference_scenario, 5.0)
        geom = reference_scenario.geometry
        with pytest.raises(ValueError):
            beam_pattern(sol.covariance, geom, np.array([]))
        with pytest.raises(ValueError):
            beam_pattern(sol.covariance, geom, np.array([2.0]))


def _exp_steering(geometry, angles):
    # the steering matrix as a complex exponential, the reference construction
    phase = -2.0 * math.pi * geometry.spacing_over_wavelength
    return np.exp(1j * phase * np.outer(np.sin(angles), np.arange(geometry.num_antennas)))


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


class TestSteeringMatrix:
    @pytest.mark.parametrize("spacing", [0.25, 0.5, 0.7])
    @pytest.mark.parametrize("m", [1, 2, 8, 64, 512, 2048])
    def test_bitwise_equal_to_complex_exponential(self, m, spacing):
        geometry = ArrayGeometry(m, spacing)
        angles = np.concatenate(
            [default_angle_grid(), np.random.default_rng(m).uniform(-1.5, 1.5, 97)]
        )
        got = _steering_matrix(geometry, angles)
        assert got.dtype == np.complex128
        assert np.array_equal(_bits(got), _bits(_exp_steering(geometry, angles)))


def _random_vector(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


class TestBlockedProjections:
    BUDGET = metrics._PROJECTION_BLOCK_ENTRIES

    @pytest.mark.parametrize(
        "m, num_angles",
        [
            (8, 721),  # one block
            (64, 721),  # two blocks
            (512, 721),  # 22 blocks; 721 is not a multiple of 32
            (2048, 300),
            (512, 1),
            (3, 1),
            (BUDGET + 3, 5),  # more antennas than the budget: 2 + 3 rows
            (BUDGET + 3, 1),
        ],
    )
    def test_bitwise_equal_to_one_unblocked_projection(self, m, num_angles):
        geometry = ArrayGeometry(m, 0.5)
        rng = np.random.default_rng([m, num_angles])
        angles = rng.uniform(-math.pi / 2, math.pi / 2, num_angles)
        vectors = [_random_vector(rng, m), _random_vector(rng, m)]
        steering = _steering_matrix(geometry, angles)
        got = _steering_projections(geometry, angles, *vectors)
        assert len(got) == 2
        for result, x in zip(got, vectors):
            assert np.array_equal(_bits(result), _bits(_project(steering, x)))


def _quadratic_form_pattern(covariance, geometry):
    # a^H R a row by row over the default grid, clamped as beam_pattern does
    a = _exp_steering(geometry, default_angle_grid())
    return np.maximum(np.einsum("nm,nm->n", a.conj() @ covariance, a).real, 0.0)


class TestBeamPatternRounding:
    @pytest.mark.parametrize("kind", ["los", "rayleigh", "full_rank"])
    @pytest.mark.parametrize("m", [1, 8, 64, 512])
    def test_within_rounding_of_quadratic_form(self, m, kind):
        rng = np.random.default_rng([m, len(kind)])
        geometry = ArrayGeometry(m, 0.5)
        target = float(rng.uniform(-1.0, 1.0))
        if kind == "los":
            sc = Scenario.with_los_user(geometry, target, float(rng.uniform(-1.5, 1.5)), 2.0)
        else:
            sc = Scenario(geometry, target, _random_vector(rng, m) / math.sqrt(2.0), 2.0)
        if kind == "full_rank":
            x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            covariance = x @ x.conj().T / m
        else:
            covariance = solve_closed_form(sc, 0.5 * sc.max_target_power).covariance
        expect = _quadratic_form_pattern(covariance, geometry)
        got = beam_pattern(covariance, geometry).power
        assert np.max(np.abs(got - expect)) <= 1e-12 * expect.max()

    def test_non_hermitian_input_uses_hermitian_part(self):
        # Re(a^H R a) only sees (R + R^H) / 2, as the quadratic form does
        geometry = ArrayGeometry(6, 0.5)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        hermitian = x @ x.conj().T
        skew = 0.3 * (x - x.conj().T)
        got = beam_pattern(hermitian + skew, geometry).power
        expect = _quadratic_form_pattern(hermitian + skew, geometry)
        assert np.max(np.abs(got - expect)) <= 1e-12 * expect.max()

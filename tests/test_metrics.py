import math
import tracemalloc

import numpy as np
import pytest

from dfrc import (
    ArrayGeometry,
    Scenario,
    assemble_covariance,
    beam_pattern,
    solve_closed_form,
    steering_vector,
)
from dfrc import metrics
from dfrc.sweep import beampattern_sweep
from dfrc.metrics import _steering_projections, default_angle_grid


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
        r = assemble_covariance(solve_closed_form(sc, 5.0).vector_c)
        angles = np.deg2rad(np.array([-90.0, -30.0, 0.0, 17.0, 90.0]))
        pat = beam_pattern(r, sc.geometry, angles)
        for angle, power in zip(pat.angles, pat.power):
            a = steering_vector(sc.geometry, float(angle))
            expect = float(np.vdot(a, r @ a).real)
            assert power == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_nonnegative_everywhere(self, reference_scenario):
        r = assemble_covariance(solve_closed_form(reference_scenario, 7.0).vector_c)
        pat = beam_pattern(r, reference_scenario.geometry)
        assert pat.power.min() >= 0.0

    def test_uniform_covariance_flat_pattern(self):
        geom = ArrayGeometry(6, 0.5)
        r = np.eye(6, dtype=complex) / 6.0
        pat = beam_pattern(r, geom)
        np.testing.assert_allclose(pat.power, 1.0, rtol=1e-12)

    def test_target_value_equals_threshold_when_active(self, reference_scenario):
        sc = reference_scenario
        gamma = 5.0
        r = assemble_covariance(solve_closed_form(sc, gamma).vector_c)
        pat = beam_pattern(r, sc.geometry, np.array([sc.target_angle]))
        assert pat.power[0] == pytest.approx(gamma, rel=1e-9)

    def test_rejects_non_psd(self):
        geom = ArrayGeometry(3, 0.5)
        r = -np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            beam_pattern(r, geom)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (16,)])
    def test_rejects_covariance_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"covariance must have shape \(4, 4\)"):
            beam_pattern(np.zeros(shape, dtype=complex), ArrayGeometry(4, 0.5))

    def test_rejects_bad_grid(self, reference_scenario):
        r = assemble_covariance(solve_closed_form(reference_scenario, 5.0).vector_c)
        geom = reference_scenario.geometry
        with pytest.raises(ValueError):
            beam_pattern(r, geom, np.array([]))
        with pytest.raises(ValueError):
            beam_pattern(r, geom, np.array([2.0]))


def _exp_steering(geometry, angles):
    # the steering matrix as a complex exponential, the reference construction
    phase = -2.0 * math.pi * geometry.spacing_over_wavelength
    return np.exp(1j * phase * np.outer(np.sin(angles), np.arange(geometry.num_antennas)))


def _rows(geometry, magnitudes):
    """The construction's steering rows at ``magnitudes``: (2, M, n), re and im."""
    factors = metrics._phase_factors(geometry, np.asarray(magnitudes, dtype=np.float64))
    return metrics._steering_rows(factors, geometry.num_antennas)


class TestSteeringMatrix:
    @pytest.mark.parametrize("spacing", [0.25, 0.5, 0.7])
    @pytest.mark.parametrize("m", [1, 2, 8, 64, 512, 2048])
    def test_within_rounding_of_complex_exponential(self, m, spacing):
        # entry m of exp(1j * phase * m * sin(phi)) carries the roundings of
        # fl(2 pi) d, of its product with sin(phi) and of the product with m,
        # half an ulp each of a phase up to 2 pi d m; the power-of-two
        # factors add a few eps per factor
        geometry = ArrayGeometry(m, spacing)
        angles = np.concatenate(
            [default_angle_grid(), np.random.default_rng(m).uniform(-1.5, 1.5, 97)]
        )
        rows = _rows(geometry, np.abs(angles))
        got = rows[0] + 1j * np.where(np.signbit(angles), -rows[1], rows[1])
        want = _exp_steering(geometry, angles).T
        factors = (m - 1).bit_length()
        bound = 2.0**-52 * (3.0 * math.pi * spacing * np.arange(m) + 4 * factors + 4)
        assert np.all(np.abs(got - want) <= bound[:, None])
        assert np.array_equal(got[0], np.ones(angles.size))


def _random_vector(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _unblocked(geometry, angles, *vectors):
    """a(phi)^H x as one evaluation: a row for every angle's |phi|, one block.

    Every angle is built twice, so that the block has at least two columns,
    as every block of the projections has.
    """
    rows = _rows(geometry, np.abs(np.concatenate([angles, angles])))
    mirrored = np.signbit(angles)
    real, imag = [], []
    for x in vectors:
        (a, d), (c, b) = (
            np.einsum("smn,m->sn", rows, np.ascontiguousarray(part))[:, : angles.size]
            for part in (x.real, x.imag)
        )
        real.append(np.where(mirrored, a - b, a + b))
        imag.append(np.where(mirrored, c + d, c - d))
    return np.array(real), np.array(imag)


def _assert_same_bits(got, want, label=None):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), label


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
            (BUDGET + 3, 5),  # more antennas than the budget: 2 + 3 columns
            (BUDGET + 3, 1),
        ],
    )
    def test_bitwise_equal_to_one_unblocked_projection(self, m, num_angles):
        geometry = ArrayGeometry(m, 0.5)
        rng = np.random.default_rng([m, num_angles])
        angles = rng.uniform(-math.pi / 2, math.pi / 2, num_angles)
        vectors = [_random_vector(rng, m), _random_vector(rng, m)]
        got = _steering_projections(geometry, angles, *vectors)
        assert [part.shape for part in got] == [(2, num_angles)] * 2
        _assert_same_bits(got, _unblocked(geometry, angles, *vectors))

    def test_memory_layout_keeps_the_bits(self):
        # strided and reversed vectors and angles, and a Fortran-ordered
        # parent array, give the bits of contiguous copies
        geometry = ArrayGeometry(257, 0.5)
        rng = np.random.default_rng(1206)
        base = np.asfortranarray(rng.standard_normal((514, 4)) + 1j * rng.standard_normal((514, 4)))
        angles = rng.uniform(-math.pi / 2, math.pi / 2, 200)
        x, y = base[::2, 1], base[::-2, 3]
        got = _steering_projections(geometry, angles[::-1][::2], x, y)
        want = _steering_projections(geometry, angles[::-1][::2].copy(), x.copy(), y.copy())
        _assert_same_bits(got, want)
        _assert_same_bits(got, _unblocked(geometry, angles[::-1][::2], x, y))


def _mirror_grids():
    """(label, angles) for grids that pair, repeat or leave out mirror angles."""
    rng = np.random.default_rng(1201)
    half_pi = math.pi / 2
    unsorted = rng.uniform(-half_pi, half_pi, 31)
    unsorted = np.concatenate([unsorted, -unsorted[:9]])
    return [
        ("signed zeros", np.array([0.0, -0.0, 0.0])),
        ("plus-minus pi/2", np.array([-half_pi, half_pi])),
        ("duplicates", np.array([0.3, -0.3, 0.3, -0.3, -0.3, 0.0, 1.1])),
        ("unsorted", rng.permutation(unsorted)),
        # -90 + 1.75 k: both signs, no angle's mirror on the grid
        ("unpaired", default_angle_grid()[::7]),
        ("all negative", -rng.uniform(0.0, half_pi, 17)),
        ("single angle", np.array([-0.7])),
        ("negative zero alone", np.array([-0.0])),
    ]


class TestMirroredProjections:
    @pytest.mark.parametrize("spacing", [0.25, 0.5, 0.7])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 512, metrics._PROJECTION_BLOCK_ENTRIES + 3])
    def test_bitwise_equal_to_the_full_steering_matrix(self, m, spacing):
        geometry = ArrayGeometry(m, spacing)
        rng = np.random.default_rng([m, int(spacing * 100)])
        # real vectors give imaginary parts that sum to a signed zero
        vectors = [_random_vector(rng, m), rng.standard_normal(m) + 0j, np.ones(m, complex)]
        for label, angles in _mirror_grids():
            got = _steering_projections(geometry, angles, *vectors)
            _assert_same_bits(got, _unblocked(geometry, angles, *vectors), label)
            # a(-phi) = conj(a(|phi|)): projecting the conjugated rows as
            # complex numbers gives the same values up to the sums' rounding
            rows = _rows(geometry, np.abs(angles))
            rows[1, :, np.signbit(angles)] *= -1.0
            conj_rows = rows[0] - 1j * rows[1]
            for v, x in enumerate(vectors):
                want = np.einsum("mn,m->n", conj_rows, x)
                error = np.abs(got[0][v] + 1j * got[1][v] - want)
                assert np.all(error <= 1e-13 * np.abs(x).sum()), label

    def test_default_grid_builds_each_magnitude_once(self, reference_scenario, monkeypatch):
        # the default grid is symmetric: one beam-pattern sweep builds 361
        # steering rows, one per |phi|, not 721; the grid is one block at
        # M = 10, so a second sweep on the same array builds none
        built = []
        rows = metrics._steering_rows

        def counting(factors, m):
            built.append(factors.shape[-1])
            return rows(factors, m)

        monkeypatch.setattr(metrics, "_steering_rows", counting)
        metrics._grid.cache_clear()
        beampattern_sweep(reference_scenario)
        assert sum(built) == 361
        beampattern_sweep(reference_scenario)
        assert sum(built) == 361


class TestOneSidedProjections:
    @pytest.mark.parametrize(
        "label, angles, calls",
        [
            # 721 magnitudes in 22 blocks of 32 or 33 columns at M = 512
            ("one-sided", np.linspace(0.0, math.pi / 2, 721), 22),
            ("one-sided negative", np.linspace(-math.pi / 2, 0.0, 721), 22),
            ("one-sided negative without zero", np.linspace(-math.pi / 2, -0.01, 721), 22),
            # 361 magnitudes in 11 blocks: each mirrored pair shares its row
            ("default", default_angle_grid(), 11),
        ],
    )
    def test_each_block_builds_its_rows_once(self, monkeypatch, label, angles, calls):
        geometry = ArrayGeometry(512, 0.5)
        rng = np.random.default_rng(1202)
        vectors = [_random_vector(rng, 512), rng.standard_normal(512) + 0j]
        built = []
        rows = metrics._steering_rows

        def counting(factors, m):
            built.append(factors.shape[-1])
            return rows(factors, m)

        monkeypatch.setattr(metrics, "_steering_rows", counting)
        got = metrics._steering_projections(geometry, angles, *vectors)
        assert len(built) == calls, label
        assert sum(built) == np.unique(np.abs(angles)).size, label
        assert min(built) >= 2, label
        _assert_same_bits(got, _unblocked(geometry, angles, *vectors), label)

    def test_mirror_grids_keep_their_bits(self):
        # signed zeros, duplicates, unpaired and single angles: each angle
        # has the bits it has when projected alone
        rng = np.random.default_rng(1203)
        for m in (1, 3, 512, metrics._PROJECTION_BLOCK_ENTRIES + 3):
            geometry = ArrayGeometry(m, 0.5)
            vectors = [_random_vector(rng, m), np.ones(m, complex)]
            for label, angles in _mirror_grids():
                real, imag = _steering_projections(geometry, angles, *vectors)
                for i, angle in enumerate(angles):
                    alone = _steering_projections(geometry, angles[i : i + 1], *vectors)
                    _assert_same_bits((real[:, i], imag[:, i]), (alone[0][:, 0], alone[1][:, 0]))


def _cache_grids():
    """(label, angles) for the grids the steering-block cache must keep bits on."""
    return [
        ("default", default_angle_grid()),
        ("one-sided", np.linspace(0.0, math.pi / 2, 361)),
        ("single angle", np.array([0.4])),
        ("plus-minus zero", np.array([0.0, -0.0, 0.0, -0.0])),
    ]


class TestSteeringBlockCache:
    def test_hits_and_misses_keep_their_bits(self):
        # each case runs between two others, so that with three entries
        # kept both hits and misses are checked against one unblocked
        # evaluation from freshly built rows
        rng = np.random.default_rng(1204)
        cases = [
            (m, spacing, label, angles)
            for m in (1, 8, 64, 512)
            for spacing in (0.5, 0.37)
            for label, angles in _cache_grids()
        ]
        metrics._grid.cache_clear()
        for a, b, c in zip(cases, cases[1:] + cases[:1], cases[2:] + cases[:2]):
            for m, spacing, label, angles in (a, b, c, a):
                geometry = ArrayGeometry(m, spacing)
                vectors = [_random_vector(rng, m), rng.standard_normal(m) + 0j]
                got = _steering_projections(geometry, angles, *vectors)
                _assert_same_bits(got, _unblocked(geometry, angles, *vectors), (m, spacing, label))
        info = metrics._grid.cache_info()
        assert info.hits > 0 and info.misses > 0

    def test_cached_rows_are_read_only_and_kept(self, reference_scenario):
        sc = reference_scenario
        angles = default_angle_grid()
        grid = metrics._grid(sc.geometry, angles.tobytes())
        before = grid.rows.copy()
        assert not grid.rows.flags.writeable
        with pytest.raises(ValueError):
            grid.rows[0, 0, 0] = 0.0
        _steering_projections(sc.geometry, angles, sc.channel, sc.target_steering)
        assert metrics._grid(sc.geometry, angles.tobytes()) is grid
        assert grid.rows.tobytes() == before.tobytes()
        assert grid.rows.tobytes() == _rows(sc.geometry, np.unique(np.abs(angles))).tobytes()

    def test_warm_call_runs_no_unique(self, reference_scenario, monkeypatch):
        # the grid's distinct magnitudes and its index are kept with its
        # rows, and the default grid is not copied on its way in
        sc = reference_scenario
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(metrics.np, "unique", counting)
        metrics._grid.cache_clear()
        beampattern_sweep(sc)
        assert len(calls) == 1
        grid = default_angle_grid()
        monkeypatch.setattr(metrics, "default_angle_grid", lambda: grid)
        patterns = beampattern_sweep(sc)
        assert len(calls) == 1
        assert all(pattern.angles is grid for _, pattern in patterns)
        assert not grid.flags.writeable

    def test_call_on_cached_rows_allocates_only_its_results(self):
        # a call on cached rows builds no rows and copies none
        geometry = ArrayGeometry(64, 0.5)
        angles = default_angle_grid()
        rng = np.random.default_rng(1205)
        vectors = [_random_vector(rng, 64), _random_vector(rng, 64)]
        _steering_projections(geometry, angles, *vectors)
        rows = metrics._grid(geometry, angles.tobytes()).rows
        tracemalloc.start()
        try:
            _steering_projections(geometry, angles, *vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 2

    def test_streamed_blocks_stay_small(self):
        # M = 512 on the default grid streams 11 blocks of 32 or 33 columns:
        # the peak is one block, its scratch and the results, never two blocks
        geometry = ArrayGeometry(512, 0.5)
        angles = default_angle_grid()
        vectors = [np.ones(512, complex), _random_vector(np.random.default_rng(1207), 512)]
        _steering_projections(geometry, angles, *vectors)
        tracemalloc.start()
        try:
            _steering_projections(geometry, angles, *vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.69 * 2**20

    def test_multi_block_grid_is_not_cached(self):
        metrics._grid.cache_clear()
        geometry = ArrayGeometry(512, 0.5)
        _steering_projections(geometry, default_angle_grid(), np.ones(512, complex))
        assert metrics._grid(geometry, default_angle_grid().tobytes()).rows is None
        assert metrics._grid.cache_info().currsize == 1

    def test_bounded(self):
        for m in range(1, 51):
            _steering_projections(ArrayGeometry(m, 0.5), default_angle_grid(), np.ones(m, complex))
        info = metrics._grid.cache_info()
        assert info.currsize <= info.maxsize


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
            covariance = assemble_covariance(
                solve_closed_form(sc, 0.5 * sc.max_target_power).vector_c
            )
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

import math
import tracemalloc

import numpy as np
import pytest

from dfrc import ArrayGeometry, Scenario, kernels, oracle, steering_vector


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
        )
        assert obj[0] == -math.inf  # big channel component cannot meet it
        assert np.isfinite(obj[1])  # anchored pure-steering candidate


class TestGridScan:
    @pytest.mark.parametrize("side", [1, 127, 129, 257, 400])
    def test_block_size_leaves_result_unchanged(
        self, reference_scenario, monkeypatch, side
    ):
        # the first maximum in row-major order wins whatever the block size
        sc = reference_scenario
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), side)
        phases = np.linspace(-math.pi, math.pi, side)
        args = (
            amps,
            phases,
            float(np.angle(sc.cross_gain)),
            sc.power_budget,
            5.0,
            sc.channel_norm_sq,
            sc.steering_norm_sq,
            abs(sc.cross_gain),
        )
        results = set()
        for points in (1, 1000, 128 * 257, 1 << 18):
            monkeypatch.setattr(kernels, "_GRID_BLOCK_POINTS", points)
            results.add(kernels.grid_scan(*args))
        assert len(results) == 1

    def test_amp0_feasible_is_accepted_only_as_true(self, reference_scenario):
        # the amp = 0 row is always feasible; the old switch may still be
        # passed, as True, and False is refused rather than ignored
        sc = reference_scenario
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 65)
        phases = np.linspace(0.0, 2.0 * math.pi, 65, endpoint=False)
        args = (amps, phases, float(np.angle(sc.cross_gain)), sc.power_budget, 10.0,
                sc.channel_norm_sq, sc.steering_norm_sq, abs(sc.cross_gain))
        best, bi, _ = kernels.grid_scan(*args)
        assert bi == 0 and math.isfinite(best)  # at the top, the anchored row wins
        assert kernels.grid_scan(*args, True) == kernels.grid_scan(*args)
        with pytest.raises(ValueError, match="amp0_feasible must be True"):
            kernels.grid_scan(*args, False)


def _eval_candidates_reference(
    amp, cos_psi, sin_psi, power, gamma, ch_norm_sq, st_norm_sq, cross_abs
):
    # the evaluator as plain expressions, frozen: the in-place one must
    # match it bit for bit
    amp = np.asarray(amp, dtype=np.float64)
    cos_psi = np.asarray(cos_psi, dtype=np.float64)
    sin_psi = np.asarray(sin_psi, dtype=np.float64)
    b_half = amp * cross_abs * cos_psi
    resid = power - amp * amp * ch_norm_sq
    disc = b_half * b_half + st_norm_sq * resid
    t = (np.sqrt(np.maximum(disc, 0.0)) - b_half) / st_norm_sq
    t = np.maximum(t, 0.0)
    radar = (amp * cross_abs * cos_psi + t * st_norm_sq) ** 2 + (
        amp * cross_abs * sin_psi
    ) ** 2
    feasible = (disc >= 0.0) & (radar >= gamma)
    feasible = np.where(amp == 0.0, True, feasible)
    obj = (amp * ch_norm_sq + t * cross_abs * cos_psi) ** 2 + (
        t * cross_abs * sin_psi
    ) ** 2
    return np.where(feasible, obj, -np.inf), t


def _grid_scan_reference(
    amps, phases, cross_arg, power, gamma, ch_norm_sq, st_norm_sq, cross_abs
):
    # the grid scan with 2^18-point blocks and the plain evaluator, frozen
    cos_psi = np.cos(phases - cross_arg)
    sin_psi = np.sin(phases - cross_arg)
    best = -np.inf
    bi = bj = -1
    n_phase = phases.size
    rows = max(1, (1 << 18) // n_phase)
    for start in range(0, amps.size, rows):
        obj, _ = _eval_candidates_reference(
            amps[start : start + rows, None],
            cos_psi[None, :],
            sin_psi[None, :],
            power,
            gamma,
            ch_norm_sq,
            st_norm_sq,
            cross_abs,
        )
        k = int(np.argmax(obj))
        val = float(obj.flat[k])
        if val > best:
            best = val
            bi = start + k // n_phase
            bj = k % n_phase
    return best, bi, bj


def _channel(kind, geom, target, rng):
    m = geom.num_antennas
    at = steering_vector(geom, target)
    if kind == "los":
        return steering_vector(geom, float(rng.uniform(-1.5, 1.5)))
    if kind == "collinear":
        return complex(rng.standard_normal(), rng.standard_normal()) * at
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if kind == "orthogonal":
        h -= np.vdot(at, h) / m * at
    return h


def _scan_corpus():
    """(grid_scan args, label) over channel kinds, scales and thresholds."""
    rng = np.random.default_rng(1101)
    for kind in ("los", "rayleigh", "collinear", "orthogonal"):
        for scale in (1e-100, 1e-30, 1.0, 1e30, 1e100):
            m = int(rng.integers(2, 17))
            geom = ArrayGeometry(m, 0.5)
            target = float(rng.uniform(-1.5, 1.5))
            h = scale * _channel(kind, geom, target, rng)
            sc = Scenario(geom, target, h, float(10.0 ** rng.uniform(-2.0, 2.0)))
            for fraction in (0.0, float(rng.uniform(0.2, 0.8)), 1.0):
                params = oracle._scan_params(sc, fraction * sc.max_target_power)
                n_amp, n_phase = (int(n) for n in rng.integers(64, 701, size=2))
                amp_max = math.sqrt(sc.power_budget / sc.channel_norm_sq)
                amps = np.linspace(0.0, amp_max, n_amp)
                phases = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
                yield (
                    amps,
                    phases,
                    params["cross_arg"],
                    params["power"],
                    params["gamma"],
                    params["ch_norm_sq"],
                    params["st_norm_sq"],
                    params["cross_abs"],
                ), f"{kind} x{scale:g} gamma={fraction:.3g} {n_amp}x{n_phase}"


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestAgainstFrozenReference:
    def test_grid_scan_corpus(self):
        cases = 0
        for args, label in _scan_corpus():
            assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args)), label
            cases += 1
        assert cases == 60

    def test_grid_scan_phase_axis_longer_than_a_block(self):
        args, _ = next(_scan_corpus())
        n_phase = kernels._GRID_BLOCK_POINTS + 1001
        phases = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
        args = (args[0][:7], phases) + args[2:]
        assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args))

    def test_eval_candidates_blocks_and_windows(self):
        rng = np.random.default_rng(1102)
        for args, label in _scan_corpus():
            amps, phases, cross_arg, *rest = args
            psi = phases - cross_arg
            # a scan block, and a refinement window off the grid
            window_amps = rng.uniform(0.0, amps[-1], 9)
            window_psi = rng.uniform(0.0, 2.0 * math.pi, 9)
            for a, p in ((amps[:40, None], psi[None, :]), (window_amps[:, None], window_psi)):
                got = kernels.eval_candidates(a, np.cos(p), np.sin(p), *rest)
                want = _eval_candidates_reference(a, np.cos(p), np.sin(p), *rest)
                for g, w in zip(got, want):
                    _assert_same_bits(g, w)

    @pytest.mark.parametrize("amp", [0.0, 0.37, [0.0, 0.2, 0.45]])
    def test_eval_candidates_takes_scalars_and_lists(self, reference_scenario, amp):
        sc = reference_scenario
        rest = (1.0, 4.0, sc.channel_norm_sq, sc.steering_norm_sq, abs(sc.cross_gain))
        got = kernels.eval_candidates(amp, 0.6, 0.8, *rest)
        want = _eval_candidates_reference(amp, 0.6, 0.8, *rest)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
        column = np.reshape(amp, (-1, 1)).tolist()  # a nested list, one row per amp
        got = kernels.eval_candidates(column, [0.6, -0.28], [0.8, 0.96], *rest)
        want = _eval_candidates_reference(column, [0.6, -0.28], [0.8, 0.96], *rest)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)


def _draws(seed, trials, sc, chunk=kernels._TRIAL_CHUNK):
    """All of the falsifier helper's (objective, target power) draws."""
    # each pair is a view into reused buffers, valid until the next step
    pairs = [
        (obj.copy(), tgt.copy())
        for obj, tgt in kernels._draws(
            seed, trials, sc.channel, sc.target_steering, sc.power_budget, chunk
        )
    ]
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|."""
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, points, side="right") / x.size
    cdf_y = np.searchsorted(y, points, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def _scenario(kind, m, rng):
    geom = ArrayGeometry(m, 0.5)
    target = float(rng.uniform(-1.5, 1.5))
    power = float(rng.uniform(0.5, 4.0))
    if kind == "los":
        user = float(rng.uniform(-1.5, 1.5))
        return Scenario.with_los_user(geom, target, user, power)
    h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return Scenario(geom, target, h, power)


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

    @pytest.mark.parametrize("m", [1, 3, 10, 64])
    def test_draws_prefix_bitwise(self, make_random_scenario, m):
        # the first N draws of a longer run are bitwise the draws of N trials
        sc = make_random_scenario(np.random.default_rng(m), m_lo=m, m_hi=m)
        obj_short, tgt_short = _draws(8, 3001, sc, chunk=1000)
        obj_long, tgt_long = _draws(8, 7000, sc, chunk=1000)
        assert np.array_equal(obj_long[:3001], obj_short)
        assert np.array_equal(tgt_long[:3001], tgt_short)

    # 971 = 10 * 97 + 1 leaves a one-trial tail chunk
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_draws_chunk_independent(self, make_random_scenario, m):
        sc = make_random_scenario(np.random.default_rng(40 + m), m_lo=m, m_hi=m)
        obj, tgt = _draws(2, 971, sc)
        args = (2, 971, sc.channel, sc.target_steering, sc.power_budget, 0.5 * m)
        result = kernels.falsifier_scan(*args)
        for chunk in (1, 97):
            obj_c, tgt_c = _draws(2, 971, sc, chunk=chunk)
            assert np.array_equal(obj_c, obj)
            assert np.array_equal(tgt_c, tgt)
            assert kernels.falsifier_scan(*args, chunk=chunk) == result

    @pytest.mark.parametrize("kind", ["los", "rayleigh"])
    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    def test_matches_full_space_distribution(self, kind, m):
        # the reduced draws against 2M-entry isotropic beams from another
        # generator: objective and target power after exact power scaling
        rng = np.random.default_rng(1000 + 10 * m + (kind == "los"))
        sc = _scenario(kind, m, rng)
        n = 20_000
        obj, tgt = _draws(31, n, sc)
        c = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        scale = sc.power_budget / np.sum(c.real**2 + c.imag**2, axis=1)
        full_obj = np.abs(c @ sc.channel.conj()) ** 2 * scale
        full_tgt = np.abs(c @ sc.target_steering.conj()) ** 2 * scale
        # alpha = 1e-3 critical value of the two-sample KS statistic
        bound = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / n)
        assert _ks_statistic(obj, full_obj) <= bound
        assert _ks_statistic(tgt, full_tgt) <= bound

    @pytest.mark.parametrize("scale", [1e-100, 0.3, 1.0, 7.5e40])
    def test_single_antenna_objective_is_full_power(self, scale):
        # at M = 1 every beam is the channel direction: objective P |h|^2
        sc = Scenario(ArrayGeometry(1, 0.5), 0.2, [scale * (0.6 - 0.8j)], 2.5)
        obj, tgt = _draws(4, 5000, sc)
        top = sc.power_budget * sc.channel_norm_sq
        assert np.all(np.abs(obj - top) <= np.spacing(top))
        assert np.allclose(tgt, sc.power_budget, rtol=1e-14)

    # the CLI passes any Python int; the stream keys on its low 64 bits
    @pytest.mark.parametrize(
        "seed, same_as",
        [(-1, 2**64 - 1), (-(2**63), 2**63), (2**64 + 5, 5), (2**70, 0)],
    )
    def test_out_of_range_seeds_wrap(self, reference_scenario, seed, same_as):
        sc = reference_scenario
        args = (3000, sc.channel, sc.target_steering, 1.0, 2.0)
        result = kernels.falsifier_scan(seed, *args)
        assert result == kernels.falsifier_scan(same_as, *args)
        assert result[2] > 0

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

    @pytest.mark.parametrize("m", [10, 256])
    def test_memory_does_not_grow_with_trials(self, make_random_scenario, m):
        # the buffers hold one chunk: about 0.6 MiB at 2e4, 1e5 or 1e6 draws
        sc = make_random_scenario(np.random.default_rng(m), m_lo=m, m_hi=m)
        gamma = 0.5 * sc.max_target_power
        peaks = {}
        for trials in (20_000, 100_000, 1_000_000):
            tracemalloc.start()
            try:
                kernels.falsifier_scan(
                    1, trials, sc.channel, sc.target_steering, sc.power_budget, gamma
                )
                _, peaks[trials] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[100_000] < 2**20, peaks
        assert max(peaks.values()) - min(peaks.values()) <= 4 * 2**10, peaks

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


def _draws_before(seed, trials, channel, steering, power, chunk):
    # the draws in fresh arrays per chunk, frozen: the buffered draws must
    # keep every bit
    h = np.asarray(channel, dtype=np.complex128)
    at = np.asarray(steering, dtype=np.complex128)
    m, rank = h.size, min(h.size, 2)
    hh = float(np.vdot(h, h).real)
    q1 = h / np.sqrt(hh)
    r12 = complex(np.vdot(q1, at))
    rest = at - r12 * q1
    fix = complex(np.vdot(q1, rest))
    rest -= fix * q1
    r12_conj, r22 = (r12 + fix).conjugate(), np.sqrt(np.vdot(rest, rest).real)
    seeds = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF).spawn(2)
    normals, gammas = (np.random.Generator(np.random.Philox(s)) for s in seeds)
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        z = normals.standard_normal((n, 2 * rank)).view(np.complex128)
        sq = z.real * z.real + z.imag * z.imag
        norm_sq = sq[:, 0].copy()
        at_c = r12_conj * z[:, 0]
        if rank == 2:
            norm_sq += sq[:, 1]
            at_c += r22 * z[:, 1]
        if m > rank:
            norm_sq += 2.0 * gammas.standard_gamma(m - rank, n)
        tgt = (at_c.real * at_c.real + at_c.imag * at_c.imag) / norm_sq
        yield power * hh * (sq[:, 0] / norm_sq), power * tgt


def _falsifier_scan_before(seed, trials, channel, steering, power, gamma, chunk=None):
    best, best_trial, feasible, start = -np.inf, -1, 0, 0
    chunk = 16384 if chunk is None else chunk
    for obj, tgt in _draws_before(seed, trials, channel, steering, power, chunk):
        ok = tgt >= gamma
        feasible += int(np.count_nonzero(ok))
        masked = np.where(ok, obj, -np.inf)
        k = int(np.argmax(masked))
        if masked[k] > best:
            best, best_trial = float(masked[k]), start + k
        start += ok.size
    return best, best_trial, feasible


_SEEDS = (0, -1, 2**70)
_GAMMA_FRACTIONS = (0.0, 0.5, 1.0, 1.0001)
_CHUNK_EDGE_TRIALS = (1, 2, 8191, 8192, 8193, 3 * 8192 + 1)


def _falsifier_scenarios():
    """(label, Scenario): LoS, Rayleigh and collinear channels at M in
    {1, 2, 3, 10, 17, 256}, and the exactly orthogonal h = (1, -1, 1, -1)
    against a_t = (1, 1, 1, 1), each at channel scales 1e-100 to 1e100."""
    rng = np.random.default_rng(1109)
    scales = (1e-100, 1e-30, 1.0, 1e30, 1e100)
    for m in (1, 2, 3, 10, 17, 256):
        geom = ArrayGeometry(m, 0.5)
        for kind in ("los", "rayleigh", "collinear"):
            for scale in scales:
                target = float(rng.uniform(-1.5, 1.5))
                h = scale * _channel(kind, geom, target, rng)
                power = float(10.0 ** rng.uniform(-2.0, 2.0))
                yield f"{kind} M={m} x{scale:g}", Scenario(geom, target, h, power)
    orthogonal = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
    for scale in scales:
        sc = Scenario(ArrayGeometry(4, 0.5), 0.0, scale * orthogonal, 1.0)
        assert sc.cross_gain == 0.0
        yield f"orthogonal x{scale:g}", sc


class TestFalsifierAgainstFrozenReference:
    def test_scenario_corpus(self):
        # every scenario at every threshold; the trial counts (one across a
        # chunk edge), the chunk sizes and the seeds cycle through all 24
        # combinations
        cases = feasible = mid = 0
        for label, sc in _falsifier_scenarios():
            for fraction in _GAMMA_FRACTIONS:
                trials = (1, 2, 1000, 8193)[cases % 4]
                chunk = (None, 97)[cases // 4 % 2]
                seed = _SEEDS[cases // 8 % 3]
                args = (seed, trials, sc.channel, sc.target_steering, sc.power_budget,
                        fraction * sc.max_target_power, chunk)
                got = kernels.falsifier_scan(*args)
                want = _falsifier_scan_before(*args)
                assert repr(got) == repr(want), (label, seed, trials, chunk, fraction)
                cases += 1
                if fraction == 0.0:
                    assert got[2] == trials
                elif fraction > 1.0:
                    assert got == (-math.inf, -1, 0)
                else:
                    mid += 1
                    feasible += got[2] > 0
        assert cases == 4 * (6 * 3 * 5 + 5)
        # at 0.5 * max and max, some cases keep draws and some keep none
        assert 0 < feasible < mid

    @pytest.mark.parametrize("trials", list(_CHUNK_EDGE_TRIALS) + [100_000])
    def test_trial_counts_and_chunks(self, trials):
        rng = np.random.default_rng(trials)
        scenarios = list(_falsifier_scenarios())
        for chunk in (None, 1, 97):
            if chunk == 1 and trials > 8193:
                continue  # one trial per step: 1e4 steps already cover the edges
            # one trial per step is slow: one scenario there
            picks = rng.choice(len(scenarios), 1 if chunk == 1 else 3, replace=False)
            for label, sc in [scenarios[k] for k in picks]:
                fraction = _GAMMA_FRACTIONS[int(rng.integers(4))]
                seed = _SEEDS[int(rng.integers(3))]
                args = (seed, trials, sc.channel, sc.target_steering, sc.power_budget,
                        fraction * sc.max_target_power, chunk)
                want = _falsifier_scan_before(*args)
                got = kernels.falsifier_scan(*args)
                assert repr(got) == repr(want), (label, seed, chunk, fraction)

    def test_draws_bitwise(self):
        # the views each step yields carry the fresh-array draws bit for bit
        for label, sc in list(_falsifier_scenarios())[::7]:
            args = (2**70, 8193, sc.channel, sc.target_steering, sc.power_budget)
            for chunk in (97, kernels._TRIAL_CHUNK):
                steps = zip(kernels._draws(*args, chunk), _draws_before(*args, chunk), strict=True)
                for (obj, tgt), (obj_want, tgt_want) in steps:
                    _assert_same_bits(obj, obj_want)
                    _assert_same_bits(tgt, tgt_want)


def _grid_args(sc, gamma, amps, phases):
    """``grid_scan``'s arguments for ``sc`` at ``gamma``, as the oracle passes them."""
    params = oracle._scan_params(sc, gamma)
    return (
        amps,
        phases,
        params["cross_arg"],
        params["power"],
        params["gamma"],
        params["ch_norm_sq"],
        params["st_norm_sq"],
        params["cross_abs"],
    )


# the least R of a sure row: what every gamma > 0 past the guard implies
_SURE_FLOOR = kernels._NORMAL_MIN / kernels._ROW_MARGIN * (1.0 + kernels._ROW_MARGIN)


def _row_values(args):
    """(resid, R) per amp row, formed as the evaluator forms its row term."""
    amps, _, _, power, _, ch_norm_sq, st_norm_sq, cross_abs = args
    resid = st_norm_sq * (power - amps * amps * ch_norm_sq)
    amp_g = amps * cross_abs
    return resid, amp_g * amp_g + resid


def _row_class_corpus():
    """(grid_scan args, label) with thresholds on and around the rows' R.

    Besides gamma = 0 and the maximum times (1 + 1e-9), each scenario gets
    thresholds at R(amps[i]) * (1 - 1e-9), R(amps[i]) and R(amps[i]) *
    (1 + 1e-9) for interior rows i. Powers of 1e-305 and 1e-310 push
    (amp |g|)^2, resid and R into the subnormal range.
    """
    rng = np.random.default_rng(1103)
    for kind in ("los", "rayleigh", "collinear", "orthogonal"):
        for scale, power in (
            (1e-140, None),
            (1.0, None),
            (1e140, None),
            (1e-30, 1e-305),
            (1.0, 1e-305),
            (1.0, 1e-310),
        ):
            m = int(rng.integers(2, 17))
            geom = ArrayGeometry(m, 0.5)
            target = float(rng.uniform(-1.5, 1.5))
            h = scale * _channel(kind, geom, target, rng)
            if power is None:
                power = float(10.0 ** rng.uniform(-2.0, 2.0))
            sc = Scenario(geom, target, h, power)
            n_amp, n_phase = (int(n) for n in rng.integers(64, 300, size=2))
            amp_max = math.sqrt(sc.power_budget / sc.channel_norm_sq)
            amps = np.linspace(0.0, amp_max, n_amp)
            phases = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
            _, row_r = _row_values(_grid_args(sc, 0.0, amps, phases))
            gammas = [0.0, sc.max_target_power, sc.max_target_power * (1.0 + 1e-9)]
            for i in rng.integers(1, n_amp - 1, size=3):
                gammas += [float(row_r[i]) * f for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
            for gamma in gammas:
                yield (
                    _grid_args(sc, gamma, amps, phases),
                    f"{kind} x{scale:g} P={power:g} gamma={gamma!r} {n_amp}x{n_phase}",
                )


def _classes(args):
    amps, phases, cross_arg, power, gamma, ch_norm_sq, st_norm_sq, cross_abs = args
    psi = phases - cross_arg
    sure, edge, _ = kernels._row_classes(
        amps,
        np.cos(psi)[None, :],
        power,
        gamma,
        ch_norm_sq,
        st_norm_sq,
        cross_abs,
    )
    return sure, edge, ~(sure | edge)


def _ceilings(args):
    """Each row's objective ceiling F as the scan forms it; +inf off the sure rows."""
    amps, _, _, _, _, ch_norm_sq, st_norm_sq, cross_abs = args
    sure, _, _ = _classes(args)
    resid, _ = _row_values(args)
    out = np.full(amps.shape, np.inf)
    out[sure] = kernels._row_ceilings(amps[sure], resid[sure], ch_norm_sq, st_norm_sq, cross_abs)
    return out


class TestRowClasses:
    def test_grid_scan_matches_frozen_reference(self):
        counts = np.zeros(3, dtype=int)
        cases = 0
        for args, label in _row_class_corpus():
            assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args)), label
            counts += [int(np.count_nonzero(c)) for c in _classes(args)]
            cases += 1
        assert cases == 288
        assert counts.min() > 1000  # every class is exercised

    def test_block_size_leaves_result_unchanged(self, monkeypatch):
        # sure and edge rows are evaluated in separate blocks: a tie across
        # them must still go to the first point in row-major order
        for args, label in list(_row_class_corpus())[::7]:
            results = set()
            for points in (1, 1000, 1 << 18):
                monkeypatch.setattr(kernels, "_GRID_BLOCK_POINTS", points)
                results.add(repr(kernels.grid_scan(*args)))
            assert len(results) == 1, label

    def test_first_maximum_wins_across_classes(self, reference_scenario):
        # a phase axis with every value twice gives each row two equal
        # maxima; the edge row amp = 0 is evaluated before the sure rows
        sc = reference_scenario
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 129)
        half = np.linspace(0.0, 2.0 * math.pi, 97, endpoint=False)
        args = _grid_args(sc, 0.5 * sc.max_target_power, amps, np.concatenate([half, half]))
        best, bi, bj = kernels.grid_scan(*args)
        assert repr((best, bi, bj)) == repr(_grid_scan_reference(*args))
        assert bj < half.size

    def test_collinear_channel_rows_are_flat(self):
        # h parallel to a_t: R is P * M in every row up to rounding, so at
        # the maximum every row is an edge row and below it every row with
        # amp > 0 and resid >= 0 is sure; the objective is P ||h||^2 on
        # every row too, so no sure row's ceiling falls below the maximum
        geom = ArrayGeometry(8, 0.5)
        h = (0.3 - 1.1j) * steering_vector(geom, 0.4)
        sc = Scenario(geom, 0.4, h, 2.5)
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 257)
        phases = np.linspace(0.0, 2.0 * math.pi, 257, endpoint=False)
        for fraction, flat_class in ((1.0, 1), (0.5, 0)):
            args = _grid_args(sc, fraction * sc.max_target_power, amps, phases)
            resid, row_r = _row_values(args)
            assert np.all(np.abs(row_r[resid >= 0] - sc.max_target_power)
                          <= 1e-13 * sc.max_target_power)
            classes = _classes(args)
            assert np.all(classes[flat_class][(amps > 0) & (resid >= 0)]), fraction
            best = kernels.grid_scan(*args)
            assert repr(best) == repr(_grid_scan_reference(*args))
            assert np.all(_ceilings(args)[classes[0]] >= best[0])

    def test_subnormal_row_values_take_the_edge_path(self):
        seen = {"amp_g_sq": 0, "resid": 0, "row": 0}
        for args, label in _row_class_corpus():
            amps, _, _, _, gamma, _, _, cross_abs = args
            resid, row_r = _row_values(args)
            amp_g = amps * cross_abs
            tiny = np.finfo(np.float64).tiny
            seen["amp_g_sq"] += int(np.count_nonzero((amp_g * amp_g < tiny) & (amps > 0)))
            seen["resid"] += int(np.count_nonzero((resid > 0) & (resid < tiny)))
            not_normal = ~(row_r >= tiny)
            seen["row"] += int(np.count_nonzero(not_normal))
            sure, edge, _ = _classes(args)
            assert np.all(edge[not_normal]), label
            assert np.all(edge[resid < 0]), label
            assert np.all(edge[amps == 0.0]), label
            if gamma == 0.0:
                # no margin and no skip rows: every provable row at or above
                # the floor is sure, and the rest are edge rows
                want = (resid >= 0) & (amps != 0.0) & (row_r >= _SURE_FLOOR)
                assert np.array_equal(sure, want & (row_r <= np.finfo(np.float64).max)), label
                assert np.array_equal(edge, ~sure), label
            elif not 1e-9 * gamma >= tiny:
                assert np.all(edge), label
        assert min(seen.values()) > 0, seen

    def test_pointwise_radar_is_within_ulps_of_row_value(self):
        # the margin argument: where the row's classes are provable the
        # point-wise float radar of the plain formula is R to ~1e-15
        worst = 0.0
        for args, _ in list(_row_class_corpus())[::9]:
            amps, phases, cross_arg, power, _, ch_norm_sq, st_norm_sq, cross_abs = args
            resid, row_r = _row_values(args)
            rows = (resid >= 0) & (row_r >= np.finfo(np.float64).tiny) & (amps != 0)
            amp = amps[rows, None]
            psi = (phases - cross_arg)[None, :]
            b_half = amp * cross_abs * np.cos(psi)
            disc = b_half * b_half + resid[rows, None]
            t = np.maximum((np.sqrt(np.maximum(disc, 0.0)) - b_half) / st_norm_sq, 0.0)
            radar = (b_half + t * st_norm_sq) ** 2 + (amp * cross_abs * np.sin(psi)) ** 2
            rel = np.abs(radar - row_r[rows, None]) / row_r[rows, None]
            worst = max(worst, float(rel.max(initial=0.0)))
        assert worst <= 1e-13, worst

    def test_skipped_rows_reach_no_evaluator(self, reference_scenario, monkeypatch):
        # every edge row is evaluated, no skip row is, and a sure row is left
        # out only when its ceiling lies below the maximum the scan returns
        evaluated = []

        def recording(name):
            original = getattr(kernels, name)

            def wrapper(amp, *rest):
                evaluated.extend(np.asarray(amp).ravel().tolist())
                return original(amp, *rest)

            return wrapper

        for name in ("eval_candidates", "_sure_objective"):
            monkeypatch.setattr(kernels, name, recording(name))
        pruned = 0
        for args, label in list(_row_class_corpus())[::5]:
            evaluated.clear()
            best, _, _ = kernels.grid_scan(*args)
            sure, edge, skip = _classes(args)
            amps = args[0]
            seen = np.isin(amps, evaluated)
            assert len(evaluated) == len(set(evaluated)), label  # no row twice
            assert set(evaluated) <= set(amps[sure | edge].tolist()), label
            assert not np.any(skip[seen]), label
            assert np.all(seen[edge]), label
            left_out = sure & ~seen
            assert np.all(_ceilings(args)[left_out] < best), label
            pruned += int(np.count_nonzero(left_out))
        assert pruned > 1000

        # the reference LoS scenario at gamma = 5: the rows evaluated are
        # rows that hold a feasible point, every edge row among them, and
        # each feasible row left out is a sure row whose ceiling is below
        # the maximum
        sc = reference_scenario
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 257)
        phases = np.linspace(0.0, 2.0 * math.pi, 257, endpoint=False)
        args = _grid_args(sc, 5.0, amps, phases)
        evaluated.clear()
        best, _, _ = kernels.grid_scan(*args)
        psi = phases - args[2]
        obj, _ = _eval_candidates_reference(
            amps[:, None], np.cos(psi)[None, :], np.sin(psi)[None, :], *args[3:]
        )
        feasible = np.isfinite(obj).any(axis=1)
        sure, edge, _ = _classes(args)
        seen = np.isin(amps, evaluated)
        assert np.all(feasible[seen])
        assert np.all(seen[edge])
        left_out = feasible & ~seen
        assert np.all(sure[left_out])
        assert np.all(_ceilings(args)[left_out] < best)
        assert 0.5 < np.count_nonzero(feasible) / amps.size < 0.9
        assert np.count_nonzero(seen & sure) <= 8

    def test_sure_rows_match_the_evaluator_bitwise(self):
        # not only the maximum: every objective value of a sure row is the
        # evaluator's, bit for bit
        rows_checked = 0
        for args, label in _row_class_corpus():
            amps, phases, cross_arg, power, gamma, ch_norm_sq, st_norm_sq, cross_abs = args
            sure, _, _ = _classes(args)
            if not sure.any():
                continue
            resid, _ = _row_values(args)
            psi = phases - cross_arg
            cos_psi, sin_psi = np.cos(psi)[None, :], np.sin(psi)[None, :]
            got = kernels._sure_objective(
                amps[sure, None], resid[sure, None], cos_psi, sin_psi,
                ch_norm_sq, st_norm_sq, cross_abs,
            )
            want, _ = _eval_candidates_reference(
                amps[sure, None], cos_psi, sin_psi, power, gamma,
                ch_norm_sq, st_norm_sq, cross_abs,
            )
            _assert_same_bits(got, want)
            rows_checked += int(np.count_nonzero(sure))
        assert rows_checked > 1000

    def test_rows_at_the_top_of_the_amp_range(self):
        # at and just past amp_max the rows' resid is a few ulps of the
        # power or below zero: those rows must take the edge path
        rng = np.random.default_rng(1104)
        negative = 0
        for _ in range(20):
            m = int(rng.integers(2, 17))
            geom = ArrayGeometry(m, 0.5)
            target = float(rng.uniform(-1.5, 1.5))
            h = _channel(("los", "rayleigh")[m % 2], geom, target, rng)
            sc = Scenario(geom, target, h, float(10.0 ** rng.uniform(-2.0, 2.0)))
            amp_max = math.sqrt(sc.power_budget / sc.channel_norm_sq)
            amps = np.concatenate(
                [
                    np.linspace(0.0, amp_max, 64),
                    amp_max + np.arange(-8, 4) * np.spacing(amp_max),
                ]
            )
            phases = np.linspace(0.0, 2.0 * math.pi, 91, endpoint=False)
            for gamma in (0.5 * sc.free_target_power, sc.max_target_power):
                args = _grid_args(sc, gamma, amps, phases)
                assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args))
                resid, row_r = _row_values(args)
                _, edge, _ = _classes(args)
                assert np.all(edge[resid < 0])
                negative += int(np.count_nonzero((resid < 0) & (row_r >= 1e-300)))
        assert negative > 0

    def test_equal_maxima_across_classes(self):
        # an objective that overflows ties at +inf in a sure row and in the
        # edge row amp = 0 after it: the earlier point, in the sure row, wins
        amps = np.array([1e-300, 0.0])
        phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        args = (amps, phases, 0.0, 1.0, 1.0, 1.0, 1.0, 1e300)
        sure, edge, _ = _classes(args)
        assert sure.tolist() == [True, False] and edge.tolist() == [False, True]
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernels.grid_scan(*args)
            want = _grid_scan_reference(*args)
        assert repr(got) == repr(want)
        assert got[0] == math.inf and got[1] == 0

    @pytest.mark.parametrize(
        "case", ["gamma subnormal", "steering below 1", "steering huge", "nan phase"]
    )
    def test_guards_send_every_row_to_the_edge_path(self, reference_scenario, case):
        sc = reference_scenario
        gamma = {"gamma subnormal": 1e-310}.get(case, 5.0)
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 65)
        phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        if case == "nan phase":
            phases[5] = math.nan
        args = _grid_args(sc, gamma, amps, phases)
        st_norm_sq = {"steering below 1": 0.5, "steering huge": 2.0**501}.get(case, args[6])
        args = args[:6] + (st_norm_sq,) + args[7:]
        _, edge, _ = _classes(args)
        assert edge.all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args))

    def test_gamma_zero_rows_take_the_sure_path(self, reference_scenario):
        # the radar is a sum of squares: at gamma = 0 every row with amp > 0
        # and resid >= 0 is sure; the amp = 0 row and rows past amp_max
        # (resid < 0) stay edge rows, and no row is skipped
        sc = reference_scenario
        amp_max = math.sqrt(sc.power_budget / sc.channel_norm_sq)
        amps = np.concatenate(
            [np.linspace(0.0, amp_max, 65), amp_max + np.arange(1, 4) * np.spacing(amp_max)]
        )
        phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        args = _grid_args(sc, 0.0, amps, phases)
        resid, _ = _row_values(args)
        sure, edge, skip = _classes(args)
        assert np.array_equal(sure, (amps != 0.0) & (resid >= 0))
        assert np.array_equal(edge, ~sure) and not skip.any()
        assert (resid < 0).any()
        assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args))

    @pytest.mark.parametrize(
        "factor", [1.5, 1e4, 0.5 / kernels._ROW_MARGIN, 2.0 / kernels._ROW_MARGIN]
    )
    def test_gamma_zero_floor_keeps_the_sure_objective_exact(self, factor):
        # rows with resid = 0 and R = (amp |g|)^2 near the normal range,
        # against phases where b = amp |g| cos(psi) has a subnormal square:
        # there the unclamped t of the sure path falls below 0, and only
        # rows with R >= 2^-1022 / 1e-9 may take that path (at R = 1.5 *
        # 2^-1022 an unclamped objective here differs in its last bit)
        ch_norm_sq, cross_abs = 4.0, 2.0
        amp = math.sqrt(np.finfo(np.float64).tiny * factor) / cross_abs
        amps = np.array([0.0, amp])
        power = amp * amp * ch_norm_sq
        rng = np.random.default_rng(1105)
        offsets = 10.0 ** rng.uniform(-14.0, -6.0, 1000)
        phases = math.pi / 2 + np.concatenate([offsets, -offsets])
        args = (amps, phases, 0.0, power, 0.0, ch_norm_sq, 1.0, cross_abs)
        resid, row_r = _row_values(args)
        assert resid[1] == 0.0
        sure, _, _ = _classes(args)
        assert sure[1] == (row_r[1] >= _SURE_FLOOR)
        assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_reference(*args))
        cos_psi, sin_psi = np.cos(phases)[None, :], np.sin(phases)[None, :]
        b_half = amp * cross_abs * cos_psi
        assert ((np.sqrt(b_half * b_half) - b_half) < 0).any()  # the corner is reached
        if sure[1]:
            got = kernels._sure_objective(
                amps[1:, None], resid[1:, None], cos_psi, sin_psi, ch_norm_sq, 1.0, cross_abs
            )
            want, _ = _eval_candidates_reference(amps[1:, None], cos_psi, sin_psi, *args[3:])
            _assert_same_bits(got, want)


def _grid_scan_before(
    amps, phases, cross_arg, power, gamma, ch_norm_sq, st_norm_sq, cross_abs
):
    # the row-class scan that evaluates every sure row, frozen: the pruned
    # scan must return the same bits
    psi = phases - cross_arg
    cos_psi = np.cos(psi)[None, :]
    sin_psi = np.sin(psi)[None, :]
    n_phase = phases.size
    sure, edge, resid = kernels._row_classes(
        amps, cos_psi, power, gamma, ch_norm_sq, st_norm_sq, cross_abs
    )
    best = -np.inf
    bi = bj = -1
    for rows, is_sure in ((np.flatnonzero(edge), False), (np.flatnonzero(sure), True)):
        for block in kernels._row_blocks(rows, n_phase):
            amp = amps[block, None]
            if is_sure:
                obj = kernels._sure_objective(
                    amp, resid[block, None], cos_psi, sin_psi, ch_norm_sq, st_norm_sq, cross_abs
                )
            else:
                obj, _ = kernels.eval_candidates(
                    amp, cos_psi, sin_psi, power, gamma,
                    ch_norm_sq, st_norm_sq, cross_abs,
                )
            k = int(np.argmax(obj))
            val = float(obj.flat[k])
            i, j = int(block[k // n_phase]), k % n_phase
            if val > best or (val == best and (i, j) < (bi, bj)):
                best, bi, bj = val, i, j
    return best, bi, bj


def _random_vector(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _ceiling_corpus():
    """(grid_scan args, label): exact orthogonal and near-collinear channels,
    channel scales 1e-155 to 1e140 and powers 1e-300 to 1e300, wherever the
    Scenario is valid and the amp range finite."""
    rng = np.random.default_rng(1106)
    geom4 = ArrayGeometry(4, 0.5)
    channels = [
        # h^H a_t = 0 exactly (a_t is all ones at angle 0)
        ("orthogonal", geom4, 0.0, np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)),
    ]
    for offset in (0.0, 1e-15, 1e-8, 1e-3):
        geom = ArrayGeometry(8, 0.5)
        h = (0.7 + 0.4j) * steering_vector(geom, 0.3)
        h = h + offset * _random_vector(rng, 8)
        channels.append((f"collinear+{offset:g}", geom, 0.3, h))
    geom = ArrayGeometry(10, 0.5)
    channels.append(("los", geom, -0.5, steering_vector(geom, 0.2)))
    for kind, geom, target, h in channels:
        for scale in (1e-155, 1e-140, 1.0, 1e140):
            # small powers at scales 1e-155 and 1e-140: subnormal objectives
            for power in (1e-300, 1e-150, 1e-40, 1e-30, 1e-10, 1.0, 1e10, 1e150, 1e300):
                try:
                    sc = Scenario(geom, target, scale * h, power)
                except ValueError:
                    continue  # P ||h||^2 or a norm out of range
                amp_max = math.sqrt(sc.power_budget / sc.channel_norm_sq)
                if not math.isfinite(amp_max):
                    continue  # no grid: the oracle cannot scan it either
                amps = np.linspace(0.0, amp_max, 97)
                phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
                for fraction in (0.0, 0.5, 0.99):
                    yield (
                        _grid_args(sc, fraction * sc.max_target_power, amps, phases),
                        f"{kind} x{scale:g} P={power:g} gamma={fraction:g}",
                    )


class TestRowCeilings:
    def test_ceiling_bounds_the_evaluator_at_every_phase(self):
        rng = np.random.default_rng(1107)
        tiny = np.nextafter(0.0, 1.0)
        psi = np.concatenate([[0.0, tiny, -tiny, math.pi], rng.uniform(-math.pi, math.pi, 4092)])
        cos_psi, sin_psi = np.cos(psi)[None, :], np.sin(psi)[None, :]
        rows = bounded = floored = cases = 0
        kinds = set()
        for args, label in list(_row_class_corpus()) + list(_ceiling_corpus()):
            amps, _, _, power, gamma, ch_norm_sq, st_norm_sq, cross_abs = args
            sure, _, _ = _classes(args)
            if not sure.any():
                continue
            cases += 1
            kinds.add(label.split()[0])
            ceiling = _ceilings(args)
            index = np.flatnonzero(sure)
            # the rows of highest ceiling, the first and last, and a random few
            picks = np.unique(
                np.concatenate(
                    [index[[0, -1]], index[np.argsort(ceiling[sure])[-2:]], rng.choice(index, 3)]
                )
            )
            obj, _ = kernels.eval_candidates(
                amps[picks, None], cos_psi, sin_psi, power, gamma,
                ch_norm_sq, st_norm_sq, cross_abs,
            )
            assert np.all(obj <= ceiling[picks, None]), label
            finite = np.isfinite(ceiling[picks])
            # tight above the floor: the value at psi = 0 is the ceiling up
            # to its margin
            tight = finite & (ceiling[picks] > kernels._CEILING_FLOOR)
            assert np.all(
                obj[tight, 0] >= ceiling[picks][tight] / (1.0 + kernels._ROW_MARGIN) * (1 - 1e-12)
            ), label
            rows += picks.size
            bounded += int(np.count_nonzero(finite))
            floored += int(np.count_nonzero(finite & ~tight))
        assert cases > 300 and rows > 1500
        assert bounded > 0.9 * rows and floored > 10
        assert {"orthogonal", "collinear+0", "collinear+1e-08", "los", "rayleigh"} <= kinds

    def test_unproven_kappa_keeps_every_row(self, reference_scenario):
        # |h^H a_t| above ||h|| ||a_t||, as no Scenario gives it: kappa < 0,
        # the objective peaks at psi = pi, and no row may be left out
        sc = reference_scenario
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 257)
        phases = np.linspace(0.0, 2.0 * math.pi, 257, endpoint=False)
        for gamma in (0.0, 5.0):
            args = _grid_args(sc, gamma, amps, phases)
            cross_abs = 1.5 * math.sqrt(args[5] * args[6])
            args = args[:7] + (cross_abs,) + args[8:]
            sure, _, _ = _classes(args)
            assert sure.sum() > 100
            assert np.all(np.isinf(_ceilings(args)))
            assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_before(*args))

    def test_grid_scan_matches_the_scan_of_every_sure_row(self, reference_scenario):
        cases = 0
        corpora = (_scan_corpus(), _row_class_corpus(), _ceiling_corpus())
        for corpus in corpora:
            for args, label in corpus:
                assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_before(*args)), label
                cases += 1
        # 2001^2 grids, the oracle's default, on the reference scenario and
        # on random LoS and Rayleigh channels
        rng = np.random.default_rng(1108)
        scenarios = [reference_scenario]
        for kind in ("los", "rayleigh"):
            m = int(rng.integers(2, 17))
            geom = ArrayGeometry(m, 0.5)
            target = float(rng.uniform(-1.5, 1.5))
            scenarios.append(Scenario(geom, target, _channel(kind, geom, target, rng), 1.7))
        phases = np.linspace(0.0, 2.0 * math.pi, 2001, endpoint=False)
        for sc in scenarios:
            amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 2001)
            for fraction in (0.0, 0.1, 0.5, 0.95):
                args = _grid_args(sc, fraction * sc.max_target_power, amps, phases)
                assert repr(kernels.grid_scan(*args)) == repr(_grid_scan_before(*args)), fraction
                cases += 1
        assert cases == 60 + 288 + 12 + sum(1 for _ in _ceiling_corpus())

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0, 9.5])
    def test_few_sure_rows_reach_the_objective(self, reference_scenario, monkeypatch, gamma):
        # a ceiling that is sound but loose would keep the result and lose
        # the pruning: on the 2001^2 default grid at most 8 of up to 2,000
        # sure rows are evaluated
        sure_rows = []
        original = kernels._sure_objective

        def counting(amp, *rest):
            sure_rows.append(amp.shape[0])
            return original(amp, *rest)

        sc = reference_scenario
        amps = np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), 2001)
        phases = np.linspace(0.0, 2.0 * math.pi, 2001, endpoint=False)
        args = _grid_args(sc, gamma, amps, phases)
        want = _grid_scan_before(*args)
        monkeypatch.setattr(kernels, "_sure_objective", counting)
        assert repr(kernels.grid_scan(*args)) == repr(want)
        sure, _, _ = _classes(args)
        assert sure.sum() > 400
        assert 1 <= sum(sure_rows) <= 8

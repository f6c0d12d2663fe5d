"""Hot numeric kernels: subspace grid scan and random-beam falsifier.

Each kernel has a numba fast path and a pure-numpy fallback with identical
arithmetic; set DFRC_DISABLE_NUMBA=1 to force the numpy path (the module
also falls back, silently, when numba is not importable; NUMBA_ENABLED says
which path runs). The falsifier
draws from a counter-based generator (splitmix64 finalizer), so both paths
produce bit-identical streams and trials are independent of chunking.

The 2-D search coordinates are (amp, phase): the candidate beam is
c = amp * exp(1j*phase) * h + t * a_t with t >= 0 real, and t is eliminated
by solving ||c||^2 = power exactly, so every scanned point sits on the power
budget. Feasibility against the target-power threshold is checked strictly
in floats; the amp = 0 column (pure steering beam, where the threshold can
only be met at the very top of its range) is anchored analytically via the
``amp0_feasible`` flag to keep float dust from flipping it.
"""

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "eval_candidates",
    "falsifier_scan",
    "falsifier_scan_numba",
    "falsifier_scan_numpy",
    "grid_scan",
    "grid_scan_numba",
    "grid_scan_numpy",
]


def _numba_disabled_by_env() -> bool:
    return os.environ.get("DFRC_DISABLE_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


NUMBA_ENABLED = False
if not _numba_disabled_by_env():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is the optional ``jit`` extra
        pass

TWO_PI = 2.0 * np.pi

# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def _mix64(z):
    # splitmix64 finalizer; uint64 wrap-around is intended
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def eval_candidates(
    amp,
    cos_psi,
    sin_psi,
    power: float,
    gamma: float,
    ch_norm_sq: float,
    st_norm_sq: float,
    cross_abs: float,
    amp0_feasible: bool,
):
    """Objective and steering weight at broadcastable (amp, psi) coordinates.

    ``psi`` is the candidate phase minus the phase of h^H a_t (the steering
    weight t is pinned real nonnegative). Returns (objective, t) with the
    objective set to -inf wherever the point is infeasible.
    """
    amp = np.asarray(amp, dtype=np.float64)
    cos_psi = np.asarray(cos_psi, dtype=np.float64)
    sin_psi = np.asarray(sin_psi, dtype=np.float64)
    b_half = amp * cross_abs * cos_psi
    resid = power - amp * amp * ch_norm_sq  # >= 0 on the amp domain
    disc = b_half * b_half + st_norm_sq * resid
    t = (np.sqrt(np.maximum(disc, 0.0)) - b_half) / st_norm_sq
    t = np.maximum(t, 0.0)
    radar = (amp * cross_abs * cos_psi + t * st_norm_sq) ** 2 + (
        amp * cross_abs * sin_psi
    ) ** 2
    feasible = (disc >= 0.0) & (radar >= gamma)
    feasible = np.where(amp == 0.0, amp0_feasible, feasible)
    obj = (amp * ch_norm_sq + t * cross_abs * cos_psi) ** 2 + (
        t * cross_abs * sin_psi
    ) ** 2
    return np.where(feasible, obj, -np.inf), t


def grid_scan_numpy(
    amps,
    phases,
    cross_arg: float,
    power: float,
    gamma: float,
    ch_norm_sq: float,
    st_norm_sq: float,
    cross_abs: float,
    amp0_feasible: bool,
    chunk: int = 256,
):
    """Best feasible grid point; returns (objective, amp index, phase index).

    (-inf, -1, -1) when no grid point is feasible. Chunked over the amp axis
    to bound memory at large resolutions.
    """
    cos_psi = np.cos(phases - cross_arg)
    sin_psi = np.sin(phases - cross_arg)
    best = -np.inf
    bi = bj = -1
    n_phase = phases.size
    for start in range(0, amps.size, chunk):
        block = amps[start : start + chunk, None]
        obj, _ = eval_candidates(
            block,
            cos_psi[None, :],
            sin_psi[None, :],
            power,
            gamma,
            ch_norm_sq,
            st_norm_sq,
            cross_abs,
            amp0_feasible,
        )
        k = int(np.argmax(obj))
        val = float(obj.flat[k])
        if val > best:
            best = val
            bi = start + k // n_phase
            bj = k % n_phase
    return best, bi, bj


def falsifier_scan_numpy(
    seed: int,
    trials: int,
    channel,
    steering,
    power: float,
    gamma: float,
    chunk: int = 16384,
):
    """Best feasible random rank-one beam; (objective, trial index, count).

    Trial i draws a standard complex Gaussian vector from the counter stream
    keyed by (seed, i), scales it onto the power sphere, and keeps it only if
    the target-direction power meets ``gamma`` (strict float compare).
    Returns (-inf, -1, 0) when nothing is feasible.
    """
    h = np.asarray(channel, dtype=np.complex128)
    at = np.asarray(steering, dtype=np.complex128)
    m = h.size
    hr, hi = np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag)
    ar, ai = np.ascontiguousarray(at.real), np.ascontiguousarray(at.imag)
    best = -np.inf
    best_trial = -1
    feasible = 0
    with np.errstate(over="ignore"):
        s0 = _mix64(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        slots = np.arange(1, 2 * m + 1, dtype=np.uint64) * _GOLDEN
        for start in range(0, trials, chunk):
            n = min(chunk, trials - start)
            counters = np.arange(start + 1, start + n + 1, dtype=np.uint64)
            base = _mix64(s0 + counters * _GOLDEN)
            v = _mix64(base[:, None] + slots[None, :])
            u = ((v >> _S11).astype(np.float64) + 1.0) * _INV_2_53  # (0, 1]
            radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
            angle = TWO_PI * u[:, 1::2]
            re = radius * np.cos(angle)
            im = radius * np.sin(angle)
            # accumulate antenna by antenna, in the numba loop's exact
            # rounding order, so both paths return bit-identical results
            norm_sq = np.zeros(n)
            dh_re = np.zeros(n)
            dh_im = np.zeros(n)
            da_re = np.zeros(n)
            da_im = np.zeros(n)
            for p in range(m):
                rp, ip = re[:, p], im[:, p]
                norm_sq += rp * rp + ip * ip
                dh_re += rp * hr[p] + ip * hi[p]
                dh_im += rp * hi[p] - ip * hr[p]
                da_re += rp * ar[p] + ip * ai[p]
                da_im += rp * ai[p] - ip * ar[p]
            scale = power / norm_sq
            obj = (dh_re * dh_re + dh_im * dh_im) * scale
            tgt = (da_re * da_re + da_im * da_im) * scale
            ok = tgt >= gamma
            feasible += int(np.count_nonzero(ok))
            masked = np.where(ok, obj, -np.inf)
            k = int(np.argmax(masked))
            val = float(masked[k])
            if val > best:
                best = val
                best_trial = start + k
    return best, best_trial, feasible


if NUMBA_ENABLED:
    _mix64_nb = njit(cache=True, inline="always")(_mix64)

    @njit(cache=True)
    def _grid_scan_jit(
        amps, cos_psi, sin_psi, power, gamma, ch_norm_sq, st_norm_sq, cross_abs, amp0_feasible
    ):
        best = -np.inf
        bi = -1
        bj = -1
        for i in range(amps.size):
            amp = amps[i]
            resid = power - amp * amp * ch_norm_sq
            for j in range(cos_psi.size):
                b_half = amp * cross_abs * cos_psi[j]
                disc = b_half * b_half + st_norm_sq * resid
                if disc < 0.0:
                    continue
                t = (np.sqrt(disc) - b_half) / st_norm_sq
                if t < 0.0:
                    t = 0.0
                if amp == 0.0:
                    ok = amp0_feasible
                else:
                    radar = (amp * cross_abs * cos_psi[j] + t * st_norm_sq) ** 2 + (
                        amp * cross_abs * sin_psi[j]
                    ) ** 2
                    ok = radar >= gamma
                if ok:
                    obj = (amp * ch_norm_sq + t * cross_abs * cos_psi[j]) ** 2 + (
                        t * cross_abs * sin_psi[j]
                    ) ** 2
                    if obj > best:
                        best = obj
                        bi = i
                        bj = j
        return best, bi, bj

    @njit(cache=True)
    def _falsifier_jit(seed, trials, hr, hi, ar, ai, power, gamma):
        m = hr.size
        best = -np.inf
        best_trial = -1
        feasible = 0
        s0 = _mix64_nb(seed + _GOLDEN)
        for i in range(trials):
            base = _mix64_nb(s0 + np.uint64(i + 1) * _GOLDEN)
            norm_sq = 0.0
            dh_re = 0.0
            dh_im = 0.0
            da_re = 0.0
            da_im = 0.0
            for p in range(m):
                v0 = _mix64_nb(base + np.uint64(2 * p + 1) * _GOLDEN)
                v1 = _mix64_nb(base + np.uint64(2 * p + 2) * _GOLDEN)
                u0 = (np.float64(v0 >> _S11) + 1.0) * _INV_2_53
                u1 = (np.float64(v1 >> _S11) + 1.0) * _INV_2_53
                radius = np.sqrt(-2.0 * np.log(u0))
                angle = TWO_PI * u1
                re = radius * np.cos(angle)
                im = radius * np.sin(angle)
                norm_sq += re * re + im * im
                dh_re += re * hr[p] + im * hi[p]
                dh_im += re * hi[p] - im * hr[p]
                da_re += re * ar[p] + im * ai[p]
                da_im += re * ai[p] - im * ar[p]
            scale = power / norm_sq
            tgt = (da_re * da_re + da_im * da_im) * scale
            if tgt >= gamma:
                feasible += 1
                obj = (dh_re * dh_re + dh_im * dh_im) * scale
                if obj > best:
                    best = obj
                    best_trial = i
        return best, best_trial, feasible


def grid_scan_numba(
    amps,
    phases,
    cross_arg: float,
    power: float,
    gamma: float,
    ch_norm_sq: float,
    st_norm_sq: float,
    cross_abs: float,
    amp0_feasible: bool,
):
    """Numba implementation of :func:`grid_scan_numpy`; raises if unavailable."""
    if not NUMBA_ENABLED:
        raise RuntimeError("numba path is disabled or unavailable")
    cos_psi = np.cos(phases - cross_arg)
    sin_psi = np.sin(phases - cross_arg)
    best, bi, bj = _grid_scan_jit(
        np.ascontiguousarray(amps, dtype=np.float64),
        np.ascontiguousarray(cos_psi),
        np.ascontiguousarray(sin_psi),
        float(power),
        float(gamma),
        float(ch_norm_sq),
        float(st_norm_sq),
        float(cross_abs),
        bool(amp0_feasible),
    )
    return float(best), int(bi), int(bj)


def falsifier_scan_numba(
    seed: int, trials: int, channel, steering, power: float, gamma: float
):
    """Numba implementation of :func:`falsifier_scan_numpy`; raises if unavailable."""
    if not NUMBA_ENABLED:
        raise RuntimeError("numba path is disabled or unavailable")
    h = np.asarray(channel, dtype=np.complex128)
    at = np.asarray(steering, dtype=np.complex128)
    best, best_trial, feasible = _falsifier_jit(
        np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF),
        int(trials),
        np.ascontiguousarray(h.real),
        np.ascontiguousarray(h.imag),
        np.ascontiguousarray(at.real),
        np.ascontiguousarray(at.imag),
        float(power),
        float(gamma),
    )
    return float(best), int(best_trial), int(feasible)


def grid_scan(amps, phases, cross_arg, power, gamma, ch_norm_sq, st_norm_sq, cross_abs, amp0_feasible):
    """Dispatch to the numba scan when enabled, else the numpy scan."""
    args = (amps, phases, cross_arg, power, gamma, ch_norm_sq, st_norm_sq, cross_abs, amp0_feasible)
    if NUMBA_ENABLED:
        return grid_scan_numba(*args)
    return grid_scan_numpy(*args)


def falsifier_scan(seed, trials, channel, steering, power, gamma):
    """Dispatch to the numba falsifier when enabled, else the numpy one."""
    args = (seed, trials, channel, steering, power, gamma)
    if NUMBA_ENABLED:
        return falsifier_scan_numba(*args)
    return falsifier_scan_numpy(*args)

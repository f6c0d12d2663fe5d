"""Hot numeric kernels: subspace grid scan and random-beam falsifier.

One numpy implementation per job. The falsifier needs a beam c only through
(h^H c, a_t^H c, ||c||^2). For isotropic c and Q an orthonormal basis of
span{h, a_t} (rank r = min(M, 2)), z = Q^H c is isotropic and, independently,
||c||^2 - ||z||^2 ~ 2 * Gamma(M - r) (variance 2 per entry). So r complex
normals and one gamma variate per trial give exactly the full-space
distribution, at a cost that does not depend on M. Normals and gammas come
from two Philox streams (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) read in trial order, so chunking never changes a draw.

The 2-D search coordinates are (amp, phase): the candidate beam is
c = amp * exp(1j*phase) * h + t * a_t with t >= 0 real, and t is eliminated
by solving ||c||^2 = power exactly, so every scanned point sits on the power
budget. Feasibility against the target-power threshold is checked strictly
in floats; the amp = 0 column (pure steering beam, where the threshold can
only be met at the very top of its range) is anchored analytically via the
``amp0_feasible`` flag to keep float dust from flipping it.
"""

import numpy as np

__all__ = ["eval_candidates", "falsifier_scan", "grid_scan"]

# grid points per block of whole rows: bounds the scan's temporaries (about
# 18 MiB) whatever the resolution
_GRID_BLOCK_POINTS = 1 << 18
# falsifier trials per block: bounds its memory whatever the trial count
_TRIAL_CHUNK = 16384


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


def grid_scan(
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
    """Best feasible grid point; returns (objective, amp index, phase index).

    (-inf, -1, -1) when no grid point is feasible. Chunked over the amp axis
    to bound memory at large resolutions.
    """
    cos_psi = np.cos(phases - cross_arg)
    sin_psi = np.sin(phases - cross_arg)
    best = -np.inf
    bi = bj = -1
    n_phase = phases.size
    rows = max(1, _GRID_BLOCK_POINTS // n_phase)
    for start in range(0, amps.size, rows):
        block = amps[start : start + rows, None]
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


def _draws(seed: int, trials: int, channel, steering, power: float, chunk: int):
    """Yield power-scaled (objective, target power) arrays, ``chunk`` trials each."""
    h = np.asarray(channel, dtype=np.complex128)
    at = np.asarray(steering, dtype=np.complex128)
    m, rank = h.size, min(h.size, 2)
    # a_t = r12*q1 + r22*q2, q1 = h/||h||: Gram-Schmidt, re-orthogonalized once
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
        z = normals.standard_normal((n, 2 * rank)).view(np.complex128)  # z = Q^H c
        sq = z.real * z.real + z.imag * z.imag
        norm_sq = sq[:, 0].copy()
        at_c = r12_conj * z[:, 0]
        if rank == 2:
            norm_sq += sq[:, 1]
            at_c += r22 * z[:, 1]
        if m > rank:
            norm_sq += 2.0 * gammas.standard_gamma(m - rank, n)
        # exact power scaling: c * sqrt(power / ||c||^2)
        tgt = (at_c.real * at_c.real + at_c.imag * at_c.imag) / norm_sq
        yield power * hh * (sq[:, 0] / norm_sq), power * tgt


def falsifier_scan(
    seed: int,
    trials: int,
    channel,
    steering,
    power: float,
    gamma: float,
    chunk: int | None = None,
):
    """Best feasible random rank-one beam; (objective, trial index, count).

    Each trial's isotropic beam is scaled exactly onto the power budget and
    kept only if its target power meets ``gamma`` (strict float compare).
    Returns (-inf, -1, 0) when nothing is feasible. Trials are drawn ``chunk``
    at a time (default 16,384): memory stays bounded, the result unchanged.
    """
    best, best_trial, feasible, start = -np.inf, -1, 0, 0
    chunk = _TRIAL_CHUNK if chunk is None else chunk
    for obj, tgt in _draws(seed, trials, channel, steering, power, chunk):
        ok = tgt >= gamma
        feasible += int(np.count_nonzero(ok))
        masked = np.where(ok, obj, -np.inf)
        k = int(np.argmax(masked))
        if masked[k] > best:
            best, best_trial = float(masked[k]), start + k
        start += ok.size
    return best, best_trial, feasible

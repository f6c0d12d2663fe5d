"""Hot numeric kernels: subspace grid scan and random-beam falsifier.

One numpy implementation per job. The falsifier needs a beam c only through
(h^H c, a_t^H c, ||c||^2). For isotropic c and Q an orthonormal basis of
span{h, a_t} (rank r = min(M, 2)), z = Q^H c is isotropic and, independently,
||c||^2 - ||z||^2 ~ 2 * Gamma(M - r) (variance 2 per entry). So r complex
normals and one gamma variate per trial give exactly the full-space
distribution, at a cost that does not depend on M. Normals and gammas come
from two Philox streams (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) read in trial order, so chunking never changes a draw.
A call allocates its few buffers once, for ``_TRIAL_CHUNK`` (8,192) trials
or fewer, and streams every chunk through them: the generators write into
them (``out=``), the normals are squared in place after a_t^H c is formed
from them, and one complex scratch holds r22 z_2 and then, as floats, the
gamma, target-power and objective terms. Its memory (about 0.6 MiB) does not
grow with the trial count, and every step is the same IEEE operation, in the
same order, as the plain formula, so the draws and the result are bitwise
those of fresh arrays per chunk.

The 2-D search coordinates are (amp, phase): the candidate beam is
c = amp * exp(1j*phase) * h + t * a_t with t >= 0 real, and t is eliminated
by solving ||c||^2 = power exactly, so every scanned point sits on the power
budget. Feasibility against the target-power threshold is checked strictly
in floats, except in the amp = 0 column: the pure steering beam puts P M on
the target, the most any beam can, and every caller rejects a threshold
above P M (1 + 1e-12) first, so that column is anchored as feasible rather
than left to float dust.

``eval_candidates`` is the one evaluator: the grid scan calls it on blocks
of whole rows and the oracle's refinement on small square windows
(``oracle._WINDOW`` points a side). It is memory bound, not arithmetic
bound, so it works in three full-size buffers reused in place, with the
terms that depend on amp alone computed once per row.
Each operation is the same IEEE operation, in the same order, as the plain
formula, so the results are bitwise those of the textbook expressions. The
scan's blocks hold about 2^14 points: every temporary (128 KiB at most)
stays in L2 cache and comes back from malloc's heap instead of being
mapped, page-faulted in and unmapped again for each block. The first
maximum in row-major order wins, so the block size never changes a result.

The scan settles feasibility once per amp row where that is provable. With
resid = ||a_t||^2 * (power - amp^2 ||h||^2), the evaluator's own row term,
every candidate of a row puts |a_t^H c|^2 = R = (amp |h^H a_t|)^2 + resid
on the target, whatever its phase. When resid >= 0 every summand of the
point-wise float radar is nonnegative, so (Higham, *Accuracy and Stability
of Numerical Algorithms*, ch. 3) it equals the float R to within a few tens
of ulps, far inside a relative margin of 1e-9. Each row then falls in one of
three classes:

* skip, R < gamma * (1 - 1e-9): every point is infeasible, its objective is
  -inf, and the row is never evaluated;
* sure, R >= gamma * (1 + 1e-9): every point is feasible, and only the
  objective is formed, with the evaluator's operations in its order, minus
  the radar term, the ``disc >= 0`` test, the clamp t >= 0 and the mask;
* edge, everything else: ``eval_candidates`` as it is, whose strict
  per-point comparison decides every point whose outcome is not proven.

At gamma = 0 exactly no margin is needed: the point-wise radar is a sum of
squares, so every row with resid >= 0 and R >= 2^-1022 / 1e-9 (the least R
a sure row has at any gamma > 0) is sure. Rows with resid < 0, the amp = 0
row (the analytic anchor) and rows where R is not a normal float are always
edge rows, and so is every row when 1e-9 * gamma is neither 0 nor a normal
float, a phase is not finite or ||a_t||^2 lies outside [1, 2^500] (it is
the element count M for every Scenario): there t = (...) / ||a_t||^2 could
overflow or underflow and the ulp bound would not hold. For objectives that
are never nan, as for every Scenario, the scan returns bitwise what
evaluating every row with ``eval_candidates`` would return.

Most sure rows are never evaluated either: each has a proven ceiling on its
objective, and a branch-and-bound pass (Land & Doig, 1960) evaluates only
the rows whose ceiling can hold the maximum. With g = |h^H a_t|, r = resid
and b = amp g cos(psi) (the evaluator's ``b_half``), t ||a_t||^2 =
sqrt(b^2 + r) - b, so t^2 ||a_t||^4 = r - 2 b t ||a_t||^2, and the objective
(amp ||h||^2 + t g cos psi)^2 + (t g sin psi)^2 of one row is

    f = amp^2 ||h||^4 + g^2 (P - amp^2 ||h||^2) / ||a_t||^2 + 2 kappa t b,

kappa = ||h||^2 - g^2 / ||a_t||^2 >= 0 (Cauchy-Schwarz: the energy of h
orthogonal to a_t). Only t b depends on the phase, and t b ||a_t||^2 =
b (sqrt(b^2 + r) - b) never decreases in b: its derivative is
(sqrt(b^2 + r) - b)^2 / sqrt(b^2 + r) >= 0. Float cos never exceeds 1, so
b <= b0 = amp g and the row's maximum is f at psi = 0,
F0 = (amp ||h||^2 + t0 g)^2 with t0 = r / (sqrt(b0^2 + r) + b0) / ||a_t||^2,
a form without cancellation. The ceiling is F = F0 (1 + 1e-9). It covers
the evaluator's rounding: on a sure row amp ||h||^2 + t g <= 4 sqrt(F0) at
every phase (g b0 / ||a_t||^2 <= amp ||h||^2, and g sqrt(r) / ||a_t||^2 is
at most amp ||h||^2 or 2.42 t0 g), so every intermediate is within a few
tens of ulps of F0; cos^2 + sin^2 = 1 holds to an ulp; and the guards of the
sure rows (R normal, ||a_t||^2 in [1, 2^500]) keep what underflow in t
costs t g below 2^-77 sqrt(F0). Where F < 2^-1022 / 1e-9, underflow in
the squares could exceed the margin, but only by a few multiples of
2^-1074, so every value of the row is still below 2^-1022 / 1e-9, and that
is its ceiling. Where the computed g / ||a_t|| exceeds ||h||, kappa is not
proven nonnegative and every row keeps F = inf; where it passes, the true
kappa is at least -6 ulps of ||h||^2, the channel is then collinear to
within rounding, and f varies with the phase by under 40 ulps of F0.
Collinear channels keep every row anyway: their f is P ||h||^2 on every
row, so no ceiling falls below the maximum.

The scan evaluates the edge rows first, then the sure row of largest F,
then, in row order, only the sure rows whose F is not below the best value
so far. A row left out has every value below that best, so it can neither
beat the maximum nor tie it, and the result is bitwise that of evaluating
every row.
"""

import math

import numpy as np

__all__ = ["eval_candidates", "falsifier_scan", "grid_scan"]

# grid points per block of whole rows: each of the evaluator's temporaries
# (128 KiB at most) stays in L2 cache and is reused from malloc's heap
_GRID_BLOCK_POINTS = 1 << 14
# falsifier trials per block, drawn into buffers allocated once per call:
# about 0.6 MiB whatever the trial count, and a 5,000-trial run is one block
_TRIAL_CHUNK = 8192
# relative margin by which a row's phase-free target power must clear the
# threshold before the whole row is settled without per-point tests; the
# point-wise float values are within a few tens of ulps of it
_ROW_MARGIN = 1e-9
_NORMAL_MIN = float(np.finfo(np.float64).tiny)
_FLOAT_MAX = float(np.finfo(np.float64).max)
# steering norms for which t = (...) / ||a_t||^2 neither overflows nor
# underflows by more than ulps of a normal R
_STEERING_NORM_SQ_RANGE = (1.0, 2.0**500)
# the least objective ceiling: below it the squares' underflow could exceed
# the ceiling's relative margin, but every value stays below it
_CEILING_FLOOR = _NORMAL_MIN / _ROW_MARGIN


def eval_candidates(
    amp,
    cos_psi,
    sin_psi,
    power: float,
    gamma: float,
    ch_norm_sq: float,
    st_norm_sq: float,
    cross_abs: float,
):
    """Objective and steering weight at broadcastable (amp, psi) coordinates.

    ``psi`` is the candidate phase minus the phase of h^H a_t (the steering
    weight t is pinned real nonnegative). Returns (objective, t), both of
    the broadcast shape, with the objective set to -inf wherever the point
    is infeasible; amp = 0 is always feasible (see the module doc).
    """
    amp = np.asarray(amp, dtype=np.float64)
    cos_psi = np.asarray(cos_psi, dtype=np.float64)
    sin_psi = np.asarray(sin_psi, dtype=np.float64)
    shape = np.broadcast(amp, cos_psi, sin_psi).shape
    # explicit buffers (not the operators' results) keep 0-d inputs arrays,
    # so that the in-place steps below also work on them
    amp_g = amp * cross_abs
    b_half = np.multiply(amp_g, cos_psi, out=np.empty(shape))
    disc = np.multiply(b_half, b_half, out=np.empty(shape))
    disc += st_norm_sq * (power - amp * amp * ch_norm_sq)  # resid >= 0 on the amp domain
    t = np.maximum(disc, 0.0, out=np.empty(shape))
    np.sqrt(t, out=t)
    t -= b_half
    t /= st_norm_sq
    np.maximum(t, 0.0, out=t)
    feasible = np.greater_equal(disc, 0.0, out=np.empty(shape, dtype=bool))
    radar = np.multiply(t, st_norm_sq, out=disc)
    radar += b_half
    radar *= radar
    side = np.multiply(amp_g, sin_psi, out=b_half)
    side *= side
    radar += side
    feasible &= radar >= gamma
    if not amp.all():  # some amp == 0
        np.copyto(feasible, True, where=amp == 0.0)
    t_cross = np.multiply(t, cross_abs, out=side)
    obj = np.multiply(t_cross, cos_psi, out=radar)
    obj += amp * ch_norm_sq
    obj *= obj
    t_cross *= sin_psi
    t_cross *= t_cross
    obj += t_cross
    obj[~feasible] = -np.inf
    return obj, t


def _sure_objective(amp, resid, cos_psi, sin_psi, ch_norm_sq, st_norm_sq, cross_abs):
    """``eval_candidates``'s objective on rows where every point is feasible.

    The same IEEE operations in the same order, without the radar term, the
    ``disc >= 0`` test, the clamp t >= 0 and the mask. ``resid`` is the
    rows' term ||a_t||^2 * (power - amp^2 ||h||^2), formed as the evaluator
    forms it and >= +0 on these rows, so disc >= +0 and the evaluator's
    first ``maximum(disc, 0)`` is the identity.
    """
    shape = np.broadcast(amp, cos_psi).shape
    amp_g = amp * cross_abs
    b_half = np.multiply(amp_g, cos_psi, out=np.empty(shape))
    t = np.multiply(b_half, b_half, out=np.empty(shape))
    t += resid
    np.sqrt(t, out=t)
    t -= b_half
    t /= st_norm_sq
    # no maximum(t, 0): resid >= +0 gives sqrt(fl(b^2 + resid)) >=
    # sqrt(fl(b * b)) = |b| (binary floating point) whenever b * b is
    # normal, so t >= +0. Only resid = 0 with b * b below the normal range
    # leaves t < 0, by less than 2^-537 / ||a_t||^2; there amp |h^H a_t| =
    # sqrt(R) >= 2^-496.05 (R >= 2^-1022 / 1e-9 on sure rows), so t moves
    # each square of the objective by under 2^-80 of its value, far below
    # half an ulp, and the objective keeps the evaluator's bits.
    t_cross = np.multiply(t, cross_abs, out=b_half)
    obj = np.multiply(t_cross, cos_psi, out=t)
    obj += amp * ch_norm_sq
    obj *= obj
    t_cross *= sin_psi
    t_cross *= t_cross
    obj += t_cross
    return obj


def _row_classes(amps, cos_psi, power, gamma, ch_norm_sq, st_norm_sq, cross_abs):
    """(sure, edge) row masks and the rows' ``resid`` term; see the module doc."""
    resid = st_norm_sq * (power - amps * amps * ch_norm_sq)
    amp_g = amps * cross_abs
    radar = amp_g * amp_g
    radar += resid  # R, the phase-free target power of each row
    lo, hi = _STEERING_NORM_SQ_RANGE
    if not (
        (gamma == 0.0 or _NORMAL_MIN <= _ROW_MARGIN * gamma <= _FLOAT_MAX)
        and lo <= st_norm_sq <= hi
        and np.isfinite(cos_psi).all()  # sin is not finite at the same phases
    ):
        return np.zeros(amps.shape, dtype=bool), np.ones(amps.shape, dtype=bool), resid
    # R normal (nan fails both comparisons), resid >= 0 and amp != 0
    provable = (radar >= _NORMAL_MIN) & (radar <= _FLOAT_MAX)
    provable &= resid >= 0.0
    provable &= amps != 0.0
    # at gamma = 0 the radar, a sum of squares, is never below gamma; the
    # sure rows still need R >= 2^-1022 / 1e-9, as every gamma > 0 that
    # passes the guard gives them (see _sure_objective)
    floor = gamma if gamma else _NORMAL_MIN / _ROW_MARGIN
    sure = provable & (radar >= floor * (1.0 + _ROW_MARGIN))
    skip = provable & (radar < gamma * (1.0 - _ROW_MARGIN))
    return sure, ~(sure | skip), resid


def _row_ceilings(amps, resid, ch_norm_sq, st_norm_sq, cross_abs):
    """Ceiling F of each sure row's objective over every phase; see the module doc.

    +inf on every row when the computed |h^H a_t| / ||a_t|| exceeds ||h||,
    where no ceiling is proven; never below ``_CEILING_FLOOR``.
    """
    if not (ch_norm_sq >= 0.0 and cross_abs / math.sqrt(st_norm_sq) <= math.sqrt(ch_norm_sq)):
        return np.full(amps.shape, np.inf)
    amp_g = amps * cross_abs
    with np.errstate(over="ignore"):
        ceiling = np.sqrt(amp_g * amp_g + resid)
        ceiling += amp_g
        np.divide(resid, ceiling, out=ceiling)
        ceiling /= st_norm_sq  # t0
        ceiling *= cross_abs
        ceiling += amps * ch_norm_sq
        ceiling *= ceiling
        ceiling *= 1.0 + _ROW_MARGIN
    return np.maximum(ceiling, _CEILING_FLOOR, out=ceiling)


def _row_blocks(rows, n_phase):
    """``rows`` split evenly into blocks of about ``_GRID_BLOCK_POINTS`` points."""
    per_block = max(1, _GRID_BLOCK_POINTS // n_phase)
    blocks = -(-rows.size // per_block)
    if not blocks:
        return []
    size = -(-rows.size // blocks)  # split evenly: the last block is no sliver
    return [rows[start : start + size] for start in range(0, rows.size, size)]


def grid_scan(
    amps,
    phases,
    cross_arg: float,
    power: float,
    gamma: float,
    ch_norm_sq: float,
    st_norm_sq: float,
    cross_abs: float,
    amp0_feasible: bool = True,
):
    """Best feasible grid point; returns (objective, amp index, phase index).

    (-inf, -1, -1) when no grid point is feasible. Rows proven infeasible
    are skipped, rows proven feasible get only their objective, and the rest
    go through ``eval_candidates`` (see the module doc). The edge rows are
    evaluated first, then the sure row with the largest objective ceiling,
    then only the sure rows whose ceiling is not below the best value so
    far. Each set is evaluated in blocks of whole amp rows, of about
    ``_GRID_BLOCK_POINTS`` points each. The first maximum in row-major order
    wins. The amp = 0 row is always feasible; ``amp0_feasible``, once its
    switch, is accepted only as True, as ``perfbench/run.py`` still passes it.
    """
    if amp0_feasible is not True:
        raise ValueError("the amp = 0 row is always feasible; amp0_feasible must be True")
    psi = phases - cross_arg
    cos_psi = np.cos(psi)[None, :]
    sin_psi = np.sin(psi)[None, :]
    n_phase = phases.size
    sure, edge, resid = _row_classes(
        amps, cos_psi, power, gamma, ch_norm_sq, st_norm_sq, cross_abs
    )
    best = -np.inf
    bi = bj = -1

    def scan(rows, is_sure):
        nonlocal best, bi, bj
        for block in _row_blocks(rows, n_phase):
            amp = amps[block, None]
            if is_sure:
                obj = _sure_objective(
                    amp, resid[block, None], cos_psi, sin_psi, ch_norm_sq, st_norm_sq, cross_abs
                )
            else:
                obj, _ = eval_candidates(
                    amp,
                    cos_psi,
                    sin_psi,
                    power,
                    gamma,
                    ch_norm_sq,
                    st_norm_sq,
                    cross_abs,
                )
            k = int(np.argmax(obj))
            val = float(obj.flat[k])
            i, j = int(block[k // n_phase]), k % n_phase
            # the row sets are not evaluated in row order: an equal value
            # wins only from an earlier point
            if val > best or (val == best and (i, j) < (bi, bj)):
                best, bi, bj = val, i, j

    scan(np.flatnonzero(edge), False)
    rows = np.flatnonzero(sure)
    if rows.size:
        ceiling = _row_ceilings(amps[rows], resid[rows], ch_norm_sq, st_norm_sq, cross_abs)
        top = int(np.argmax(ceiling))
        scan(rows[top : top + 1], True)
        # a row whose ceiling is below the best holds no value equal to it
        keep = ~(ceiling < best)
        keep[top] = False
        scan(rows[keep], True)
    return best, bi, bj


def _draws(seed: int, trials: int, channel, steering, power: float, chunk: int):
    """Yield power-scaled (objective, target power) arrays, ``chunk`` trials each.

    The arrays are views into buffers allocated once per call and reused: each
    pair is valid only until the next one is drawn.
    """
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
    rows = max(min(chunk, trials), 0)
    zbuf = np.empty((rows, 2 * rank))  # re, im of z = Q^H c, then their squares
    at_cbuf = np.empty(rows, dtype=np.complex128)
    norm_buf = np.empty(rows)
    # the product r22 * z2, then (as floats) the gamma, target-power and
    # objective terms
    scratch = np.empty(rows, dtype=np.complex128)
    lo, hi = np.split(scratch.view(np.float64), 2)
    scale = power * hh
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        zf = normals.standard_normal(out=zbuf[:n])
        z = zf.view(np.complex128)
        at_c = np.multiply(r12_conj, z[:, 0], out=at_cbuf[:n])
        if rank == 2:
            at_c += np.multiply(r22, z[:, 1], out=scratch[:n])
        zf *= zf
        sq = np.add(zf[:, 0::2], zf[:, 1::2], out=zf[:, 0::2])  # |z_k|^2
        norm_sq = norm_buf[:n]
        if rank == 2:
            np.add(sq[:, 0], sq[:, 1], out=norm_sq)
        else:
            np.copyto(norm_sq, sq[:, 0])
        if m > rank:
            extra = gammas.standard_gamma(m - rank, out=lo[:n])
            norm_sq += np.multiply(2.0, extra, out=extra)
        # exact power scaling: c * sqrt(power / ||c||^2)
        af = at_c.view(np.float64).reshape(n, 2)
        af *= af
        tgt = np.add(af[:, 0], af[:, 1], out=lo[:n])
        tgt /= norm_sq
        obj = np.divide(sq[:, 0], norm_sq, out=hi[:n])
        yield np.multiply(scale, obj, out=obj), np.multiply(power, tgt, out=tgt)


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
    at a time (default 8,192) into buffers reused from chunk to chunk: memory
    stays bounded whatever ``trials``, the result unchanged.
    """
    best, best_trial, feasible, start = -np.inf, -1, 0, 0
    chunk = _TRIAL_CHUNK if chunk is None else chunk
    ok_buf = np.empty(max(min(chunk, trials), 0), dtype=bool)
    for obj, tgt in _draws(seed, trials, channel, steering, power, chunk):
        ok = np.greater_equal(tgt, gamma, out=ok_buf[: obj.size])
        feasible += int(np.count_nonzero(ok))
        np.copyto(obj, -np.inf, where=np.logical_not(ok, out=ok))
        k = int(np.argmax(obj))
        if obj[k] > best:
            best, best_trial = float(obj[k]), start + k
        start += obj.size
    return best, best_trial, feasible

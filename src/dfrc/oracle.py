"""Independent numerical checks on the analytical beamformer.

Three oracles, none of which call into the closed-form solver:

* grid_search_oracle - exhaustive maximization over the two-dimensional
  subspace spanned by the channel and the target steering vector (first-order
  conditions confine the optimum to that span; the falsifier probes the full
  space separately), refined by a zooming window search around the best cell.
* kkt_check - Lagrange-dual certificate: weak duality's upper bound on the
  received power of any feasible beam, evaluated once at the multiplier the
  optimum implies; with zero duality gap the bound is the optimum itself.
* random_falsifier - seeded sampling of power-exact random beams from the
  exact full-space distribution via (h^H c, a_t^H c, ||c||^2); no feasible
  draw may ever beat the analytical optimum.
"""

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .closed_form import BeamformerSolution
from .model import MAX_COUNT, Scenario, _integer, _threshold

__all__ = [
    "FalsifierResult",
    "KktCertificate",
    "OracleSolution",
    "grid_search_oracle",
    "kkt_check",
    "random_falsifier",
]

DEFAULT_RESOLUTION = 2001
DEFAULT_REFINE_ITERS = 40
MIN_RESOLUTION = 64
# about 100 s of draws at 0.1 s per million
MAX_TRIALS = 10**9
# refinement window is _WINDOW x _WINDOW points; where the objective is
# unimodal along an axis, an interior maximum brackets the true one between
# its two neighbours, so that axis's half-width shrinks to one window
# spacing: a zoom of 2 / (_WINDOW - 1) = 1/8
_WINDOW = 17
_ZOOM = 2.0 / (_WINDOW - 1)
_RAMP = np.arange(_WINDOW, dtype=np.float64)
_RAMP.setflags(write=False)
# a window whose feasible values all lie within this relative distance of
# its maximum can no longer resolve the objective: 2^-46 is about 64 ulps,
# above the few tens of ulps of rounding in the evaluator's values
_RESOLVED = 2.0**-46


class OracleSolution(NamedTuple):
    """Best beam found by the subspace scan.

    ``amp_a`` and ``phase_diff`` are the magnitude and phase of the channel
    weight, ``amp_b`` the (real, nonnegative) steering weight recovered from
    the exact power budget at that point.
    """

    objective: float
    amp_a: float
    phase_diff: float
    amp_b: float


class KktCertificate(NamedTuple):
    """Lagrange-dual bound D on |h^H c|^2 over feasible beams, and its multiplier.

    ``dual_lambda`` is the target-power multiplier that attains D; it is None
    at the top of the feasible range, where D is only approached as lambda
    grows without bound.
    """

    dual_lambda: float | None
    bound: float


class FalsifierResult(NamedTuple):
    """Outcome of the random-beam search: -inf objective when nothing was feasible."""

    best_objective: float
    num_feasible: int
    num_trials: int
    best_trial: int


def _scan_params(scenario: Scenario, gamma: float):
    g = scenario.cross_gain
    return {
        "power": scenario.power_budget,
        "gamma": float(gamma),
        "ch_norm_sq": scenario.channel_norm_sq,
        "st_norm_sq": scenario.steering_norm_sq,
        "cross_abs": abs(g),
        "cross_arg": float(np.angle(g)) if g != 0 else 0.0,
    }


def _eval_window(amps, phases, params):
    psi = phases - params["cross_arg"]
    return kernels.eval_candidates(
        amps,
        np.cos(psi),
        np.sin(psi),
        params["power"],
        params["gamma"],
        params["ch_norm_sq"],
        params["st_norm_sq"],
        params["cross_abs"],
    )


def _window(lo: float, hi: float) -> np.ndarray:
    """``np.linspace(lo, hi, _WINDOW)``, bit for bit, without its overhead."""
    delta = hi - lo
    step = delta / (_WINDOW - 1)
    if step == 0:
        # numpy's branch for a step that underflows to zero
        y = _RAMP / (_WINDOW - 1)
        y *= delta
    else:
        y = _RAMP * step
    y += lo
    y[-1] = hi
    return y


def _refine(amp0, phase0, step_amp, step_phase, amp_max, params, iters):
    best_amp, best_phase = amp0, phase0
    obj, t = _eval_window(np.array([amp0]), np.array([phase0]), params)
    best_obj, best_t = float(obj[0]), float(t[0])
    previous = (best_amp, best_phase, best_obj, step_amp, step_phase)
    for _ in range(iters):
        amps = _window(best_amp - step_amp, best_amp + step_amp)
        # clip to [0, amp_max]; the window never holds -0.0 or nan, where
        # this and np.clip could differ
        np.maximum(amps, 0.0, out=amps)
        np.minimum(amps, amp_max, out=amps)
        phases = _window(best_phase - step_phase, best_phase + step_phase)
        obj, t = _eval_window(amps[:, None], phases[None, :], params)
        k = int(np.argmax(obj))
        i, j = divmod(k, _WINDOW)
        top = float(obj[i, j])
        if top > best_obj:
            best_obj = top
            best_t = float(t[i, j])
            best_amp = float(amps[i])
            best_phase = float(phases[j])
        # per axis: shrink the window to the bracket of its maximum when that
        # is interior, pan (keep the step, re-centred on the best point) when
        # it is on an edge; axes are independent so a flat direction cannot
        # stall the other one
        if 0 < i < _WINDOW - 1:
            step_amp *= _ZOOM
        if 0 < j < _WINDOW - 1:
            step_phase *= _ZOOM
        # an iteration that changed nothing is a fixed point: every later
        # one would evaluate the same window and change nothing either
        state = (best_amp, best_phase, best_obj, step_amp, step_phase)
        if state == previous:
            break
        previous = state
        # once the window's spread is rounding noise, later windows would
        # only chase it; a window with no feasible value (top = -inf) says
        # nothing and never stops the search
        if top > -math.inf:
            low = float(np.min(obj, initial=top, where=obj > -math.inf))
            if top - low <= _RESOLVED * abs(top):
                break
    return best_obj, best_amp, best_phase, best_t


def grid_search_oracle(
    scenario: Scenario, gamma: float, resolution=DEFAULT_RESOLUTION
) -> OracleSolution:
    """Maximize the received power by brute force over the 2-D subspace.

    The scan covers amp in [0, sqrt(power)/||h||] and phase in [0, 2*pi);
    the steering weight is eliminated through the exact power budget, so
    every candidate is power-exact and feasibility is a strict comparison.
    Every candidate of one amp row puts the same power on the target,
    R = (amp |h^H a_t|)^2 + ||a_t||^2 (power - amp^2 ||h||^2), whatever its
    phase, and the float value at each point is within a few tens of ulps
    of the float R. So the scan settles whole rows where R clears gamma by
    a relative 1e-9: rows below are skipped as infeasible, rows above get
    their objective without the per-point test, and the strict per-point
    comparison still decides every point of the rows in between, and of
    any row whose outcome is not proven (see ``kernels``).
    On one row, with g = |h^H a_t|, r = ||a_t||^2 (power - amp^2 ||h||^2)
    and b = amp g cos(psi), the objective is
    amp^2 ||h||^4 + g^2 (power - amp^2 ||h||^2) / ||a_t||^2 + 2 kappa t b,
    where kappa = ||h||^2 - g^2 / ||a_t||^2 >= 0 and t b ||a_t||^2 =
    b (sqrt(b^2 + r) - b), whose derivative in b is
    (sqrt(b^2 + r) - b)^2 / sqrt(b^2 + r) >= 0. So the row's maximum over
    every phase is its value at psi = 0, and that value times (1 + 1e-9) is
    a ceiling F that also covers the evaluator's rounding: amp ||h||^2 +
    t g <= 4 sqrt(F) at every phase, and the row guards keep underflow out. After the rows that need the per-point test
    and the row with the highest ceiling, only the rows whose ceiling is not
    below the best value so far are evaluated; collinear channels (kappa
    ~ 0) have the same ceiling on every row and keep them all. The result
    is bitwise that of testing every point.
    A zooming window search then polishes the best cell: on each axis where
    a window's maximum is interior, the next window spans just the bracket
    between that maximum's two neighbours (a zoom of 1/8); where it is on an
    edge, the window pans. The search stops at a fixed point,
    after ``DEFAULT_REFINE_ITERS`` windows, or after the first window whose
    feasible values all lie within 2^-46 (about 64 ulps) of that window's
    maximum, relative to it: that spread is the evaluator's rounding, so later
    windows could only chase it. A window with no feasible value never
    stops it. On the test corpora the windows so skipped would raise the
    objective by at most ~1e-15 relative (the tests bound it by 2^-40).
    ``resolution`` is the points per axis, one Python or numpy integer for
    both, from 64 to the most numpy can index; anything else, a float or a
    bool included, raises ValueError, and so does a negative ``gamma``; a
    ``gamma`` above the feasible maximum raises InfeasibleRadarRequirement.
    Every ``gamma`` accepted leaves the amp = 0 row, the pure steering beam
    that puts P M on the target, feasible, so the scan always finds a point.
    """
    gamma = _threshold(scenario, gamma)
    n = _integer(resolution, "resolution", MIN_RESOLUTION, MAX_COUNT)

    params = _scan_params(scenario, gamma)
    amp_max = math.sqrt(scenario.power_budget / scenario.channel_norm_sq)
    try:
        amps = np.linspace(0.0, amp_max, n)
        phases = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    except MemoryError as exc:  # numpy's message names neither the setting nor its value
        raise MemoryError(f"resolution {n} is too large: {exc}") from exc

    best, bi, bj = kernels.grid_scan(
        amps,
        phases,
        params["cross_arg"],
        params["power"],
        params["gamma"],
        params["ch_norm_sq"],
        params["st_norm_sq"],
        params["cross_abs"],
    )
    best, best_amp, best_phase, best_t = _refine(
        float(amps[bi]),
        float(phases[bj]),
        amp_max / (n - 1),
        2.0 * math.pi / n,
        amp_max,
        params,
        DEFAULT_REFINE_ITERS,
    )
    return OracleSolution(objective=best, amp_a=best_amp, phase_diff=best_phase, amp_b=best_t)


def _dual_witness(rho: float, g: float, w: float) -> float:
    """x* = -F'(g), the minimizer of d (see kkt_check) when 0 <= rho < g and w > 0."""
    root_rho, root_free = math.sqrt(rho), math.sqrt(1.0 - rho)
    scale = math.sqrt(g) * root_rho + math.sqrt(w) * root_free
    # clamped at 0 against rounding near g = rho; exactly 1 at rho = 0
    return max(scale * root_free / math.sqrt(w) - scale * root_rho / math.sqrt(g), 0.0)


def kkt_check(
    solution: BeamformerSolution, scenario: Scenario, gamma: float
) -> KktCertificate:
    """Lagrange-dual certificate for the problem at ``gamma``.

    For every lambda >= 0, D(lambda) = power lambda_max(h h^H + lambda a_t
    a_t^H) - lambda gamma bounds |h^H c|^2 over every beam with ||c||^2 =
    power and |a_t^H c|^2 >= gamma (weak duality). A QCQP with two
    constraints has a rank-one SDP optimum, so min D is the optimum itself
    and any beam short of it is not optimal. In units of power ||h||^2, with
    x = lambda ||a_t||^2 / ||h||^2, rho = |h^H a_t|^2 / (||h||^2 ||a_t||^2),
    g = gamma / (power ||a_t||^2) and w = 1 - g (formed from the slack
    power ||a_t||^2 - gamma, so it keeps its digits near the top), D is
    d(x) = x w + (1 - x) / 2 + s with s = sqrt(((1 - x) / 2)^2 + x rho), a
    convex, scale-free function; for x > 1 its last two terms are formed as
    x rho / (s + (x - 1) / 2), so no term cancels. It is evaluated once, at
    a witness x: 0 when g <= rho (d'(0) = rho - g), and otherwise the
    multiplier that the optimum F(g) = (sqrt(g rho) + sqrt(w (1 - rho)))^2
    implies by the envelope theorem, x* = -F'(g). When w <= 0 (the top of
    the feasible range) d decreases towards rho and no finite multiplier
    exists. By weak duality d(x) bounds the optimum at every x >= 0, so a
    wrong witness can only raise D: a correct beam would then fail
    ``dual_gap``, a visible false alarm, and a wrong beam can never pass.
    ||h||^2 and |h^H a_t| are formed from the vectors; ||a_t||^2 is the
    scenario's M, so the top of the range is where ``model._threshold`` puts it.
    ``solution`` is only checked for shape: the certificate depends on the
    problem, and the caller compares the candidate's |h^H c|^2 with it.
    ``gamma`` is checked as :func:`grid_search_oracle` checks it.
    """
    h = scenario.channel
    c_shape = np.shape(solution.vector_c)
    if c_shape != h.shape:
        raise ValueError(f"candidate beam must have shape {h.shape}, got {c_shape}")
    hh = float(np.vdot(h, h).real)
    aa = scenario.steering_norm_sq
    cross = abs(complex(np.vdot(h, scenario.target_steering)))
    rho = (cross / (math.sqrt(hh) * math.sqrt(aa))) ** 2
    top = scenario.power_budget * aa
    gamma = _threshold(scenario, gamma)
    g, w = gamma / top, (top - gamma) / top
    if g <= rho:
        x, d = 0.0, 1.0
    elif w <= 0.0:
        x, d = None, rho
    else:
        x = _dual_witness(rho, g, w)
        s = math.sqrt((0.5 - 0.5 * x) ** 2 + x * rho)
        d = x * w + (0.5 - 0.5 * x + s if x <= 1.0 else x * rho / (s + 0.5 * x - 0.5))
    return KktCertificate(
        dual_lambda=None if x is None else x * hh / aa,
        bound=scenario.power_budget * hh * d,
    )


def random_falsifier(
    scenario: Scenario, gamma: float, trials: int, seed: int = 0
) -> FalsifierResult:
    """Search the full beam space at random for anything beating the optimum.

    Draws ``trials`` isotropic complex Gaussian beams scaled exactly onto the
    power budget, discards those below the target-power threshold, and
    returns the best surviving received power. Each beam is drawn from the
    exact full-space distribution via (h^H c, a_t^H c, ||c||^2), so the cost
    does not depend on the array size. Deterministic in ``seed``.
    ``trials`` and ``seed`` must be Python or numpy integers: a float or a
    bool raises ValueError instead of being truncated, and so does a
    ``trials`` outside [1, ``MAX_TRIALS``] (10^9), before any draw.
    ``gamma`` is checked as :func:`grid_search_oracle` checks it.
    """
    gamma = _threshold(scenario, gamma)
    trials = _integer(trials, "trials", 1, MAX_TRIALS)
    best, best_trial, feasible = kernels.falsifier_scan(
        _integer(seed, "seed", -math.inf, math.inf),
        trials,
        scenario.channel,
        scenario.target_steering,
        scenario.power_budget,
        gamma,
    )
    return FalsifierResult(
        best_objective=float(best),
        num_feasible=int(feasible),
        num_trials=trials,
        best_trial=int(best_trial),
    )

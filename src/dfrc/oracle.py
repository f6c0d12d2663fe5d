"""Independent numerical checks on the analytical beamformer.

Three oracles, none of which call into the closed-form solver:

* grid_search_oracle - exhaustive maximization over the two-dimensional
  subspace spanned by the channel and the target steering vector (first-order
  conditions confine the optimum to that span; the falsifier probes the full
  space separately), with optional zooming refinement around the best cell.
* kkt_check - executable first-order optimality certificate for a candidate
  beam: stationarity, primal feasibility, dual sign, complementary slackness.
* random_falsifier - seeded sampling of power-exact random beams from the
  exact full-space distribution via (h^H c, a_t^H c, ||c||^2); no feasible
  draw may ever beat the analytical optimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .closed_form import BeamformerSolution
from .model import InfeasibleRadarRequirement, Scenario, _flag, _integer

__all__ = [
    "FalsifierResult",
    "KktCertificate",
    "OracleResolutionError",
    "OracleSolution",
    "grid_search_oracle",
    "kkt_check",
    "random_falsifier",
]

DEFAULT_RESOLUTION = (2001, 2001)
DEFAULT_REFINE_ITERS = 40
_MIN_RESOLUTION = 64
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


class OracleResolutionError(RuntimeError):
    """Grid too coarse to locate any feasible candidate."""


@dataclass(frozen=True)
class OracleSolution:
    """Best beam found by the subspace scan.

    ``amp_a`` and ``phase_diff`` are the magnitude and phase of the channel
    weight, ``amp_b`` the (real, nonnegative) steering weight recovered from
    the exact power budget at that point.
    """

    objective: float
    amp_a: float
    phase_diff: float
    amp_b: float
    grid_resolution: tuple[int, int]
    refined: bool


@dataclass(frozen=True)
class KktCertificate:
    """First-order optimality residuals and multipliers for a candidate beam.

    ``failures`` measures each residual against its natural size: the
    stationarity residual against ``stationarity_scale``, lambda against
    ``dual_scale``, the power residual against the power, and the target
    power terms against gamma and |a_t^H c|^2. The problem is homogeneous,
    and under h -> s h or (power, gamma) -> t (power, gamma) each residual
    and its size change by the same factor, so the bounds hold whatever the
    channel scale and the power budget.
    """

    stationarity_residual: float
    power_residual: float
    snr_slack: float
    dual_lambda: float
    dual_mu: float
    comp_slackness_residual: float
    # ||h|| |h^H c|: the size of the objective's term in the stationarity vector
    stationarity_scale: float
    # ||h||^2 / ||a_t||^2: the unit of lambda (the ratio of the two curvatures)
    dual_scale: float

    def failures(self, power: float, gamma: float) -> list[str]:
        """Names of the certificate conditions violated at the standard bounds."""
        out = []
        if not self.stationarity_residual <= 1e-8 * self.stationarity_scale:
            out.append("stationarity")
        if not abs(self.power_residual) <= 1e-9 * power:
            out.append("power")
        if not self.snr_slack <= 1e-9 * gamma:
            out.append("snr_feasibility")
        if not self.dual_lambda >= -1e-12 * self.dual_scale:
            out.append("dual_sign")
        # lambda * (gamma - |a_t^H c|^2) against the size of its two terms
        target_power = gamma - self.snr_slack
        scale = abs(self.dual_lambda) * max(gamma, target_power)
        if not abs(self.comp_slackness_residual) <= 1e-8 * scale:
            out.append("complementary_slackness")
        return out


@dataclass(frozen=True)
class FalsifierResult:
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
        # the pure steering beam is the only candidate at amp = 0; it meets
        # the threshold exactly at the top of the feasible range, so anchor
        # its feasibility analytically instead of trusting float dust
        "amp0_feasible": float(gamma) <= scenario.max_target_power * (1.0 + 1e-12),
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
        params["amp0_feasible"],
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


def _resolution(resolution) -> tuple[int, int]:
    """``resolution`` as (amp points, phase points): one integer for both
    axes or a tuple or list of two, each a Python or numpy integer."""
    pair = resolution if isinstance(resolution, (tuple, list)) else (resolution, resolution)
    if len(pair) != 2:
        raise ValueError(f"resolution must be an integer or a pair of integers, got {resolution!r}")
    n_amp, n_phase = (_integer(n, "resolution") for n in pair)
    if min(n_amp, n_phase) < _MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {_MIN_RESOLUTION} per axis")
    return n_amp, n_phase


def grid_search_oracle(
    scenario: Scenario,
    gamma: float,
    resolution=DEFAULT_RESOLUTION,
    refine: bool = True,
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
    With ``refine`` a zooming window search polishes the best cell: on each
    axis where a window's maximum is interior, the next window spans just
    the bracket between that maximum's two neighbours (a zoom of 1/8); where
    it is on an edge, the window pans. The search stops at a fixed point,
    after ``DEFAULT_REFINE_ITERS`` windows, or after the first window whose
    feasible values all lie within 2^-46 (about 64 ulps) of that window's
    maximum, relative to it: that spread is the evaluator's rounding, so later
    windows could only chase it. A window with no feasible value never
    stops it. On the test corpora the windows so skipped would raise the
    objective by at most ~1e-15 relative (the tests bound it by 2^-40).
    ``resolution`` is one Python or numpy integer for both axes, or a tuple
    or list of two; a float, a bool or anything else raises ValueError, as
    does a ``refine`` that is not a Python or numpy bool.
    """
    refine = _flag(refine, "refine")
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    gamma_max = scenario.max_target_power
    if gamma > gamma_max * (1.0 + 1e-12):
        raise InfeasibleRadarRequirement(gamma, gamma_max)
    n_amp, n_phase = _resolution(resolution)

    params = _scan_params(scenario, gamma)
    amp_max = math.sqrt(scenario.power_budget / scenario.channel_norm_sq)
    amps = np.linspace(0.0, amp_max, n_amp)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)

    best, bi, bj = kernels.grid_scan(
        amps,
        phases,
        params["cross_arg"],
        params["power"],
        params["gamma"],
        params["ch_norm_sq"],
        params["st_norm_sq"],
        params["cross_abs"],
        params["amp0_feasible"],
    )
    if bi < 0:
        raise OracleResolutionError(
            f"no feasible point on a {n_amp}x{n_phase} grid at threshold {gamma:g}; "
            "increase the resolution"
        )

    step_amp = amp_max / (n_amp - 1)
    step_phase = 2.0 * math.pi / n_phase
    if refine:
        best, best_amp, best_phase, best_t = _refine(
            float(amps[bi]),
            float(phases[bj]),
            step_amp,
            step_phase,
            amp_max,
            params,
            DEFAULT_REFINE_ITERS,
        )
    else:
        obj, t = _eval_window(np.array([amps[bi]]), np.array([phases[bj]]), params)
        best, best_amp, best_phase, best_t = (
            float(obj[0]),
            float(amps[bi]),
            float(phases[bj]),
            float(t[0]),
        )
    return OracleSolution(
        objective=best,
        amp_a=best_amp,
        phase_diff=best_phase,
        amp_b=best_t,
        grid_resolution=(n_amp, n_phase),
        refined=refine,
    )


def kkt_check(
    solution: BeamformerSolution, scenario: Scenario, gamma: float
) -> KktCertificate:
    """First-order optimality certificate for a candidate rank-one beam.

    The stationarity vector is -(h^H c) h - lambda (a_t^H c) a_t + mu c;
    projecting it onto h and a_t gives four real equations, linear in the
    two real multipliers, solved in least squares (the pseudo-inverse keeps
    the degenerate collinear and orthogonal geometries well defined). When
    the target-power constraint is strictly slack, lambda is pinned to zero
    first and only mu is fit. The residual reported is the norm of the
    stationarity vector at those multipliers.

    The projection onto h grows as ||h||^3 and the one onto a_t as ||h||^2,
    so for a channel norm far from 1 the system overflows, underflows, or
    its rows differ so much in size that the least-squares cutoff drops the
    projection onto h. Such a system is solved with h scaled by the power of
    two that brings ||h|| near 1, and the results are scaled back (exactly:
    the scaling is a power of two). Channels with ||h||^2 in [2^-21, 2^20)
    are solved as given.
    """
    gamma = float(gamma)
    c = np.asarray(solution.vector_c, dtype=np.complex128)
    hh = scenario.channel_norm_sq
    exponent = math.frexp(hh)[1]
    shift = 0 if abs(exponent) <= 20 else -(exponent // 2)
    unit = math.ldexp(1.0, shift)  # h is solved for as unit * h
    h = scenario.channel * unit
    at = scenario.target_steering
    if c.shape != h.shape:
        raise ValueError(f"candidate beam must have shape {h.shape}, got {c.shape}")
    hc = complex(np.vdot(h, c))
    ac = complex(np.vdot(at, c))
    g = scenario.cross_gain * unit
    hh_unit = hh * unit * unit
    target_power = abs(ac) ** 2

    # unknowns x = (lambda, mu); rows are projections onto h, then a_t
    coeff = np.array(
        [
            [-ac * g, hc],
            [-ac * scenario.steering_norm_sq, ac],
        ],
        dtype=np.complex128,
    )
    rhs = np.array([hc * hh_unit, hc * np.conj(g)], dtype=np.complex128)
    coeff_r = np.vstack([coeff.real, coeff.imag])
    rhs_r = np.concatenate([rhs.real, rhs.imag])
    if target_power > gamma * (1.0 + 1e-9):
        # strictly slack constraint: complementary slackness pins lambda to
        # zero (the min-norm least-squares answer would not, when the
        # channel and steering directions are degenerate; at gamma = 0 with
        # h orthogonal to a_t its column is rounding noise)
        lam = 0.0
        col = coeff_r[:, 1]
        mu = float(col @ rhs_r / (col @ col))
    else:
        duals, *_ = np.linalg.lstsq(coeff_r, rhs_r, rcond=None)
        lam, mu = float(duals[0]), float(duals[1])

    stat = -hc * h - lam * ac * at + mu * c
    # undo the scaling: the multipliers and the stationarity vector carry
    # two factors of h
    back = math.ldexp(1.0, -2 * shift)
    lam, mu = lam * back, mu * back
    power_actual = float(np.vdot(c, c).real)
    snr_slack = gamma - target_power
    return KktCertificate(
        stationarity_residual=float(np.linalg.norm(stat)) * back,
        power_residual=power_actual - scenario.power_budget,
        snr_slack=snr_slack,
        dual_lambda=lam,
        dual_mu=mu,
        comp_slackness_residual=lam * snr_slack,
        stationarity_scale=math.sqrt(hh) * (abs(hc) / unit),
        dual_scale=hh / scenario.steering_norm_sq,
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
    bool raises ValueError instead of being truncated.
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    best, best_trial, feasible = kernels.falsifier_scan(
        _integer(seed, "seed"),
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

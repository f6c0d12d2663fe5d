"""Independent numerical checks on the analytical beamformer.

Three oracles, none of which call into the closed-form solver:

* grid_search_oracle - exhaustive maximization over the two-dimensional
  subspace spanned by the channel and the target steering vector (first-order
  conditions confine the optimum to that span; the falsifier probes the full
  space separately), with optional zooming refinement around the best cell.
* kkt_check - executable first-order optimality certificate for a candidate
  beam: stationarity, primal feasibility, dual sign, complementary slackness.
* random_falsifier - seeded full-space sampling of power-exact random beams;
  no feasible draw may ever beat the analytical optimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .closed_form import BeamformerSolution
from .model import InfeasibleRadarRequirement, Scenario

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
_WINDOW = 9  # refinement window is _WINDOW x _WINDOW points


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
    """First-order optimality residuals and multipliers for a candidate beam."""

    stationarity_residual: float
    power_residual: float
    snr_slack: float
    dual_lambda: float
    dual_mu: float
    comp_slackness_residual: float

    def failures(self, power: float, gamma: float) -> list[str]:
        """Names of the certificate conditions violated at the standard bounds."""
        out = []
        if not self.stationarity_residual <= 1e-8 * math.sqrt(power):
            out.append("stationarity")
        if not abs(self.power_residual) <= 1e-9 * power:
            out.append("power")
        if not self.snr_slack <= 1e-9 * gamma + 1e-12:
            out.append("snr_feasibility")
        if not self.dual_lambda >= -1e-12:
            out.append("dual_sign")
        if not abs(self.comp_slackness_residual) <= 1e-8:
            out.append("complementary_slackness")
        return out

    def within_bounds(self, power: float, gamma: float) -> bool:
        return not self.failures(power, gamma)


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
    cos_psi = np.cos(phases - params["cross_arg"])
    sin_psi = np.sin(phases - params["cross_arg"])
    return kernels.eval_candidates(
        amps,
        cos_psi,
        sin_psi,
        params["power"],
        params["gamma"],
        params["ch_norm_sq"],
        params["st_norm_sq"],
        params["cross_abs"],
        params["amp0_feasible"],
    )


def _refine(amp0, phase0, step_amp, step_phase, amp_max, params, iters):
    best_amp, best_phase = amp0, phase0
    obj, t = _eval_window(np.array([amp0]), np.array([phase0]), params)
    best_obj, best_t = float(obj[0]), float(t[0])
    previous = (best_amp, best_phase, best_obj, step_amp, step_phase)
    for _ in range(iters):
        amps = np.clip(
            np.linspace(best_amp - step_amp, best_amp + step_amp, _WINDOW), 0.0, amp_max
        )
        phases = np.linspace(best_phase - step_phase, best_phase + step_phase, _WINDOW)
        obj, t = _eval_window(amps[:, None], phases[None, :], params)
        k = int(np.argmax(obj))
        i, j = divmod(k, _WINDOW)
        if float(obj[i, j]) > best_obj:
            best_obj = float(obj[i, j])
            best_t = float(t[i, j])
            best_amp = float(amps[i])
            best_phase = float(phases[j])
        # per axis: bisect the window when its maximum is interior, pan
        # (keep the step, re-centred on the best point) when it is on an
        # edge; axes are independent so a flat direction cannot stall the
        # other one
        if 0 < i < _WINDOW - 1:
            step_amp *= 0.5
        if 0 < j < _WINDOW - 1:
            step_phase *= 0.5
        # an iteration that changed nothing is a fixed point: every later
        # one would evaluate the same window and change nothing either
        state = (best_amp, best_phase, best_obj, step_amp, step_phase)
        if state == previous:
            break
        previous = state
    return best_obj, best_amp, best_phase, best_t


def grid_search_oracle(
    scenario: Scenario,
    gamma: float,
    resolution=DEFAULT_RESOLUTION,
    refine: bool = True,
    refine_iters: int = DEFAULT_REFINE_ITERS,
) -> OracleSolution:
    """Maximize the received power by brute force over the 2-D subspace.

    The scan covers amp in [0, sqrt(power)/||h||] and phase in [0, 2*pi);
    the steering weight is eliminated through the exact power budget, so
    every candidate is power-exact and feasibility is a strict comparison.
    With ``refine`` a zooming window search polishes the best cell
    (halving the window when the maximum is interior, panning otherwise),
    which reaches ~1e-9 relative accuracy from modest grids.
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    gamma_max = scenario.max_target_power
    if gamma > gamma_max * (1.0 + 1e-12):
        raise InfeasibleRadarRequirement(gamma, gamma_max)
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    n_amp, n_phase = int(resolution[0]), int(resolution[1])
    if min(n_amp, n_phase) < _MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {_MIN_RESOLUTION} per axis")

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
            float(amps[bi]), float(phases[bj]), step_amp, step_phase, amp_max, params, refine_iters
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
        refined=bool(refine),
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
    """
    gamma = float(gamma)
    c = np.asarray(solution.vector_c, dtype=np.complex128)
    h = scenario.channel
    at = scenario.target_steering
    if c.shape != h.shape:
        raise ValueError(f"candidate beam must have shape {h.shape}, got {c.shape}")
    hc = complex(np.vdot(h, c))
    ac = complex(np.vdot(at, c))
    g = scenario.cross_gain
    target_power = abs(ac) ** 2

    # unknowns x = (lambda, mu); rows are projections onto h, then a_t
    coeff = np.array(
        [
            [-ac * g, hc],
            [-ac * scenario.steering_norm_sq, ac],
        ],
        dtype=np.complex128,
    )
    rhs = np.array([hc * scenario.channel_norm_sq, hc * np.conj(g)], dtype=np.complex128)
    coeff_r = np.vstack([coeff.real, coeff.imag])
    rhs_r = np.concatenate([rhs.real, rhs.imag])
    if target_power > gamma * (1.0 + 1e-9) + 1e-12:
        # strictly slack constraint: complementary slackness pins lambda to
        # zero (the min-norm least-squares answer would not, when the
        # channel and steering directions are degenerate)
        lam = 0.0
        col = coeff_r[:, 1]
        mu = float(col @ rhs_r / (col @ col))
    else:
        duals, *_ = np.linalg.lstsq(coeff_r, rhs_r, rcond=None)
        lam, mu = float(duals[0]), float(duals[1])

    stat = -hc * h - lam * ac * at + mu * c
    power_actual = float(np.vdot(c, c).real)
    snr_slack = gamma - target_power
    return KktCertificate(
        stationarity_residual=float(np.linalg.norm(stat)),
        power_residual=power_actual - scenario.power_budget,
        snr_slack=snr_slack,
        dual_lambda=lam,
        dual_mu=mu,
        comp_slackness_residual=lam * snr_slack,
    )


def random_falsifier(
    scenario: Scenario, gamma: float, trials: int, seed: int = 0
) -> FalsifierResult:
    """Search the full beam space at random for anything beating the optimum.

    Draws ``trials`` isotropic complex Gaussian beams scaled exactly onto the
    power budget, discards those below the target-power threshold, and
    returns the best surviving received power. Deterministic in ``seed``.
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    best, best_trial, feasible = kernels.falsifier_scan(
        int(seed),
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

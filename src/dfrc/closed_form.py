"""Analytical solution of the radar-constrained downlink capacity problem.

Maximize log2(1 + h^H R h) over transmit covariances R with tr(R) equal to
the power budget and target-direction power a_t^H R a_t at least gamma. The
optimum is rank one, R = c c^H with c a combination of the channel h and the
target steering vector a_t; everything below is closed form in the three
scalars ||h||^2, ||a_t||^2 and h^H a_t.

:func:`solve_closed_form` returns a :class:`BeamformerSolution`: the regime,
the weights on h and a_t, the beam c itself and the capacity. Everything
else is a scalar function of c, so no M x M matrix is formed;
:func:`assemble_covariance` builds c c^H for a caller that wants it.
"""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import InfeasibleRadarRequirement, Scenario

__all__ = [
    "BeamformerSolution",
    "CaseTag",
    "assemble_covariance",
    "capacity_closed_form",
    "classify_case",
    "optimal_received_power",
    "solve_closed_form",
]

# relative tolerance for the case-boundary and collinearity tests
BOUNDARY_RTOL = 1e-12


class CaseTag(enum.Enum):
    """Operating regime of the radar power constraint."""

    BELOW_THRESHOLD = "below_threshold"  # matched beam already satisfies it
    ACTIVE = "active"  # binds: power is split between the two directions
    INFEASIBLE = "infeasible"  # beyond the power budget


@dataclass(frozen=True)
class BeamformerSolution:
    """Optimal rank-one transmit beam and its bookkeeping.

    ``vector_c`` is the beamforming vector, ``coeff_a``/``coeff_b`` the
    complex weights on the channel and the target steering vector in
    ``c = coeff_a * h + coeff_b * a_t``. ``eta`` and ``beta`` are the
    intermediate magnitude and discriminant of the constrained case; both are
    None when the constraint is slack or the channel is (numerically)
    parallel to the steering vector.

    Every reported quantity is a scalar function of ``vector_c``: its power
    is ||c||^2, the target power |a_t^H c|^2 and the received power
    |h^H c|^2. The covariance c c^H is never formed here;
    :func:`assemble_covariance` builds it for a caller that needs the matrix.
    """

    case: CaseTag
    coeff_a: complex
    coeff_b: complex
    vector_c: np.ndarray
    capacity_bits: float
    eta: float | None = None
    beta: float | None = None


def classify_case(scenario: Scenario, gamma: float) -> CaseTag:
    """Which regime a target-power threshold ``gamma`` falls in.

    Boundary points (within 1e-12 relative) are assigned to ACTIVE, where
    the constrained formulas reduce continuously to the neighbours.
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    g_free = scenario.free_target_power
    g_max = scenario.max_target_power
    if gamma > g_max * (1.0 + BOUNDARY_RTOL):
        return CaseTag.INFEASIBLE
    if gamma < g_free * (1.0 - BOUNDARY_RTOL):
        return CaseTag.BELOW_THRESHOLD
    return CaseTag.ACTIVE


def assemble_covariance(vector_c: np.ndarray) -> np.ndarray:
    """Rank-one covariance c c^H of a beamforming vector."""
    c = np.asarray(vector_c, dtype=np.complex128)
    if c.ndim != 1:
        raise ValueError(f"beamforming vector must be 1-D, got shape {c.shape}")
    r = np.outer(c, c.conj())
    r.setflags(write=False)
    return r


def _case_and_received_power(scenario: Scenario, gamma: float):
    """Regime at ``gamma``, the optimal h^H R h there, and the discriminant.

    The discriminant is None below the threshold; otherwise it is the
    triple (slack, denom, beta): slack = P M - gamma, denom = ||h||^2 M -
    |h^H a_t|^2 and beta = slack * denom, each clamped at zero to absorb
    float dust at the upper boundary and at collinearity.
    """
    tag = classify_case(scenario, gamma)
    if tag is CaseTag.INFEASIBLE:
        raise InfeasibleRadarRequirement(gamma, scenario.max_target_power)
    hh = scenario.channel_norm_sq
    power = scenario.power_budget
    if tag is CaseTag.BELOW_THRESHOLD:
        return tag, power * hh, None
    aa = scenario.steering_norm_sq
    gabs = abs(scenario.cross_gain)
    slack = max(power * aa - gamma, 0.0)
    denom = max(hh * aa - gabs * gabs, 0.0)
    beta = slack * denom
    root = math.sqrt(gamma) * gabs + math.sqrt(beta)
    return tag, root * root / (aa * aa), (slack, denom, beta)


def optimal_received_power(scenario: Scenario, gamma: float) -> float:
    """Optimal value of h^H R h at threshold ``gamma`` (capacity = log2(1+this)).

    Raises InfeasibleRadarRequirement when gamma exceeds the feasible maximum.
    """
    return _case_and_received_power(scenario, gamma)[1]


def capacity_closed_form(scenario: Scenario, gamma: float) -> float:
    """Maximum spectral efficiency in bits at target-power threshold ``gamma``."""
    return math.log2(1.0 + optimal_received_power(scenario, gamma))


def solve_closed_form(scenario: Scenario, gamma: float) -> BeamformerSolution:
    """Optimal beamforming vector and capacity at ``gamma``.

    The returned vector satisfies the power budget exactly and meets the
    threshold exactly when the constraint binds. Phases are pinned: coeff_b
    is real nonnegative and coeff_a carries the phase of h^H a_t (zero when
    that inner product is exactly zero), making the output deterministic.
    Only the vector c is formed, never the M x M covariance c c^H.
    """
    tag, received, discriminant = _case_and_received_power(scenario, gamma)
    hh = scenario.channel_norm_sq
    aa = scenario.steering_norm_sq
    eta = beta = None

    # below the threshold, or with the channel numerically parallel to the
    # steering vector, the matched beam already meets the constraint
    if discriminant is None or discriminant[1] <= BOUNDARY_RTOL * hh * aa:
        a = complex(math.sqrt(scenario.power_budget / hh))
        b = complex(0.0)
    else:
        slack, denom, beta = discriminant
        eta = math.sqrt(slack / denom)
        g = scenario.cross_gain
        # nonnegative by construction; the clamp absorbs dust at the lower
        # case boundary where |b| -> 0
        b_mag = max(math.sqrt(gamma) / aa - abs(g) * eta / aa, 0.0)
        phase = cmath.phase(g) if g != 0 else 0.0
        a = eta * cmath.exp(1j * phase)
        b = complex(b_mag)

    c = a * scenario.channel + b * scenario.target_steering
    c.setflags(write=False)
    return BeamformerSolution(
        case=tag,
        coeff_a=a,
        coeff_b=b,
        vector_c=c,
        capacity_bits=math.log2(1.0 + received),
        eta=eta,
        beta=beta,
    )

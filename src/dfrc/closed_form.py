"""Analytical solution of the radar-constrained downlink capacity problem.

Maximize log2(1 + h^H R h) over transmit covariances R with tr(R) equal to
the power budget and target-direction power a_t^H R a_t at least gamma. The
optimum is rank one, R = c c^H with c a combination of the channel h and the
target steering vector a_t; everything below is closed form in the three
scalars ||h||^2, ||a_t||^2 and h^H a_t.

:func:`solve_closed_form` returns a :class:`BeamformerSolution`: the regime,
the weights on h and a_t, the beam c itself and the capacity. Everything
else is a scalar function of c (:func:`beam_powers` forms its powers), so
no M x M matrix is formed; :func:`assemble_covariance` builds c c^H for a
caller that wants it.

The scalars that depend only on the scenario (the case bound, P M,
M^2, the clamped ||h||^2 M - |h^H a_t|^2, P ||h||^2 and its capacity, the
matched weight and the phase of h^H a_t) are formed once per scenario and
kept on it. The single calls here and the sweeps read them, so the case
test, the optimum and the beam weights each exist once, and a sweep pays
per threshold only for what depends on the threshold.
"""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import BOUNDARY_RTOL, Scenario, _threshold

__all__ = [
    "BeamformerSolution",
    "CaseTag",
    "assemble_covariance",
    "beam_powers",
    "optimal_received_power",
    "solve_closed_form",
]


class CaseTag(enum.Enum):
    """Operating regime of the radar power constraint."""

    BELOW_THRESHOLD = "below_threshold"  # matched beam already satisfies it
    ACTIVE = "active"  # binds: power is split between the two directions


# the members under module names: on Python 3.11 each CaseTag.<member>
# lookup costs about 0.1 us, and each tradeoff point made several
_BELOW, _ACTIVE = CaseTag.BELOW_THRESHOLD, CaseTag.ACTIVE


@dataclass(frozen=True)
class BeamformerSolution:
    """Optimal rank-one transmit beam and its bookkeeping.

    ``vector_c`` is the beamforming vector, ``coeff_a``/``coeff_b`` the
    complex weights on the channel and the target steering vector in
    ``c = coeff_a * h + coeff_b * a_t``.

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


class _Constants:
    """The closed form's per-scenario scalars.

    Formed on first use and kept on the scenario (see :func:`_constants`),
    so a sweep forms them once, not once per threshold. Every function
    below reads them from here, so there is one case test and one
    received-power formula. Each value keeps the operands, and the order,
    of the expression it replaces, so every result keeps its bits.
    """

    __slots__ = (
        "aa", "gabs", "gamma_max", "free_bound", "aa_sq", "denom",
        "free_received", "free_capacity", "collinear", "matched", "rotation",
    )

    def __init__(self, scenario: Scenario):
        power = scenario.power_budget
        hh = scenario.channel_norm_sq
        aa = scenario.steering_norm_sq
        g = scenario.cross_gain
        gabs = abs(g)
        self.aa = aa  # ||a_t||^2 = M
        self.gabs = gabs  # |h^H a_t|
        self.gamma_max = scenario.max_target_power  # P M
        # the case bound: BELOW_THRESHOLD under it; a threshold on the
        # boundary, within BOUNDARY_RTOL, is ACTIVE, where the constrained
        # formulas reduce continuously to the neighbours
        self.free_bound = scenario.free_target_power * (1.0 - BOUNDARY_RTOL)
        self.aa_sq = aa * aa
        # ||h||^2 M - |h^H a_t|^2, clamped at zero to absorb float dust at
        # collinearity
        self.denom = max(hh * aa - gabs * gabs, 0.0)
        # the optimum below the threshold, P ||h||^2, and its capacity
        self.free_received = power * hh
        self.free_capacity = math.log2(1.0 + self.free_received)
        # with the channel numerically parallel to the steering vector, the
        # matched beam meets any feasible constraint
        self.collinear = self.denom <= BOUNDARY_RTOL * hh * aa
        self.matched = complex(math.sqrt(power / hh))  # the matched beam's weight on h
        # coeff_a carries the phase of h^H a_t, zero when it is exactly zero
        self.rotation = cmath.exp(1j * (cmath.phase(g) if g != 0 else 0.0))


def _constants(scenario: Scenario) -> _Constants:
    """The scenario's closed-form constants, formed on the first call.

    They are kept in the scenario's one cache slot: a scenario is immutable,
    so they never go stale.
    """
    k = scenario._closed_form
    if k is None:
        k = _Constants(scenario)
        object.__setattr__(scenario, "_closed_form", k)
    return k


def assemble_covariance(vector_c: np.ndarray) -> np.ndarray:
    """Rank-one covariance c c^H of a beamforming vector."""
    c = np.asarray(vector_c, dtype=np.complex128)
    if c.ndim != 1:
        raise ValueError(f"beamforming vector must be 1-D, got shape {c.shape}")
    r = np.outer(c, c.conj())
    r.setflags(write=False)
    return r


def _optimum(k: _Constants, gamma: float):
    """(case, optimal h^H R h, capacity in bits, slack) at ``gamma``.

    ``gamma`` is a float on the feasible range, checked where it entered
    the library (``model._threshold``) or, in a sweep, made from a checked
    loss. The slack P M - gamma is None below the threshold; otherwise it
    and ``k.denom`` = ||h||^2 M - |h^H a_t|^2, whose product beta is the
    discriminant, are each clamped at zero to absorb float dust at the upper
    boundary and at collinearity.
    """
    if gamma < k.free_bound:
        return _BELOW, k.free_received, k.free_capacity, None
    slack = k.gamma_max - gamma
    if slack < 0.0:  # max(slack, 0.0), without a builtin call per point
        slack = 0.0
    beta = slack * k.denom
    root = math.sqrt(gamma) * k.gabs + math.sqrt(beta)
    received = root * root / k.aa_sq
    return _ACTIVE, received, math.log2(1.0 + received), slack


def _beam(k: _Constants, gamma):
    """(case, capacity, coeff_a, coeff_b) of the optimal beam at ``gamma``.

    Below the threshold, or with the channel numerically parallel to the
    steering vector, the matched beam already meets the constraint.
    """
    tag, _, capacity, slack = _optimum(k, gamma)
    if slack is None or k.collinear:
        return tag, capacity, k.matched, 0j
    eta = math.sqrt(slack / k.denom)
    # nonnegative by construction; the clamp absorbs dust at the lower case
    # boundary where |b| -> 0
    b_mag = max(math.sqrt(gamma) / k.aa - k.gabs * eta / k.aa, 0.0)
    return tag, capacity, eta * k.rotation, complex(b_mag)


def optimal_received_power(scenario: Scenario, gamma: float) -> float:
    """Optimal value of h^H R h at threshold ``gamma`` (capacity = log2(1+this)).

    Raises ValueError when gamma is negative, and InfeasibleRadarRequirement
    when it exceeds the feasible maximum P M by more than 1e-12 relative.
    """
    return _optimum(_constants(scenario), _threshold(scenario, gamma))[1]


def solve_closed_form(scenario: Scenario, gamma: float) -> BeamformerSolution:
    """Optimal beamforming vector and capacity at ``gamma``.

    The returned vector satisfies the power budget exactly and meets the
    threshold exactly when the constraint binds. Phases are pinned: coeff_b
    is real nonnegative and coeff_a carries the phase of h^H a_t (zero when
    that inner product is exactly zero), making the output deterministic.
    Only the vector c is formed, never the M x M covariance c c^H. Raises
    as :func:`optimal_received_power` does.
    """
    tag, capacity, a, b = _beam(_constants(scenario), _threshold(scenario, gamma))
    c = a * scenario.channel + b * scenario.target_steering
    c.setflags(write=False)
    return BeamformerSolution(case=tag, coeff_a=a, coeff_b=b, vector_c=c, capacity_bits=capacity)


def beam_powers(scenario: Scenario, c: np.ndarray) -> tuple[float, float, float]:
    """(||c||^2, |a_t^H c|^2, |h^H c|^2): the beam's power, target and received powers."""
    at_c = np.vdot(scenario.target_steering, c)
    h_c = np.vdot(scenario.channel, c)
    return (
        float(np.sum(c * c.conj()).real),
        float(at_c.real * at_c.real + at_c.imag * at_c.imag),
        float(h_c.real * h_c.real + h_c.imag * h_c.imag),
    )

"""Problem-instance construction for a single-user, single-target MIMO DFRC link.

Uniform linear array geometry, steering vectors, line-of-sight channels, and
the algebra relating the three equivalent radar-requirement parametrizations
(linear SNR threshold, SNR loss in dB, received power at the target). Noise
power is normalized to 1 throughout, so transmit power and channel gains are
dimensionless linear quantities.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayGeometry",
    "InfeasibleRadarRequirement",
    "RadarSnrSpec",
    "Scenario",
    "resolve_radar_spec",
    "steering_vector",
]

_HALF_PI = math.pi / 2.0
# the most elements numpy can index along one axis
MAX_COUNT = int(np.iinfo(np.intp).max)
# relative tolerance for the closed form's case-boundary and collinearity
# tests, and for the top of the feasible range: P M is formed from the float
# M, not from the float steering vector's exact ||a_t||^2, which may differ
# from it by a few ulps
BOUNDARY_RTOL = 1e-12


class InfeasibleRadarRequirement(ValueError):
    """Requested target power exceeds what the power budget can deliver."""

    def __init__(self, gamma: float, gamma_max: float):
        super().__init__(
            f"radar target-power threshold {gamma:g} exceeds the feasible "
            f"maximum {gamma_max:g} (power budget times full array gain)"
        )
        self.gamma = gamma
        self.gamma_max = gamma_max


def _check_angle(angle: float, label: str) -> float:
    angle = float(angle)
    if not -_HALF_PI <= angle <= _HALF_PI:
        raise ValueError(f"{label} must lie in [-pi/2, pi/2] rad, got {angle!r}")
    return angle


def _integer(value, label: str, low, high) -> int:
    """``value`` as an int in [``low``, ``high``]: Python and numpy integers only, never a bool."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise ValueError(f"{label} must be an integer, got {value!r}")
    if n < low:
        raise ValueError(f"{label} must be at least {low}, got {n!r}")
    if n > high:
        raise ValueError(f"{label} must be at most {high}")
    return n


def _nonnegative(value, label: str) -> float:
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{label} must be nonnegative, got {value!r}")
    return value


def _threshold(scenario: "Scenario", gamma) -> float:
    """``gamma`` as a float in [0, P M (1 + ``BOUNDARY_RTOL``)], checked once.

    Made where a threshold enters the library; the sweeps' per-point functions take it as given.
    """
    gamma = _nonnegative(gamma, "gamma")
    if gamma > scenario.max_target_power * (1.0 + BOUNDARY_RTOL):
        raise InfeasibleRadarRequirement(gamma, scenario.max_target_power)
    return gamma


def _positive_finite(value, label: str) -> float:
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{label} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    num_antennas: int
    spacing_over_wavelength: float

    def __post_init__(self):
        n = _integer(self.num_antennas, "num_antennas", 1, MAX_COUNT)
        object.__setattr__(self, "num_antennas", n)
        d = _positive_finite(self.spacing_over_wavelength, "spacing_over_wavelength")
        object.__setattr__(self, "spacing_over_wavelength", d)


def steering_vector(geometry: ArrayGeometry, angle: float) -> np.ndarray:
    """Array response of the ULA toward ``angle`` (radians off broadside).

    Entry m is exp(-2j*pi*m*(d/lambda)*sin(angle)); entry 0 is 1 and the
    squared norm equals the element count.
    """
    angle = _check_angle(angle, "angle")
    n = geometry.num_antennas
    try:
        m = np.arange(n)
        v = np.exp(-2j * math.pi * geometry.spacing_over_wavelength * math.sin(angle) * m)
    except MemoryError as exc:  # numpy's message names neither the setting nor its value
        raise MemoryError(f"num_antennas {n} is too large: {exc}") from exc
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance with its derived quantities cached.

    Attributes
    ----------
    geometry : ArrayGeometry
    target_angle : float
        Radar target direction in radians, in [-pi/2, pi/2].
    channel : ndarray of complex
        Downlink channel vector, one entry per antenna, nonzero.
    power_budget : float
        Total transmit power (trace bound on the covariance), > 0.
    target_amplitude : float
        Target reflection amplitude (its square scales the radar SNR), > 0.
    """

    geometry: ArrayGeometry
    target_angle: float
    channel: np.ndarray
    power_budget: float
    target_amplitude: float = 1.0

    # cached at construction
    target_steering: np.ndarray = field(init=False, repr=False, compare=False)
    channel_norm_sq: float = field(init=False, repr=False, compare=False)
    steering_norm_sq: float = field(init=False, repr=False, compare=False)
    cross_gain: complex = field(init=False, repr=False, compare=False)
    # the closed form's per-scenario constants, formed on first use there
    _closed_form: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.geometry, ArrayGeometry):
            raise TypeError("geometry must be an ArrayGeometry")
        object.__setattr__(
            self, "target_angle", _check_angle(self.target_angle, "target_angle")
        )
        m = self.geometry.num_antennas
        ch = np.array(self.channel, dtype=np.complex128)
        if ch.shape != (m,):
            raise ValueError(
                f"channel must have shape ({m},) to match the array, got {ch.shape}"
            )
        if not np.all(np.isfinite(ch.real)) or not np.all(np.isfinite(ch.imag)):
            raise ValueError("channel entries must be finite")
        hh = float(np.vdot(ch, ch).real)
        # the entries are finite, so inf or nan (inf - inf inside the complex
        # dot product) can only come from overflow
        if not math.isfinite(hh):
            raise ValueError(
                "channel norm overflows float64 (squared norm is not finite); "
                "rescale the channel"
            )
        if not hh > 0.0:
            if np.any(ch != 0):
                raise ValueError(
                    "channel norm underflows float64 (squared norm is 0 but "
                    "some entries are nonzero); rescale the channel"
                )
            raise ValueError("channel must be nonzero")
        p = _positive_finite(self.power_budget, "power_budget")
        amp = _positive_finite(self.target_amplitude, "target_amplitude")
        ch.setflags(write=False)
        at = steering_vector(self.geometry, self.target_angle)
        object.__setattr__(self, "channel", ch)
        object.__setattr__(self, "power_budget", p)
        object.__setattr__(self, "target_amplitude", amp)
        object.__setattr__(self, "target_steering", at)
        object.__setattr__(self, "channel_norm_sq", hh)
        # unit-modulus entries, so the norm is exact
        object.__setattr__(self, "steering_norm_sq", float(m))
        cross = complex(np.vdot(ch, at))
        # |h^H a_t| <= ||h|| sqrt(M) is finite, but its square can overflow
        if not math.isfinite(abs(cross) * abs(cross)):
            raise ValueError(
                "channel/steering cross gain |h^H a_t|^2 overflows float64; "
                "rescale the channel"
            )
        object.__setattr__(self, "cross_gain", cross)
        # each factor is finite, but a product or ratio with the power budget
        # can overflow: a product would surface later as an infinite capacity,
        # power / ||h||^2 (the matched beam's squared weight) as an inf beam
        for label, value in (
            ("power * ||h||^2", p * hh),
            ("power / ||h||^2", p / hh),
            ("power * M", p * m),
            ("free target power", self.free_target_power),
        ):
            if not math.isfinite(value):
                raise ValueError(
                    f"{label} overflows float64; rescale the channel or the power"
                )

    @classmethod
    def with_los_user(
        cls,
        geometry: ArrayGeometry,
        target_angle: float,
        user_angle: float,
        power_budget: float,
        target_amplitude: float = 1.0,
    ) -> "Scenario":
        """Scenario whose channel is the line-of-sight response at ``user_angle``."""
        return cls(
            geometry,
            target_angle,
            steering_vector(geometry, _check_angle(user_angle, "user_angle")),
            power_budget,
            target_amplitude,
        )

    @property
    def max_target_power(self) -> float:
        """Largest power any covariance within the budget can put on the target."""
        return self.power_budget * self.steering_norm_sq

    @property
    def free_target_power(self) -> float:
        """Power the unconstrained capacity-optimal (matched) beam puts on the target."""
        return self.power_budget * abs(self.cross_gain) ** 2 / self.channel_norm_sq


@dataclass(frozen=True)
class RadarSnrSpec:
    """Radar requirement in three equivalent forms; supply exactly one.

    ``snr_threshold`` is the required radar output SNR (linear),
    ``snr_loss_db`` the allowed SNR loss relative to the full-gain maximum
    (<= 0 on input), and ``gamma`` the received power at the target (linear,
    >= 0). :func:`resolve_radar_spec` fills in the other two.
    """

    snr_threshold: float | None = None
    snr_loss_db: float | None = None
    gamma: float | None = None

    def supplied_fields(self) -> list[str]:
        names = ("snr_threshold", "snr_loss_db", "gamma")
        return [n for n in names if getattr(self, n) is not None]


def _gamma_at_loss(gamma_cap: float, loss_db: float) -> float:
    """Target power ``loss_db`` (<= 0) below the full-gain maximum ``gamma_cap``."""
    return gamma_cap * 10.0 ** (loss_db / 10.0)


def resolve_radar_spec(spec: RadarSnrSpec, scenario: Scenario) -> RadarSnrSpec:
    """Fill in all three radar-requirement forms from whichever one is supplied.

    The radar SNR at the matched filter output is
    target_amplitude^2 * M * gamma (noise power 1), and its maximum over the
    budget is attained by steering everything at the target. ``snr_loss_db``
    is the ratio of the two in dB: always <= 0 for a feasible requirement,
    though a ``gamma`` or ``snr_threshold`` input beyond the feasible maximum
    resolves to a positive loss (the solver rejects it later).

    Round trips between the three forms agree to ~1e-15 relative.
    """
    given = spec.supplied_fields()
    if len(given) != 1:
        raise ValueError(
            "exactly one of snr_threshold, snr_loss_db, gamma must be supplied, "
            f"got {given or 'none'}"
        )
    # alpha0^2 ||a_r||^2: gain from target power to matched-filter output SNR
    gain = scenario.target_amplitude**2 * scenario.steering_norm_sq
    gamma_cap = scenario.max_target_power
    snr_max = gain * gamma_cap

    if spec.gamma is not None:
        gamma = _nonnegative(spec.gamma, "gamma")
        snr0 = gain * gamma
        loss = -math.inf if gamma == 0.0 else 10.0 * math.log10(gamma / gamma_cap)
        return RadarSnrSpec(snr_threshold=snr0, snr_loss_db=loss, gamma=gamma)

    if spec.snr_threshold is not None:
        snr0 = _nonnegative(spec.snr_threshold, "snr_threshold")
        gamma = snr0 / gain
        loss = -math.inf if snr0 == 0.0 else 10.0 * math.log10(snr0 / snr_max)
        return RadarSnrSpec(snr_threshold=snr0, snr_loss_db=loss, gamma=gamma)

    loss = float(spec.snr_loss_db)
    if math.isnan(loss) or loss > 0.0:
        raise ValueError(f"snr_loss_db must be <= 0, got {loss!r}")
    gamma = _gamma_at_loss(gamma_cap, loss)
    return RadarSnrSpec(snr_threshold=gain * gamma, snr_loss_db=loss, gamma=gamma)

"""Problem-instance construction for a single-user, single-target MIMO DFRC link.

Uniform linear array geometry, steering vectors, line-of-sight channels, and
the algebra relating the three equivalent radar-requirement parametrizations
(linear SNR threshold, SNR loss in dB, received power at the target). Noise
power is normalized to 1 throughout, so transmit power and channel gains are
dimensionless linear quantities.
"""

import math
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
        n = self.num_antennas
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"num_antennas must be a positive integer, got {n!r}")
        object.__setattr__(self, "num_antennas", int(n))
        d = _positive_finite(self.spacing_over_wavelength, "spacing_over_wavelength")
        object.__setattr__(self, "spacing_over_wavelength", d)


def steering_vector(geometry: ArrayGeometry, angle: float) -> np.ndarray:
    """Array response of the ULA toward ``angle`` (radians off broadside).

    Entry m is exp(-2j*pi*m*(d/lambda)*sin(angle)); entry 0 is 1 and the
    squared norm equals the element count.
    """
    angle = _check_angle(angle, "angle")
    m = np.arange(geometry.num_antennas)
    v = np.exp(-2j * math.pi * geometry.spacing_over_wavelength * math.sin(angle) * m)
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
        object.__setattr__(self, "cross_gain", complex(np.vdot(ch, at)))

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
        gamma = float(spec.gamma)
        if not gamma >= 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
        snr0 = gain * gamma
        loss = -math.inf if gamma == 0.0 else 10.0 * math.log10(gamma / gamma_cap)
        return RadarSnrSpec(snr_threshold=snr0, snr_loss_db=loss, gamma=gamma)

    if spec.snr_threshold is not None:
        snr0 = float(spec.snr_threshold)
        if not snr0 >= 0.0:
            raise ValueError(f"snr_threshold must be nonnegative, got {snr0!r}")
        gamma = snr0 / gain
        loss = -math.inf if snr0 == 0.0 else 10.0 * math.log10(snr0 / snr_max)
        return RadarSnrSpec(snr_threshold=snr0, snr_loss_db=loss, gamma=gamma)

    loss = float(spec.snr_loss_db)
    if math.isnan(loss) or loss > 0.0:
        raise ValueError(f"snr_loss_db must be <= 0, got {loss!r}")
    gamma = gamma_cap * 10.0 ** (loss / 10.0)
    return RadarSnrSpec(snr_threshold=gain * gamma, snr_loss_db=loss, gamma=gamma)

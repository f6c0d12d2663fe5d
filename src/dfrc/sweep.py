"""Tradeoff sweeps over the allowed radar SNR loss, and CSV emission.

A sweep walks an ascending grid of SNR-loss values (dB, all <= 0), converts
each to a target-power threshold, solves the closed form, and records the
capacity and operating regime. Beam-pattern sweeps tabulate the transmit
power versus direction for a handful of loss values; the optimum is rank
one, so each pattern comes from two steering projections, made a block of
angles at a time. Both sweeps resolve each loss to its target power with
the same expression as ``resolve_radar_spec``, and so the same bits, and
both read the closed form's per-scenario constants, formed once per
scenario: per point there is only the case test and the optimum at that
threshold, from the same functions the single calls use.
CSV output is deterministic: fixed header, 17-significant-digit floats, '.'
decimal separator, LF line endings. Both writers format their rows to text
themselves and hand it to ``emit_csv``, the one function that writes a CSV
file: the tradeoff writer all its rows in one ``%`` operation, the
beam-pattern writer all the rows of one pattern in one ``%`` operation
that converts only the powers. The rest of each of its rows, the loss, the
angle and the commas, is a template made once per (loss, grid) from the
grid's angle column, itself formatted once, and reused. Every number field
takes its ``%`` conversion from one table of field types. No field is ever
quoted: every field is a number, except the tradeoff file's fixed
``CaseTag`` value, which holds no comma, quote or line break.
"""

import functools
import math
import os
import stat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .closed_form import CaseTag, _beam, _constants, _optimum
from .metrics import BeamPattern, _pattern_angles, _steering_projections
from .model import Scenario, _gamma_at_loss

__all__ = [
    "DEFAULT_BEAMPATTERN_LOSSES_DB",
    "TradeoffPoint",
    "beampattern_sweep",
    "default_loss_grid_db",
    "emit_csv",
    "tradeoff_sweep",
    "write_beampattern_csv",
    "write_tradeoff_csv",
]

TRADEOFF_HEADER = ("snr_loss_db", "gamma", "capacity_bits", "case")
BEAMPATTERN_HEADER = ("snr_loss_db", "angle_deg", "power")

# no loss, then progressively looser radar requirements
DEFAULT_BEAMPATTERN_LOSSES_DB = (-20.0, -10.0, -5.0, 0.0)


class TradeoffPoint(NamedTuple):
    """One point of the capacity versus radar-SNR-loss tradeoff."""

    snr_loss_db: float
    gamma: float
    capacity_bits: float
    case: CaseTag


def default_loss_grid_db() -> np.ndarray:
    """-40 dB to 0 dB in 0.25 dB steps."""
    return np.linspace(-40.0, 0.0, 161)


def _check_loss_grid(losses) -> np.ndarray:
    grid = np.asarray(losses, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("loss grid must be a nonempty 1-D array")
    if np.any(np.isnan(grid)) or np.any(grid > 0.0):
        raise ValueError("loss grid entries must be <= 0 dB")
    # neighbours compared directly: the difference of two -inf is NaN
    if not np.all(grid[1:] > grid[:-1]):
        raise ValueError("loss grid must be strictly ascending")
    return grid


def tradeoff_sweep(scenario: Scenario, losses_db=None) -> list[TradeoffPoint]:
    """Capacity and regime at each allowed SNR loss (ascending, <= 0 dB)."""
    grid = default_loss_grid_db() if losses_db is None else _check_loss_grid(losses_db)
    k = _constants(scenario)
    gamma_cap = k.gamma_max
    points = []
    # scalar math per point: a vectorized version rounds differently in the
    # last bit (numpy's power and log2 are not libm's), changing CSV bytes;
    # the grid is checked, so each gamma is resolve_radar_spec's
    for loss in grid.tolist():
        gamma = _gamma_at_loss(gamma_cap, loss)
        case, _, capacity, _ = _optimum(k, gamma)
        points.append(TradeoffPoint(loss, gamma, capacity, case))
    return points


def beampattern_sweep(scenario: Scenario, losses_db=None, angle_grid=None):
    """Beam pattern of the optimal covariance at each SNR loss.

    Returns a list of (snr_loss_db, BeamPattern) pairs over the default
    0.25-degree grid unless ``angle_grid`` (radians) is given. The optimum is
    rank one, c = coeff_a * h + coeff_b * a_t, so each pattern is
    |coeff_a * a^H h + coeff_b * a^H a_t|^2 from two projections made once
    per call, a block of angles at a time; no covariance is formed, and the
    field is formed in real products and sums, in a fixed order.
    """
    if losses_db is None:
        losses_db = DEFAULT_BEAMPATTERN_LOSSES_DB
    losses = _check_loss_grid(losses_db).tolist()
    angles = _pattern_angles(angle_grid)
    (hr, tr), (hi, ti) = _steering_projections(
        scenario.geometry, angles, scenario.channel, scenario.target_steering
    )
    k = _constants(scenario)
    # the grid is checked, so each gamma is resolve_radar_spec's
    coeffs = np.array([_beam(k, _gamma_at_loss(k.gamma_max, loss))[2:] for loss in losses])
    (ar, br), (ai, bi) = coeffs.real.T[..., None], coeffs.imag.T[..., None]
    real = (ar * hr - ai * hi) + (br * tr - bi * ti)
    imag = (ar * hi + ai * hr) + (br * ti + bi * tr)
    power = real * real + imag * imag
    power.setflags(write=False)
    return [(loss, BeamPattern(angles=angles, power=p)) for loss, p in zip(losses, power)]


# the % conversion of each number field type, with the comma that ends the
# field: keyed on the exact type, so that bool (an int subclass) is
# rejected. An int is written as str writes it, and '%.17g' % x is the same
# PyOS_double_to_string call as format(x, '.17g')
_FIELD_FORMATS = {float: "%.17g,", int: "%s,"}


def _number_fields(values):
    """The ``%`` conversion of each number field, and the values to format.

    A numpy scalar is written as the Python value it holds; np.bool_ holds a
    bool and is rejected with every type not in the table.
    """
    formats = list(map(_FIELD_FORMATS.get, map(type, values)))
    if None in formats:
        natives = [v.item() if isinstance(v, np.generic) else v for v in values]
        formats = list(map(_FIELD_FORMATS.get, map(type, natives)))
        if None in formats:
            raise TypeError(f"unsupported CSV field type: {values[formats.index(None)]!r}")
        values = natives
    return formats, values


def _overwrite(path, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``, writing over any old bytes in place.

    ``open(path, "w")`` truncates on open, and on some filesystems (ext4
    with online discard) truncating a non-empty file to zero stalls for tens
    of milliseconds; writing over the old bytes and cutting off only the
    tail left over costs microseconds. The file keeps its inode, so its
    permissions and hard links too. Only a regular file is cut: ftruncate
    fails on a pipe or a terminal, which ``--out /dev/stdout`` may name.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def emit_csv(lines, header, destination) -> Path:
    """Write the ``header`` names, then ``lines``; returns the path.

    ``lines`` yields text already formatted, each item one row with its
    fields joined by commas or several such rows joined by LF, with no LF
    at its end; the writers pass generators, so their formatting runs here.
    Every line, the last included, ends in LF regardless of platform; the
    ASCII text is written at once over any old bytes, and only after every
    line is formatted. I/O errors are re-raised with the path.
    """
    path = Path(destination)
    text = "\n".join([",".join(header), *lines, ""])
    try:
        _overwrite(path, text.encode("ascii"))
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


def _tradeoff_lines(points):
    """All rows as one item, LF-joined, with no final LF; no item for no points."""
    points = list(points)
    if not points:
        return
    formats, numbers = _number_fields(
        [v for p in points for v in (p.snr_loss_db, p.gamma, p.capacity_bits)]
    )
    # four fields a row, the case value last: it goes in as a %s field, so
    # a '%' in it would never be read as a conversion
    template = [None] * (4 * len(points))
    fields = [None] * (4 * len(points))
    for column in range(3):
        template[column::4] = formats[column::3]
        fields[column::4] = numbers[column::3]
    template[3::4] = ["%s\n"] * len(points)
    # _value_ is what the value property returns, without its descriptor
    # call per row
    fields[3::4] = [p.case._value_ for p in points]
    yield ("".join(template) % tuple(fields))[:-1]


def write_tradeoff_csv(points, destination) -> Path:
    """Emit tradeoff points with columns snr_loss_db,gamma,capacity_bits,case."""
    return emit_csv(_tradeoff_lines(points), TRADEOFF_HEADER, destination)


@functools.lru_cache(maxsize=2)
def _degree_column(angles: bytes) -> tuple:
    """The angle_deg field of each of the float64 ``angles`` (radians)."""
    return tuple(format(math.degrees(a), ".17g") for a in np.frombuffer(angles).tolist())


@functools.lru_cache(maxsize=4)
def _pattern_template(prefix: str, angles: bytes) -> str:
    """The rows of one pattern with a ``%.17g`` in place of each power.

    ``prefix`` is the formatted loss field with its comma, and ``angles``
    the float64 angle bytes. Four entries, one per default loss, so a
    design that writes the default patterns of one grid again and again
    formats only the powers. Neither the prefix nor a degree string is a
    ``%`` conversion: both are formatted numbers, which hold no '%'.
    """
    return prefix + (",%.17g\n" + prefix).join(_degree_column(angles)) + ",%.17g"


def _beampattern_lines(patterns):
    """One item per non-empty pattern: its rows, LF-joined, with no final LF."""
    for loss, pattern in patterns:
        if pattern.angles.ndim != 1 or pattern.angles.dtype.kind not in "biuf":
            raise TypeError(
                f"pattern angles must be a 1-D real array, got {pattern.angles.dtype}"
                f" of shape {pattern.angles.shape}"
            )
        if pattern.power.dtype.kind != "f":
            raise TypeError(f"pattern power must be floats, got {pattern.power.dtype}")
        n = len(pattern.angles)
        if len(pattern.power) != n:
            raise ValueError(
                f"pattern has {n} angles but {len(pattern.power)} power values"
            )
        (loss_format,), (loss,) = _number_fields([loss])
        if not n:
            continue
        # keyed on the float64 values, which are the ones math.degrees
        # would read from the Python numbers the array holds; one %
        # operation per pattern, which converts only the powers
        angles = pattern.angles.astype(np.float64, copy=False).tobytes()
        yield _pattern_template(loss_format % loss, angles) % tuple(pattern.power.tolist())


def write_beampattern_csv(patterns, destination) -> Path:
    """Emit (loss, pattern) pairs in long form: snr_loss_db,angle_deg,power."""
    return emit_csv(_beampattern_lines(patterns), BEAMPATTERN_HEADER, destination)

"""Transmit beam patterns on a uniform linear array.

:func:`beam_pattern` evaluates a(phi)^H R a(phi) over a grid of directions
for any Hermitian PSD covariance R, not just the rank-one optimum. The
steering projections behind it are shared with the beam-pattern sweep,
which projects h and a_t once instead of forming c c^H.

Entry m of a(phi) is e^{-j m theta}, theta = 2 pi d sin phi. It is built in
real float64 products and sums from the factors e^{-j 2^k theta} for
k < ceil(log2 M): rows [w, 2w) are rows [0, w) times the factor of w. Only
these, numpy's cos and sin and sums in a fixed order enter, so the bits do
not depend on numpy's SIMD level. One cache, ``_grid``, keeps per (array,
grid) the index from each angle to its |phi|, the factors and, when the
grid's rows fit one projection block (M = 8 and M = 64 on the default
grid), the rows themselves, read-only. Larger grids, M = 512 among them,
are streamed a block at a time, which keeps about 3 MB of rows out of every
process that draws one pattern.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ArrayGeometry

__all__ = ["BeamPattern", "beam_pattern", "default_angle_grid"]

# 0.25 degree steps over [-90, 90]
DEFAULT_PATTERN_POINTS = 721

# tiny negative quadratic-form values are rounding dust; anything larger
# means the matrix is not PSD
_PSD_ATOL = 1e-9

_HALF_PI_TOL = math.pi / 2.0 + 1e-12

# about this many steering entries per projection block (32 or 33 angles at
# M = 512), so that the whole N x M steering matrix is never formed
_PROJECTION_BLOCK_ENTRIES = 16384

# Veltkamp's splitter for float64, 2^27 + 1, and the rounding error of the
# float 2 pi, 2 pi - fl(2 pi)
_SPLIT = 134217729.0
_TWO_PI_LO = 2.4492935982947064e-16


@dataclass(frozen=True)
class BeamPattern:
    """Transmit power versus direction: angles in radians, power >= 0."""

    angles: np.ndarray
    power: np.ndarray


def default_angle_grid() -> np.ndarray:
    """Angles for beam-pattern evaluation: [-90, 90] degrees in 0.25 deg steps."""
    return np.deg2rad(np.linspace(-90.0, 90.0, DEFAULT_PATTERN_POINTS))


def _pattern_angles(angle_grid=None) -> np.ndarray:
    """Validated angles (radians) as a new read-only array: the default grid when None."""
    angles = default_angle_grid() if angle_grid is None else np.array(angle_grid, np.float64)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angle_grid must be a nonempty 1-D array")
    if np.any(np.isnan(angles)) or angles.min() < -_HALF_PI_TOL or angles.max() > _HALF_PI_TOL:
        raise ValueError("angle_grid entries must lie in [-pi/2, pi/2] rad")
    angles.setflags(write=False)
    return angles


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971), barring overflow."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    t = _SPLIT * b
    b_hi = t - (t - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _phase_factors(geometry: ArrayGeometry, magnitudes: np.ndarray) -> np.ndarray:
    """cos(2^k theta) and -sin(2^k theta) at each magnitude, k < ceil(log2 M): (2, K, n).

    theta = 2 pi d sin|phi| is carried as hi + lo: 2 pi d = c + c_lo, and
    c sin|phi| = hi + e exactly. 2^k hi is exact, and the factors are
    corrected to first order in 2^k lo, whose square is below (pi M eps)^2.
    """
    d = geometry.spacing_over_wavelength
    c, c_err = _two_product(2.0 * math.pi, d)
    sin = np.sin(magnitudes)
    hi, lo = _two_product(c, sin)
    lo = lo + (c_err + _TWO_PI_LO * d) * sin
    powers = np.ldexp(1.0, np.arange((geometry.num_antennas - 1).bit_length()))[:, None]
    x, dx = powers * hi, powers * lo
    cos, sin = np.cos(x), np.sin(x)
    return np.stack([cos - sin * dx, -(sin + cos * dx)])


def _steering_rows(factors: np.ndarray, m: int) -> np.ndarray:
    """re and im of entries 0..M-1 at the angles of ``factors``, (2, M, n): rows [w, 2w)
    are rows [0, w) times factor k, w = 2^k, as re c - im s and im c + re s."""
    n = factors.shape[-1]
    rows = np.empty((2, m, n))
    scratch = np.empty((2, m // 2, n))
    rows[0, 0], rows[1, 0] = 1.0, 0.0
    w = 1
    for c, s in zip(factors[0], factors[1]):
        top = min(2 * w, m)
        low, high, t = rows[:, : top - w], rows[:, w:top], scratch[:, : top - w]
        np.multiply(low, c, out=high)
        np.multiply(low, s, out=t)
        np.subtract(high[0], t[1], out=high[0])
        np.add(high[1], t[0], out=high[1])
        w = top
    return rows


class _Grid(NamedTuple):
    gather: np.ndarray  # per angle: its magnitude's index, plus n when mirrored
    factors: np.ndarray  # _phase_factors of the n distinct magnitudes
    rows: np.ndarray | None  # read-only _steering_rows when one block holds them


@functools.lru_cache(maxsize=3)
def _grid(geometry: ArrayGeometry, angles: bytes) -> _Grid:
    """The ``_Grid`` of the float64 ``angles``; three entries, as a design over
    the arrays M = 8, 64 and 512 runs each array's scenarios together."""
    angles = np.frombuffer(angles)
    magnitudes, index = np.unique(np.abs(angles), return_inverse=True)
    # at least two columns: einsum sums a one-column block in another order
    if magnitudes.size == 1:
        magnitudes = np.repeat(magnitudes, 2)
    n, m = magnitudes.size, geometry.num_antennas
    factors = _phase_factors(geometry, magnitudes)
    rows = None
    if n < 2 * max(2, _PROJECTION_BLOCK_ENTRIES // m):
        rows = _steering_rows(factors, m)
        rows.setflags(write=False)
    return _Grid(index + n * np.signbit(angles), factors, rows)


def _steering_projections(geometry: ArrayGeometry, angles: np.ndarray, *vectors):
    """a(phi)^H x at each of ``angles`` for each x in ``vectors``: (real, imag), each (V, N).

    With re, im the parts of a(|phi|)'s entries and x = x_r + j x_i, the sums
    A = sum re x_r, B = sum im x_i, C = sum re x_i and D = sum im x_r give
    a(|phi|)^H x = (A + B) + j(C - D) and, as a(-phi) = conj(a(|phi|)),
    a(-phi)^H x = (A - B) + j(C + D), taken where the sign bit is set.
    Uncached rows are built a block of about ``_PROJECTION_BLOCK_ENTRIES``
    entries (n >= 2 columns) at a time, so each stays in cache. Each sum is
    einsum's sequential sum over m of one column, so its bits do not depend
    on the block, the rest of the grid or the vectors' layout. Error: besides
    the rounding of sin|phi|, which any construction from it shares, an
    entry is a product of at most ceil(log2 M) factors within about an ulp
    each, so off by a few eps per factor (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3), where cos and sin of a rounded phase
    m theta are off by up to m theta eps / 2.
    """
    grid = _grid(geometry, angles.tobytes())
    m, n = geometry.num_antennas, grid.factors.shape[-1]
    parts = [np.ascontiguousarray(p) for x in vectors for p in (x.real, x.imag)]
    # [x_r, x_i] by [re, im] per vector: [[A, D], [C, B]]
    sums = np.empty((len(vectors), 2, 2, n))
    count = 1 if grid.rows is not None else n // max(2, _PROJECTION_BLOCK_ENTRIES // m)
    edges = [n * i // count for i in range(count + 1)]
    for start, stop in zip(edges, edges[1:]):
        rows = _steering_rows(grid.factors[..., start:stop], m) if grid.rows is None else grid.rows
        for out, x in zip(sums.reshape(-1, 2, n), parts):
            out[:, start:stop] = np.einsum("smn,m->sn", rows, x)
        del rows  # so that the next block is built with this one gone
    (a, d), (c, b) = sums.transpose(1, 2, 0, 3)
    real = np.concatenate([a + b, a - b], axis=1)[:, grid.gather]
    imag = np.concatenate([c - d, c + d], axis=1)[:, grid.gather]
    return real, imag


def _diagonal_sums(r: np.ndarray) -> np.ndarray:
    """t[d] = sum over k of H[k + d, k] for d = 0..M-1, H the Hermitian part of r."""
    lower = np.array([np.trace(r, -d) for d in range(r.shape[0])])
    upper = np.array([np.trace(r, d) for d in range(r.shape[0])])
    return 0.5 * (lower + upper.conj())


def beam_pattern(covariance, geometry: ArrayGeometry, angle_grid=None) -> BeamPattern:
    """Transmit power a(phi)^H R a(phi) over a grid of directions.

    On a uniform linear array a(phi)^H R a(phi) = 2 Re(a(phi)^H t) - t[0],
    where t[d] sums the d-th subdiagonal of R's Hermitian part, so the
    pattern takes one steering projection instead of an N x M by M x M
    product. Rounding dust below zero is clamped; genuinely negative values
    raise, since they mean the covariance is not PSD.
    """
    angles = _pattern_angles(angle_grid)
    m = geometry.num_antennas
    r = np.asarray(covariance, dtype=np.complex128)
    if r.shape != (m, m):
        raise ValueError(f"covariance must have shape ({m}, {m}), got {r.shape}")
    t = _diagonal_sums(r)
    (projection,), _ = _steering_projections(geometry, angles, t)
    power = 2.0 * projection - t[0].real
    scale = max(1.0, float(np.abs(np.trace(r))))
    if power.min() < -_PSD_ATOL * scale:
        raise ValueError(
            f"covariance is not PSD: pattern value {power.min()!r} at "
            f"{math.degrees(angles[power.argmin()]):.2f} deg"
        )
    power = np.maximum(power, 0.0)
    power.setflags(write=False)
    return BeamPattern(angles=angles, power=power)

"""Transmit beam patterns on a uniform linear array.

:func:`beam_pattern` evaluates a(phi)^H R a(phi) over a grid of directions
for any Hermitian PSD covariance R, not just the rank-one optimum. The
blocked steering projections behind it are shared with the beam-pattern
sweep, which projects h and a_t once instead of forming c c^H.

On a uniform linear array a(-phi) = conj(a(phi)), and with numpy's even
cos and odd sin this holds bit for bit. So the projections build one
steering row per distinct |phi| and project it and its conjugate: the
default grid, symmetric about broadside, takes 361 rows instead of 721,
and every value keeps the bits of its own row.

The rows depend only on the array and the grid, not on the vectors
projected. When all of a grid's rows fit in one projection block (fewer
than twice a block's rows, so at most 512 KiB up to 8,192 antennas: M = 8
and M = 64 on the default grid), that block is built once per (array,
grid) and reused, read-only, by every later pattern or sweep on the same
pair, and so is its conjugate once a mirrored angle has read it: a call
on cached rows allocates only its results. Larger grids stay streamed a
block at a time, each conjugated in place, and are not kept: at
M = 512 the default grid's rows would add about 3 MB to the peak memory of
every process that draws one pattern.
"""

import functools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BeamPattern:
    """Transmit power versus direction: angles in radians, power >= 0."""

    angles: np.ndarray
    power: np.ndarray


def default_angle_grid() -> np.ndarray:
    """Angles for beam-pattern evaluation: [-90, 90] degrees in 0.25 deg steps."""
    return np.deg2rad(np.linspace(-90.0, 90.0, DEFAULT_PATTERN_POINTS))


def _pattern_angles(angle_grid=None) -> np.ndarray:
    """Validated beam-pattern angles (radians): the default grid when None."""
    if angle_grid is None:
        return default_angle_grid()
    angles = np.asarray(angle_grid, dtype=np.float64)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angle_grid must be a nonempty 1-D array")
    if np.any(np.isnan(angles)) or angles.min() < -_HALF_PI_TOL or angles.max() > _HALF_PI_TOL:
        raise ValueError("angle_grid entries must lie in [-pi/2, pi/2] rad")
    return angles


def _steering_matrix(geometry: ArrayGeometry, angles: np.ndarray) -> np.ndarray:
    """Rows are the array's steering vectors a(phi) at each of ``angles``."""
    phase = -2.0 * math.pi * geometry.spacing_over_wavelength
    x = phase * np.outer(np.sin(angles), np.arange(geometry.num_antennas))
    # cos + j sin of the real phase: the same bits as np.exp(1j * x), without
    # a complex exponential
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


@functools.lru_cache(maxsize=2)
def _steering_block(geometry: ArrayGeometry, magnitudes: bytes) -> np.ndarray:
    """The read-only steering rows of one whole grid of float64 ``magnitudes``.

    Keyed on the element count, the spacing and the grid's bytes. Two
    entries: a design over several arrays runs each array's scenarios
    together, and holds at most two one-block arrays (M = 8 and M = 64).
    """
    block = _steering_matrix(geometry, np.frombuffer(magnitudes))
    block.setflags(write=False)
    return block


@functools.lru_cache(maxsize=2)
def _conjugated_block(geometry: ArrayGeometry, magnitudes: bytes) -> np.ndarray:
    """conj of ``_steering_block``'s rows, read-only: the rows of the mirrored angles.

    Kept next to the plain rows, for the same two arrays, so that a grid
    read on both sides conjugates its rows once, not on every call.
    """
    block = np.conjugate(_steering_block(geometry, magnitudes))
    block.setflags(write=False)
    return block


def _project(steering: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a(phi)^H x for every row a(phi)^T of ``steering``; einsum instead of a
    # BLAS matvec, whose thread wake-up alone can cost milliseconds
    return np.einsum("nm,m->n", steering, x.conj()).conj()


def _steering_projections(geometry: ArrayGeometry, angles: np.ndarray, *vectors):
    """a(phi)^H x at each of ``angles``, one array per x in ``vectors``.

    Rows are built only for the distinct magnitudes |phi|, so a grid
    symmetric about broadside, as the default one is, pays for half the cos
    and sin. On a uniform linear array the row for -phi is conj(a(phi)) bit
    for bit: numpy's float64 sin is odd and its cos even, and negation
    commutes with IEEE products, so that row's phases are exactly the
    negated ones, with the same cos and the negated sin. Each block is
    therefore projected, conjugated in place and projected again, and each
    angle takes the second value when its sign bit is set (-0.0 too, whose
    row is conj(a(+0.0))). Summing sum_m a_m(phi) x_m instead would be
    conj(a(-phi)^H x) up to the sign of zero imaginary parts only. A block
    is projected plain only when one of its angles has the sign bit clear,
    and conjugated only when one has it set, so a one-sided grid pays for
    one projection per row.

    The rows are built one block at a time, so the whole steering matrix is
    never held and each block stays in cache. Every row is summed as in a
    single unblocked projection, so the results are the same bits. A grid of
    one block takes its rows from ``_steering_block`` and their conjugates
    from ``_conjugated_block``; a grid of several builds each block and
    conjugates it in place.
    """
    magnitudes, index = np.unique(np.abs(angles), return_inverse=True)
    # at least two rows per block unless there is only one angle: beyond
    # 8,192 antennas einsum sums a one-row matrix in a different order, so a
    # grid of one magnitude and several angles builds that row twice
    rows = max(2, _PROJECTION_BLOCK_ENTRIES // geometry.num_antennas)
    if magnitudes.size == 1 < angles.size:
        magnitudes = np.repeat(magnitudes, 2)
    mirrored = np.signbit(angles)
    # the sides each magnitude is read from: plain (0) and conjugated (1)
    wanted = np.zeros((2, magnitudes.size), dtype=bool)
    wanted[0, index[~mirrored]] = True
    wanted[1, index[mirrored]] = True
    sides = [np.zeros((2, magnitudes.size), dtype=np.complex128) for _ in vectors]
    count = magnitudes.size // rows
    key = magnitudes.tobytes() if count <= 1 else None
    if key is not None:
        blocks = [_steering_block(geometry, key)]
    else:
        blocks = (_steering_matrix(geometry, b) for b in np.array_split(magnitudes, count))
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        for side in (0, 1):
            if not wanted[side, start:stop].any():
                continue
            if side:
                if key is None:
                    block = np.conjugate(block, out=block)
                else:
                    block = _conjugated_block(geometry, key)
            for out, x in zip(sides, vectors):
                out[side, start:stop] = _project(block, x)
        start = stop
    return [np.where(mirrored, out[1, index], out[0, index]) for out in sides]


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
    (projection,) = _steering_projections(geometry, angles, t)
    power = 2.0 * projection.real - t[0].real
    scale = max(1.0, float(np.abs(np.trace(r))))
    if power.min() < -_PSD_ATOL * scale:
        raise ValueError(
            f"covariance is not PSD: pattern value {power.min()!r} at "
            f"{math.degrees(angles[power.argmin()]):.2f} deg"
        )
    power = np.maximum(power, 0.0)
    angles = angles.copy()
    angles.setflags(write=False)
    power.setflags(write=False)
    return BeamPattern(angles=angles, power=power)

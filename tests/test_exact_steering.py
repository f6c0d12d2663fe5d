"""Steering projections a(phi)^H x against the exact reference.

``exact.exact_projections`` forms a(phi)^H x for the float angles and
entries in 80-digit decimal. Each bound below is the largest error of the
construction that formed entry m as cos and sin of the rounded phase m
theta, measured on these same cases, in units of eps ||x||_1 with
eps = 2^-52: the power-of-two factors must do at least as well.
"""

import math

import numpy as np
import pytest
from exact import exact_projections

from dfrc import ArrayGeometry, steering_vector
from dfrc.metrics import _steering_projections, default_angle_grid

EPS = 2.0**-52

# (M, channel kind) -> the worst error of cos and sin of the rounded phase,
# rounded up to 0.01; the power-of-two factors measured 0.56, 0.99, 2.06,
# 1.48, 1.03, 3.14, 4.15 and 10.60 on the same cases
BOUND = {
    (2, "los"): 1.42,
    (2, "rayleigh"): 1.30,
    (8, "los"): 3.79,
    (8, "rayleigh"): 3.08,
    (64, "los"): 7.31,
    (64, "rayleigh"): 9.54,
    (512, "los"): 27.48,
    (512, "rayleigh"): 22.12,
}

GRIDS = {
    # -90 to 90 degrees in 7.5 degree steps: 0 and both ends, mirrored pairs
    "symmetric": default_angle_grid()[::30],
    # no angle's mirror on the grid
    "custom": np.array([-1.2, -0.41, 0.05, 0.3, 0.71, 1.0, 1.5]),
}


def _vector(m, kind):
    rng = np.random.default_rng([m, kind == "los"])
    if kind == "los":
        return steering_vector(ArrayGeometry(m, 0.5), float(rng.uniform(-1.5, 1.5)))
    return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)


def _errors(m, kind, project):
    """|computed - exact| / (eps ||x||_1) at every angle of both grids."""
    x = _vector(m, kind)
    norm = math.fsum(np.abs(x).tolist())
    errors = []
    for angles in GRIDS.values():
        got = project(ArrayGeometry(m, 0.5), angles, x)
        for value, (re, im) in zip(got, exact_projections(0.5, angles.tolist(), x.tolist())):
            errors.append(abs(value - complex(float(re), float(im))) / (EPS * norm))
    return errors


def _project(geometry, angles, x):
    (real,), (imag,) = _steering_projections(geometry, angles, x)
    return real + 1j * imag


@pytest.mark.parametrize("m, kind", sorted(BOUND))
def test_projection_error_within_bound(m, kind):
    errors = _errors(m, kind, _project)
    assert len(errors) == sum(g.size for g in GRIDS.values()) >= 24
    assert max(errors) <= BOUND[m, kind]

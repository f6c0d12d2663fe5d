"""The dual bound D and its multiplier against the exact reference.

``exact.exact_optimum`` solves the float problem as given in 80-digit
decimal, so each bound below is the float path's own error, stated per
regime in units of P ||h||^2, the most any beam can receive.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from exact import exact_optimum

from dfrc import (
    ArrayGeometry,
    Scenario,
    kkt_check,
    solve_closed_form,
    steering_vector,
    tradeoff_sweep,
)

# |D - optimum| / (P ||h||^2) per regime. Up to the knee D is P ||h||^2
# itself, off by the rounding of ||h||^2; between the knee and the corner
# band it is d(x*), a few roundings of rho, g and w. In the corner band
# (w < 1e-4, the top P M included) the optimum has a sqrt(w) term, and the
# float top P M is a few ulps off the exact P ||a_t||^2 of the float
# steering vector: that gap alone moves the optimum by up to about
# sqrt(2^-52), so the band's bound is conditioning, not an error of D.
D_BOUND = {"free": 1e-15, "active": 5e-15, "corner": 1e-7}
CORNER_BAND = 1e-4
# the multiplier's relative error, divided by 1 / min(w, (g - rho) / g,
# 1 - rho): it is ill-conditioned at the top (w -> 0), at the knee
# (g -> rho) and for a channel collinear with the target (rho -> 1)
LAMBDA_RTOL = 2.0**-40


def _corpus(rng, n):
    """Seeded scenarios, M 2-64: Rayleigh, line-of-sight and near-collinear
    channels, scaled by 2^-160 to 2^160, power 2^-10 to 2^11."""
    for i in range(n):
        m = int(rng.integers(2, 65))
        geometry = ArrayGeometry(m, 0.5)
        target = float(rng.uniform(-1.5, 1.5))
        kind = i % 3
        if kind == 0:
            h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        elif kind == 1:
            h = steering_vector(geometry, float(rng.uniform(-1.5, 1.5)))
        else:
            noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            h = steering_vector(geometry, target) + 10.0 ** rng.uniform(-8, -1) * noise
        scale = 2.0 ** float(rng.integers(-160, 161))
        power = 2.0 ** float(rng.integers(-10, 11)) * float(rng.uniform(1.0, 2.0))
        yield Scenario(geometry, target, h * scale, power)


def _gammas(rng, scenario):
    top, knee = scenario.max_target_power, scenario.free_target_power
    fractions = [
        0.0,
        knee * (1.0 - 1e-9) / top,
        knee * (1.0 + 1e-6) / top,
        rng.uniform(),
        rng.uniform(),
        1.0 - 10.0 ** -rng.uniform(1, 4),
        1.0 - 10.0 ** -rng.uniform(4, 12),
        1.0,
    ]
    return [min(f * top, top) for f in fractions]


def test_dual_bound_and_multiplier_match_the_exact_optimum():
    rng = np.random.default_rng(20240531)
    seen = dict.fromkeys(D_BOUND, 0)
    for sc in _corpus(rng, 30):
        top = sc.max_target_power
        rho = sc.free_target_power / top
        for gamma in _gammas(rng, sc):
            try:
                unit, optimum, lam = exact_optimum(sc, gamma)
            except ValueError:
                # P M is a few ulps above the exact top: infeasible as given
                continue
            cert = kkt_check(solve_closed_form(sc, gamma), sc, gamma)
            g, w = gamma / top, (top - gamma) / top
            regime = "free" if lam == 0 else "corner" if w < CORNER_BAND else "active"
            seen[regime] += 1
            error = abs(float((optimum - Decimal(cert.bound)) / unit))
            assert error <= D_BOUND[regime], (regime, error, sc.geometry, gamma)
            if lam == 0:
                assert cert.dual_lambda == 0.0
            elif cert.dual_lambda is None:
                # no finite multiplier at the float top
                assert w <= 0.0
            else:
                margin = min(w, (g - rho) / g, 1.0 - rho)
                if margin > 0.0:
                    exact = float(lam)
                    rel = abs(cert.dual_lambda - exact) / exact
                    assert rel * margin <= LAMBDA_RTOL, (rel, margin, sc.geometry, gamma)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("seed", range(3))
def test_radar_power_is_free_below_the_knee_and_priced_above_it(seed, reference_scenario):
    # the paper's sharing condition: up to gamma = free_target_power the
    # matched beam meets the constraint and the multiplier is 0; above it
    # the constraint binds and lambda > 0. The optimum is concave and
    # non-increasing in gamma, so lambda = -d(optimum)/d(gamma) is
    # non-decreasing along the tradeoff grid (None, unbounded, at the top)
    rng = np.random.default_rng(seed)
    scenarios = [reference_scenario, *_corpus(rng, 6)]
    for sc in scenarios:
        knee = sc.free_target_power
        lams = []
        for point in tradeoff_sweep(sc):
            gamma = point.gamma
            lam = kkt_check(solve_closed_form(sc, gamma), sc, gamma).dual_lambda
            if gamma < knee * (1.0 - 1e-12):
                assert lam == 0.0
            elif gamma > knee * (1.0 + 1e-12):
                assert lam is None or lam > 0.0
            lams.append(math.inf if lam is None else lam)
        assert lams[-1] == math.inf
        assert all(a <= b for a, b in zip(lams, lams[1:])), sc.geometry

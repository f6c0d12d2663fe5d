"""Mutation matrix: wrong closed forms patched into verify must never pass.

Each mutant replaces ``verify.solve_closed_form`` (a wrong beam),
``verify.optimal_received_power`` (a wrong reference objective), both at
once, or the dual's witness, and the corpus is run through
``run_verification``. A run is wrong when its beam is off the power budget
or short of the target power by more than 1e-6 relative, receives less than
the optimum by more than 1e-6 P ||h||^2, or its reference objective is off
the optimum by more than that: well outside every tolerance verify allows.
Which checks fail is not asserted; on this corpus every wrong run fails at
least one of the proofs (power, feasibility, ``dual_gap``, ``dual_bound``),
none of them only the sampling checks (``oracle_gap``, ``falsifier``).
"""

import cmath
import math

import numpy as np
import pytest

from dfrc import ArrayGeometry, Scenario, oracle, verify
from dfrc.closed_form import optimal_received_power, solve_closed_form

FRACTIONS = (0.0, 0.3, 0.7, 0.95)
WRONG = 1e-6


def _corpus():
    """60 seeded (scenario, gamma) points: M 2-16, Rayleigh channels scaled
    by 1e-3 to 1e3, gamma / (P M) cycling through FRACTIONS."""
    rng = np.random.default_rng(720)
    points = []
    for i in range(60):
        m = int(rng.integers(2, 17))
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h *= 10.0 ** rng.uniform(-3, 3)
        target, power = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.5, 2.0))
        sc = Scenario(ArrayGeometry(m, 0.5), target, h, power)
        points.append((sc, FRACTIONS[i % 4] * sc.max_target_power))
    return points


def _beam(make):
    def solve(scenario, gamma):
        solution = solve_closed_form(scenario, gamma)
        c = np.asarray(make(scenario, gamma, solution), dtype=np.complex128)
        c.setflags(write=False)
        return solution._replace(vector_c=c)

    return {"solve_closed_form": solve}


def _perturbed(size):
    def make(scenario, gamma, solution):
        rng = np.random.default_rng(int(gamma * 1e6) % 2**32)
        m = scenario.geometry.num_antennas
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        noise *= size * math.sqrt(scenario.power_budget) / np.linalg.norm(noise)
        c = solution.vector_c + noise
        # back on the power budget, so only the received power is off
        return c * math.sqrt(scenario.power_budget) / np.linalg.norm(c)

    return _beam(make)


def _active_beam(scenario, gamma, solution):
    # the constrained formula with its case split removed: below the knee
    # its steering weight goes negative
    sc = scenario
    g, m = sc.cross_gain, sc.steering_norm_sq
    eta = math.sqrt((sc.max_target_power - gamma) / (sc.channel_norm_sq * m - abs(g) ** 2))
    b = (math.sqrt(gamma) - abs(g) * eta) / m
    return eta * cmath.exp(1j * cmath.phase(g)) * sc.channel + b * sc.target_steering


def _objective(swap=False, root=True, split=True):
    """optimal_received_power with rho and g swapped, the square roots
    dropped, or the case split at the knee removed."""

    def optimum(scenario, gamma):
        top = scenario.max_target_power
        rho, g = scenario.free_target_power / top, gamma / top
        if swap:
            rho, g = g, rho
        w = 1.0 - g
        unit = scenario.power_budget * scenario.channel_norm_sq
        if split and g <= rho:
            return unit
        if not root:
            return unit * (g * rho + w * (1.0 - rho))
        return unit * (math.sqrt(g * rho) + math.sqrt(w * (1.0 - rho))) ** 2

    return {"optimal_received_power": optimum}


def _target_beam(scenario, gamma, solution):
    sc = scenario
    return sc.target_steering * math.sqrt(sc.power_budget / sc.steering_norm_sq)


MUTANTS = {
    "target_beam": _beam(_target_beam),
    "matched_beam": _beam(
        lambda sc, gamma, sol: sc.channel * math.sqrt(sc.power_budget / sc.channel_norm_sq)
    ),
    "perturbed_1e-2": _perturbed(1e-2),
    "perturbed_1e-3": _perturbed(1e-3),
    "over_budget": _beam(lambda sc, gamma, sol: sol.vector_c * (1.0 + 1e-6)),
    "swapped_weights": _beam(
        lambda sc, gamma, sol: sol.coeff_b * sc.channel + sol.coeff_a * sc.target_steering
    ),
    "rotated_weight": _beam(
        lambda sc, gamma, sol: sol.coeff_a * sc.channel + 1j * sol.coeff_b * sc.target_steering
    ),
    "no_case_split_beam": _beam(_active_beam),
    "rho_g_swapped": _objective(swap=True),
    "root_dropped": _objective(root=False),
    "no_case_split_objective": _objective(split=False),
    # a closed form wrong in its beam and its objective together: the
    # target beam, reporting its own received power as the optimum
    "target_beam_and_objective": {
        **_beam(_target_beam),
        "optimal_received_power": (
            lambda sc, gamma: abs(complex(np.vdot(sc.channel, _target_beam(sc, gamma, None)))) ** 2
        ),
    },
}


def _run(sc, gamma):
    return verify.run_verification(sc, gamma, resolution=129, trials=2000)


def _is_wrong(report, sc, gamma):
    cf = report["closed_form"]
    power = sc.power_budget
    unit = power * sc.channel_norm_sq
    optimum = optimal_received_power(sc, gamma)
    return (
        abs(cf["trace"] - power) > WRONG * power
        or cf["target_power"] < gamma * (1.0 - WRONG)
        or cf["solution_objective"] < optimum - WRONG * unit
        or abs(cf["objective"] - optimum) > WRONG * unit
    )


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_unpatched_runs_all_pass(corpus):
    for sc, gamma in corpus:
        report = _run(sc, gamma)
        assert report["passed"], (report["failed"], sc.geometry, gamma)
        assert not _is_wrong(report, sc, gamma)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_no_wrong_run_passes(corpus, monkeypatch, name):
    for target, replacement in MUTANTS[name].items():
        monkeypatch.setattr(verify, target, replacement)
    wrong = 0
    for sc, gamma in corpus:
        report = _run(sc, gamma)
        if _is_wrong(report, sc, gamma):
            wrong += 1
            assert not report["passed"], (name, sc.geometry, gamma)
    # every mutant is wrong somewhere: below the knee a rotated weight or
    # the matched beam is the optimum, and the objective mutants are right
    # on one side of the knee
    assert wrong >= 15, (name, wrong)


def test_wrong_witness_only_raises_the_bound(corpus, monkeypatch):
    # a witness off the dual's minimizer makes D an upper bound above the
    # optimum: the closed form's correct beam then fails dual_gap, a
    # visible false alarm; a run passes only while D is still within
    # verify's slack of the optimum
    witness = oracle._dual_witness
    monkeypatch.setattr(oracle, "_dual_witness", lambda rho, g, w: 1.5 * witness(rho, g, w))
    alarms = 0
    for sc, gamma in corpus:
        report = _run(sc, gamma)
        unit = sc.power_budget * sc.channel_norm_sq
        raised = report["dual"]["bound"] - optimal_received_power(sc, gamma)
        assert raised >= -verify.FALSIFIER_SLACK * unit
        if report["passed"]:
            assert raised <= verify.FALSIFIER_SLACK * unit
        else:
            assert "dual_gap" in report["failed"]
            alarms += 1
    assert alarms >= 30, alarms

"""End-to-end verification: solve, then confront the result with the oracles.

Builds a deterministic JSON-serializable report (no timestamps or host
details, so identical inputs give byte-identical serialized reports): the
closed-form solution versus the subspace grid oracle, the Lagrange-dual
bound, and the random falsifier, each with explicit pass/fail checks. The
dual bound is the optimum (zero duality gap), so the beam's received power
must reach it and the reference objective must equal it, everywhere on the
feasible range, its top included.
"""

import dataclasses
import math
import numbers

import numpy as np

from .closed_form import beam_powers, optimal_received_power, solve_closed_form
from .model import MAX_COUNT, Scenario, _integer
from .oracle import (
    DEFAULT_RESOLUTION, MAX_TRIALS, MIN_RESOLUTION, grid_search_oracle, kkt_check,
    random_falsifier,
)

__all__ = ["run_verification"]

ORACLE_GAP_RTOL = 1e-4
# relative to power * ||h||^2, the largest objective any beam can reach
FALSIFIER_SLACK = 1e-9
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0


def _relative_gap(oracle_obj: float, reference_obj: float, scenario: Scenario) -> float:
    floor = scenario.power_budget * scenario.channel_norm_sq * 1e-9
    # P ||h||^2 can underflow to 0, and the reference with it: the smallest
    # subnormal keeps the gap finite
    return abs(oracle_obj - reference_obj) / max(reference_obj, floor, math.ulp(0.0))


def _perturbed(solution, scenario: Scenario, magnitude: float, seed: int):
    # deterministic corruption hook used by the negative verification tests:
    # nudges the beam off the optimum without touching the reported capacity
    rng = np.random.default_rng(seed)
    m = scenario.geometry.num_antennas
    noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    noise *= magnitude * np.sqrt(scenario.power_budget) / np.linalg.norm(noise)
    c = solution.vector_c + noise
    c.setflags(write=False)
    return dataclasses.replace(solution, vector_c=c)


def run_verification(
    scenario: Scenario,
    gamma: float,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    perturb: float = 0.0,
) -> dict:
    """Solve at ``gamma`` and cross-examine the result with all three oracles.

    Returns a report dict whose ``checks`` map each verification condition
    to a bool, with the failed names collected under ``failed`` and the
    conjunction under ``passed``. ``perturb`` > 0 corrupts the candidate
    beam by that relative magnitude before checking (for exercising the
    failure paths); the reference objective stays analytical either way.

    Raises InfeasibleRadarRequirement when ``gamma`` exceeds the budget, and
    ValueError, before solving, when ``resolution``, ``trials`` or ``seed``
    is not an integer, ``resolution`` or ``trials`` is out of its range (see
    ``grid_search_oracle`` and ``random_falsifier``), or ``perturb`` is not
    a Python or numpy real number (a bool is not one), or is negative or not
    finite.
    """
    trials = _integer(trials, "trials", 1, MAX_TRIALS)
    seed = _integer(seed, "seed", -math.inf, math.inf)
    resolution = _integer(resolution, "resolution", MIN_RESOLUTION, MAX_COUNT)
    # numpy registers its floats and integers as numbers.Real; bool is one too
    if not isinstance(perturb, numbers.Real) or isinstance(perturb, bool):
        raise ValueError(f"perturb must be a real number, got {perturb!r}")
    perturb = float(perturb)
    if not (perturb >= 0.0 and math.isfinite(perturb)):
        raise ValueError(f"perturb must be nonnegative and finite, got {perturb!r}")
    gamma = float(gamma)
    solution = solve_closed_form(scenario, gamma)
    if perturb:
        solution = _perturbed(solution, scenario, perturb, seed)

    reference_obj = optimal_received_power(scenario, gamma)
    oracle = grid_search_oracle(scenario, gamma, resolution=resolution)
    certificate = kkt_check(solution, scenario, gamma)
    falsifier = random_falsifier(scenario, gamma, trials=trials, seed=seed)

    gap_rel = _relative_gap(oracle.objective, reference_obj, scenario)
    trace, target_power, solution_obj = beam_powers(scenario, solution.vector_c)

    power = scenario.power_budget
    # every objective bound is in units of power * ||h||^2
    slack = FALSIFIER_SLACK * power * scenario.channel_norm_sq
    checks = {
        "oracle_gap": bool(gap_rel <= ORACLE_GAP_RTOL),
        "solution_power": bool(abs(trace - power) <= 1e-9 * power),
        "solution_feasibility": bool(target_power >= gamma * (1.0 - 1e-9)),
        "dual_gap": bool(certificate.bound - solution_obj <= slack),
        "dual_bound": bool(abs(reference_obj - certificate.bound) <= slack),
        "falsifier": bool(falsifier.best_objective <= reference_obj + slack),
    }
    failed = sorted(name for name, ok in checks.items() if not ok)

    return {
        "scenario": {
            "num_antennas": scenario.geometry.num_antennas,
            "spacing_over_wavelength": scenario.geometry.spacing_over_wavelength,
            "target_angle_rad": scenario.target_angle,
            "power_budget": power,
            "target_amplitude": scenario.target_amplitude,
            "channel_norm_sq": scenario.channel_norm_sq,
            "cross_gain_abs": abs(scenario.cross_gain),
        },
        "gamma": gamma,
        "settings": {
            "resolution": resolution,
            "trials": trials,
            "seed": seed,
            "perturb": perturb,
        },
        "closed_form": {
            "case": solution.case.value,
            "objective": reference_obj,
            "capacity_bits": solution.capacity_bits,
            "solution_objective": solution_obj,
            "trace": trace,
            "target_power": target_power,
        },
        "oracle": {
            "objective": oracle.objective,
            "gap_rel": gap_rel,
            "amp_a": oracle.amp_a,
            "phase_diff": oracle.phase_diff,
            "amp_b": oracle.amp_b,
        },
        "dual": {"lambda": certificate.dual_lambda, "bound": certificate.bound},
        "falsifier": {
            # null when no draw was feasible: -inf is not strict JSON
            "best_objective": falsifier.best_objective if falsifier.num_feasible else None,
            "num_feasible": falsifier.num_feasible,
            "num_trials": falsifier.num_trials,
            "best_trial": falsifier.best_trial,
        },
        "checks": checks,
        "failed": failed,
        "passed": not failed,
    }

"""Closed-form capacity bound for a single-user, single-target MIMO DFRC
transmitter, with independent numerical verification.

The transmitter serves one downlink user while keeping a minimum power (or
equivalently radar SNR) on one target direction. The capacity-optimal
transmit covariance under that constraint is rank one and closed form; this
package computes it, sweeps the capacity/radar tradeoff, and verifies the
algebra against brute-force oracles that share none of its code.
"""

from .closed_form import CaseTag, assemble_covariance, optimal_received_power, solve_closed_form
from .metrics import BeamPattern, beam_pattern, default_angle_grid
from .model import (
    ArrayGeometry,
    InfeasibleRadarRequirement,
    RadarSnrSpec,
    Scenario,
    resolve_radar_spec,
    steering_vector,
)
from .oracle import grid_search_oracle, kkt_check, random_falsifier
from .sweep import (
    TradeoffPoint,
    beampattern_sweep,
    default_loss_grid_db,
    tradeoff_sweep,
    write_beampattern_csv,
    write_tradeoff_csv,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "BeamPattern",
    "CaseTag",
    "InfeasibleRadarRequirement",
    "RadarSnrSpec",
    "Scenario",
    "TradeoffPoint",
    "assemble_covariance",
    "beam_pattern",
    "beampattern_sweep",
    "default_angle_grid",
    "default_loss_grid_db",
    "grid_search_oracle",
    "kkt_check",
    "optimal_received_power",
    "random_falsifier",
    "resolve_radar_spec",
    "run_verification",
    "solve_closed_form",
    "steering_vector",
    "tradeoff_sweep",
    "write_beampattern_csv",
    "write_tradeoff_csv",
    "__version__",
]

"""MTJ (Magnetic Tunnel Junction) compact device model.

This package implements the storage device underlying the paper's
non-volatile latches:

* :mod:`repro.mtj.parameters` — the paper's Table I parameter set and
  derived quantities,
* :mod:`repro.mtj.device` — static (resistive) behaviour with
  bias-dependent TMR,
* :mod:`repro.mtj.dynamics` — spin-transfer-torque switching dynamics
  (precessional and thermally-activated regimes),
* :mod:`repro.mtj.variation` — process corners and Monte-Carlo sampling,
* :mod:`repro.mtj.thermal` — thermal stability and retention estimates.
"""

from repro.mtj.parameters import MTJParameters, PAPER_TABLE_I
from repro.mtj.device import MTJDevice, MTJState
from repro.mtj.dynamics import SwitchingModel, SwitchingEvent, simulate_current_pulse
from repro.mtj.variation import (
    DEFAULT_SEED,
    MTJCorner,
    MTJVariation,
    monte_carlo_parameters,
    sample_parameters,
)
from repro.mtj.thermal import ThermalStability
from repro.mtj.write_error import WriteErrorModel

__all__ = [
    "MTJParameters",
    "PAPER_TABLE_I",
    "MTJDevice",
    "MTJState",
    "SwitchingModel",
    "SwitchingEvent",
    "simulate_current_pulse",
    "MTJCorner",
    "MTJVariation",
    "DEFAULT_SEED",
    "sample_parameters",
    "monte_carlo_parameters",
    "ThermalStability",
    "WriteErrorModel",
]

"""Analyses over a :class:`~repro.spice.netlist.Circuit`."""

from repro.spice.analysis.mna import MNAStamper
from repro.spice.analysis.engine import FastNewtonSolver, MNAWorkspace
from repro.spice.analysis.sparse import SparseNewtonSolver, SparsePattern
from repro.spice.analysis.ensemble import (
    EnsembleWorkspace,
    run_ensemble_transient,
)
from repro.spice.analysis.dc import solve_dc, DCResult
from repro.spice.analysis.transient import (
    run_transient,
    TransientResult,
    get_default_engine,
    set_default_engine,
)
from repro.spice.analysis.sweep import dc_sweep, inverter_vtc, static_noise_margin
from repro.spice.analysis.opreport import (
    operating_point_report,
    power_balance,
    render_operating_point,
)
from repro.spice.analysis.measure import (
    crossing_time,
    delay_between,
    integrate_supply_energy,
    average_power,
    settle_value,
)

__all__ = [
    "MNAStamper",
    "MNAWorkspace",
    "FastNewtonSolver",
    "SparseNewtonSolver",
    "SparsePattern",
    "EnsembleWorkspace",
    "run_ensemble_transient",
    "solve_dc",
    "DCResult",
    "run_transient",
    "TransientResult",
    "get_default_engine",
    "set_default_engine",
    "crossing_time",
    "delay_between",
    "integrate_supply_energy",
    "average_power",
    "settle_value",
    "dc_sweep",
    "inverter_vtc",
    "static_noise_margin",
    "operating_point_report",
    "power_balance",
    "render_operating_point",
]

"""Solver resilience subsystem: recovery ladder, health guards,
failure forensics.

There is one ladder.  Its rung order and constants live in
:mod:`repro.recovery.policy` and enter every transient and DC cache
key; a run only switches recovery on or off (the ``recovery`` argument
of ``run_transient`` and ``solve_dc``).  Import surface is deliberately
thin — rung names, guard and forensics types only.  The ladder itself
(:mod:`repro.recovery.ladder`) imports the analysis engines lazily and
is pulled in by the analysis modules, not the other way round, keeping
the package import-cycle free.  What the ladder and the guards observe
is counted in the analysis's
:class:`~repro.spice.analysis.engine.SolverStats` record.
"""

from repro.recovery.forensics import ForensicsBundle, stamped_matrix_digest
from repro.recovery.health import (
    CONDITION_CAP,
    ConditionProbe,
    guard_finite,
    hager_inverse_norm1,
)
from repro.recovery.policy import (
    RUNG_DAMPING,
    RUNG_GMIN,
    RUNG_INTEGRATOR_SWITCH,
    RUNG_TIMESTEP_CUT,
    RUNGS,
)
from repro.recovery.shrink import greedy_shrink, shrink_failing_circuit

__all__ = [
    "CONDITION_CAP",
    "ConditionProbe",
    "ForensicsBundle",
    "RUNG_DAMPING",
    "RUNG_GMIN",
    "RUNG_INTEGRATOR_SWITCH",
    "RUNG_TIMESTEP_CUT",
    "RUNGS",
    "greedy_shrink",
    "guard_finite",
    "hager_inverse_norm1",
    "shrink_failing_circuit",
    "stamped_matrix_digest",
]

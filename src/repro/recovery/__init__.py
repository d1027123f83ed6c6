"""Solver resilience subsystem: recovery ladder, health guards,
failure forensics.

Import surface is deliberately thin — policy, guard and forensics
types only.  The ladder itself (:mod:`repro.recovery.ladder`) imports
the analysis engines lazily and is pulled in by the analysis modules,
not the other way round, keeping the package import-cycle free.  What
the ladder and the guards observe is counted in the analysis's
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
    DEFAULT_POLICY,
    KNOWN_RUNGS,
    RUNG_DAMPING,
    RUNG_GMIN,
    RUNG_INTEGRATOR_SWITCH,
    RUNG_TIMESTEP_CUT,
    RecoveryPolicy,
)
from repro.recovery.shrink import greedy_shrink, shrink_failing_circuit

__all__ = [
    "CONDITION_CAP",
    "ConditionProbe",
    "DEFAULT_POLICY",
    "ForensicsBundle",
    "KNOWN_RUNGS",
    "RUNG_DAMPING",
    "RUNG_GMIN",
    "RUNG_INTEGRATOR_SWITCH",
    "RUNG_TIMESTEP_CUT",
    "RecoveryPolicy",
    "greedy_shrink",
    "guard_finite",
    "hager_inverse_norm1",
    "shrink_failing_circuit",
    "stamped_matrix_digest",
]

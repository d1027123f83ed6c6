"""The recovery ladder's constants.

The ladder (:mod:`repro.recovery.ladder`), the condition probe
(:mod:`repro.recovery.health`) and the forensics shrinker read these
module constants; a run chooses only whether to recover at all, with
the ``recovery`` switch of
:func:`~repro.spice.analysis.transient.run_transient` and
:func:`~repro.spice.analysis.dc.solve_dc`.  Every rung is a pure
function of these constants and the failing step, so a recovered solve
is exactly as deterministic as a clean one — same bits for any worker
count, warm or cold cache.

:func:`recovery_config_fingerprint` enters the solver-configuration
record of every transient and DC cache key (see
:func:`repro.cache.keys.solver_config`): changing a constant retires
every cached result, even of runs that never climbed a rung.
"""

from __future__ import annotations

from typing import Any, Dict

#: Rung names (keyed through :data:`RUNGS`, which lists them in order).
RUNG_GMIN = "gmin"  # devlint: not-keyed
RUNG_DAMPING = "damping"  # devlint: not-keyed
RUNG_TIMESTEP_CUT = "timestep-cut"  # devlint: not-keyed
RUNG_INTEGRATOR_SWITCH = "integrator-switch"  # devlint: not-keyed

#: Escalation order.  ``gmin`` stays first so that circuits the legacy
#: single hard-coded retry (transient.py's old ``1e-9``) used to rescue
#: keep producing bit-identical waveforms.
RUNGS = (RUNG_GMIN, RUNG_DAMPING, RUNG_TIMESTEP_CUT, RUNG_INTEGRATOR_SWITCH)

#: gmin values tried by the ``gmin`` rung (strong to weak); the first
#: entry reproduces the historical hard-coded strong-gmin retry.
GMIN_LADDER = (1e-9,)

#: ``damping`` rung: multiply the per-iteration dV clamp by this factor.
DAMPING_SCALE = 0.25

#: ``damping`` rung: multiply the iteration budget by this factor
#: (tighter damping needs more, smaller steps).
ITERATION_SCALE = 2

#: ``timestep-cut`` rung: maximum halvings of the failing step (the
#: interval is re-covered with 2^k substeps, i.e. the step re-doubles
#: back to the grid by construction).
MAX_TIMESTEP_CUTS = 3

#: Estimate the 1-norm condition number on every Nth new LU
#: factorisation (0 disables).  Interval-gated so the Hager probe stays
#: inside the <5% healthy-circuit benchmark budget.
CONDITION_INTERVAL = 4

#: Condition-number threshold above which a WARN counter is recorded in
#: the obs metrics registry (double precision holds ~16 digits; 1e13
#: leaves ~3 trustworthy digits in the solution).
CONDITION_WARN = 1e13

#: DC gmin homotopy: starting conductance to ground [S] and the
#: per-stage reduction factor (1e-2 → /10 per stage reproduces the
#: historical ``solve_dc`` ladder exactly).
DC_GMIN_START = 1e-2
DC_GMIN_REDUCTION = 10.0

#: DC source-stepping homotopy (tried when gmin homotopy fails): the
#: sequence of source scale factors, warm-started in order; ends at 1.0.
DC_SOURCE_STEPS = (0.25, 0.5, 0.75, 1.0)

#: Forensics: maximum failing-oracle evaluations the greedy netlist
#: shrinker may spend when a ladder exhausts.
SHRINK_BUDGET = 32


def recovery_config_fingerprint() -> Dict[str, Any]:
    """The ladder's constants, as the cache keys record them."""
    return {
        "rungs": list(RUNGS),
        "gmin_ladder": list(GMIN_LADDER),
        "damping_scale": DAMPING_SCALE,
        "iteration_scale": ITERATION_SCALE,
        "max_timestep_cuts": MAX_TIMESTEP_CUTS,
        "condition_interval": CONDITION_INTERVAL,
        "condition_warn": CONDITION_WARN,
        "dc_gmin_start": DC_GMIN_START,
        "dc_gmin_reduction": DC_GMIN_REDUCTION,
        "dc_source_steps": list(DC_SOURCE_STEPS),
        "shrink_budget": SHRINK_BUDGET,
    }

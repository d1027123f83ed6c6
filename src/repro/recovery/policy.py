"""Declarative solver-resilience policy.

A :class:`RecoveryPolicy` is the single configuration object for the
recovery ladder (:mod:`repro.recovery.ladder`), the numerical health
guards (:mod:`repro.recovery.health`) and the failure forensics
(:mod:`repro.recovery.forensics`).  It is a *frozen* dataclass on
purpose: every rung of the ladder is a pure function of (policy,
failing step), so a recovered solve is exactly as deterministic as a
clean one — same bits for any worker count, warm or cold cache.

The policy's :meth:`~RecoveryPolicy.fingerprint` enters the cache-key
request record of every transient and DC solve (see
:func:`repro.cache.keys.transient_request`): two runs that differ only
in how they would *recover* never share a cache entry, even when
neither actually climbed a rung.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple

from repro.errors import AnalysisError

#: Rung identifiers, referenced by :attr:`RecoveryPolicy.rungs`.
RUNG_GMIN = "gmin"
RUNG_DAMPING = "damping"
RUNG_TIMESTEP_CUT = "timestep-cut"
RUNG_INTEGRATOR_SWITCH = "integrator-switch"

#: All rung names the ladder implements (validation set).
KNOWN_RUNGS = (RUNG_GMIN, RUNG_DAMPING, RUNG_TIMESTEP_CUT,
               RUNG_INTEGRATOR_SWITCH)

#: Default escalation order.  ``gmin`` stays first so that circuits the
#: legacy single hard-coded retry (transient.py's old ``1e-9``) used to
#: rescue keep producing bit-identical waveforms under the default
#: policy.
DEFAULT_RUNGS = (RUNG_GMIN, RUNG_DAMPING, RUNG_TIMESTEP_CUT,
                 RUNG_INTEGRATOR_SWITCH)

#: gmin values tried by the ``gmin`` rung (strong to weak); the first
#: entry reproduces the historical hard-coded strong-gmin retry.
DEFAULT_GMIN_LADDER = (1e-9,)

#: ``damping`` rung: multiply the per-iteration dV clamp by this factor.
DEFAULT_DAMPING_SCALE = 0.25

#: ``damping`` rung: multiply the iteration budget by this factor
#: (tighter damping needs more, smaller steps).
DEFAULT_ITERATION_SCALE = 2

#: ``timestep-cut`` rung: maximum halvings of the failing step (the
#: interval is re-covered with 2^k substeps, i.e. the step re-doubles
#: back to the grid by construction).
DEFAULT_MAX_TIMESTEP_CUTS = 3

#: Estimate the 1-norm condition number on every Nth new LU
#: factorisation (0 disables).  Interval-gated so the Hager probe stays
#: inside the <5% healthy-circuit benchmark budget.
DEFAULT_CONDITION_INTERVAL = 4

#: Condition-number threshold above which a WARN counter is recorded in
#: the obs metrics registry (double precision holds ~16 digits; 1e13
#: leaves ~3 trustworthy digits in the solution).
DEFAULT_CONDITION_WARN = 1e13

#: DC gmin homotopy: starting conductance to ground [S] and the
#: per-stage reduction factor (1e-2 → /10 per stage reproduces the
#: historical ``solve_dc`` ladder exactly).
DEFAULT_DC_GMIN_START = 1e-2
DEFAULT_DC_GMIN_REDUCTION = 10.0

#: DC source-stepping homotopy (tried when gmin homotopy fails): the
#: sequence of source scale factors, warm-started in order; must end
#: at 1.0.
DEFAULT_DC_SOURCE_STEPS = (0.25, 0.5, 0.75, 1.0)

#: Forensics: maximum failing-oracle evaluations the greedy netlist
#: shrinker may spend when a ladder exhausts.
DEFAULT_SHRINK_BUDGET = 32


@dataclass(frozen=True)
class RecoveryPolicy:
    """Frozen configuration of the whole resilience subsystem.

    Every field is part of the cache-key fingerprint; change one and
    previously cached results stop matching (by design — a different
    ladder can produce different recovered bits).
    """

    #: Master switch: ``False`` turns every rung off (a failing step
    #: raises immediately, with forensics still attached).
    enabled: bool = True
    rungs: Tuple[str, ...] = DEFAULT_RUNGS
    gmin_ladder: Tuple[float, ...] = DEFAULT_GMIN_LADDER
    damping_scale: float = DEFAULT_DAMPING_SCALE
    iteration_scale: int = DEFAULT_ITERATION_SCALE
    max_timestep_cuts: int = DEFAULT_MAX_TIMESTEP_CUTS
    condition_interval: int = DEFAULT_CONDITION_INTERVAL
    condition_warn: float = DEFAULT_CONDITION_WARN
    dc_gmin_start: float = DEFAULT_DC_GMIN_START
    dc_gmin_reduction: float = DEFAULT_DC_GMIN_REDUCTION
    dc_source_steps: Tuple[float, ...] = DEFAULT_DC_SOURCE_STEPS
    #: Run the greedy netlist shrinker when a ladder exhausts, so the
    #: forensics bundle carries a minimal reproducing circuit.
    shrink_on_failure: bool = True
    shrink_budget: int = DEFAULT_SHRINK_BUDGET

    def __post_init__(self) -> None:
        for rung in self.rungs:
            if rung not in KNOWN_RUNGS:
                raise AnalysisError(
                    f"unknown recovery rung {rung!r}; expected one of "
                    f"{KNOWN_RUNGS}")
        if any(g <= 0.0 for g in self.gmin_ladder):
            raise AnalysisError("gmin_ladder values must be positive")
        if not 0.0 < self.damping_scale < 1.0:
            raise AnalysisError(
                f"damping_scale must be in (0, 1), got {self.damping_scale}")
        if self.iteration_scale < 1:
            raise AnalysisError("iteration_scale must be >= 1")
        if self.max_timestep_cuts < 0:
            raise AnalysisError("max_timestep_cuts must be >= 0")
        if self.dc_gmin_reduction <= 1.0:
            raise AnalysisError("dc_gmin_reduction must be > 1")
        if self.dc_source_steps and self.dc_source_steps[-1] != 1.0:
            raise AnalysisError("dc_source_steps must end at 1.0")

    def fingerprint(self) -> Dict[str, Any]:
        """Canonical-JSON form for the cache-key request record."""
        record: Dict[str, Any] = {}
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            record[f.name] = list(value) if isinstance(value, tuple) else value
        return record

    @classmethod
    def from_fingerprint(cls, record: Dict[str, Any]) -> "RecoveryPolicy":
        """Rebuild the exact policy a request record describes (used by
        cache verification to replay entries)."""
        names = {f.name for f in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for name, value in record.items():
            if name not in names:
                raise AnalysisError(
                    f"unknown recovery-policy field {name!r} in request "
                    f"record")
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


#: Shared default: the policy every analysis uses unless the caller
#: passes its own.
DEFAULT_POLICY = RecoveryPolicy()


def recovery_config_fingerprint() -> Dict[str, Any]:
    """The recovery configuration a cache key must capture.  The
    per-call policy fingerprint travels in the request record itself;
    this function exists so the module's defaults are auditable by the
    devlint ``dev.config-constant-unfingerprinted`` rule — every
    constant above feeds :data:`DEFAULT_POLICY` and hence the keys."""
    return {
        "known_rungs": list(KNOWN_RUNGS),
        "rung_names": [RUNG_GMIN, RUNG_DAMPING, RUNG_TIMESTEP_CUT,
                       RUNG_INTEGRATOR_SWITCH],
        "defaults": DEFAULT_POLICY.fingerprint(),
        "default_fields": {
            "rungs": list(DEFAULT_RUNGS),
            "gmin_ladder": list(DEFAULT_GMIN_LADDER),
            "damping_scale": DEFAULT_DAMPING_SCALE,
            "iteration_scale": DEFAULT_ITERATION_SCALE,
            "max_timestep_cuts": DEFAULT_MAX_TIMESTEP_CUTS,
            "condition_interval": DEFAULT_CONDITION_INTERVAL,
            "condition_warn": DEFAULT_CONDITION_WARN,
            "dc_gmin_start": DEFAULT_DC_GMIN_START,
            "dc_gmin_reduction": DEFAULT_DC_GMIN_REDUCTION,
            "dc_source_steps": list(DEFAULT_DC_SOURCE_STEPS),
            "shrink_budget": DEFAULT_SHRINK_BUDGET,
        },
    }

"""Numerical health guards: NaN/Inf detection, condition estimates,
and the per-analysis :class:`SolverHealth` record.

The condition estimate is Hager's 1-norm estimator (the algorithm
behind LAPACK's ``xLACON``): a handful of extra triangular solves
against an existing LU factorisation yields a lower bound on
``‖A⁻¹‖₁`` that is almost always within a small factor of the truth,
so ``κ₁ ≈ ‖A‖₁ · est(‖A⁻¹‖₁)`` costs O(n²) per probe instead of the
O(n³) of an explicit inverse.  Probes are interval-gated by the
:class:`~repro.recovery.policy.RecoveryPolicy` so healthy circuits pay
for at most one in every ``condition_interval`` factorisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.recovery.policy import DEFAULT_POLICY, RecoveryPolicy

#: Ceiling applied to stored condition estimates so the health record
#: stays canonical-JSON serialisable (no IEEE infinities in payloads).
CONDITION_CAP = 1e300


@dataclass
class SolverHealth:
    """What the resilience subsystem observed during one analysis.

    Attached to :class:`~repro.spice.analysis.transient.TransientResult`
    (and round-tripped through the result cache) so a recovered run is
    distinguishable from a clean one without re-running it.
    """

    #: Successful rung firings by rung name.
    rung_counts: Dict[str, int] = field(default_factory=dict)
    #: Total rung *attempts* during recoveries (failed rungs included).
    rungs_climbed: int = 0
    #: Timesteps that needed any rung to complete.
    recovered_steps: int = 0
    #: NaN/Inf solutions caught by the finiteness guard.
    nonfinite_trips: int = 0
    #: Condition probes run / probes that crossed the WARN threshold.
    condition_checks: int = 0
    condition_warnings: int = 0
    #: Largest κ₁ estimate seen (0.0 when never probed).
    worst_condition: float = 0.0
    #: DC recovery: gmin homotopy stages and source-stepping stages run.
    dc_gmin_stages: int = 0
    dc_source_steps: int = 0

    # -- recording ---------------------------------------------------------

    def note_rung_attempt(self, rung: str) -> None:
        self.rungs_climbed += 1

    def note_rung_success(self, rung: str) -> None:
        self.rung_counts[rung] = self.rung_counts.get(rung, 0) + 1

    def note_recovered_step(self) -> None:
        self.recovered_steps += 1

    def note_nonfinite(self) -> None:
        self.nonfinite_trips += 1

    def note_condition(self, estimate: float, warn_threshold: float) -> bool:
        """Record one κ₁ estimate; returns True when it crossed the
        WARN threshold."""
        estimate = min(float(estimate), CONDITION_CAP)
        self.condition_checks += 1
        if estimate > self.worst_condition:
            self.worst_condition = estimate
        if estimate > warn_threshold:
            self.condition_warnings += 1
            return True
        return False

    @property
    def clean(self) -> bool:
        """True when no rung fired and no guard tripped."""
        return (not self.rung_counts and self.recovered_steps == 0
                and self.nonfinite_trips == 0
                and self.condition_warnings == 0
                and self.dc_source_steps == 0)

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "SolverHealth") -> None:
        for rung in sorted(other.rung_counts):
            self.rung_counts[rung] = (self.rung_counts.get(rung, 0)
                                      + other.rung_counts[rung])
        self.rungs_climbed += other.rungs_climbed
        self.recovered_steps += other.recovered_steps
        self.nonfinite_trips += other.nonfinite_trips
        self.condition_checks += other.condition_checks
        self.condition_warnings += other.condition_warnings
        self.worst_condition = max(self.worst_condition,
                                   other.worst_condition)
        self.dc_gmin_stages += other.dc_gmin_stages
        self.dc_source_steps += other.dc_source_steps

    def flush_to(self, registry) -> None:
        """Add the ladder counters to an obs
        :class:`~repro.obs.metrics.MetricsRegistry` (the ``recovery.*``
        namespace the CI smoke job asserts on)."""
        for rung in sorted(self.rung_counts):
            registry.inc(f"recovery.rung.{rung}", self.rung_counts[rung])
        if self.rungs_climbed:
            registry.inc("recovery.rungs_climbed", self.rungs_climbed)
        if self.recovered_steps:
            registry.inc("recovery.recovered_steps", self.recovered_steps)
        if self.nonfinite_trips:
            registry.inc("recovery.nonfinite_trips", self.nonfinite_trips)
        if self.condition_checks:
            registry.inc("recovery.condition_checks", self.condition_checks)
        if self.condition_warnings:
            registry.inc("recovery.condition_warnings",
                         self.condition_warnings)
        if self.worst_condition > 0.0:
            registry.set_gauge("recovery.worst_condition",
                               self.worst_condition)
        if self.dc_gmin_stages:
            registry.inc("recovery.dc_gmin_stages", self.dc_gmin_stages)
        if self.dc_source_steps:
            registry.inc("recovery.dc_source_steps", self.dc_source_steps)

    # -- serialisation (cache payloads, forensics bundles) ----------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "rung_counts": {k: self.rung_counts[k]
                            for k in sorted(self.rung_counts)},
            "rungs_climbed": self.rungs_climbed,
            "recovered_steps": self.recovered_steps,
            "nonfinite_trips": self.nonfinite_trips,
            "condition_checks": self.condition_checks,
            "condition_warnings": self.condition_warnings,
            "worst_condition": self.worst_condition,
            "dc_gmin_stages": self.dc_gmin_stages,
            "dc_source_steps": self.dc_source_steps,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SolverHealth":
        return cls(
            rung_counts={str(k): int(v)
                         for k, v in dict(data.get("rung_counts",
                                                   {})).items()},
            rungs_climbed=int(data.get("rungs_climbed", 0)),
            recovered_steps=int(data.get("recovered_steps", 0)),
            nonfinite_trips=int(data.get("nonfinite_trips", 0)),
            condition_checks=int(data.get("condition_checks", 0)),
            condition_warnings=int(data.get("condition_warnings", 0)),
            worst_condition=float(data.get("worst_condition", 0.0)),
            dc_gmin_stages=int(data.get("dc_gmin_stages", 0)),
            dc_source_steps=int(data.get("dc_source_steps", 0)),
        )


def guard_finite(x: np.ndarray, where: str,
                 health: Optional[SolverHealth] = None) -> np.ndarray:
    """Raise :class:`ConvergenceError` when the solution carries a NaN
    or Inf — converted to a ladder-recoverable failure instead of
    silently poisoning every later timestep."""
    if np.isfinite(x).all():
        return x
    if health is not None:
        health.note_nonfinite()
    raise ConvergenceError(
        f"non-finite solution ({where}): "
        f"{int(np.size(x) - np.count_nonzero(np.isfinite(x)))} of "
        f"{int(np.size(x))} entries are NaN/Inf",
        state=x.copy(),
    )


def hager_inverse_norm1(solve: Callable[[np.ndarray], np.ndarray],
                        solve_t: Callable[[np.ndarray], np.ndarray],
                        n: int, max_iterations: int = 5) -> float:
    """Hager's estimate of ``‖A⁻¹‖₁`` from solve callbacks.

    ``solve(b)`` must return ``A⁻¹·b`` and ``solve_t(b)`` must return
    ``A⁻ᵀ·b`` (both available for free from an LU factorisation).  The
    iteration is deterministic: the start vector and all tie-breaks are
    fixed, so two runs probe identically.
    """
    if n == 0:
        return 0.0
    x = np.full(n, 1.0 / n)
    estimate = 0.0
    for _ in range(max_iterations):
        y = solve(x)
        if not np.all(np.isfinite(y)):
            return CONDITION_CAP
        estimate = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0.0] = 1.0
        z = solve_t(xi)
        if not np.all(np.isfinite(z)):
            return CONDITION_CAP
        j = int(np.argmax(np.abs(z)))
        if float(np.abs(z[j])) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    return estimate


class ConditionProbe:
    """Interval-gated κ₁ estimator attached to a Newton solver.

    The solvers (:class:`~repro.spice.analysis.engine.FastNewtonSolver`
    and the sparse mirror) call :meth:`after_factorization` from inside
    ``_factorize`` with closures over the fresh LU; the probe decides —
    purely from its own deterministic counter — whether this
    factorisation gets estimated.
    """

    def __init__(self, health: SolverHealth,
                 policy: RecoveryPolicy = DEFAULT_POLICY):
        self.health = health
        self.interval = policy.condition_interval
        self.warn_threshold = policy.condition_warn
        self._seen = 0

    def _due(self) -> bool:
        if self.interval <= 0:
            return False
        self._seen += 1
        return (self._seen - 1) % self.interval == 0

    def after_factorization(self,
                            solve: Callable[[np.ndarray], np.ndarray],
                            solve_t: Callable[[np.ndarray], np.ndarray],
                            norm1: Callable[[], float], n: int) -> None:
        """Probe a fresh LU factorisation (``norm1`` lazily computes
        ``‖A‖₁`` so skipped probes cost nothing)."""
        if not self._due():
            return
        kappa = norm1() * hager_inverse_norm1(solve, solve_t, n)
        warned = self.health.note_condition(kappa, self.warn_threshold)
        if warned:
            from repro.obs import is_active as _obs_active
            from repro.obs import metrics as _obs_metrics

            if _obs_active():
                _obs_metrics().inc("recovery.condition_warnings.live", 1)

"""Numerical health guards: NaN/Inf detection and condition estimates,
counted in the analysis's
:class:`~repro.spice.analysis.engine.SolverStats` record.

The condition estimate is Hager's 1-norm estimator (the algorithm
behind LAPACK's ``xLACON``): a handful of extra triangular solves
against an existing LU factorisation yields a lower bound on
``‖A⁻¹‖₁`` that is almost always within a small factor of the truth,
so ``κ₁ ≈ ‖A‖₁ · est(‖A⁻¹‖₁)`` costs O(n²) per probe instead of the
O(n³) of an explicit inverse.  Probes are interval-gated so healthy
circuits pay for at most one in every
:data:`~repro.recovery.policy.CONDITION_INTERVAL` factorisations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.recovery.policy import CONDITION_INTERVAL, CONDITION_WARN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spice.analysis.engine import SolverStats

#: Ceiling applied to stored condition estimates so the solver record
#: stays canonical-JSON serialisable (no IEEE infinities in payloads).
CONDITION_CAP = 1e300


def guard_finite(x: np.ndarray, where: str,
                 stats: Optional["SolverStats"] = None) -> np.ndarray:
    """Raise :class:`ConvergenceError` when the solution carries a NaN
    or Inf — converted to a ladder-recoverable failure instead of
    silently poisoning every later timestep."""
    if np.isfinite(x).all():
        return x
    if stats is not None:
        stats.nonfinite_trips += 1
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

    def __init__(self, stats: "SolverStats"):
        self.stats = stats
        self._seen = 0

    def _due(self) -> bool:
        if CONDITION_INTERVAL <= 0:
            return False
        self._seen += 1
        return (self._seen - 1) % CONDITION_INTERVAL == 0

    def after_factorization(self,
                            solve: Callable[[np.ndarray], np.ndarray],
                            solve_t: Callable[[np.ndarray], np.ndarray],
                            norm1: Callable[[], float], n: int) -> None:
        """Probe a fresh LU factorisation (``norm1`` lazily computes
        ``‖A‖₁`` so skipped probes cost nothing)."""
        if not self._due():
            return
        kappa = min(float(norm1() * hager_inverse_norm1(solve, solve_t, n)),
                    CONDITION_CAP)
        stats = self.stats
        stats.condition_checks += 1
        if kappa > stats.worst_condition:
            stats.worst_condition = kappa
        if kappa > CONDITION_WARN:
            stats.condition_warnings += 1

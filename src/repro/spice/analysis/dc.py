"""DC operating-point analysis: damped Newton–Raphson with gmin stepping.

:func:`solve_dc` solves the point on the engine's own workspace and
Newton loop: a :class:`~repro.spice.analysis.engine.FastNewtonSolver`
over ``MNAWorkspace(circuit, dt=None)``, whose capacitors are open,
through :func:`~repro.spice.analysis.engine.modified_newton`, which
refactorises on every iteration of a solve with no previous solution.
A DC-started transient solves its t = 0 point the same way on the run's
own solver (:func:`_dc_point`).  Robustness aids, in escalation order:

1. per-iteration voltage-update damping (default 0.4 V clamp),
2. gmin homotopy: if plain Newton fails, solve a sequence of problems
   with a large conductance from every node to ground, reducing it one
   decade at a time and warm-starting each stage,
3. source stepping (with ``recovery`` on): ramp the independent sources
   up to full scale, warm-starting each stage.

All are standard SPICE practice; the homotopies live in
:func:`repro.recovery.ladder.dc_recover`.  The latch circuits exercise
them: their cross-coupled sense amplifiers have multiple DC solutions,
and the homotopy reliably lands on the one seeded by the initial guess.
The full-restamp Newton the engines are checked against is the tests'
oracle (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AnalysisError, ConvergenceError
from repro.obs import is_active as _obs_active
from repro.obs import metrics as _obs_metrics
from repro.obs import span as _obs_span
from repro.spice.devices.sources import VoltageSource
from repro.spice.analysis.engine import FastNewtonSolver, MNAWorkspace
from repro.spice.netlist import Circuit

#: Default Newton iteration limit per gmin stage.
DEFAULT_MAX_ITERATIONS = 150
#: Default absolute voltage-convergence tolerance [V].
DEFAULT_VTOL = 1e-7
#: Default clamp on the per-iteration voltage update [V].
DEFAULT_DAMPING = 0.4
#: Residual gmin left in the final solve [S].
FLOOR_GMIN = 1e-12


@dataclass
class DCResult:
    """Solved operating point."""

    circuit: Circuit
    voltages: np.ndarray
    branch_currents: np.ndarray
    iterations: int
    gmin: float

    def voltage(self, node_name: str) -> float:
        """Node voltage by name [V]."""
        index = self.circuit.node(node_name)
        return 0.0 if index < 0 else float(self.voltages[index])

    def source_current(self, source_name: str) -> float:
        """Branch current of a voltage source [A] (positive flows from the
        + terminal through the source to the − terminal)."""
        device = self.circuit.device(source_name)
        if not isinstance(device, VoltageSource):
            raise ConvergenceError(f"{source_name!r} is not a voltage source")
        return float(self.branch_currents[device.branch_index])

    def supply_power(self, source_name: str) -> float:
        """Power delivered by the named source [W] at this operating point."""
        device = self.circuit.device(source_name)
        if not isinstance(device, VoltageSource):
            raise ConvergenceError(f"{source_name!r} is not a voltage source")
        v = device.voltage_at(0.0)
        return -v * float(self.branch_currents[device.branch_index])


def _node_vector(circuit: Circuit, voltages) -> np.ndarray:
    """A solution vector of a finalised circuit with the listed node
    voltages and every other unknown at 0."""
    x = np.zeros(circuit.num_nodes + circuit.num_branches)
    for node_name, value in (voltages or {}).items():
        index = circuit.node(node_name)
        if index >= 0:
            x[index] = value
    return x


def _dc_point(solver, x0: np.ndarray, time: float, max_iterations: int,
              vtol: float, damping: float, recovery: bool) -> np.ndarray:
    """The DC point on a scalar Newton solver's workspace, capacitors
    open: plain Newton at the floor gmin from ``x0``, then the recovery
    ladder's homotopies (:func:`~repro.recovery.ladder.dc_recover`) on
    the same solver.

    Every attempt's work goes to ``solver.stats``, for the caller to
    flush; the solve is one ``analysis.dc`` span and, while tracing, one
    ``engine.dc_solves`` count.  Raises :class:`ConvergenceError`
    carrying the last Newton iterate once ``solver.deadline`` passes, or
    when both homotopies are exhausted.
    """
    circuit = solver.workspace.circuit
    with _obs_span("analysis.dc", category="analysis",
                   attrs={"circuit": circuit.name}) as sp:
        failure: Optional[ConvergenceError] = None
        try:
            x = solver.solve(x0, time, None, FLOOR_GMIN, max_iterations,
                             vtol, damping)
        except ConvergenceError as exc:
            failure = exc
        if failure is not None:
            if (solver.deadline is not None
                    and _time.monotonic() > solver.deadline):
                raise ConvergenceError(
                    f"DC solve of {circuit.name!r} exceeded its "
                    f"wall-clock timeout: {failure}",
                    iterations=failure.iterations,
                    residual=failure.residual, state=failure.state,
                ) from failure
            # The ladder runs outside the except handler, so the devlint
            # dev.bare-convergence-retry rule holds: all retry policy
            # lives in repro.recovery.
            from repro.recovery.ladder import dc_recover

            x = dc_recover(solver, x0, time, max_iterations, vtol, damping,
                           FLOOR_GMIN, failure, recovery=recovery)
        if _obs_active():
            sp.annotate(**solver.stats.as_attrs())
            _obs_metrics().inc("engine.dc_solves", 1)
    return x


def solve_dc(
    circuit: Circuit,
    time: float = 0.0,
    initial_guess: Optional[dict] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    vtol: float = DEFAULT_VTOL,
    damping: float = DEFAULT_DAMPING,
    lint: str = "error",
    timeout: Optional[float] = None,
    recovery: bool = True,
) -> DCResult:
    """Find the DC operating point with source values evaluated at ``time``.

    ``initial_guess`` maps node names to seed voltages; unlisted nodes
    start at 0 V.  For bistable circuits (sense amplifiers, latches) the
    seed selects the solution branch.

    ``lint`` selects the ERC pre-flight mode (``"error"`` or ``"off"``,
    see :func:`repro.lint.preflight`): circuits whose MNA system is
    structurally singular (floating nodes, voltage-source loops) are
    reported by name up front instead of as a gmin-stepping stall.

    ``timeout`` bounds the *wall-clock* seconds spent across all Newton
    iterations and gmin stages; crossing it raises
    :class:`~repro.errors.ConvergenceError` with the last Newton iterate
    attached as ``state``.  Fault-injection campaigns rely on this so one
    pathological injected circuit cannot stall a whole sweep.  A
    non-positive ``timeout`` raises :class:`~repro.errors.AnalysisError`
    before the pre-flight.

    ``recovery`` — when plain Newton fails, ``True`` runs the recovery
    ladder's gmin homotopy, then its source stepping, and shrinks an
    exhausted circuit to a minimal reproducer for the forensics bundle;
    ``False`` runs the gmin homotopy only and shrinks nothing.  The
    switch and the ladder's constants (:mod:`repro.recovery.policy`)
    are part of the cache key.
    """
    if timeout is not None and timeout <= 0.0:
        raise AnalysisError(f"timeout must be positive, got {timeout}")

    from repro.lint import preflight

    preflight(circuit, lint)
    deadline = None if timeout is None else _time.monotonic() + timeout

    # Content-addressed result cache: the timeout is a wall-clock budget,
    # not part of the solution, so it is deliberately absent from the key.
    from repro.cache.analysis import dc_handle

    cache_handle = dc_handle(circuit, time=time, initial_guess=initial_guess,
                             max_iterations=max_iterations, vtol=vtol,
                             damping=damping, recovery=recovery)
    if cache_handle is not None:
        cached = cache_handle.lookup()
        if cached is not None:
            return cached

    circuit.finalize()
    solver = FastNewtonSolver(MNAWorkspace(circuit, dt=None))
    solver.deadline = deadline
    x = _dc_point(solver, _node_vector(circuit, initial_guess), time,
                  max_iterations, vtol, damping, recovery)
    if _obs_active():
        solver.stats.flush_to(_obs_metrics())
    result = DCResult(circuit, x[: circuit.num_nodes],
                      x[circuit.num_nodes:], solver.stats.iterations,
                      FLOOR_GMIN)
    if cache_handle is not None:
        cache_handle.store(result)
    return result

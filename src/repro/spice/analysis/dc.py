"""DC operating-point analysis: damped Newton–Raphson with gmin stepping.

The solver assembles the MNA system linearised at the current iterate and
re-solves until the update is small.  Robustness aids, in escalation
order:

1. per-iteration voltage-update damping (default 0.4 V clamp),
2. gmin homotopy: if plain Newton fails, solve a sequence of problems
   with a large conductance from every node to ground, reducing it one
   decade at a time and warm-starting each stage.

Both are standard SPICE practice and are exercised by the latch circuits,
whose cross-coupled sense amplifiers have multiple DC solutions — the
homotopy reliably lands on the one seeded by the initial guess.
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
from repro.spice.devices.base import EvalContext
from repro.spice.devices.sources import VoltageSource
from repro.spice.analysis.engine import SolverStats
from repro.spice.analysis.mna import MNAStamper
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


def _newton(
    circuit: Circuit,
    x0: np.ndarray,
    time: float,
    gmin: float,
    max_iterations: int,
    vtol: float,
    damping: float,
    prev_voltages: Optional[np.ndarray] = None,
    dt: Optional[float] = None,
    integrator: str = "be",
    deadline: Optional[float] = None,
    source_scale: float = 1.0,
) -> tuple:
    """One Newton solve; returns ``(x, iterations)`` or raises.

    ``deadline`` is an absolute :func:`time.monotonic` instant; when the
    iteration loop crosses it, a :class:`ConvergenceError` is raised with
    the last iterate attached as ``state`` — pathological (e.g.
    fault-injected) circuits abort on the wall clock instead of grinding
    through every remaining iteration and gmin stage.

    ``source_scale`` scales every independent source (the recovery
    ladder's source-stepping homotopy).  ``prev_voltages``/``dt``/
    ``integrator`` make it a transient timepoint solve with capacitor
    companions: the full-restamp reference transient the engines are
    tested against drives it that way.
    """
    num_nodes = circuit.num_nodes
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        if deadline is not None and _time.monotonic() > deadline:
            raise ConvergenceError(
                f"Newton solve exceeded its wall-clock timeout at "
                f"iteration {iteration} (gmin={gmin:g})",
                iterations=iteration, state=x.copy(),
            )
        ctx = EvalContext(
            voltages=x[:num_nodes],
            prev_voltages=prev_voltages,
            time=time,
            dt=dt,
            gmin=gmin,
            integrator=integrator,
            source_scale=source_scale,
        )
        stamper = MNAStamper(num_nodes, circuit.num_branches)
        for device in circuit.devices:
            device.stamp(stamper, ctx)
        stamper.apply_gmin(gmin)
        try:
            x_new = stamper.solve()
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix at gmin={gmin:g} (iteration {iteration})",
                iterations=iteration,
            ) from exc

        delta = x_new - x
        dv = delta[:num_nodes]
        max_dv = float(np.max(np.abs(dv))) if num_nodes else 0.0
        if max_dv > damping:
            # Damp the whole update uniformly to preserve the Newton direction.
            delta *= damping / max_dv
            x = x + delta
        else:
            x = x_new
            if max_dv < vtol:
                return x, iteration
    raise ConvergenceError(
        f"Newton failed to converge in {max_iterations} iterations "
        f"(gmin={gmin:g}, last max dV={max_dv:g})",
        iterations=max_iterations,
        residual=max_dv,
        state=x.copy(),
    )


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
    size = circuit.num_nodes + circuit.num_branches
    x0 = np.zeros(size)
    if initial_guess:
        for node_name, value in initial_guess.items():
            index = circuit.node(node_name)
            if index >= 0:
                x0[index] = value

    with _obs_span("analysis.dc", category="analysis",
                   attrs={"circuit": circuit.name}) as sp:
        last_error: Optional[ConvergenceError] = None
        # Plain Newton first, then gmin stepping from strong to weak.
        try:
            x, iterations = _newton(
                circuit, x0, time, FLOOR_GMIN, max_iterations, vtol, damping,
                deadline=deadline)
            _flush_dc_metrics(sp, SolverStats(iterations=iterations))
            result = DCResult(circuit, x[: circuit.num_nodes],
                              x[circuit.num_nodes:], iterations, FLOOR_GMIN)
            if cache_handle is not None:
                cache_handle.store(result)
            return result
        except ConvergenceError as exc:
            last_error = exc
            if deadline is not None and _time.monotonic() > deadline:
                raise ConvergenceError(
                    f"DC solve of {circuit.name!r} exceeded its {timeout:g} s "
                    f"wall-clock timeout: {exc}",
                    iterations=exc.iterations, residual=exc.residual,
                    state=exc.state,
                ) from exc

        # Recovery ladder: staged gmin homotopy, then source stepping.
        # (Deliberately outside the except handler above so the devlint
        # dev.bare-convergence-retry rule holds: all retry policy lives
        # in repro.recovery.)
        from repro.recovery.ladder import dc_recover

        x, stats, _trajectory = dc_recover(
            circuit, _newton, x0, time, max_iterations, vtol, damping,
            FLOOR_GMIN, last_error, recovery=recovery, deadline=deadline,
        )
        _flush_dc_metrics(sp, stats)
        result = DCResult(circuit, x[: circuit.num_nodes],
                          x[circuit.num_nodes:], stats.iterations, FLOOR_GMIN)
        if cache_handle is not None:
            cache_handle.store(result)
        return result


def _flush_dc_metrics(sp, stats: SolverStats) -> None:
    """Record a finished DC solve in the metrics registry (no-op while
    observability is off) and annotate the enclosing span."""
    if not _obs_active():
        return
    sp.annotate(**stats.as_attrs())
    registry = _obs_metrics()
    registry.inc("engine.dc_solves", 1)
    stats.flush_to(registry)

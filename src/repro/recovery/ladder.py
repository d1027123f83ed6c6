"""The recovery ladder: deterministic escalation for failed solves.

One :class:`TransientStepper` owns per-step advancement for every
fast or sparse transient run, fixed-step or adaptive.  The happy
path is exactly the pre-ladder hot loop — one solver call, one state
settle — and every escalation is a pure function of the constants of
:mod:`repro.recovery.policy` and the failing step, so recovered
waveforms are bit-identical for any worker count and cache replay.
A fixed step's solve starts from the step control's prediction; when
it fails from there, the step first solves again from the last
accepted point on the factors the previous step left (counted in
``predictor_fallbacks``), and only a failure of that solve escalates.
An adaptive run first halves a failing step's dt down to its
``dt_base/4`` floor (each halving counted as a ``timestep-cut`` rung);
a floor step climbs the ladder like a fixed step:

* ``gmin``              — retry the step at each ``GMIN_LADDER`` gmin
  (its single entry is the historical strong-gmin retry);
* ``damping``           — tighter dV clamp with a larger iteration
  budget;
* ``timestep-cut``      — re-cover the failing interval with 2^k
  substeps (the step re-doubles back onto the output grid by
  construction);
* ``integrator-switch`` — trap→BE for the offending step only.

Cross-workspace rungs (cut / switch) move capacitor state
through the devices themselves (``MNAWorkspace.flush_state`` /
``reload_state``) and snapshot all mutable device state first, so a
failed rung leaves no trace and a successful one leaves the primary
workspace exactly as if it had taken the step itself.

On exhaustion the step raises :class:`~repro.errors.ConvergenceError`
carrying a :class:`~repro.recovery.forensics.ForensicsBundle`.

:func:`dc_recover` is the DC analogue, on the solver of the failed
plain-Newton attempt: staged gmin homotopy with a residual trajectory,
then source-stepping homotopy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError
from repro.recovery.forensics import ForensicsBundle, stamped_matrix_digest
from repro.recovery.health import ConditionProbe, guard_finite
from repro.recovery.policy import (
    DAMPING_SCALE,
    DC_GMIN_REDUCTION,
    DC_GMIN_START,
    DC_SOURCE_STEPS,
    GMIN_LADDER,
    ITERATION_SCALE,
    MAX_TIMESTEP_CUTS,
    RUNG_DAMPING,
    RUNG_GMIN,
    RUNG_INTEGRATOR_SWITCH,
    RUNG_TIMESTEP_CUT,
    RUNGS,
    SHRINK_BUDGET,
)
from repro.spice.devices.base import EvalContext
from repro.spice.netlist import Circuit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spice.analysis.engine import SolverStats

#: Wall-clock budget [s] per shrink-candidate simulation while building
#: a forensics bundle.  Deliberately not part of any cache key: bundles
#: are diagnostics, not results.
SHRINK_CANDIDATE_TIMEOUT = 10.0


def _short(exc: BaseException) -> str:
    """First line of an exception message (rung-history friendly)."""
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def _count_rung(stats, rung: str) -> None:
    """Count one successful firing of ``rung``."""
    stats.rung_counts[rung] = stats.rung_counts.get(rung, 0) + 1


# ---------------------------------------------------------------------------
# Device-state snapshot (capacitor history, storage-device state)
# ---------------------------------------------------------------------------


def snapshot_device_state(circuit: Circuit) -> Tuple[List[Tuple[Any, float]],
                                                     List[Dict[str, Any]]]:
    """Capture every mutable per-device state so a failed rung attempt
    can be rolled back exactly.

    Capacitors keep their companion current (``_prev_current``); storage
    devices go through the NV-backend capture the result cache uses
    (:func:`repro.nv.base.capture_storage_state`: magnetisation, STT
    progress and events, and a NAND-SPIN junction's SOT record).  A new
    stateful device class must be covered there before the ladder may
    recover circuits containing it.
    """
    from repro.nv.base import capture_storage_state
    from repro.spice.devices.passive import Capacitor

    capacitors = [(device, device._prev_current)
                  for device in circuit.devices
                  if isinstance(device, Capacitor)]
    return capacitors, capture_storage_state(circuit)


def restore_device_state(circuit: Circuit,
                         snapshot: Tuple[List[Tuple[Any, float]],
                                         List[Dict[str, Any]]]) -> None:
    """Write a :func:`snapshot_device_state` capture back."""
    from repro.nv.base import hydrate_storage_state

    capacitors, storage = snapshot
    for device, prev_current in capacitors:
        device._prev_current = prev_current
    hydrate_storage_state(circuit, storage)


# ---------------------------------------------------------------------------
# Attempts: one workspace and Newton solver per (dt, integrator) pair
# ---------------------------------------------------------------------------


class _WorkspaceAttempt:
    """One attempt of the run's engine: a dedicated workspace + Newton
    solver."""

    def __init__(self, circuit: Circuit, engine: str, dt: float,
                 integrator: str, stats, probe: Optional[ConditionProbe]):
        from repro.spice.analysis.engine import (
            FastNewtonSolver,
            MNAWorkspace,
        )

        self.workspace = MNAWorkspace(circuit, dt=dt, integrator=integrator)
        if engine == "sparse":
            from repro.spice.analysis.sparse import SparseNewtonSolver

            self.solver: Any = SparseNewtonSolver(self.workspace, stats=stats)
        else:
            self.solver = FastNewtonSolver(self.workspace, stats=stats)
        self.solver.condition_probe = probe

    def solve(self, x: np.ndarray, time: float, prev_nodes: np.ndarray,
              gmin: float, max_iterations: int, vtol: float,
              damping: float) -> np.ndarray:
        return self.solver.solve(x, time, prev_nodes, gmin, max_iterations,
                                 vtol, damping)

    def settle(self, x: np.ndarray) -> None:
        self.workspace.update_state(x)

    def flush(self) -> None:
        self.workspace.flush_state()

    def reload(self) -> None:
        self.workspace.reload_state()


# ---------------------------------------------------------------------------
# Transient stepper
# ---------------------------------------------------------------------------


class TransientStepper:
    """Per-run step driver: primary solve plus ladder escalation.

    ``advance`` both solves and settles the step — the caller's loop
    never needs to know whether the step went through the primary
    solver or a recovery rung.  ``control`` is the run's step control,
    set by the caller once the t = 0 point is known: it may reject a
    solved step before it settles, and cut dt after a failed solve
    before the step climbs the ladder.  With ``recovery`` off a failed
    step climbs no rung and an exhausted run shrinks nothing.  Attempts
    are built lazily, one per (dt, integrator); the run's own one is
    built first, and its :attr:`solver` may solve the t = 0 point.
    """

    def __init__(self, circuit: Circuit, engine: str, dt: float,
                 integrator: str, max_iterations: int, vtol: float,
                 damping: float, stats, floor_gmin: float,
                 recovery: bool = True):
        self.circuit = circuit
        self.engine = engine
        self.dt = dt
        self.integrator = integrator
        self.max_iterations = max_iterations
        self.vtol = vtol
        self.damping = damping
        self.stats = stats
        self.floor_gmin = floor_gmin
        self.control = None
        self.recovery = recovery
        self.probe = ConditionProbe(stats)
        self._attempts: Dict[Tuple[float, str], _WorkspaceAttempt] = {}
        self._attempt(dt, integrator)
        self.num_nodes = circuit.num_nodes

    def _attempt(self, dt: float, integrator: str) -> _WorkspaceAttempt:
        key = (dt, integrator)
        attempt = self._attempts.get(key)
        if attempt is None:
            attempt = self._attempts[key] = _WorkspaceAttempt(
                self.circuit, self.engine, dt, integrator, self.stats,
                self.probe)
        return attempt

    # -- public driver interface ------------------------------------------

    @property
    def solver(self):
        """The Newton solver of the run's own (dt, integrator) attempt."""
        return self._attempt(self.dt, self.integrator).solver

    def advance(self, x: np.ndarray, time: float, prev_nodes: np.ndarray,
                dt: float, start: Optional[np.ndarray] = None
                ) -> Optional[np.ndarray]:
        """Solve and settle the step of length ``dt`` ending at ``time``;
        escalates through the ladder on failure.  Returns the accepted
        solution, or ``None`` when the step control rejected the step
        or cut its dt (nothing settled; the caller proposes again).

        ``start`` is the step control's prediction, the Newton start of
        the solve (``None``: the last accepted point ``x``).  A solve that
        fails from it is retried once from ``x`` on the factors the
        previous step left, the solve an unpredicted step makes, before
        the step control may cut dt and before any rung."""
        primary = self._attempt(dt, self.integrator)
        try:
            if start is None:
                x_new = self._solve(primary, x, time, prev_nodes)
            else:
                x_new = self._predicted_solve(primary, start, x, time,
                                              prev_nodes)
        except ConvergenceError as failure:
            if self.control.cut():
                self.stats.rungs_climbed += 1
                _count_rung(self.stats, RUNG_TIMESTEP_CUT)
                return None
            return self._recover(failure, primary, dt, x, time, prev_nodes)
        if not self.control.accept(x_new):
            self.stats.lte_rejects += 1
            return None
        primary.settle(x_new)
        return x_new

    def _solve(self, primary, x0: np.ndarray, time: float,
               prev_nodes: np.ndarray, gmin: Optional[float] = None,
               damping: Optional[float] = None,
               max_iterations: Optional[int] = None) -> np.ndarray:
        """One guarded solve of the step from ``x0`` on the primary
        attempt, at the run's floor gmin, damping and iteration budget
        unless given."""
        x_new = primary.solve(
            x0, time, prev_nodes,
            self.floor_gmin if gmin is None else gmin,
            self.max_iterations if max_iterations is None else max_iterations,
            self.vtol, self.damping if damping is None else damping)
        return guard_finite(x_new, f"engine={self.engine} t={time:g} s",
                            self.stats)

    def _predicted_solve(self, primary, start: np.ndarray, x: np.ndarray,
                         time: float, prev_nodes: np.ndarray) -> np.ndarray:
        """The step's solve from the prediction ``start``, retried once
        from the accepted point ``x`` on the factors it started on."""
        solver = primary.solver
        factors = solver._factors, solver._carried
        try:
            return self._solve(primary, start, time, prev_nodes)
        except ConvergenceError:
            self.stats.predictor_fallbacks += 1
            solver._factors, solver._carried = factors
            return self._solve(primary, x, time, prev_nodes)

    # -- rung machinery ----------------------------------------------------

    def _recover(self, failure: ConvergenceError, primary, dt: float,
                 x0: np.ndarray, time: float,
                 prev_nodes: np.ndarray) -> np.ndarray:
        history: List[Dict[str, str]] = []
        for rung in RUNGS if self.recovery else ():
            for detail, attempt in self._rung_attempts(
                    rung, primary, dt, x0, time, prev_nodes):
                self.stats.rungs_climbed += 1
                if rung == RUNG_GMIN:
                    # Counted exactly like the historical hard-coded
                    # retry, so the obs counter keeps its meaning.
                    self.stats.gmin_retries += 1
                try:
                    x_new = attempt()
                except ConvergenceError as exc:
                    history.append({"rung": rung, "detail": detail,
                                    "outcome": f"failed: {_short(exc)}"})
                    failure = exc
                    continue
                history.append({"rung": rung, "detail": detail,
                                "outcome": "recovered"})
                _count_rung(self.stats, rung)
                self.stats.recovered_steps += 1
                return x_new
        self._raise_exhausted(failure, history, x0, time, prev_nodes, dt)
        raise AssertionError("unreachable")  # pragma: no cover

    def _rung_attempts(self, rung: str, primary, dt: float, x0: np.ndarray,
                       time: float, prev_nodes: np.ndarray):
        """Yield ``(detail, thunk)`` sub-attempts for one rung, in
        deterministic order."""
        if rung == RUNG_GMIN:
            for gmin in GMIN_LADDER:
                yield (f"gmin={gmin:g}",
                       lambda g=gmin: self._primary_attempt(
                           primary, x0, time, prev_nodes, gmin=g))
        elif rung == RUNG_DAMPING:
            damping = self.damping * DAMPING_SCALE
            iterations = self.max_iterations * ITERATION_SCALE
            yield (f"damping={damping:g} iters={iterations}",
                   lambda: self._primary_attempt(
                       primary, x0, time, prev_nodes, gmin=self.floor_gmin,
                       damping=damping, max_iterations=iterations))
        elif rung == RUNG_TIMESTEP_CUT:
            for cuts in range(1, MAX_TIMESTEP_CUTS + 1):
                pieces = 2 ** cuts
                yield (f"dt/{pieces}",
                       lambda p=pieces: self._alternate_attempt(
                           primary, self.integrator, dt, p, x0, time,
                           prev_nodes))
        elif rung == RUNG_INTEGRATOR_SWITCH:
            if self.integrator == "trap":
                yield ("trap->be",
                       lambda: self._alternate_attempt(
                           primary, "be", dt, 1, x0, time, prev_nodes))

    def _primary_attempt(self, primary, x0: np.ndarray, time: float,
                         prev_nodes: np.ndarray, gmin: float,
                         damping: Optional[float] = None,
                         max_iterations: Optional[int] = None) -> np.ndarray:
        x = self._solve(primary, x0, time, prev_nodes, gmin, damping,
                        max_iterations)
        primary.settle(x)
        return x

    def _alternate_attempt(self, primary, integrator: str, dt: float,
                           pieces: int, x0: np.ndarray, time: float,
                           prev_nodes: np.ndarray) -> np.ndarray:
        """Re-cover [time − dt, time] with ``pieces`` substeps on an
        alternate (dt/pieces, integrator) attempt, committing device
        state only if the whole interval succeeds."""
        sub_dt = dt / pieces
        attempt = self._attempt(sub_dt, integrator)
        primary.flush()
        snapshot = snapshot_device_state(self.circuit)
        try:
            attempt.reload()
            t_start = time - dt
            x = x0
            prev = prev_nodes
            for k in range(1, pieces + 1):
                # Land the last substep exactly on the grid point.
                t_k = time if k == pieces else t_start + k * sub_dt
                x = self._solve_with_gmins(attempt, x, t_k, prev)
                attempt.settle(x)
                prev = x[:self.num_nodes].copy()
            attempt.flush()
            primary.reload()
            return x
        except ConvergenceError:
            restore_device_state(self.circuit, snapshot)
            primary.reload()
            raise

    def _solve_with_gmins(self, attempt, x: np.ndarray, time: float,
                          prev: np.ndarray) -> np.ndarray:
        """One substep solve, with the rung's gmin ladder folded in so
        the cut/switch rungs compose with gmin stepping.

        Alternate attempts run with the scaled iteration budget, as the
        damping rung does: a step that failed once gets the larger budget
        on every rung that retries it.
        """
        iterations = self.max_iterations * ITERATION_SCALE
        last: Optional[ConvergenceError] = None
        for gmin in (self.floor_gmin,) + GMIN_LADDER:
            try:
                x_new = attempt.solve(x, time, prev, gmin,
                                      iterations, self.vtol,
                                      self.damping)
                return guard_finite(x_new, f"substep t={time:g} s",
                                    self.stats)
            except ConvergenceError as exc:
                last = exc
        assert last is not None
        raise last

    # -- exhaustion --------------------------------------------------------

    def _raise_exhausted(self, failure: ConvergenceError,
                         history: List[Dict[str, str]], x0: np.ndarray,
                         time: float, prev_nodes: np.ndarray,
                         dt: float) -> None:
        last_state = failure.state if failure.state is not None else x0
        bundle = ForensicsBundle(
            analysis="transient",
            circuit_name=self.circuit.name,
            engine=self.engine,
            time=time,
            message=_short(failure),
            last_state=[float(v) for v in np.asarray(last_state).ravel()],
            stats=self.stats.to_json(),
        )
        for entry in history:
            bundle.note_rung(entry["rung"], entry["detail"],
                             entry["outcome"])
        try:
            matrix = _stamped_matrix(self.circuit, np.asarray(last_state),
                                     time, prev_nodes, dt,
                                     self.integrator, self.floor_gmin)
            bundle.matrix_digest = stamped_matrix_digest(matrix)
        except Exception:
            bundle.matrix_digest = None
        self._attach_circuit(bundle, time)
        tried = ", ".join(f"{e['rung']}({e['detail']})" for e in history)
        raise ConvergenceError(
            f"recovery ladder exhausted at t={time:g} s of "
            f"{self.circuit.name!r} (engine={self.engine}): "
            f"{_short(failure)}"
            + (f"; rungs tried: {tried}" if tried else "; no rungs enabled"),
            iterations=failure.iterations, residual=failure.residual,
            state=np.asarray(last_state).copy(), forensics=bundle,
        ) from failure

    def _attach_circuit(self, bundle: ForensicsBundle,
                        fail_time: float) -> None:
        from repro.errors import CacheError

        try:
            from repro.cache.keys import circuit_fingerprint

            bundle.circuit = circuit_fingerprint(self.circuit)
        except CacheError:
            return
        bundle.devices_before = len(self.circuit.devices)
        bundle.devices_after = bundle.devices_before
        if not self.recovery:
            return

        def still_fails(candidate: Circuit) -> bool:
            from repro.cache.analysis import bypassed
            from repro.spice.analysis.transient import run_transient

            try:
                with bypassed():
                    run_transient(
                        candidate, stop_time=fail_time, dt=self.dt,
                        integrator=self.integrator,
                        max_iterations=self.max_iterations, vtol=self.vtol,
                        damping=self.damping, engine=self.engine,
                        lint="off", timeout=SHRINK_CANDIDATE_TIMEOUT,
                        recovery=False, **self.control.request)
            except ConvergenceError:
                return True
            except Exception:
                return False
            return False

        try:
            from repro.recovery.shrink import shrink_failing_circuit

            minimal_fp, minimal = shrink_failing_circuit(
                self.circuit, still_fails, budget=SHRINK_BUDGET)
            bundle.minimal_circuit = minimal_fp
            bundle.devices_after = len(minimal.devices)
        except Exception:
            bundle.minimal_circuit = None


def _stamped_matrix(circuit: Circuit, x: np.ndarray, time: float,
                    prev_nodes: Optional[np.ndarray], dt: Optional[float],
                    integrator: str, gmin: float) -> np.ndarray:
    """Dense re-stamp of the MNA system at an iterate (the forensics
    matrix digest: engine-independent by construction)."""
    from repro.spice.analysis.mna import MNAStamper

    circuit.finalize()
    num_nodes = circuit.num_nodes
    ctx = EvalContext(voltages=x[:num_nodes], prev_voltages=prev_nodes,
                      time=time, dt=dt, gmin=gmin, integrator=integrator)
    stamper = MNAStamper(num_nodes, circuit.num_branches)
    for device in circuit.devices:
        device.stamp(stamper, ctx)
    stamper.apply_gmin(gmin)
    return stamper.matrix


# ---------------------------------------------------------------------------
# DC recovery: staged gmin homotopy + source stepping
# ---------------------------------------------------------------------------


def dc_recover(
    solver,
    x0: np.ndarray,
    time: float,
    max_iterations: int,
    vtol: float,
    damping: float,
    floor_gmin: float,
    first_failure: ConvergenceError,
    recovery: bool = True,
) -> np.ndarray:
    """Recover a failed plain-Newton DC solve on the scalar Newton
    ``solver`` that attempted it (its workspace's capacitors open).

    Stage 1 — gmin homotopy: strong conductance to ground, reduced one
    decade at a time, warm-starting each stage.  Stage 2 — source
    stepping: when the homotopy stalls, ramp every independent source
    from a fraction of its value to full scale, warm-starting along the
    way; the workspace's step RHS, which holds the sources alone while
    the capacitors are open, is scaled by
    ``MNAWorkspace.source_scale``.  With ``recovery`` off only stage 1
    runs, and an exhausted solve shrinks nothing.  A stage raises once
    ``solver.deadline`` passes, and the ladder then stops.

    Returns the solution.  ``solver.stats`` counts the Newton work of
    every attempt, as the solver records it, and the homotopy stages.
    Raises :class:`ConvergenceError` with a :class:`ForensicsBundle`
    when both homotopies are exhausted; its message carries every
    stage and its outcome, the residual trajectory of the solve.
    """
    stats = solver.stats
    circuit = solver.workspace.circuit
    trajectory: List[str] = [
        f"plain newton: {_short(first_failure)} "
        f"(max dV={first_failure.residual:g} V)"]

    def attempt(x: np.ndarray, gmin: float) -> Tuple[np.ndarray, int]:
        before = stats.iterations
        x = solver.solve(x, time, None, gmin, max_iterations, vtol, damping)
        return x, stats.iterations - before

    x = x0
    gmin = DC_GMIN_START
    gmin_failure: Optional[ConvergenceError] = None
    failed_gmin = 0.0
    while gmin >= floor_gmin:
        try:
            x, iterations = attempt(x, gmin)
        except ConvergenceError as exc:
            gmin_failure = exc
            failed_gmin = gmin
            trajectory.append(
                f"gmin {gmin:g}: stalled after {exc.iterations} iterations "
                f"(max dV={exc.residual:g} V)")
            break
        stats.dc_gmin_stages += 1
        trajectory.append(f"gmin {gmin:g}: converged in {iterations} "
                          f"iterations")
        gmin /= DC_GMIN_REDUCTION
    else:
        return x

    assert gmin_failure is not None
    timed_out = _timed_out(solver.deadline)
    source_steps = DC_SOURCE_STEPS if recovery and not timed_out else ()
    source_failure: Optional[ConvergenceError] = None
    if source_steps:
        x = x0
        for scale in source_steps:
            solver.workspace.source_scale = scale
            try:
                x, iterations = attempt(x, floor_gmin)
            except ConvergenceError as exc:
                source_failure = exc
                trajectory.append(
                    f"source step {scale:g}: stalled after "
                    f"{exc.iterations} iterations "
                    f"(max dV={exc.residual:g} V)")
                break
            finally:
                solver.workspace.source_scale = 1.0
            stats.dc_source_steps += 1
            _count_rung(stats, "dc-source-stepping")
            trajectory.append(f"source step {scale:g}: converged in "
                              f"{iterations} iterations")
        else:
            return x

    final = source_failure if source_failure is not None else gmin_failure
    timed_out = _timed_out(solver.deadline)
    if source_failure is not None:
        stage = "source stepping stalled"
    else:
        stage = f"gmin stepping stalled at gmin={failed_gmin:g}"
    reason = ("exceeded its wall-clock timeout during homotopy"
              if timed_out else stage)
    bundle = _dc_bundle(circuit, solver.engine, final, trajectory, stats,
                        recovery, time, max_iterations, vtol, damping,
                        shrink=not timed_out)
    raise ConvergenceError(
        f"{reason}: {_short(final)}; residual trajectory: "
        + " | ".join(trajectory),
        iterations=stats.iterations,
        residual=final.residual, state=final.state, forensics=bundle,
    ) from first_failure


def _timed_out(deadline: Optional[float]) -> bool:
    if deadline is None:
        return False
    import time as _time

    return _time.monotonic() > deadline


def _dc_bundle(circuit: Circuit, engine: str, failure: ConvergenceError,
               trajectory: List[str], stats: "SolverStats",
               recovery: bool, time: float, max_iterations: int,
               vtol: float, damping: float, shrink: bool) -> ForensicsBundle:
    from repro.errors import CacheError

    bundle = ForensicsBundle(
        analysis="dc", circuit_name=circuit.name, engine=engine,
        time=time, message=_short(failure),
        last_state=(None if failure.state is None
                    else [float(v) for v in np.asarray(failure.state)]),
        stats=stats.to_json(),
    )
    for line in trajectory:
        stage, _, outcome = line.partition(": ")
        bundle.note_rung("dc-homotopy", stage, outcome or line)
    if failure.state is not None:
        try:
            matrix = _stamped_matrix(circuit, np.asarray(failure.state),
                                     time, None, None, "be", 0.0)
            bundle.matrix_digest = stamped_matrix_digest(matrix)
        except Exception:
            bundle.matrix_digest = None
    try:
        from repro.cache.keys import circuit_fingerprint

        bundle.circuit = circuit_fingerprint(circuit)
    except CacheError:
        return bundle
    bundle.devices_before = len(circuit.devices)
    bundle.devices_after = bundle.devices_before
    if not (shrink and recovery):
        return bundle

    def still_fails(candidate: Circuit) -> bool:
        from repro.cache.analysis import bypassed
        from repro.spice.analysis.dc import solve_dc

        try:
            with bypassed():
                solve_dc(candidate, time=time,
                         max_iterations=max_iterations, vtol=vtol,
                         damping=damping, lint="off",
                         timeout=SHRINK_CANDIDATE_TIMEOUT,
                         recovery=False)
        except ConvergenceError:
            return True
        except Exception:
            return False
        return False

    try:
        from repro.recovery.shrink import shrink_failing_circuit

        minimal_fp, minimal = shrink_failing_circuit(
            circuit, still_fails, budget=SHRINK_BUDGET)
        bundle.minimal_circuit = minimal_fp
        bundle.devices_after = len(minimal.devices)
    except Exception:
        bundle.minimal_circuit = None
    return bundle

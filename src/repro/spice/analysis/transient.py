"""Transient analysis.

One timestep loop advances the circuit, solving a damped Newton
iteration at each timepoint (companion models supplied by the
capacitors) and then letting stateful devices advance
(:meth:`Device.update_state` — capacitor current history, MTJ switching
progress).  A step control picks each step: fixed steps landing on
``k·dt`` by default, or the LTE control of
:mod:`repro.spice.analysis.sparse` under ``adaptive=True``.  The
:class:`~repro.recovery.ladder.TransientStepper` solves and settles
every step, climbing the recovery ladder when a solve fails.

A fixed step's Newton solve starts at the step control's prediction,
the polynomial through the last accepted solutions (constant at step 1,
then linear and quadratic, up to the cubic of
:data:`~repro.spice.analysis.engine.PREDICTOR_ORDER`), as SPICE-class
simulators start theirs; the capacitor history and the recovery ladder
keep the last accepted solution.  Table II takes 44 % fewer Newton
iterations that way, and no waveform moves by more than the 1e-7 V
Newton tolerance.  A solve that fails from the prediction is retried
once from the last accepted point before any rung.  An adaptive step
starts at the last accepted point.

Integrator choice: ``"be"`` (backward Euler, default — numerically
damped, very robust for the strongly nonlinear latch circuits) or
``"trap"`` (trapezoidal — second order, used by the accuracy tests on RC
circuits).

The initial condition is the DC operating point at ``t = 0`` unless
explicit node voltages are given (``initial_voltages``), which is how
power-gated starts (everything at 0 V) are modelled.  A run solves that
point on its own workspace and solver, with the capacitors open, as
:func:`~repro.spice.analysis.dc.solve_dc` does: plain Newton at the
floor gmin, then the recovery ladder's gmin homotopy and source
stepping, with the run's deadline checked on every iteration.

Engine selection: ``engine="fast"`` (the default) runs the cached-assembly
modified-Newton engine of :mod:`repro.spice.analysis.engine`;
``engine="sparse"`` runs the CSC/SuperLU core of
:mod:`repro.spice.analysis.sparse` (symbolic-pattern reuse, optional
LTE-adaptive timestep via ``adaptive=True``).  Both match a full-restamp
reference transient (``naive_transient`` in
``tests/test_engine_equivalence.py``) to ≤ 1 µV on every node waveform
(enforced there and in ``tests/test_engine_differential.py``); sparse
wins over fast with node count.  ``set_default_engine`` switches the
session-wide default (used by benchmarks to time the paths through code
that does not thread the ``engine`` argument).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional

import numpy as np

from repro.errors import AnalysisError, ConvergenceError, suggest_names
from repro.flow_params import ENGINES
from repro.obs import is_active as _obs_active
from repro.obs import metrics as _obs_metrics
from repro.obs import span as _obs_span
from repro.spice.devices.sources import VoltageSource
from repro.spice.analysis.dc import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_VTOL,
    FLOOR_GMIN,
    _dc_point,
    _node_vector,
)
from repro.spice.analysis.engine import PREDICTOR_ORDER, SolverStats
from repro.spice.netlist import Circuit

#: Session-wide default engine (see :func:`set_default_engine`).
_default_engine = "fast"


def set_default_engine(name: str) -> str:
    """Set the engine used when ``run_transient(engine=None)``; returns the
    previous default so callers can restore it."""
    global _default_engine
    if name not in ENGINES:
        raise AnalysisError(f"unknown engine {name!r}; expected one of {ENGINES}")
    previous = _default_engine
    _default_engine = name
    return previous


def get_default_engine() -> str:
    """The engine currently used when ``run_transient(engine=None)``."""
    return _default_engine


@dataclass
class TransientResult:
    """Sampled waveforms of a transient run."""

    circuit: Circuit
    times: np.ndarray
    node_voltages: np.ndarray  # shape (steps, num_nodes)
    branch_currents: np.ndarray  # shape (steps, num_branches)
    #: Solver record of this run: the engine's work (Newton iterations,
    #: Jacobian factorisations vs reuses, ...) and the recovery ladder's
    #: (rungs climbed, condition-probe results, guard trips) — the same
    #: totals the observability registry receives, so traced campaigns
    #: can check one against the other.  ``stats.clean`` is True for a
    #: run that never needed the ladder.  Round-tripped through the
    #: result cache.
    stats: Optional[SolverStats] = None
    #: Adaptive runs only: the sequence of accepted internal step sizes
    #: [s] (``None`` for fixed-step runs).  Pinned by the dt-trace golden
    #: file so step-selection changes are visible in review.
    dt_trace: Optional[np.ndarray] = None

    def voltage(self, node_name: str) -> np.ndarray:
        """Waveform of a node voltage [V].

        Ground aliases read as a zero waveform; any other name that is not
        a node of the simulated circuit raises :class:`AnalysisError`
        (misspelled probe names used to silently read as zeros).
        """
        if not self.circuit.has_node(node_name):
            raise AnalysisError(
                f"no node named {node_name!r} in circuit {self.circuit.name!r}"
                + suggest_names(node_name, self.circuit.node_names)
            )
        index = self.circuit.node(node_name)
        if index < 0:
            return np.zeros_like(self.times)
        return self.node_voltages[:, index]

    def source_current(self, source_name: str) -> np.ndarray:
        """Branch-current waveform of a voltage source [A]."""
        device = self.circuit.device(source_name)
        if not isinstance(device, VoltageSource):
            raise AnalysisError(f"{source_name!r} is not a voltage source")
        return self.branch_currents[:, device.branch_index]

    def sample(self, node_name: str, time: float) -> float:
        """Linearly interpolated node voltage at an arbitrary time."""
        return float(np.interp(time, self.times, self.voltage(node_name)))

    def final_voltage(self, node_name: str) -> float:
        """Node voltage at the last timepoint."""
        return float(self.voltage(node_name)[-1])

    def window(self, t0: float, t1: float) -> np.ndarray:
        """Boolean mask selecting samples with t0 ≤ t ≤ t1."""
        if t1 < t0:
            raise AnalysisError(f"empty window [{t0}, {t1}]")
        return (self.times >= t0) & (self.times <= t1)


#: Weights of the last accepted points, newest first, of the polynomial
#: through them evaluated one step on (uniform steps): entry ``p`` is
#: order ``p``, the binomial weights ``(-1)^j·C(p + 1, j + 1)``.
_PREDICTOR_WEIGHTS = tuple(
    tuple(float((-1) ** j * comb(order + 1, j + 1))
          for j in range(order + 1))
    for order in range(PREDICTOR_ORDER + 1))


class _FixedSteps:
    """Step control of a fixed-step run: step ``k`` ends at ``k·dt``,
    every step is accepted, a failed solve climbs the recovery ladder,
    and samples fill preallocated output arrays (``x0`` is one solution
    or a batch's ``(N, size)`` stack of them).

    :meth:`predict` extrapolates the step's Newton start from the last
    accepted points: constant at step 1, then linear, quadratic, and
    from step :data:`~repro.spice.analysis.engine.PREDICTOR_ORDER` + 1
    on the polynomial of that order.  Uniform steps make the weights
    constants, and the sum is elementwise, so a batched sample's
    prediction has the bits of its scalar run's.

    The outputs are sample-major: a batch records into ``(N, steps + 1,
    nodes)`` and ``(N, steps + 1, branches)`` blocks, so sample *i*'s
    waveforms are the C-contiguous row ``voltages[i]`` and a batched run
    hands each sample its row as a view.  A scalar run has batch shape
    ``()`` and records ``(steps + 1, nodes)``."""

    #: The ``run_transient`` keywords that select this control.
    request: Dict[str, object] = {}

    def __init__(self, x0: np.ndarray, dt: float, steps: int,
                 num_nodes: int):
        self.dt = dt
        self.steps = steps
        self.num_nodes = num_nodes
        batch = x0.shape[:-1]
        self.times = np.empty(steps + 1)
        self.voltages = np.empty((*batch, steps + 1, num_nodes))
        self.currents = np.empty((*batch, steps + 1, x0.shape[-1] - num_nodes))
        #: The last accepted solutions, newest first.
        self._history: List[np.ndarray] = []
        self.step = -1
        self.record(0.0, x0)  # row 0: the initial point

    def done(self) -> bool:
        return self.step == self.steps

    def propose(self):
        return (self.step + 1) * self.dt, self.dt

    def predict(self) -> Optional[np.ndarray]:
        """The Newton start of the proposed step, or ``None`` at step 1,
        which starts at the last accepted point."""
        history = self._history
        if len(history) == 1:
            return None
        weights = _PREDICTOR_WEIGHTS[len(history) - 1]
        start = weights[0] * history[0]
        for weight, point in zip(weights[1:], history[1:]):
            start += weight * point
        return start

    def accept(self, x_new: np.ndarray) -> bool:
        return True

    def cut(self) -> bool:
        return False

    def record(self, time: float, x_new: np.ndarray) -> None:
        step = self.step = self.step + 1
        self.times[step] = time
        self.voltages[..., step, :] = x_new[..., :self.num_nodes]
        self.currents[..., step, :] = x_new[..., self.num_nodes:]
        # The solvers return a new array every step, so the history
        # keeps references.
        self._history.insert(0, x_new)
        del self._history[PREDICTOR_ORDER + 1:]

    def finish(self):
        return self.times, self.voltages, self.currents, None


def _check_run_args(stop_time: float, dt: float, integrator: str) -> None:
    """The argument checks of every transient driver, scalar or batched."""
    if stop_time <= 0.0 or dt <= 0.0:
        raise AnalysisError("stop_time and dt must be positive")
    if dt > stop_time:
        raise AnalysisError(f"dt={dt} exceeds stop_time={stop_time}")
    if integrator not in ("be", "trap"):
        raise AnalysisError(f"unknown integrator {integrator!r}")


def run_transient(
    circuit: Circuit,
    stop_time: float,
    dt: float,
    integrator: str = "be",
    initial_voltages: Optional[Dict[str, float]] = None,
    dc_seed: Optional[Dict[str, float]] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    vtol: float = DEFAULT_VTOL,
    damping: float = DEFAULT_DAMPING,
    engine: Optional[str] = None,
    lint: str = "error",
    timeout: Optional[float] = None,
    adaptive: bool = False,
    recovery: bool = True,
) -> TransientResult:
    """Simulate from 0 to ``stop_time`` with step ``dt``.

    * ``initial_voltages`` — skip the DC solve and start every listed node
      at the given voltage (others at 0 V): models a cold power-up.
    * ``dc_seed`` — initial guess of the t = 0 DC point (selects the
      branch of bistable circuits).
    * ``engine`` — ``"fast"`` or ``"sparse"``; ``None`` uses
      the session default (see :func:`set_default_engine`).
    * ``adaptive`` — LTE-controlled internal timestep (``engine="sparse"``
      with the ``be`` integrator only); ``dt`` becomes the base step of
      the dt ladder and the output stays sampled on the fixed ``k·dt``
      grid.  The controller's tolerance and growth cap are the constants
      of :mod:`repro.spice.analysis.sparse`.  A failed solve halves the
      step down to ``dt/4``, then climbs the recovery ladder.
    * ``lint`` — ERC pre-flight mode (``"error"`` or ``"off"``):
      structurally broken circuits (floating nodes, supply loops, ...)
      raise a :class:`~repro.errors.NetlistError` naming the root-cause
      diagnostic instead of failing later as a Newton non-convergence.
    * ``timeout`` — wall-clock budget [s] for the whole run; crossing it
      raises :class:`~repro.errors.ConvergenceError` carrying the last
      accepted solution vector as ``state`` and the simulated time
      reached, so fault-injected pathological circuits abort promptly
      instead of grinding through every remaining Newton iteration.
    * ``recovery`` — ``True`` climbs the recovery ladder of
      :mod:`repro.recovery` on a failed step (gmin / damping /
      timestep-cut / integrator-switch, with the constants of
      :mod:`repro.recovery.policy`), and an exhausted run shrinks its
      circuit to a minimal reproducer for the forensics bundle.
      ``False`` climbs no rung (an adaptive run still halves dt down to
      its floor) and shrinks nothing: the failed step raises.  The
      switch and the ladder's constants are part of the cache key;
      recovered results are bit-identical across worker counts and cache
      replays.
    """
    _check_run_args(stop_time, dt, integrator)
    if timeout is not None and timeout <= 0.0:
        raise AnalysisError(f"timeout must be positive, got {timeout}")
    deadline = None if timeout is None else _time.monotonic() + timeout
    if engine is None:
        engine = _default_engine
    if engine not in ENGINES:
        raise AnalysisError(f"unknown engine {engine!r}; expected one of {ENGINES}")

    if adaptive:
        if engine != "sparse":
            raise AnalysisError(
                f"adaptive timestep control requires engine='sparse' "
                f"(got engine={engine!r})")
        if integrator != "be":
            raise AnalysisError(
                "adaptive timestep control supports the 'be' integrator "
                f"only (got {integrator!r})")

    from repro.lint import preflight

    preflight(circuit, lint)

    # Content-addressed result cache (repro.cache): when active, a
    # byte-identical prior run is returned directly — waveforms, stats
    # and MTJ end state — without entering the Newton loop.
    from repro.cache.analysis import transient_handle

    cache_handle = transient_handle(
        circuit, stop_time=stop_time, dt=dt, integrator=integrator,
        initial_voltages=initial_voltages, dc_seed=dc_seed,
        max_iterations=max_iterations, vtol=vtol, damping=damping,
        engine=engine, adaptive=adaptive, recovery=recovery)
    if cache_handle is not None:
        cached = cache_handle.lookup()
        if cached is not None:
            return cached

    run_span = _obs_span(
        "analysis.transient", category="analysis",
        attrs={"circuit": circuit.name, "engine": engine, "dt": dt,
               "stop_time": stop_time})
    stats = SolverStats()

    with run_span:
        circuit.finalize()
        circuit.reset_state()
        num_nodes = circuit.num_nodes

        # Per-step advancement (solve + settle) including the recovery
        # ladder lives in the stepper; the step control picks each step
        # and keeps the accepted points.
        from repro.recovery.ladder import TransientStepper

        with _obs_span("engine.workspace_build", category="engine",
                       attrs={"circuit": circuit.name,
                              "engine": engine}):
            stepper = TransientStepper(
                circuit, engine, dt, integrator, max_iterations, vtol,
                damping, stats, FLOOR_GMIN, recovery=recovery)
        if initial_voltages is not None:
            x = _node_vector(circuit, initial_voltages)
        else:
            # The DC point, on the run's own solver with the capacitors
            # open: its work is the run's, flushed with the rest.
            solver = stepper.solver
            solver.deadline = deadline
            x = _dc_point(solver, _node_vector(circuit, dc_seed), 0.0,
                          max_iterations, vtol, damping, recovery)

        if adaptive:
            from repro.spice.analysis.sparse import LTEStepControl

            control = LTEStepControl(circuit, x, stop_time, dt)
        else:
            control = _FixedSteps(x, dt, int(round(stop_time / dt)),
                                  num_nodes)
        stepper.control = control

        loop_span = _obs_span("engine.timestep_loop", category="engine",
                              attrs={"engine": engine,
                                     "steps": control.steps})
        with loop_span:
            prev_nodes = x[:num_nodes].copy()
            t = 0.0
            while not control.done():
                if deadline is not None and _time.monotonic() > deadline:
                    raise ConvergenceError(
                        f"transient of {circuit.name!r} exceeded its "
                        f"{timeout:g} s wall-clock timeout at t={t:g} s "
                        f"(step {stats.timesteps}/{control.steps})",
                        iterations=stats.timesteps, state=x.copy(),
                    )
                time, step_dt = control.propose()
                x_new = stepper.advance(x, time, prev_nodes, step_dt,
                                        control.predict())
                if x_new is None:
                    continue  # rejected or cut: nothing settled
                stats.timesteps += 1
                control.record(time, x_new)
                t, x = time, x_new
                prev_nodes = x[:num_nodes].copy()
            if _obs_active():
                loop_span.annotate(**stats.as_attrs())

        if _obs_active():
            stats.flush_to(_obs_metrics())
            _obs_metrics().inc("analysis.transients", 1)
            run_span.annotate(**stats.as_attrs())

        times, voltages, currents, dt_trace = control.finish()
        result = TransientResult(circuit, times, voltages, currents,
                                 stats=stats, dt_trace=dt_trace)
        if cache_handle is not None:
            cache_handle.store(result)
        return result

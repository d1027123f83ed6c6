"""Third-generation solver core: sparse CSC factorisation + adaptive dt.

The fast engine (:mod:`repro.spice.analysis.engine`) removed the
per-iteration re-stamping cost but still factorises a *dense* MNA matrix:
node count cubes the cost, which is what makes mini-arrays and k-bit
macros expensive.  This module adds the sparse tier on top of the same
(well-tested) three-tier assembly workspace:

* :class:`SparsePattern` — the CSC sparsity structure of a circuit's MNA
  system, discovered **structurally** (static-matrix nonzeros, the
  vectorised MOSFET group's scatter indices, and a position-recording
  stamp pass over every other nonlinear device) so no numerically-zero
  entry can be missed by value probing.  Patterns are cached in a
  module-level registry keyed on the *structural* part of the circuit
  fingerprint (device classes, terminal indices, branch layout) — the
  symbolic analysis is paid once per topology, so a 200-sample
  Monte-Carlo ensemble of one latch reuses a single pattern.
* :class:`SparseNewtonSolver` — damped modified Newton identical in
  strategy to :class:`~repro.spice.analysis.engine.FastNewtonSolver`
  (frozen-Jacobian reuse, staleness/slow-convergence refresh) but with
  ``scipy.sparse.linalg.splu`` over the pattern-gathered CSC matrix in
  place of dense LAPACK getrf: factorisation cost follows the fill-in of
  the sparse structure instead of n³.
* :func:`run_adaptive_transient` — local-truncation-error timestep
  control for ``engine="sparse"`` transients.  The controller estimates
  the backward-Euler LTE from the curvature of the accepted solution
  history (the standard SPICE divided-difference estimator, i.e. the
  first-order member of the trap/BE pair the integrators already
  implement), steps on a power-of-two ladder ``dt_base·2^k`` so the
  cached static tier is rebuilt at most once per ladder level, and
  **clamps dt back to the base step whenever any MTJ is inside a
  switching window** (junction current beyond a fraction of I_c or
  accumulated switching progress pending) so the Table II write/restore
  physics is integrated exactly as the fixed-step engines integrate it.
  Accepted points are resampled onto the caller's fixed output grid, so
  downstream measurement code is oblivious to the internal step ladder.

Equivalence contract (enforced by ``tests/test_engine_differential.py``
and ``tests/test_sparse_engine.py``): non-adaptive sparse waveforms match
the naive and fast engines to ≤ 1 µV on every node; adaptive runs keep
the golden Table II metrics inside the 0.1 % band
(``tests/test_golden_table2_sparse.py``).
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

try:  # sparse LU via SuperLU; the sparse engine needs scipy.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    _HAVE_SPLU = True
except ImportError:  # pragma: no cover - scipy is a declared dependency
    _HAVE_SPLU = False

from repro.errors import AnalysisError, ConvergenceError
from repro.obs import is_active as _obs_active
from repro.obs import metrics as _obs_metrics
from repro.spice.devices.base import EvalContext
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.analysis.engine import (
    MNAWorkspace,
    SolverStats,
    jacobian_refresh,
)
from repro.spice.analysis.mna import MNAStamper
from repro.spice.netlist import Circuit

#: Default LTE acceptance tolerance [V] of the adaptive controller: the
#: estimated per-step backward-Euler truncation error a step may carry.
#: Chosen an order of magnitude under the cross-engine 1 µV-class
#: agreement bound scaled by typical step counts, and verified against
#: the 0.1 % golden Table II band.
DEFAULT_LTE_TOL = 2e-5
#: Default cap on dt growth: dt never exceeds ``max_dt_factor · dt_base``.
DEFAULT_MAX_DT_FACTOR = 8
#: Refinement floor: dt never shrinks below ``dt_base / MIN_DT_DIVISOR``.
MIN_DT_DIVISOR = 4
#: Grow the step only when the LTE estimate is under this fraction of the
#: tolerance (hysteresis so the ladder does not oscillate).
GROW_THRESHOLD = 0.3
#: An MTJ is "inside a switching window" when |I| exceeds this fraction
#: of its critical current (or it carries pending switching progress);
#: the adaptive controller then clamps dt to the base step.
MTJ_WINDOW_FRACTION = 0.5
#: Pending-progress threshold that also pins dt to the base step.
MTJ_PROGRESS_EPSILON = 1e-9
#: SuperLU column-permutation heuristic.  MNA matrices are (nearly)
#: structurally symmetric, so minimum-degree on Aᵀ+A beats the COLAMD
#: default by ~3× in factor time and fill on array-scale circuits.
PERMC_SPEC = "MMD_AT_PLUS_A"
#: Maximum pattern registry entries (topologies) kept alive.
_PATTERN_CACHE_LIMIT = 64


def sparse_config_fingerprint() -> Dict[str, object]:
    """Sparse/adaptive engine configuration a cache key must capture."""
    return {
        "scipy_splu": _HAVE_SPLU,
        "permc_spec": PERMC_SPEC,
        "lte_tol_default": DEFAULT_LTE_TOL,
        "max_dt_factor_default": DEFAULT_MAX_DT_FACTOR,
        "min_dt_divisor": MIN_DT_DIVISOR,
        "grow_threshold": GROW_THRESHOLD,
        "mtj_window_fraction": MTJ_WINDOW_FRACTION,
        "mtj_progress_epsilon": MTJ_PROGRESS_EPSILON,
        # Algorithm revision marker: steps land on source-waveform
        # corners instead of striding over them.
        "source_breakpoints": True,
    }


# ---------------------------------------------------------------------------
# Structural pattern discovery
# ---------------------------------------------------------------------------


class _RecordingMatrix:
    """Matrix stand-in that records ``(row, col)`` write positions.

    Devices stamp through :class:`MNAStamper` methods or directly via
    ``stamper.matrix[r, c] += g`` (the MOSFET does); both routes resolve
    to ``__getitem__`` + ``__setitem__`` here, so the recorded slot set
    is exactly the set of matrix positions a stamp can ever touch —
    independent of the numerical values at the probe iterate.
    """

    def __init__(self) -> None:
        self.slots: set = set()

    def __getitem__(self, key) -> float:
        return 0.0

    def __setitem__(self, key, value) -> None:
        row, col = key
        if row >= 0 and col >= 0:
            self.slots.add((int(row), int(col)))


def _record_stamp_positions(devices, num_nodes: int, num_branches: int,
                            dt: Optional[float], integrator: str) -> set:
    """Matrix positions the given devices' ``stamp`` can write."""
    recorder = _RecordingMatrix()
    stamper = MNAStamper(num_nodes, num_branches,
                         matrix=recorder,  # type: ignore[arg-type]
                         rhs=np.zeros(num_nodes + num_branches))
    probe = EvalContext(voltages=np.zeros(num_nodes),
                        prev_voltages=np.zeros(num_nodes), time=0.0,
                        dt=dt, integrator=integrator)
    for device in devices:
        device.stamp(stamper, probe)
    return recorder.slots


def structure_signature(circuit: Circuit) -> Tuple:
    """Hashable structural fingerprint of a finalised circuit: the part
    of the full cache fingerprint that determines the MNA sparsity
    pattern (device classes and terminal/branch indices — *not* the
    parameter values, so every Monte-Carlo sample of one topology shares
    one signature and therefore one cached pattern)."""
    circuit.finalize()
    return (
        circuit.num_nodes,
        circuit.num_branches,
        tuple(
            (type(d).__name__, tuple(int(n) for n in d.node_indices()),
             int(getattr(d, "branch_index", -1)))
            for d in circuit.devices
        ),
    )


class SparsePattern:
    """CSC structure + gather map of one circuit topology's MNA system.

    ``take_flat`` lists, in CSC order, the flat (row-major) dense-buffer
    index of every structural nonzero; per-iteration CSC assembly is a
    single ``ndarray.take`` from the workspace's dense stamp buffer into
    the CSC ``data`` array — O(nnz), no COO sort, no dedup.
    """

    def __init__(self, workspace: MNAWorkspace):
        size = workspace.size
        slots = set()
        # Tier 1: static-matrix nonzeros (resistors, cap companions,
        # source incidence).  No cancellation risk: conductance stamps
        # accumulate with consistent signs and incidence entries are ±1.
        rows, cols = np.nonzero(workspace._static_matrix)
        slots.update(zip(rows.tolist(), cols.tolist()))
        # Tier 3a: the vectorised MOSFET / MTJ groups' precomputed scatter.
        if workspace.fet_group is not None:
            for flat in workspace.fet_group.flat_index.tolist():
                slots.add((flat // size, flat % size))
        if workspace.mtj_group is not None:
            for flat in workspace.mtj_group.flat_index.tolist():
                slots.add((flat // size, flat % size))
        # Tier 3b: every other nonlinear device, structurally recorded.
        slots.update(_record_stamp_positions(
            workspace._iterate_devices, workspace.num_nodes,
            workspace.num_branches, workspace.dt, workspace.integrator))
        # gmin homotopy writes the node diagonal.
        for node in range(workspace.num_nodes):
            slots.add((node, node))
        # Branch diagonals as explicit structural zeros: keeps every row
        # and column present so SuperLU's permutation never sees an
        # empty column on degenerate sub-circuits.
        for branch in range(workspace.num_nodes, size):
            slots.add((branch, branch))

        flat = np.fromiter((r * size + c for r, c in slots), dtype=np.intp,
                           count=len(slots))
        rows_a = flat // size
        cols_a = flat % size
        order = np.argsort(cols_a * size + rows_a, kind="stable")
        self.size = size
        self.nnz = int(flat.size)
        self.take_flat = flat[order]
        self._sorter: Optional[np.ndarray] = None
        self.indices = rows_a[order].astype(np.int32)
        sorted_cols = cols_a[order]
        self.indptr = np.searchsorted(
            sorted_cols, np.arange(size + 1)).astype(np.int32)

    def gather(self, dense_matrix: np.ndarray, out: np.ndarray) -> None:
        """Fill a CSC ``data`` array from the dense stamp buffer."""
        dense_matrix.ravel().take(self.take_flat, out=out)

    def csc_positions(self, flat: np.ndarray) -> np.ndarray:
        """CSC ``data`` positions of dense row-major flat indices.

        Every requested slot must be structural (present in
        ``take_flat``) — group scatter indices and node diagonals are by
        construction.  Used by the pure-CSC assembly path to scatter
        nonlinear stamps straight into the CSC data array, skipping the
        dense buffer entirely.
        """
        if self._sorter is None:
            self._sorter = np.argsort(self.take_flat, kind="stable")
        pos = self._sorter[np.searchsorted(self.take_flat, flat,
                                           sorter=self._sorter)]
        if not np.array_equal(self.take_flat[pos], flat):
            raise AnalysisError(
                "requested dense slot is not structural in this pattern")
        return pos


_pattern_cache: Dict[Tuple, SparsePattern] = {}


def get_pattern(circuit: Circuit, workspace: MNAWorkspace,
                stats: Optional[SolverStats] = None) -> SparsePattern:
    """Pattern for a topology, from the registry when already analysed.

    The registry key is :func:`structure_signature`; a bounded number of
    topologies is retained (oldest evicted first).
    """
    key = structure_signature(circuit)
    pattern = _pattern_cache.get(key)
    if pattern is not None:
        if stats is not None:
            stats.pattern_reuses += 1
        return pattern
    pattern = SparsePattern(workspace)
    if len(_pattern_cache) >= _PATTERN_CACHE_LIMIT:
        _pattern_cache.pop(next(iter(_pattern_cache)))
    _pattern_cache[key] = pattern
    if stats is not None:
        stats.pattern_builds += 1
    return pattern


def clear_pattern_cache() -> None:
    """Drop every cached sparsity pattern (test isolation helper)."""
    _pattern_cache.clear()


# ---------------------------------------------------------------------------
# Sparse modified-Newton solver
# ---------------------------------------------------------------------------


def _csc_norm1(csc) -> float:
    """‖A‖₁ (max absolute column sum) of a CSC matrix — columns are
    contiguous runs of ``data``, delimited by ``indptr``."""
    if csc.data.size == 0:
        return 0.0
    columns = np.repeat(np.arange(csc.shape[1], dtype=np.intp),
                        np.diff(csc.indptr))
    return float(np.bincount(columns, weights=np.abs(csc.data),
                             minlength=csc.shape[1]).max())


class SparseNewtonSolver:
    """Damped modified Newton with SuperLU factorisations.

    Mirrors :class:`~repro.spice.analysis.engine.FastNewtonSolver`
    exactly in Newton strategy — damping, convergence test, Jacobian
    staleness policy — so the two engines agree to solver tolerance; only
    the linear-algebra backend differs (pattern-gathered CSC + ``splu``
    instead of dense getrf/getrs).
    """

    def __init__(self, workspace: MNAWorkspace,
                 stats: Optional[SolverStats] = None,
                 pattern: Optional[SparsePattern] = None):
        if not _HAVE_SPLU:  # pragma: no cover - scipy is a declared dep
            raise AnalysisError(
                "engine='sparse' needs scipy.sparse.linalg.splu")
        self.workspace = workspace
        self.stats = stats if stats is not None else SolverStats()
        self.pattern = pattern if pattern is not None else get_pattern(
            workspace.circuit, workspace, self.stats)
        self._csc = csc_matrix(
            (np.zeros(self.pattern.nnz), self.pattern.indices,
             self.pattern.indptr),
            shape=(workspace.size, workspace.size))
        self._lu = None
        #: Optional :class:`~repro.recovery.health.ConditionProbe`
        #: (duck-typed, as on :class:`FastNewtonSolver`).
        self.condition_probe = None
        # Pure-CSC assembly: when every nonlinear device is covered by a
        # vectorised group, each Newton iteration scatters straight into
        # the CSC data array — the O(n²) dense static-matrix copy and
        # dense gather disappear from the iteration entirely.  Circuits
        # with ungrouped nonlinear devices keep the dense-assemble +
        # gather route (those devices need an MNAStamper to write to).
        self._pure = not workspace._iterate_devices
        if self._pure:
            self._static_data = np.empty(self.pattern.nnz)
            self.pattern.gather(workspace._static_matrix, self._static_data)
            size = workspace.size
            self._gmin_pos = (self.pattern.csc_positions(
                np.arange(workspace.num_nodes, dtype=np.intp) * (size + 1))
                if workspace.num_nodes else None)
            self._fet_pos = (self.pattern.csc_positions(
                workspace.fet_group.flat_index)
                if workspace.fet_group is not None else None)
            self._mtj_pos = (self.pattern.csc_positions(
                workspace.mtj_group.flat_index)
                if workspace.mtj_group is not None else None)

    def _refresh_csc(self) -> None:
        self.pattern.gather(self.workspace.matrix, self._csc.data)

    def _assemble_csc(self, x: np.ndarray, gmin: float) -> None:
        """Assemble the iterate directly in CSC form (pure mode only)."""
        ws = self.workspace
        data = self._csc.data
        np.copyto(data, self._static_data)
        np.copyto(ws.rhs, ws._step_rhs)
        if gmin > 0.0 and self._gmin_pos is not None:
            data[self._gmin_pos] += gmin
        voltages = x[: ws.num_nodes]
        if ws.fet_group is not None:
            ws.fet_group.stamp_into(data, self._fet_pos, ws.rhs, voltages)
        if ws.mtj_group is not None:
            ws.mtj_group.stamp_into(data, self._mtj_pos, ws.rhs, voltages)

    def _factorize(self) -> None:
        self.stats.factorizations += 1
        try:
            self._lu = splu(self._csc, permc_spec=PERMC_SPEC)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc
        if self.condition_probe is not None:
            lu = self._lu
            csc = self._csc
            self.condition_probe.after_factorization(
                lambda b: lu.solve(b),
                lambda b: lu.solve(b, trans="T"),
                lambda: _csc_norm1(csc),
                self.workspace.size)

    def _delta(self, x: np.ndarray, fresh: bool) -> np.ndarray:
        if fresh or self._lu is None:
            self._factorize()
        else:
            self.stats.reuses += 1
        residual = self._csc @ x - self.workspace.rhs
        return -self._lu.solve(residual)

    def solve(self, x0: np.ndarray, time: float,
              prev_voltages: Optional[np.ndarray], gmin: float,
              max_iterations: int, vtol: float, damping: float) -> np.ndarray:
        """One converged Newton solve at a timepoint (same contract as
        ``FastNewtonSolver.solve``)."""
        ws = self.workspace
        ws.begin_step(time, prev_voltages)
        num_nodes = ws.num_nodes
        stats = self.stats
        timing = stats.stamp_seconds if _obs_active() else None
        x = x0.copy()
        last_factor = 0
        prev_max_dv = np.inf
        max_dv = np.inf
        for iteration in range(1, max_iterations + 1):
            stats.iterations += 1
            if self._pure:
                t0 = _time.perf_counter() if timing is not None else 0.0
                self._assemble_csc(x, gmin)
                if timing is not None:
                    timing["csc_assemble"] = (
                        timing.get("csc_assemble", 0.0)
                        + (_time.perf_counter() - t0))
            else:
                ws.assemble(x, gmin=gmin, timing=timing)
                self._refresh_csc()
            fresh = jacobian_refresh(iteration, last_factor, max_dv,
                                     prev_max_dv)
            try:
                delta = self._delta(x, fresh=fresh)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"singular MNA matrix at gmin={gmin:g} "
                    f"(iteration {iteration})",
                    iterations=iteration,
                ) from exc
            if fresh:
                last_factor = iteration
            if not np.all(np.isfinite(delta)):
                if not fresh:
                    stats.singular_retries += 1
                    self._factorize()
                    last_factor = iteration
                    delta = self._delta(x, fresh=False)
                if not np.all(np.isfinite(delta)):
                    raise ConvergenceError(
                        f"singular MNA matrix at gmin={gmin:g} "
                        f"(iteration {iteration})",
                        iterations=iteration,
                    )

            prev_max_dv = max_dv
            dv = delta[:num_nodes]
            max_dv = float(np.max(np.abs(dv))) if num_nodes else 0.0
            if max_dv > damping:
                x = x + delta * (damping / max_dv)
            else:
                x = x + delta
                if max_dv < vtol:
                    stats.solves += 1
                    return x
        raise ConvergenceError(
            f"Newton failed to converge in {max_iterations} iterations "
            f"(gmin={gmin:g}, last max dV={max_dv:g})",
            iterations=max_iterations,
            residual=max_dv,
            state=x.copy(),
        )


def sparse_linear_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one dense-assembled MNA system through the sparse backend.

    Used by the DC driver's ``engine="sparse"`` path: the dense matrix is
    scanned into CSC once per iteration (O(n²) — negligible against the
    O(n³) dense factorisation it replaces) and factorised with SuperLU.
    Raises :class:`numpy.linalg.LinAlgError` on singularity, matching
    ``numpy.linalg.solve`` so the gmin ladder is engine-agnostic.
    """
    if not _HAVE_SPLU:  # pragma: no cover - scipy is a declared dep
        return np.linalg.solve(matrix, rhs)
    try:
        solution = splu(csc_matrix(matrix),
                        permc_spec=PERMC_SPEC).solve(rhs)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
    if not np.all(np.isfinite(solution)):
        raise np.linalg.LinAlgError("singular matrix (non-finite solution)")
    return solution


# ---------------------------------------------------------------------------
# Adaptive-timestep transient driver (LTE control)
# ---------------------------------------------------------------------------


def _mtj_in_switching_window(mtjs: List[MTJElement], voltages: np.ndarray,
                             num_nodes: int) -> bool:
    """Whether any switching-capable MTJ is near/inside a write event."""
    for element in mtjs:
        ctx = EvalContext(voltages=voltages[:num_nodes], prev_voltages=None,
                          time=0.0, dt=None)
        current = element.current(ctx)
        critical = element.device.params.critical_current
        if abs(current) >= MTJ_WINDOW_FRACTION * critical:
            return True
        if element.switching.progress > MTJ_PROGRESS_EPSILON:
            return True
    return False


def _interp_to_grid(times: np.ndarray, samples: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Piecewise-linear resampling of row-stacked samples onto a grid.

    ``times`` strictly increasing, covering ``[grid[0], grid[-1]]``;
    ``samples`` has one row per accepted timepoint.
    """
    idx = np.clip(np.searchsorted(times, grid, side="right") - 1,
                  0, len(times) - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    span = t1 - t0
    frac = np.where(span > 0.0, (grid - t0) / np.where(span > 0, span, 1.0),
                    0.0)
    frac = np.clip(frac, 0.0, 1.0)
    return samples[idx] + frac[:, None] * (samples[idx + 1] - samples[idx])


def run_adaptive_transient(
    circuit: Circuit,
    x0: np.ndarray,
    stop_time: float,
    dt_base: float,
    integrator: str,
    max_iterations: int,
    vtol: float,
    damping: float,
    floor_gmin: float,
    stats: SolverStats,
    lte_tol: float = DEFAULT_LTE_TOL,
    max_dt_factor: int = DEFAULT_MAX_DT_FACTOR,
    deadline: Optional[float] = None,
    timeout: Optional[float] = None,
    on_step: Optional[Callable[[float, np.ndarray], None]] = None,
    policy=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, "object"]:
    """LTE-controlled sparse transient from an initial solution ``x0``.

    Returns ``(times, node_voltages, branch_currents, dt_trace, health)``
    with the waveforms resampled onto the fixed grid ``k · dt_base`` the
    fixed-step engines produce, ``dt_trace`` the sequence of accepted
    internal step sizes (the review-visible record of step selection —
    pinned by ``tests/golden/dt_trace_sparse.json``), and ``health`` the
    run's :class:`~repro.recovery.health.SolverHealth` record.

    ``policy`` — optional
    :class:`~repro.recovery.policy.RecoveryPolicy`.  The adaptive driver
    already owns step-size control, so only the ladder's gmin rung (and
    the finiteness guard / condition probes) applies here; LTE rejection
    covers the timestep-cut role.

    The dt ladder is ``dt_base · 2^k`` with
    ``k ∈ [-log2(MIN_DT_DIVISOR), log2(max_dt_factor)]``; each rung owns
    one lazily-built workspace/solver pair (the static tier depends on
    dt), so rung changes cost a static rebuild at most once per rung.
    ``on_step`` fires at every *accepted internal* point.
    """
    if integrator != "be":
        raise AnalysisError(
            "adaptive timestep control supports the 'be' integrator "
            f"(got {integrator!r}); run trap circuits fixed-step")
    if lte_tol <= 0.0:
        raise AnalysisError(f"lte_tol must be positive, got {lte_tol}")
    if max_dt_factor < 1:
        raise AnalysisError(
            f"max_dt_factor must be >= 1, got {max_dt_factor}")

    num_nodes = circuit.num_nodes
    steps = int(round(stop_time / dt_base))
    t_end = steps * dt_base  # the fixed drivers integrate to step·dt too
    max_level = max(0, int(np.log2(max_dt_factor)))
    min_level = -int(np.log2(MIN_DT_DIVISOR))
    mtjs = [d for d in circuit.devices
            if isinstance(d, MTJElement) and d.switching is not None]
    # Source-waveform corners (pulse/PWL slope discontinuities): a grown
    # step must land on a corner, never stride over it — the LTE
    # estimate only sees a missed edge one step too late, after the
    # smeared edge is already in the accepted history.
    from repro.spice.devices.sources import CurrentSource, VoltageSource

    corner_set = set()
    for device in circuit.devices:
        if isinstance(device, (VoltageSource, CurrentSource)):
            corner_set.update(device.waveform.breakpoints(t_end))
    corners = np.asarray(sorted(b for b in corner_set if 0.0 < b < t_end))

    from repro.recovery.health import ConditionProbe, SolverHealth, \
        guard_finite
    from repro.recovery.ladder import gmin_ladder_retry
    from repro.recovery.policy import DEFAULT_POLICY

    policy = DEFAULT_POLICY if policy is None else policy
    health = SolverHealth()
    probe = ConditionProbe(health, policy)

    rungs: Dict[float, Tuple[MNAWorkspace, SparseNewtonSolver]] = {}

    def rung(dt: float) -> Tuple[MNAWorkspace, SparseNewtonSolver]:
        pair = rungs.get(dt)
        if pair is None:
            workspace = MNAWorkspace(circuit, dt=dt, integrator=integrator)
            solver = SparseNewtonSolver(workspace, stats=stats)
            solver.condition_probe = probe
            pair = (workspace, solver)
            rungs[dt] = pair
        return pair

    def advance(solver: SparseNewtonSolver, x: np.ndarray, time: float,
                prev_nodes: np.ndarray) -> np.ndarray:
        def attempt(gmin: float) -> np.ndarray:
            return guard_finite(
                solver.solve(x, time, prev_nodes, gmin, max_iterations,
                             vtol, damping),
                f"adaptive t={time:g} s", health)

        try:
            return attempt(floor_gmin)
        except ConvergenceError as exc:
            failure = exc
        if not policy.enabled:
            raise failure
        return gmin_ladder_retry(attempt, policy, stats, health=health,
                                 failure=failure)

    acc_times: List[float] = [0.0]
    acc_states: List[np.ndarray] = [x0.copy()]
    dt_trace: List[float] = []
    x = x0.copy()
    prev_nodes = x[:num_nodes].copy()
    prev_dt: Optional[float] = None
    level = 0
    t = 0.0
    registry = _obs_metrics() if _obs_active() else None

    while t < t_end - 1e-6 * dt_base:
        if deadline is not None and _time.monotonic() > deadline:
            raise ConvergenceError(
                f"adaptive transient of {circuit.name!r} exceeded its "
                f"{timeout:g} s wall-clock timeout at t={t:g} s",
                iterations=len(dt_trace), state=x.copy(),
            )
        dt_try = dt_base * (2.0 ** level)
        final_step = t + dt_try >= t_end - 1e-6 * dt_base
        if final_step:
            dt_try = t_end - t
        if corners.size:
            nxt = np.searchsorted(corners, t + 1e-6 * dt_base)
            if nxt < corners.size and t + dt_try > corners[nxt] \
                    - 1e-6 * dt_base:
                dt_try = float(corners[nxt]) - t
                final_step = False
        workspace, solver = rung(dt_try)
        x_new = advance(solver, x, t + dt_try, prev_nodes)

        # BE local-truncation-error estimate ≈ (dt²/2)·|v''| from the
        # divided-difference curvature of the accepted history.
        if prev_dt is not None and level > min_level and not final_step:
            v_new = x_new[:num_nodes]
            v_cur = acc_states[-1][:num_nodes]
            v_old = acc_states[-2][:num_nodes]
            d1 = (v_new - v_cur) / dt_try
            d0 = (v_cur - v_old) / prev_dt
            curvature = (d1 - d0) / (0.5 * (dt_try + prev_dt))
            err = 0.5 * dt_try * dt_try * float(np.max(np.abs(curvature)))
        else:
            err = 0.0
        if err > lte_tol and level > min_level and not final_step:
            stats.lte_rejects += 1
            level -= 1
            continue  # reject: no device state was advanced

        workspace.update_state(x_new)
        t += dt_try
        acc_times.append(t)
        acc_states.append(x_new.copy())
        dt_trace.append(dt_try)
        stats.timesteps += 1
        if registry is not None:
            registry.observe("engine.sparse.dt_over_base", dt_try / dt_base)
        prev_nodes = x_new[:num_nodes].copy()
        prev_dt = dt_try
        x = x_new
        if on_step is not None:
            on_step(t, x_new[:num_nodes])

        if mtjs and _mtj_in_switching_window(mtjs, x_new, num_nodes):
            level = min(level, 0)
        elif err <= GROW_THRESHOLD * lte_tol and level < max_level:
            level += 1

    times_acc = np.asarray(acc_times)
    states_acc = np.vstack(acc_states)
    grid = np.arange(steps + 1) * dt_base
    resampled = _interp_to_grid(times_acc, states_acc, grid)
    return (grid, resampled[:, :num_nodes], resampled[:, num_nodes:],
            np.asarray(dt_trace), health)

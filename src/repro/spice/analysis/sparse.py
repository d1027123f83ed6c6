"""Sparse engine: CSC factorisation + adaptive dt.

The fast engine (:mod:`repro.spice.analysis.engine`) removed the
per-iteration re-stamping cost but still factorises a *dense* MNA matrix:
node count cubes the cost, which is what makes mini-arrays and k-bit
macros expensive.  This module adds the sparse tier on top of the same
(well-tested) three-tier assembly workspace and the same Newton loop:

* :class:`SparsePattern` — the CSC sparsity structure of a circuit's MNA
  system, discovered **structurally** (static-matrix nonzeros, the
  capacitor companions' and vectorised device groups' scatter indices,
  and a position-recording stamp pass over every other nonlinear device)
  so no numerically-zero entry can be missed by value probing, and the
  pattern is the same with or without a timestep.  Patterns are cached
  in a module-level registry keyed on the *structural* part of the
  circuit fingerprint (device classes, terminal indices, branch layout),
  so the symbolic work is paid once per topology: the structure, the
  scatter map and SuperLU's column order.  The first factorisation of a
  topology runs SuperLU's own ordering (:data:`PERMC_SPEC`) and records
  the order it chose; every later one hands SuperLU the matrix already
  in that order with ``permc_spec="NATURAL"``.  Two bit rules keep the
  recorded route equal, bit for bit, to ordering on every call: the
  pre-ordered matrix relabels rows and columns but keeps each column's
  entries in their original sequence, and the residual ``A·x − b`` and
  ``‖A‖₁`` stay on the original-order matrix (a permuted product would
  accumulate each row in another order).
* :class:`SparseNewtonSolver` — the assembly, factorisation and update
  steps the shared modified-Newton loop
  (:func:`~repro.spice.analysis.engine.modified_newton`) runs with:
  pattern-gathered (or pure) CSC assembly and
  ``scipy.sparse.linalg.splu`` in place of dense LAPACK getrf, so
  factorisation cost follows the fill-in of the sparse structure
  instead of n³.  A reuse iteration assembles nothing: it takes the
  residual from the device currents, with the static matrix's product
  ``G·x`` on a CSC copy of it.  The same solver finds a DC-started
  run's t = 0 operating point: a solve with no previous solution runs
  with the capacitors open, on the run's workspace, pattern and
  recorded column order, refactorising on every iteration, and hands no
  factors to the first timestep.
* :class:`LTEStepControl` — local-truncation-error timestep control for
  ``engine="sparse"`` transients, one of the two step controls of
  :func:`~repro.spice.analysis.transient.run_transient`'s timestep loop.
  The controller estimates the backward-Euler LTE from the curvature of
  the accepted solution history (the standard SPICE divided-difference
  estimator, i.e. the first-order member of the trap/BE pair the
  integrators already implement), steps on a power-of-two ladder
  ``dt_base·2^k`` so the cached static tier is built once per distinct
  dt, lands steps on source-waveform corners, and **clamps dt back to
  the base step whenever any MTJ is inside a switching window**
  (junction current beyond a fraction of I_c or accumulated switching
  progress pending) so the Table II write/restore physics is integrated
  exactly as the fixed-step engines integrate it.  A failed solve
  halves dt down to the ``dt_base/MIN_DT_DIVISOR`` floor; a floor step
  climbs the fixed-step recovery ladder.  Accepted points are resampled
  onto the caller's fixed output grid, so downstream measurement code is
  oblivious to the internal step ladder.

Equivalence contract (enforced by ``tests/test_engine_differential.py``
and ``tests/test_sparse_engine.py``): non-adaptive sparse waveforms match
the fast engine and the full-restamp reference transient to ≤ 1 µV on
every node; adaptive runs keep the golden Table II metrics inside the
0.1 % band (``tests/test_golden_table2_sparse.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.errors import AnalysisError
from repro.obs import is_active as _obs_active
from repro.obs import metrics as _obs_metrics
from repro.spice.devices.base import EvalContext
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.analysis.engine import (
    MNAWorkspace,
    SolverStats,
    modified_newton,
)
from repro.spice.analysis.mna import MNAStamper
from repro.spice.netlist import Circuit

#: LTE acceptance tolerance [V] of the adaptive controller: the
#: estimated per-step backward-Euler truncation error a step may carry.
#: Chosen an order of magnitude under the cross-engine 1 µV-class
#: agreement bound scaled by typical step counts, and verified against
#: the 0.1 % golden Table II band.
LTE_TOL = 2e-5
#: Cap on dt growth: dt never exceeds ``MAX_DT_FACTOR · dt_base``.
MAX_DT_FACTOR = 8
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
        "permc_spec": PERMC_SPEC,
        "lte_tol": LTE_TOL,
        "max_dt_factor": MAX_DT_FACTOR,
        "min_dt_divisor": MIN_DT_DIVISOR,
        "grow_threshold": GROW_THRESHOLD,
        "mtj_window_fraction": MTJ_WINDOW_FRACTION,
        "mtj_progress_epsilon": MTJ_PROGRESS_EPSILON,
        # Algorithm revision markers: steps land on source-waveform
        # corners instead of striding over them; a failed solve halves
        # dt down to the floor, then climbs the recovery ladder.
        "source_breakpoints": True,
        "failed_step_halving": True,
        # Algorithm revision marker: a DC-started run solves its t = 0
        # point on its own solver, capacitors open, instead of with the
        # dense DC Newton, which moves the last bits.
        "own_operating_point": True,
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


_Solve = Callable[[np.ndarray], np.ndarray]


class SparsePattern:
    """CSC structure, gather map and SuperLU column order of one circuit
    topology's MNA system.

    ``take_flat`` lists, in CSC order, the flat (row-major) dense-buffer
    index of every structural nonzero; per-iteration CSC assembly is a
    single ``ndarray.take`` from the workspace's dense stamp buffer into
    the CSC ``data`` array — O(nnz), no COO sort, no dedup.

    :meth:`factorize` decides how SuperLU is called.  The first
    factorisation of the topology orders the columns itself and the
    pattern records that order; later ones reuse it, so the ordering is
    paid once per topology.  A pattern is shared process-wide: the order
    is set by one assignment, and it depends on the structure alone, so
    two threads racing to record it write the same value.
    """

    def __init__(self, workspace: MNAWorkspace):
        size = workspace.size
        slots = set()
        # Tier 1: static-matrix nonzeros (resistors, source incidence).
        # No cancellation risk: conductance stamps accumulate with
        # consistent signs and incidence entries are ±1.
        rows, cols = np.nonzero(workspace._static_matrix)
        slots.update(zip(rows.tolist(), cols.tolist()))
        # The capacitor companions' precomputed scatter, which holds
        # values only when dt is set (so the pattern does not depend on
        # dt), and tier 3a: the vectorised MOSFET / MTJ groups'.
        scatters = [workspace.cap_group.g_index]
        scatters += [group.flat_index
                     for group in (workspace.fet_group, workspace.mtj_group)
                     if group is not None]
        slots.update(divmod(flat, size)
                     for flat in np.concatenate(scatters).tolist())
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
        #: ``(perm_c, inverse, positions, indices, indptr)`` of the
        #: pre-ordered matrix, or ``None`` before the first factorisation.
        self._order: Optional[Tuple[np.ndarray, ...]] = None

    def factorize(self, csc) -> Tuple[_Solve, _Solve]:
        """SuperLU factors of ``csc``, a matrix on this pattern, as
        ``(solve, solve_transposed)`` in the original order.

        Raises ``RuntimeError`` on an exactly singular matrix, as
        ``splu`` does.
        """
        order = self._order
        if order is None:
            lu = splu(csc, permc_spec=PERMC_SPEC)
            self._record_order(lu.perm_c)
            return lu.solve, lambda b: lu.solve(b, trans="T")
        # scipy forces SymmetricMode for NATURAL, so SuperLU skips its
        # elimination-tree postorder; the recorded perm_c already holds
        # the first factorisation's postorder, so the pre-ordered
        # elimination repeats the per-call one exactly.  In a magnitude
        # tie SuperLU prefers the diagonal pivot, which it finds by the
        # column's original index, so the rows are relabelled with the
        # columns (permuting columns alone can pick another pivot).
        # Each column keeps its entries in their original sequence, the
        # order the pivot search meets them in; the flag stops splu from
        # sorting them.
        perm, inverse, positions, indices, indptr = order
        ordered = csc_matrix((csc.data.take(positions), indices, indptr),
                             shape=csc.shape)
        ordered.has_canonical_format = True
        lu = splu(ordered, permc_spec="NATURAL")
        return (lambda b: lu.solve(b.take(inverse)).take(perm),
                lambda b: lu.solve(b.take(inverse), trans="T").take(perm))

    def _record_order(self, perm_c: np.ndarray) -> None:
        """Keep SuperLU's column order for the topology's later
        factorisations: original row and column ``k`` become ``perm_c[k]``
        of the pre-ordered matrix, whose column ``j`` is original column
        ``inverse[j]``; ``positions`` maps its CSC ``data`` slots to the
        original ones."""
        perm = np.asarray(perm_c, dtype=np.intp)
        inverse = np.argsort(perm)
        counts = np.diff(self.indptr)[inverse]
        indptr = np.zeros(self.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        positions = (np.repeat(self.indptr[inverse] - indptr[:-1], counts)
                     + np.arange(self.nnz))
        indices = perm[self.indices[positions]].astype(np.int32)
        self._order = (perm, inverse, positions, indices, indptr)

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


def get_pattern(circuit: Circuit, workspace: MNAWorkspace) -> SparsePattern:
    """Pattern for a topology, from the registry when already analysed.

    The registry key is :func:`structure_signature`; a bounded number of
    topologies is retained (oldest evicted first).  The registry serves
    the whole process, so its builds and reuses are not a run's work and
    enter no :class:`SolverStats` record: while tracing, each call counts
    one ``engine.sparse_pattern_builds`` or
    ``engine.sparse_pattern_reuses`` in the metrics registry.
    """
    key = structure_signature(circuit)
    pattern = _pattern_cache.get(key)
    built = pattern is None
    if built:
        pattern = SparsePattern(workspace)
        if len(_pattern_cache) >= _PATTERN_CACHE_LIMIT:
            _pattern_cache.pop(next(iter(_pattern_cache)))
        _pattern_cache[key] = pattern
    if _obs_active():
        _obs_metrics().inc("engine.sparse_pattern_builds" if built
                           else "engine.sparse_pattern_reuses", 1)
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

    Runs the fast engine's Newton loop
    (:func:`~repro.spice.analysis.engine.modified_newton`) — damping,
    convergence test, Jacobian staleness policy, factors carried across
    timepoints — so the two engines agree to solver tolerance; only its
    steps differ: CSC assembly (pure, or dense then gathered), SuperLU
    factors through :meth:`SparsePattern.factorize` and their solves
    instead of dense getrf/getrs, and ``G·x`` of the reuse residual on
    the CSC static matrix.
    """

    #: The ``run_transient`` engine name of the solver.
    engine = "sparse"

    def __init__(self, workspace: MNAWorkspace,
                 stats: Optional[SolverStats] = None,
                 pattern: Optional[SparsePattern] = None):
        self.workspace = workspace
        self.stats = stats if stats is not None else SolverStats()
        #: :func:`time.monotonic` instant past which a DC solve raises.
        self.deadline: Optional[float] = None
        self.pattern = pattern if pattern is not None else get_pattern(
            workspace.circuit, workspace)
        self._csc = csc_matrix(
            (np.zeros(self.pattern.nnz), self.pattern.indices,
             self.pattern.indptr),
            shape=(workspace.size, workspace.size))
        #: Solve with the last factors (:meth:`SparsePattern.factorize`).
        self._factors: Optional[_Solve] = None
        #: ``(gmin, age)`` of the factors the last converged solve left.
        self._carried: Optional[Tuple[float, int]] = None
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
        # The static matrix in CSC form: the pure assembly's starting
        # point and the linear part G·x of every reuse residual.
        self._static_data = np.empty(self.pattern.nnz)
        self.pattern.gather(workspace._static_matrix, self._static_data)
        self._static_csc = csc_matrix(
            (self._static_data, self.pattern.indices, self.pattern.indptr),
            shape=(workspace.size, workspace.size))
        if self._pure:
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

    def _assemble(self, x: np.ndarray, gmin: float) -> None:
        ws = self.workspace
        if not self._pure:
            ws.assemble(x, gmin)
            self.pattern.gather(ws.matrix, self._csc.data)
            return
        # Pure-CSC assembly: the iterate straight into the CSC data.
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
            self._factors, solve_t = self.pattern.factorize(self._csc)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc
        if (self.condition_probe is not None
                and not self.workspace._capacitors_open):
            csc = self._csc
            self.condition_probe.after_factorization(
                self._factors, solve_t, lambda: _csc_norm1(csc),
                self.workspace.size)

    def _residual(self, x: np.ndarray, gmin: float) -> np.ndarray:
        return self.workspace.residual(x, gmin, static=self._static_csc)

    def _update(self, x: np.ndarray,
                residual: Optional[np.ndarray]) -> np.ndarray:
        if residual is None:
            residual = self._csc @ x - self.workspace.rhs
        return -self._factors(residual)

    def solve(self, x0: np.ndarray, time: float,
              prev_voltages: Optional[np.ndarray], gmin: float,
              max_iterations: int, vtol: float, damping: float) -> np.ndarray:
        if prev_voltages is not None:
            return modified_newton(self, x0, time, prev_voltages, gmin,
                                   max_iterations, vtol, damping)
        # No previous solution: a DC point, with the capacitors open in
        # the CSC static tier as in the workspace's
        # (MNAWorkspace.begin_step).
        transient = self._static_data, self._static_csc
        self._static_data, self._static_csc = self._open_static()
        try:
            return modified_newton(self, x0, time, None, gmin,
                                   max_iterations, vtol, damping)
        finally:
            self._static_data, self._static_csc = transient

    def _open_static(self) -> Tuple[np.ndarray, csc_matrix]:
        """The CSC static tier with the capacitors open: the workspace's
        static entries on the companion slots from before the companions
        went in."""
        ws = self.workspace
        data = self._static_data.copy()
        data[self.pattern.csc_positions(ws.cap_group.g_index)] = (
            ws._open_entries)
        return data, csc_matrix((data, self.pattern.indices,
                                 self.pattern.indptr),
                                shape=(ws.size, ws.size))


# ---------------------------------------------------------------------------
# Adaptive timestep control (LTE)
# ---------------------------------------------------------------------------


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


class LTEStepControl:
    """Local-truncation-error step control of an adaptive sparse run.

    dt lives on the ladder ``dt_base·2^k``, ``k`` from
    ``−log2(MIN_DT_DIVISOR)`` (the floor) to ``log2(MAX_DT_FACTOR)``.
    :meth:`propose` lands a step on the next source-waveform corner or
    the stop time; :meth:`accept` rejects a solved step (halving dt)
    whose backward-Euler LTE estimate exceeds ``LTE_TOL``; :meth:`cut`
    halves dt after a failed solve while above the floor; :meth:`record`
    caps dt at ``dt_base`` while an MTJ is in a switching window and
    otherwise grows it after a small estimate (never after a
    ladder-recovered step); :meth:`finish` resamples the accepted
    points onto the output grid ``k·dt_base``.
    """

    def __init__(self, circuit: Circuit, x0: np.ndarray, stop_time: float,
                 dt_base: float):
        #: The ``run_transient`` keywords that select this control.
        self.request = {"adaptive": True}
        self.num_nodes = circuit.num_nodes
        self.dt_base = dt_base
        self.steps = int(round(stop_time / dt_base))
        # Fixed-step runs end at steps·dt too.
        self.t_end = self.steps * dt_base
        self.max_level = max(0, int(np.log2(MAX_DT_FACTOR)))
        self.min_level = -int(np.log2(MIN_DT_DIVISOR))
        self.mtjs = [d for d in circuit.devices
                     if isinstance(d, MTJElement) and d.switching is not None]
        # Source-waveform corners (pulse/PWL slope discontinuities): a
        # grown step must land on a corner, never stride over it — the
        # LTE estimate only sees a missed edge one step too late, after
        # the smeared edge is already in the accepted history.
        from repro.spice.devices.sources import CurrentSource, VoltageSource

        corner_set = set()
        for device in circuit.devices:
            if isinstance(device, (VoltageSource, CurrentSource)):
                corner_set.update(device.waveform.breakpoints(self.t_end))
        self.corners = np.asarray(sorted(b for b in corner_set
                                         if 0.0 < b < self.t_end))
        self.times: List[float] = [0.0]
        self.states: List[np.ndarray] = [x0.copy()]
        self.dt_trace: List[float] = []
        self.level = 0
        self.t = 0.0
        self.prev_dt: Optional[float] = None

    def done(self) -> bool:
        return self.t >= self.t_end - 1e-6 * self.dt_base

    def propose(self) -> Tuple[float, float]:
        """``(time, dt)`` of the next step attempt."""
        t, dt_base = self.t, self.dt_base
        dt_try = dt_base * (2.0 ** self.level)
        final_step = t + dt_try >= self.t_end - 1e-6 * dt_base
        if final_step:
            dt_try = self.t_end - t
        corners = self.corners
        if corners.size:
            nxt = np.searchsorted(corners, t + 1e-6 * dt_base)
            if nxt < corners.size and t + dt_try > corners[nxt] \
                    - 1e-6 * dt_base:
                dt_try = float(corners[nxt]) - t
                final_step = False
        # A step that skips accept() (a ladder-recovered floor step)
        # never grows dt.
        self._dt, self._final, self._err = dt_try, final_step, np.inf
        return t + dt_try, dt_try

    def predict(self) -> None:
        """No prediction: an adaptive step's Newton solve starts at the
        last accepted point."""
        return None

    def accept(self, x_new: np.ndarray) -> bool:
        """LTE check of the proposed step's solution, before it settles."""
        err = 0.0
        if self.prev_dt is not None and self.level > self.min_level \
                and not self._final:
            # BE local-truncation-error estimate ≈ (dt²/2)·|v''| from the
            # divided-difference curvature of the accepted history.
            n, dt_try, prev_dt = self.num_nodes, self._dt, self.prev_dt
            v_new = x_new[:n]
            v_cur = self.states[-1][:n]
            v_old = self.states[-2][:n]
            d1 = (v_new - v_cur) / dt_try
            d0 = (v_cur - v_old) / prev_dt
            curvature = (d1 - d0) / (0.5 * (dt_try + prev_dt))
            err = 0.5 * dt_try * dt_try * float(np.max(np.abs(curvature)))
            if err > LTE_TOL:
                self.level -= 1
                return False
        self._err = err
        return True

    def cut(self) -> bool:
        """Halve dt after a failed solve; False at the floor, where the
        step climbs the recovery ladder instead."""
        if self.level <= self.min_level:
            return False
        self.level -= 1
        return True

    def record(self, time: float, x_new: np.ndarray) -> None:
        """Keep an accepted (settled) step and pick the next level."""
        self.t = time
        self.times.append(time)
        self.states.append(x_new.copy())
        self.dt_trace.append(self._dt)
        self.prev_dt = self._dt
        if self._in_switching_window(x_new):
            self.level = min(self.level, 0)
        elif self._err <= GROW_THRESHOLD * LTE_TOL \
                and self.level < self.max_level:
            self.level += 1

    def _in_switching_window(self, x: np.ndarray) -> bool:
        """Whether any switching-capable MTJ is near/inside a write event."""
        for element in self.mtjs:
            ctx = EvalContext(voltages=x[:self.num_nodes], prev_voltages=None,
                              time=0.0, dt=None)
            current = element.current(ctx)
            critical = element.device.params.critical_current
            if abs(current) >= MTJ_WINDOW_FRACTION * critical:
                return True
            if element.switching.progress > MTJ_PROGRESS_EPSILON:
                return True
        return False

    def finish(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
        """``(times, node_voltages, branch_currents, dt_trace)`` with
        the waveforms resampled onto the output grid."""
        grid = np.arange(self.steps + 1) * self.dt_base
        resampled = _interp_to_grid(np.asarray(self.times),
                                    np.vstack(self.states), grid)
        n = self.num_nodes
        return (grid, resampled[:, :n], resampled[:, n:],
                np.asarray(self.dt_trace))

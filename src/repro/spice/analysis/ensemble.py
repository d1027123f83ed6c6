"""Batched transient analysis of Monte-Carlo ensembles.

A Monte-Carlo study runs the *same topology* N times with only the MTJ
parameter values varying between samples.  The per-sample cost of the
scalar engines is dominated by Python-level work (stamp loops, Newton
bookkeeping, one small LAPACK call per iteration) that is identical
across samples.  This module advances **all N samples together**:

* :class:`EnsembleWorkspace` stacks the N dense MNA systems into
  ``(N, s, s)`` / ``(N, s)`` arrays: one block-diagonal system.  It is
  stamped by the scalar engine's device groups
  (:mod:`~repro.spice.analysis.engine` ``_MOSFETGroup``, ``_MTJGroup``,
  ``_CapacitorGroup``) built over the devices of all N samples, sample
  *i*'s stamps offset into block *i*: one EKV evaluation for all
  transistors of all samples, one TMR evaluation for all junctions, one
  ``np.add.at`` per group and array.  The static tier is stamped once
  (samples share their linear sub-circuit when the device fingerprints
  agree, which Monte-Carlo populations do), and an assembly restores
  only the matrix slots the device groups and gmin write.  The one
  batch-specific device model is the vectorised STT switching
  integration, which owns the P/AP mask the shared MTJ group stamps
  from.
* :class:`EnsembleNewtonSolver` runs the fast engine's damped
  **modified Newton per sample**: each sample keeps its own LU factors
  (raw LAPACK ``getrf``/``getrs``, as bound in
  :mod:`~repro.spice.analysis.engine`) and refreshes them under the
  shared :func:`~repro.spice.analysis.engine.jacobian_refresh` rule,
  evaluated per sample; a sample's factors and their age carry from
  one timepoint to the next.  A sample that reuses its factors takes its
  residual from the device currents, without assembly
  (:meth:`EnsembleWorkspace.residual`); the batch assembles only on an
  iteration where some sample refreshes, and that one assembly also
  supplies the reusing samples' currents.  Damping, convergence,
  freezing and failure are per-sample masks; assembly and residuals are
  batched over the sample axis.
* :func:`run_ensemble_transient` steps the stack on the fixed grid of
  :func:`~repro.spice.analysis.transient.run_transient`, from each
  sample's t = 0 solution, records it sample-major and returns one
  ordinary :class:`~repro.spice.analysis.transient.TransientResult` per
  sample, whose waveforms are views of that sample's rows.  Each step's
  Newton solve starts at the fixed-step control's prediction through
  the last accepted solutions, computed elementwise on the stack, so a
  sample starts where its scalar run starts.

Failures take the scalar path.  A sample whose step fails leaves the
batch at that step (the batch does not retry a failed prediction from
the last accepted point) and, once the batch finishes, reruns alone as
``run_transient(engine="fast")``, which retries it, climbs the recovery
ladder and counts its fallbacks and rungs in its
:class:`~repro.spice.analysis.engine.SolverStats`; the other samples are
not touched.  A batched sample's record counts no fallback, no rung,
no guard trip and no condition probe.  Circuits with a junction whose
class is not exactly
:class:`~repro.spice.devices.mtj_element.MTJElement` (the NAND-SPIN
junction's SOT erase is not modelled here) run as scalar runs.

Determinism: no decision reads another sample, so a sample's result is
the same bits in any batch — chunk size included — and there is no
worker count, scheduling, or RNG anywhere in the batched path: chunked
parallel evaluation is bit-identical for any pool size and any chunk
size of at least 2 (``tests/test_parallel.py``).

Ensemble runs are not routed through the content-addressed result cache:
the unit of caching is one circuit, and on circuits below the scalar
engine's grouping thresholds a batched result differs from the scalar
run by ulps, so it must not be stored under a scalar key.  Callers who
want caching per sample use the scalar engines.

Waveform contract (``tests/test_sparse_engine.py``): each sample's
ensemble waveform matches its scalar ``engine="fast"`` waveform to
≤ 1 µV, and a sample's final MTJ states and switching events are those
of the run that produced its result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, CacheError
from repro.obs import is_active as _obs_active
from repro.obs import metrics as _obs_metrics
from repro.obs import span as _obs_span
from repro.mtj.device import MTJState
from repro.mtj.dynamics import SwitchingEvent
from repro.spice.devices.base import Device, EvalContext
from repro.spice.devices.mosfet import MOSFET
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.devices.passive import Capacitor
from repro.spice.analysis import engine as _engine
from repro.spice.analysis.engine import (
    SolverStats,
    _CapacitorGroup,
    _MOSFETGroup,
    _MTJGroup,
    _RHSView,
    _split_step_devices,
    jacobian_refresh,
)
from repro.spice.analysis.mna import MNAStamper
from repro.spice.analysis.sparse import structure_signature
from repro.spice.analysis.dc import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_VTOL,
    FLOOR_GMIN,
    _node_vector,
    solve_dc,
)
from repro.spice.netlist import Circuit

#: Default number of samples advanced per batched workspace.  Chunking is
#: a *fixed* partition of the sample list (never derived from the worker
#: count), which is what keeps chunked parallel runs bit-identical to
#: serial ones.  A batch pays the fixed cost of a Newton iteration (its
#: numpy calls and Python bookkeeping) once for all its samples, so the
#: bound on the batch is memory: a batch records sample-major waveform
#: blocks that its results view without copying, and 64 samples of the
#: 48-unknown 2-bit latch over 639 timepoints hold 15.7 MB, as much as
#: 32 samples held when each result copied its waveforms out.  The
#: ``chunk=`` argument of :func:`repro.mtj.variation.monte_carlo_ensemble`
#: sets smaller chunks, so that ``workers > 1`` has more chunks to spread.
ENSEMBLE_CHUNK = 64


class _EnsembleMTJs:
    """STT switching of every junction of every sample: a vectorised
    :meth:`~repro.mtj.dynamics.SwitchingModel.step` over the shared
    :class:`~repro.spice.analysis.engine._MTJGroup`, which stamps from the
    P/AP mask this class owns and updates in place."""

    def __init__(self, group: _MTJGroup):
        self.group = group
        mtjs = group.mtjs
        self.ic = np.array([m.device.params.critical_current for m in mtjs])
        self.delta = np.array([m.device.params.thermal_stability
                               for m in mtjs])
        self.attempt = np.array([m.device.params.attempt_time for m in mtjs])
        self.q_dyn = np.array(
            [m.switching.dynamic_charge if m.switching is not None else 0.0
             for m in mtjs])
        self.has_switching = np.array([m.switching is not None for m in mtjs])
        self.progress = np.array(
            [m.switching.progress if m.switching is not None else 0.0
             for m in mtjs])
        self.is_ap = group.read_states()
        group.is_ap = self.is_ap
        self._events: List[Tuple[int, SwitchingEvent]] = []

    def update_state(self, voltages: np.ndarray, dt: float,
                     now: float) -> None:
        """Vectorised :meth:`SwitchingModel.step` over every junction."""
        if not self.has_switching.any():
            return
        current = self.group.currents(voltages)
        target_ap = current > 0.0
        moving = ((current != 0.0) & (target_ap != self.is_ap)
                  & self.has_switching)
        mag = np.abs(current)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            overdrive = mag - self.ic
            t_prec = np.where(overdrive > 0.0, self.q_dyn
                              / np.where(overdrive > 0.0, overdrive, 1.0),
                              np.inf)
            exponent = np.minimum(
                self.delta * (1.0 - mag / self.ic), 700.0)
            t_therm = self.attempt * np.exp(exponent)
            t_sw = np.where(mag > self.ic, t_prec, t_therm)
            gained = np.where(moving, dt / t_sw, 0.0)
        relaxing = self.has_switching & ~moving
        decay = np.exp(-dt / self.attempt)
        self.progress = np.where(relaxing, self.progress * decay,
                                 self.progress + gained)
        flipped = moving & (self.progress >= 1.0)
        if flipped.any():
            for k in np.flatnonzero(flipped):
                state = (MTJState.ANTIPARALLEL if target_ap[k]
                         else MTJState.PARALLEL)
                self._events.append((int(k), SwitchingEvent(
                    time=now, new_state=state, current=float(current[k]))))
            self.is_ap[flipped] = target_ap[flipped]
            self.progress[flipped] = 0.0

    def finalize(self) -> None:
        """Write final magnetisation state, progress, and the recorded
        switching events back into the sample circuits' elements."""
        mtjs = self.group.mtjs
        for k, element in enumerate(mtjs):
            element.device.state = (MTJState.ANTIPARALLEL if self.is_ap[k]
                                    else MTJState.PARALLEL)
            if element.switching is not None:
                element.switching.progress = float(self.progress[k])
        for k, event in self._events:
            mtjs[k].switching.events.append(event)


def _linear_fingerprints(devices: Sequence[Device]) -> Optional[List[dict]]:
    """Device fingerprints, or ``None`` when a device is unfingerprintable
    (then per-sample stamping is used instead of the shared fast path)."""
    from repro.cache.keys import _device_fingerprint

    try:
        return [_device_fingerprint(d) for d in devices]
    except CacheError:
        return None


class EnsembleWorkspace:
    """Stacked MNA systems of N same-topology circuits.

    The MOSFET, MTJ and capacitor stamps are the scalar engine's device
    groups (:mod:`~repro.spice.analysis.engine`), built once over the
    devices of all N circuits: sample *i* stamps block *i* of the
    block-diagonal system (``matrix[i]``, ``rhs[i]``) and reads row *i*
    of the ``(N, size)`` iterate and previous-solution stacks.

    Raises :class:`~repro.errors.AnalysisError` when the circuits do not
    share a structural signature (the batched solve requires one
    topology).
    """

    def __init__(self, circuits: Sequence[Circuit], dt: float,
                 integrator: str = "be"):
        if not circuits:
            raise AnalysisError("ensemble needs at least one circuit")
        signature = structure_signature(circuits[0])
        for circuit in circuits[1:]:
            if structure_signature(circuit) != signature:
                raise AnalysisError(
                    "ensemble circuits must share one topology; "
                    f"{circuit.name!r} differs structurally from "
                    f"{circuits[0].name!r}")
        self.circuits = list(circuits)
        self.count = len(circuits)
        self.dt = dt
        self.integrator = integrator
        c0 = circuits[0]
        self.num_nodes = c0.num_nodes
        self.num_branches = c0.num_branches
        self.size = self.num_nodes + self.num_branches

        n, s = self.count, self.size
        self.matrix = np.zeros((n, s, s))
        self.rhs = np.zeros((n, s))
        self._matrix_flat = self.matrix.reshape(-1)
        self._rhs_flat = self.rhs.reshape(-1)
        self._step_rhs = np.zeros((n, s))
        #: Flat slots of every sample's node diagonal (where gmin goes).
        self._diag = (np.arange(n, dtype=np.intp)[:, None] * (s * s)
                      + np.arange(self.num_nodes, dtype=np.intp) * (s + 1)
                      ).ravel()

        fets: List[List[MOSFET]] = [[] for _ in range(n)]
        caps: List[List[Capacitor]] = [[] for _ in range(n)]
        mtjs: List[List[MTJElement]] = [[] for _ in range(n)]
        linear: List[List[Device]] = [[] for _ in range(n)]
        self._iterate: List[List[Device]] = [[] for _ in range(n)]
        for i, circuit in enumerate(self.circuits):
            for device in circuit.devices:
                if isinstance(device, MOSFET):
                    fets[i].append(device)
                elif isinstance(device, Capacitor):
                    caps[i].append(device)
                elif isinstance(device, MTJElement):
                    mtjs[i].append(device)
                elif device.nonlinear:
                    self._iterate[i].append(device)
                else:
                    linear[i].append(device)

        self.fet_group = _MOSFETGroup(fets, s) if fets[0] else None
        self.cap_group = (_CapacitorGroup(caps, s, dt, integrator)
                          if caps[0] else None)
        self.mtj_group = _MTJGroup(mtjs, s) if mtjs[0] else None
        self._switching = (_EnsembleMTJs(self.mtj_group)
                           if self.mtj_group is not None else None)
        self._linear = linear

        # Shared-linear fast path: when every sample's linear devices are
        # value-identical (the Monte-Carlo case — only MTJ parameters
        # vary), the static matrix and the per-step source RHS are
        # computed once and broadcast; the DC sources' part of that RHS
        # is stamped once, into a base row.
        fp0 = _linear_fingerprints(linear[0])
        self._shared_linear = fp0 is not None and all(
            _linear_fingerprints(linear[i]) == fp0 for i in range(1, n))
        if self._shared_linear:
            self._base_row, self._step_devices = _split_step_devices(
                linear[0], self.num_nodes, self.num_branches, dt,
                integrator)
        self._build_static()
        #: The static stack G, whose product G·x starts a reuse residual:
        #: one ``(1, s, s)`` block that broadcasts when every sample's is
        #: the same (a Monte-Carlo population's), else all ``N``.
        alike = bool((self.matrix == self.matrix[:1]).all())
        self._static_stack = (self.matrix[:1] if alike
                              else self.matrix).copy()
        # The iterate tier writes only the device groups' slots and the
        # node diagonal, so assembly restores just those to their static
        # values; every other slot keeps the static stamp from the build.
        # A per-sample generic device may write anywhere: then every
        # iteration starts from a full copy of the static stack.
        if any(self._iterate):
            self._static: Optional[np.ndarray] = self.matrix.copy()
            #: Scratch system of one sample's generic devices (reuse
            #: residual: their A_dev·x − b_dev).
            self._scratch: Optional[MNAStamper] = MNAStamper(
                self.num_nodes, self.num_branches)
        else:
            self._static = None
            self._scratch = None
            self._restore = np.unique(np.concatenate(
                [self._diag] + [group.flat_index
                                for group in (self.fet_group, self.mtj_group)
                                if group is not None]))
            self._restore_values = self._matrix_flat[self._restore]
        self._time = 0.0
        self._prev: Optional[np.ndarray] = None

    def _static_ctx(self) -> EvalContext:
        return EvalContext(voltages=np.zeros(self.num_nodes),
                           prev_voltages=None, time=0.0, dt=self.dt,
                           integrator=self.integrator)

    def _sample_ctx(self, i: int, x: np.ndarray,
                    gmin: float = 0.0) -> EvalContext:
        """Sample ``i``'s context at the iterate stack ``x``."""
        return EvalContext(
            voltages=x[i, : self.num_nodes],
            prev_voltages=None if self._prev is None
            else self._prev[i, : self.num_nodes],
            time=self._time, dt=self.dt, gmin=gmin,
            integrator=self.integrator)

    def _build_static(self) -> None:
        """Stamp the static tier into :attr:`matrix`."""
        ctx = self._static_ctx()
        if self._shared_linear:
            base = np.zeros((self.size, self.size))
            stamper = MNAStamper(self.num_nodes, self.num_branches,
                                 matrix=base, rhs=np.zeros(self.size))
            for device in self._linear[0]:
                device.stamp_static(stamper, ctx)
            self.matrix[:] = base[None, :, :]
        else:
            for i in range(self.count):
                stamper = MNAStamper(self.num_nodes, self.num_branches,
                                     matrix=self.matrix[i],
                                     rhs=np.zeros(self.size))
                for device in self._linear[i]:
                    device.stamp_static(stamper, ctx)
        if self.cap_group is not None:
            self.cap_group.stamp_static(self._matrix_flat)

    def begin_step(self, time: float, prev: Optional[np.ndarray]) -> None:
        """Rebuild the iterate-free RHS stack for a new timepoint.

        ``prev`` is the ``(N, size)`` stack of the last accepted
        solutions (node voltages first, as in the iterate stack)."""
        if prev is not None and prev.shape != self.rhs.shape:
            raise AnalysisError(
                f"prev must be the {self.rhs.shape} solution stack, "
                f"got shape {prev.shape}")
        self._time = time
        self._prev = prev
        if self._shared_linear:
            row = self._base_row.copy()
            view = _RHSView(self.num_nodes, self.num_branches, row)
            ctx = EvalContext(voltages=np.zeros(0), prev_voltages=None,
                              time=time, dt=self.dt,
                              integrator=self.integrator)
            for device in self._step_devices:
                device.stamp_step(view, ctx)
            self._step_rhs[:] = row[None, :]
        else:
            self._step_rhs[:] = 0.0
            for i in range(self.count):
                view = _RHSView(self.num_nodes, self.num_branches,
                                self._step_rhs[i])
                ctx = EvalContext(
                    voltages=np.zeros(0),
                    prev_voltages=None if prev is None
                    else prev[i, : self.num_nodes],
                    time=time, dt=self.dt, integrator=self.integrator)
                for device in self._linear[i]:
                    device.stamp_step(view, ctx)
        if self.cap_group is not None and prev is not None:
            self.cap_group.step_rhs(self._step_rhs.reshape(-1), prev)

    def assemble(self, x: np.ndarray, gmin: float = 0.0,
                 samples: Optional[np.ndarray] = None) -> None:
        """Assemble every sample's system at the iterate stack ``x``.

        The device groups stamp every sample and keep their currents for
        :meth:`residual`; the per-sample generic devices stamp only the
        listed ``samples`` (all by default), so a sample that takes a
        reuse residual instead is not evaluated twice.
        """
        if self._static is None:
            self._matrix_flat[self._restore] = self._restore_values
        else:
            np.copyto(self.matrix, self._static)
        np.copyto(self.rhs, self._step_rhs)
        if gmin > 0.0 and self.num_nodes:
            self._matrix_flat[self._diag] += gmin
        if self.fet_group is not None:
            self.fet_group.stamp(self._matrix_flat, self._rhs_flat, x)
        if self.mtj_group is not None:
            self.mtj_group.stamp(self._matrix_flat, self._rhs_flat, x)
        for i in self._generic_samples(samples):
            view = MNAStamper(self.num_nodes, self.num_branches,
                              matrix=self.matrix[i], rhs=self.rhs[i])
            ctx = self._sample_ctx(i, x, gmin)
            for device in self._iterate[i]:
                device.stamp(view, ctx)

    def _generic_samples(self, samples: Optional[np.ndarray]) -> List[int]:
        """The listed samples (all by default) that hold generic devices."""
        listed = range(self.count) if samples is None else samples.tolist()
        return [i for i in listed if self._iterate[i]]

    def residual(self, x: np.ndarray, gmin: float = 0.0,
                 samples: Optional[np.ndarray] = None,
                 assembled: bool = False) -> np.ndarray:
        """Every sample's Newton residual ``F(x) = A(x)·x − b(x)`` at the
        iterate stack, formed without assembling: ``G·x − b_step +
        gmin·x_nodes`` plus the device groups' current injections, and
        ``A_dev·x − b_dev`` of the generic devices of the listed
        ``samples`` (all by default; the other rows lack that term).
        ``assembled`` takes the groups' currents from the assembly at
        ``x`` that just ran instead of a currents-only pass; both are the
        same bits, so a sample's residual does not depend on whether
        another sample refreshed its factors.  Returns the ``(N, size)``
        stack.
        """
        f = np.matmul(self._static_stack, x[:, :, None])[:, :, 0]
        f -= self._step_rhs
        num_nodes = self.num_nodes
        if gmin > 0.0 and num_nodes:
            f[:, :num_nodes] += gmin * x[:, :num_nodes]
        flat = f.reshape(-1)
        for group in (self.fet_group, self.mtj_group):
            if group is not None:
                group.inject(flat, group.stamped_currents if assembled
                             else group.currents(x))
        scratch = self._scratch
        for i in self._generic_samples(samples):
            scratch.matrix.fill(0.0)
            scratch.rhs.fill(0.0)
            ctx = self._sample_ctx(i, x, gmin)
            for device in self._iterate[i]:
                device.stamp(scratch, ctx)
            f[i] += scratch.matrix @ x[i] - scratch.rhs
        return f

    def update_state(self, x: np.ndarray) -> None:
        """Advance every sample's stateful devices after an accepted step."""
        if self.cap_group is not None:
            self.cap_group.update_state(x)
        if self._switching is not None:
            self._switching.update_state(x, self.dt, self._time)
        for i, devices in enumerate(self._iterate):
            if devices:
                ctx = self._sample_ctx(i, x)
                for device in devices:
                    device.update_state(ctx)

    def finalize_devices(self) -> None:
        """Write group-held device state back into the sample circuits."""
        if self._switching is not None:
            self._switching.finalize()


class EnsembleNewtonSolver:
    """Damped modified Newton over an :class:`EnsembleWorkspace`, run per
    sample with one LU per sample.

    Each sample follows :class:`~repro.spice.analysis.engine.FastNewtonSolver`
    step for step: it keeps its own LAPACK ``getrf`` factors and solves
    ``A₀·δ = −F(x)`` against them with ``getrs``, refactorising when the
    shared :func:`~repro.spice.analysis.engine.jacobian_refresh` rule says
    so for that sample, and refactorising once to retry a non-finite
    update from stale factors.  A sample's factors carry into the next
    timepoint when it converged, and their age counts only the
    iterations that sample took: a sample that converged early does not
    age while the rest of its batch iterates, so its decisions are those
    of its scalar run.  A refreshing sample's ``F(x)`` is
    ``A(x)·x − b(x)`` of the batch assembly, a reusing sample's comes
    from the device currents.  Damping, convergence, freezing and
    failure are per-sample masks.  Assembly and residuals are batched
    over the sample axis; the factor and solve calls loop over the
    samples that need them, and each ``getrs`` solves in place in the
    sample's row of :attr:`correction`.
    On a 64-sample chunk of the 48-unknown 2-bit latch (one BLAS thread,
    2-vCPU x86-64 VM) that loop factors in ~1.3 ms and solves in ~0.15 ms,
    against 3.5 ms to invert the stack, 2.6 ms for scipy's batched
    ``lu_factor`` (0.6 ms per ``lu_solve``) and 5.3 ms for SuperLU on the
    block-diagonal system.  No decision reads another sample, so a
    sample's iterates do not depend on the batch it runs in.
    """

    def __init__(self, workspace: EnsembleWorkspace):
        self.workspace = workspace
        count = workspace.count
        #: Per-sample work counters (one row per sample).
        self.iterations = np.zeros(count, dtype=np.intp)
        self.solves = np.zeros(count, dtype=np.intp)
        self.factorizations = np.zeros(count, dtype=np.intp)
        self.reuses = np.zeros(count, dtype=np.intp)
        self.singular_retries = np.zeros(count, dtype=np.intp)
        #: Samples that left the batch after a failed step.
        self.failed = np.zeros(count, dtype=bool)
        #: Per-sample ``getrf`` factors ``(lu, piv)``.
        self._lu: List[Optional[Tuple[np.ndarray, np.ndarray]]] = (
            [None] * count)
        #: Samples whose factors the last solve, at :attr:`_carried_gmin`,
        #: converged with, and the age of every sample's factors.
        self._carried = np.zeros(count, dtype=bool)
        self._carried_gmin: Optional[float] = None
        self._age = np.zeros(count, dtype=np.intp)
        #: ``A₀⁻¹·F(x)`` per sample, each row solved in place by ``getrs``
        #: (:attr:`_rows` are its row views); the rows of samples that
        #: converged or left go stale.
        self.correction = np.zeros((count, workspace.size))
        self._rows = list(self.correction)

    def _factorize(self, samples: np.ndarray) -> None:
        """Fresh LU factors for each listed sample; a singular one leaves
        the batch.  The LAPACK handles are read from the engine module at
        call time, so they are the ones the fast engine uses (and any
        instrumentation of them)."""
        getrf = _engine._getrf
        matrix = self.workspace.matrix
        for sample in samples.tolist():
            lu, piv, info = getrf(matrix[sample])
            if info != 0:
                self.failed[sample] = True
            else:
                self._lu[sample] = (lu, piv)

    def _corrections(self, samples: np.ndarray,
                     residual: np.ndarray) -> None:
        """``correction[i] = A₀⁻¹·residual[i]`` against the stored factors
        of each listed sample still in the batch; a failed solve leaves
        it.  The residual rows are copied into :attr:`correction` in one
        batched copy, and ``getrs`` overwrites each (``overwrite_b``), so
        a solve allocates no array."""
        getrs = _engine._getrs
        factors = self._lu
        rows = self._rows
        samples = samples[~self.failed[samples]]
        self.correction[samples] = residual[samples]
        for sample in samples.tolist():
            lu, piv = factors[sample]
            # Positional trans=0, overwrite_b=1: keywords cost f2py
            # about 0.4 µs a call.
            _, info = getrs(lu, piv, rows[sample], 0, 1)
            if info != 0:
                self.failed[sample] = True

    def solve(self, x0: np.ndarray, time: float,
              prev: Optional[np.ndarray], gmin: float, max_iterations: int,
              vtol: float, damping: float) -> np.ndarray:
        """One timepoint for every sample still in the batch; returns the
        iterate stack.  A sample leaves the batch (:attr:`failed`) when it
        does not converge within the budget, ``getrf``/``getrs`` report a
        singular matrix, or its update is not finite from fresh factors or
        after the one stale-factor retry."""
        ws = self.workspace
        ws.begin_step(time, prev)
        num_nodes = ws.num_nodes
        count = ws.count
        failed = self.failed
        x = x0.copy()
        correction = self.correction
        converged = np.zeros(count, dtype=bool)
        no_factors = ~self._carried | (gmin != self._carried_gmin)
        age = self._age
        max_dv = np.full(count, np.inf)
        prev_max_dv = max_dv
        for iteration in range(1, max_iterations + 1):
            active = ~(converged | failed)
            self.iterations[active] += 1
            age[active] += 1
            fresh = active & jacobian_refresh(no_factors, age, max_dv,
                                              prev_max_dv)
            reuse = active & ~fresh
            no_factors[fresh] = False
            age[fresh] = 0
            self.factorizations[fresh] += 1
            self.reuses[reuse] += 1
            refresh = np.flatnonzero(fresh)
            reused = np.flatnonzero(reuse)
            if refresh.size:
                # One batch assembly serves both kinds of sample: the
                # refreshing ones factorise it and take A(x)·x − b(x),
                # the reusing ones take its device currents.
                ws.assemble(x, gmin=gmin, samples=refresh)
                self._factorize(refresh)
                residual = (np.matmul(ws.matrix, x[:, :, None])[:, :, 0]
                            - ws.rhs)
                if reused.size:
                    residual = np.where(
                        reuse[:, None],
                        ws.residual(x, gmin, samples=reused, assembled=True),
                        residual)
            else:
                residual = ws.residual(x, gmin, samples=reused)
            self._corrections(np.flatnonzero(active), residual)
            bad = np.flatnonzero(
                active & ~failed & ~np.isfinite(correction).all(axis=1))
            if bad.size:
                failed[bad[fresh[bad]]] = True
                # Stale factors went bad: assemble, refactor and retry
                # once with the same residual.
                stale = bad[~fresh[bad]]
                self.singular_retries[stale] += 1
                self.factorizations[stale] += 1
                age[stale] = 0
                ws.assemble(x, gmin=gmin, samples=stale)
                self._factorize(stale)
                self._corrections(stale, residual)
                failed[stale] |= ~np.isfinite(correction[stale]).all(axis=1)
            if failed.any():
                # A sample that left takes no update and never converges.
                active &= ~failed
                correction[failed] = 0.0
            delta = -correction
            prev_max_dv = max_dv
            max_dv = (np.max(np.abs(delta[:, :num_nodes]), axis=1)
                      if num_nodes else np.zeros(count))
            scale = np.where(max_dv > damping,
                             damping / np.maximum(max_dv, 1e-300), 1.0)
            stepped = x + delta * scale[:, None]
            x = np.where(converged[:, None], x, stepped)
            converged |= active & (max_dv <= damping) & (max_dv < vtol)
            if (converged | failed).all():
                break
        failed |= ~converged
        self.solves[converged] += 1
        self._carried = converged
        self._carried_gmin = gmin
        return x


def _initial_solution(circuit: Circuit, initial_voltages, dc_seed,
                      max_iterations: int, vtol: float,
                      damping: float) -> np.ndarray:
    """The t = 0 solution of a sample: the listed node voltages (every
    other unknown at 0), else the DC point :func:`solve_dc` finds from
    ``dc_seed``, which has the bits of the point the sample's scalar run
    finds on its own solver."""
    if initial_voltages is not None:
        return _node_vector(circuit, initial_voltages)
    dc = solve_dc(circuit, time=0.0, initial_guess=dc_seed,
                  max_iterations=max_iterations, vtol=vtol,
                  damping=damping, lint="off")  # already pre-flighted
    return np.concatenate([dc.voltages, dc.branch_currents])


def run_ensemble_transient(
    circuits: Sequence[Circuit],
    stop_time: float,
    dt: float,
    integrator: str = "be",
    initial_voltages: Optional[Dict[str, float]] = None,
    dc_seed: Optional[Dict[str, float]] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    vtol: float = DEFAULT_VTOL,
    damping: float = DEFAULT_DAMPING,
    lint: str = "error",
):
    """Advance N same-topology circuits through one batched transient.

    Returns a list of :class:`~repro.spice.analysis.transient.TransientResult`,
    one per circuit, in input order.  Options mirror
    :func:`~repro.spice.analysis.transient.run_transient`; the ERC
    pre-flight runs on the first sample (the samples are structurally
    identical by construction).  A failing sample reruns alone through
    the recovery ladder, so the call fails only where that scalar run
    fails.

    A batched result's ``node_voltages`` and ``branch_currents`` are
    views of its own rows of the batch's sample-major ``(N, steps + 1,
    ·)`` blocks: C-contiguous, disjoint from every other sample's, and
    not copied.  So a batch's blocks stay alive until every result of
    the batch is dropped; copy a waveform out to keep it alone.
    """
    from repro.spice.analysis.transient import (
        TransientResult,
        _check_run_args,
        _FixedSteps,
        run_transient,
    )

    _check_run_args(stop_time, dt, integrator)
    circuits = list(circuits)
    if not circuits:
        return []

    from repro.lint import preflight

    preflight(circuits[0], lint)

    def run_alone(circuit: Circuit):
        return run_transient(circuit, stop_time, dt, integrator=integrator,
                             initial_voltages=initial_voltages,
                             dc_seed=dc_seed, max_iterations=max_iterations,
                             vtol=vtol, damping=damping, engine="fast",
                             lint="off")

    if (len(circuits) == 1
            or any(isinstance(d, MTJElement) and type(d) is not MTJElement
                   for c in circuits for d in c.devices)):
        # One sample is a scalar run, and the batch models STT switching
        # only.
        return [run_alone(c) for c in circuits]

    span = _obs_span("analysis.ensemble_transient", category="analysis",
                     attrs={"circuit": circuits[0].name,
                            "samples": len(circuits), "dt": dt,
                            "stop_time": stop_time})
    with span:
        for circuit in circuits:
            circuit.finalize()
            circuit.reset_state()
        # The workspace validates the topology first, so a mismatched
        # circuit fails with that diagnostic, not a stacking shape error.
        workspace = EnsembleWorkspace(circuits, dt, integrator=integrator)
        x = np.stack([
            _initial_solution(c, initial_voltages, dc_seed, max_iterations,
                              vtol, damping)
            for c in circuits])

        solver = EnsembleNewtonSolver(workspace)
        control = _FixedSteps(x, dt, int(round(stop_time / dt)),
                              workspace.num_nodes)
        prev = x.copy()
        while not control.done() and not solver.failed.all():
            time, _ = control.propose()
            start = control.predict()
            x = solver.solve(x if start is None else start, time, prev,
                             FLOOR_GMIN, max_iterations, vtol, damping)
            workspace.update_state(x)
            control.record(time, x)
            prev = x.copy()
        # A sample that left gets the batch's MTJ end state too; its
        # scalar rerun resets it.
        workspace.finalize_devices()
        times, voltages, currents, _ = control.finish()
        results = [None] * len(circuits)
        for i in np.flatnonzero(~solver.failed).tolist():
            stats = SolverStats(
                solves=int(solver.solves[i]),
                iterations=int(solver.iterations[i]),
                factorizations=int(solver.factorizations[i]),
                reuses=int(solver.reuses[i]),
                singular_retries=int(solver.singular_retries[i]),
                timesteps=control.steps,
            )
            results[i] = TransientResult(
                circuits[i], times.copy(), voltages[i], currents[i],
                stats=stats)

        left = np.flatnonzero(solver.failed).tolist()
        if _obs_active():
            registry = _obs_metrics()
            registry.inc("analysis.ensemble_transients", 1)
            registry.inc("analysis.ensemble_samples", len(circuits))
            if left:
                registry.inc("analysis.ensemble_fallbacks", 1)
            for result in results:
                if result is not None:
                    result.stats.flush_to(registry)
            span.annotate(samples=len(circuits), left=len(left),
                          newton_iterations=int(solver.iterations.sum()))
        for i in left:
            results[i] = run_alone(circuits[i])
        return results

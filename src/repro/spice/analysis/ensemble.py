"""Batched transient analysis of Monte-Carlo ensembles.

A Monte-Carlo study runs the *same topology* N times with only the MTJ
parameter values varying between samples.  The per-sample cost of the
scalar engines is dominated by Python-level work (stamp loops, Newton
bookkeeping, one small LAPACK call per iteration) that is identical
across samples.  This module advances **all N samples together**:

* :class:`EnsembleWorkspace` stacks the N dense MNA systems into
  ``(N, s, s)`` / ``(N, s)`` arrays.  The static tier is stamped once
  (samples share their linear sub-circuit when the device fingerprints
  agree, which Monte-Carlo populations do) and the per-iteration tier is
  evaluated with numpy over the sample axis: one vectorised EKV
  evaluation for all transistors of all samples, one vectorised TMR/STT
  evaluation for all junctions of all samples.  Every stamp is one
  ``np.add.at`` over a precomputed, raveled (sample, slot) index.
* :class:`EnsembleNewtonSolver` runs the fast engine's damped
  **modified Newton per sample**: each sample keeps its own LU factors
  (raw LAPACK ``getrf``/``getrs``, as bound in
  :mod:`~repro.spice.analysis.engine`) and refreshes them under the
  shared :func:`~repro.spice.analysis.engine.jacobian_refresh` rule,
  evaluated per sample.  Damping, convergence and freezing are
  per-sample masks; assembly and residuals are batched over the sample
  axis.
* :func:`run_ensemble_transient` drives the fixed-step loop and returns
  one ordinary :class:`~repro.spice.analysis.transient.TransientResult`
  per sample.  Per-timestep non-convergence first retries the failing
  samples with a strong gmin (the scalar drivers' policy); if the batch
  still cannot converge — or a sample's matrix goes singular — the whole
  call falls back to per-sample scalar transients, so robustness equals
  the scalar path's.

Determinism: no decision reads another sample, so a sample's result is
the same bits in any batch — chunk size included — and there is no
worker count, scheduling, or RNG anywhere in the batched path: chunked
parallel evaluation is bit-identical for any pool size and any chunk
size of at least 2 (``tests/test_parallel.py``).

Ensemble runs are not routed through the content-addressed result cache:
the unit of caching is one circuit, and slicing N-sample batches into
per-sample entries would make the batch result depend on which samples
hit.  Callers who want caching per sample use the scalar engines.

Waveform contract (``tests/test_sparse_engine.py``): each sample's
ensemble waveform matches its scalar ``engine="fast"`` waveform to
≤ 1 µV, and final MTJ states/switching events are written back to the
sample circuits exactly as the scalar path leaves them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, CacheError, ConvergenceError
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
    _CLM_EPSILON,
    SolverStats,
    _MOSFETGroup,
    _RHSView,
    jacobian_refresh,
)
from repro.spice.analysis.mna import MNAStamper
from repro.spice.analysis.sparse import structure_signature
from repro.spice.analysis.dc import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_VTOL,
    FLOOR_GMIN,
    solve_dc,
)
from repro.spice.netlist import Circuit

#: Default number of samples advanced per batched workspace.  Chunking is
#: a *fixed* partition of the sample list (never derived from the worker
#: count), which is what keeps chunked parallel runs bit-identical to
#: serial ones.
ENSEMBLE_CHUNK = 32


class EnsembleFallback(Exception):
    """Internal: the batched path cannot continue; callers rerun the
    affected samples through the scalar engine."""


def _recovery_gmin_ladder() -> tuple:
    """Gmin retry conductances shared with the scalar engines' recovery
    ladder (:data:`repro.recovery.policy.DEFAULT_POLICY`)."""
    from repro.recovery.policy import DEFAULT_POLICY

    return DEFAULT_POLICY.gmin_ladder


def _gather2(voltages: np.ndarray, clipped: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
    """Per-sample node gather: ``voltages`` is (N, s); returns (N, M)
    with ground indices reading 0 V."""
    return voltages.take(clipped, axis=1) * mask


def _sample_major(count: int, stride: int, slots: np.ndarray) -> np.ndarray:
    """Flat indices of per-sample ``slots`` in ``count`` stacked blocks of
    ``stride`` entries, as the raveled (sample, slot) grid."""
    return (np.arange(count, dtype=np.intp)[:, None] * stride
            + slots[None, :]).ravel()


def _scatter_add(flat: np.ndarray, index: np.ndarray,
                 values: np.ndarray) -> None:
    """``np.add.at`` of a (sample, slot) value grid at its
    :func:`_sample_major` index.

    Raveled, the call takes numpy's 1-D ``ufunc.at`` fast path and visits
    the same (sample, slot) pairs in the same order as the 2-D form, so
    every sum comes out bit-identical to it."""
    np.add.at(flat, index, values.ravel())


class _ConductanceScatter:
    """Two-terminal conductance stamps ``g`` of one device group across
    the sample axis: +g on both diagonals, −g on both couplings, ground
    rows and columns dropped (mirrors ``MNAStamper.add_conductance``)."""

    def __init__(self, a: np.ndarray, b: np.ndarray, count: int, size: int):
        slots, signs, sel = [], [], []
        for row, col, sign in ((a, a, 1.0), (b, b, 1.0),
                               (a, b, -1.0), (b, a, -1.0)):
            keep = np.nonzero((row >= 0) & (col >= 0))[0]
            slots.append(row[keep] * size + col[keep])
            signs.append(np.full(keep.shape, sign))
            sel.append(keep)
        self.sign = np.concatenate(signs)
        self.sel = np.concatenate(sel)
        self.index = _sample_major(count, size * size,
                                   np.concatenate(slots))

    def stamp(self, matrix_flat: np.ndarray, g: np.ndarray) -> None:
        _scatter_add(matrix_flat, self.index, self.sign * g[:, self.sel])


class _CurrentScatter:
    """Terminal-current RHS stamps of one device group across the sample
    axis: each ``(nodes, sign)`` terminal adds ``sign · current`` at its
    node, ground dropped, terminals applied in the order given."""

    def __init__(self, terminals, count: int, size: int):
        slots, signs, sel = [], [], []
        for nodes, sign in terminals:
            keep = np.nonzero(nodes >= 0)[0]
            slots.append(nodes[keep])
            signs.append(np.full(keep.shape, sign))
            sel.append(keep)
        self.sign = np.concatenate(signs)
        self.sel = np.concatenate(sel)
        self.index = _sample_major(count, size, np.concatenate(slots))

    def stamp(self, rhs_flat: np.ndarray, current: np.ndarray) -> None:
        _scatter_add(rhs_flat, self.index, self.sign * current[:, self.sel])


class _EnsembleCapacitors:
    """All capacitors of all samples: vectorised companion stamps."""

    def __init__(self, per_sample: List[List[Capacitor]],
                 size: int, dt: float, integrator: str):
        caps0 = per_sample[0]
        self.integrator = integrator
        self.pos = np.array([c.positive for c in caps0], dtype=np.intp)
        self.neg = np.array([c.negative for c in caps0], dtype=np.intp)
        capacitance = np.array([[c.capacitance for c in caps]
                                for caps in per_sample])
        scale = 2.0 if integrator == "trap" else 1.0
        self.g = scale * capacitance / dt
        self.i_prev = np.array([[c._prev_current for c in caps]
                                for caps in per_sample])
        self._ieq = np.zeros_like(self.g)
        self._pos_clip = np.clip(self.pos, 0, None)
        self._pos_mask = (self.pos >= 0).astype(float)
        self._neg_clip = np.clip(self.neg, 0, None)
        self._neg_mask = (self.neg >= 0).astype(float)
        count = len(per_sample)
        self._matrix = _ConductanceScatter(self.pos, self.neg, count, size)
        self._rhs = _CurrentScatter(((self.pos, 1.0), (self.neg, -1.0)),
                                    count, size)

    def stamp_static(self, static: np.ndarray) -> None:
        """Companion conductances into the stacked static matrices."""
        self._matrix.stamp(static.reshape(-1), self.g)

    def step_rhs(self, rhs: np.ndarray, prev: np.ndarray) -> None:
        v_prev = (_gather2(prev, self._pos_clip, self._pos_mask)
                  - _gather2(prev, self._neg_clip, self._neg_mask))
        ieq = self.g * v_prev
        if self.integrator == "trap":
            ieq = ieq + self.i_prev
        self._ieq = ieq
        self._rhs.stamp(rhs.reshape(-1), ieq)

    def update_state(self, voltages: np.ndarray) -> None:
        v_now = (_gather2(voltages, self._pos_clip, self._pos_mask)
                 - _gather2(voltages, self._neg_clip, self._neg_mask))
        self.i_prev = self.g * v_now - self._ieq


class _EnsembleMOSFETs:
    """All transistors of all samples: one EKV evaluation over (N, F).

    Scatter geometry comes from a :class:`_MOSFETGroup` built on sample 0
    (the topology is shared); parameters are stacked per sample so the
    class stays correct even for populations that vary transistor
    parameters.
    """

    def __init__(self, per_sample: List[List[MOSFET]], size: int):
        self.group0 = _MOSFETGroup(per_sample[0], size)
        self.sign = np.array([[f.model.sign for f in fets]
                              for fets in per_sample])
        self.vth0 = np.array([[f.model.vth0 for f in fets]
                              for fets in per_sample])
        self.slope = np.array([[f.model.slope_factor for f in fets]
                               for fets in per_sample])
        self.lam = np.array([[f.model.lambda_clm for f in fets]
                             for fets in per_sample])
        self.two_vt = np.array([[2.0 * f.model.thermal_volt for f in fets]
                                for fets in per_sample])
        self.i_spec = np.array(
            [[f.model.specific_current(f.width, f.length) for f in fets]
             for fets in per_sample])
        g = self.group0
        self._clip = {k: (np.clip(v, 0, None), (v >= 0).astype(float))
                      for k, v in (("d", g.drain), ("g", g.gate),
                                   ("s", g.source), ("b", g.bulk))}
        count = len(per_sample)
        self._matrix_index = _sample_major(count, size * size, g.flat_index)
        self._rhs = _CurrentScatter(((g.drain, -1.0), (g.source, 1.0)),
                                    count, size)

    def stamp(self, matrix_flat: np.ndarray, rhs_flat: np.ndarray,
              voltages: np.ndarray) -> None:
        g0 = self.group0
        vd = _gather2(voltages, *self._clip["d"])
        vg = _gather2(voltages, *self._clip["g"])
        vs = _gather2(voltages, *self._clip["s"])
        vb = _gather2(voltages, *self._clip["b"])

        sigma = self.sign
        vdp, vgp = sigma * vd, sigma * vg
        vsp, vbp = sigma * vs, sigma * vb
        vp_pinch = (vgp - vbp - self.vth0) / self.slope
        u_f = vp_pinch - (vsp - vbp)
        u_r = vp_pinch - (vdp - vbp)

        f_f, df_f = g0._interp(u_f / self.two_vt)
        f_r, df_r = g0._interp(u_r / self.two_vt)
        df_f = df_f / self.two_vt
        df_r = df_r / self.two_vt

        delta_i = f_f - f_r
        vds_p = vdp - vsp
        root = np.sqrt(vds_p * vds_p + _CLM_EPSILON * _CLM_EPSILON)
        h = root - _CLM_EPSILON
        m = 1.0 + self.lam * h
        dm_dvds = self.lam * vds_p / root

        i_drain = sigma * (self.i_spec * delta_i * m)
        gate_term = self.i_spec * m * (df_f - df_r)
        # (N, 4, F): per sample, the (d, g, s, b) partials of every FET.
        partials = np.stack([
            self.i_spec * (m * df_r + delta_i * dm_dvds),   # d
            gate_term / self.slope,                         # g
            self.i_spec * (-m * df_f - delta_i * dm_dvds),  # s
            gate_term * (1.0 - 1.0 / self.slope),           # b
        ], axis=1)
        const = i_drain - (partials[:, 0] * vd + partials[:, 1] * vg
                           + partials[:, 2] * vs + partials[:, 3] * vb)

        # (N, K) values, one per sample and scatter slot.
        vals = g0.scatter_sign * partials[:, g0.scatter_k, g0.scatter_fet]
        _scatter_add(matrix_flat, self._matrix_index, vals)
        self._rhs.stamp(rhs_flat, const)


class _EnsembleMTJs:
    """All junctions of all samples: vectorised TMR electrical model and
    STT switching integration, matching :class:`MTJElement` /
    :class:`~repro.mtj.dynamics.SwitchingModel` value-for-value."""

    def __init__(self, per_sample: List[List[MTJElement]], size: int):
        mtjs0 = per_sample[0]
        self.elements = per_sample
        self.free = np.array([m.free for m in mtjs0], dtype=np.intp)
        self.ref = np.array([m.ref for m in mtjs0], dtype=np.intp)
        self.rp = np.array([[m.device.params.resistance_p for m in row]
                            for row in per_sample])
        self.tmr0 = np.array([[m.device.params.tmr_zero_bias for m in row]
                              for row in per_sample])
        self.vh = np.array(
            [[m.device.params.tmr_half_bias_voltage for m in row]
             for row in per_sample])
        self.ic = np.array([[m.device.params.critical_current for m in row]
                            for row in per_sample])
        self.delta = np.array(
            [[m.device.params.thermal_stability for m in row]
             for row in per_sample])
        self.attempt = np.array([[m.device.params.attempt_time for m in row]
                                 for row in per_sample])
        self.q_dyn = np.array(
            [[m.switching.dynamic_charge if m.switching is not None else 0.0
              for m in row] for row in per_sample])
        self.has_switching = np.array(
            [m.switching is not None for m in mtjs0])
        self.is_ap = np.array(
            [[m.device.state is MTJState.ANTIPARALLEL for m in row]
             for row in per_sample])
        self.progress = np.array(
            [[m.switching.progress if m.switching is not None else 0.0
              for m in row] for row in per_sample])
        self._events: List[Tuple[int, int, SwitchingEvent]] = []

        self._free_clip = np.clip(self.free, 0, None)
        self._free_mask = (self.free >= 0).astype(float)
        self._ref_clip = np.clip(self.ref, 0, None)
        self._ref_mask = (self.ref >= 0).astype(float)
        count = len(per_sample)
        self._matrix = _ConductanceScatter(self.free, self.ref, count, size)
        self._rhs = _CurrentScatter(((self.free, -1.0), (self.ref, 1.0)),
                                    count, size)

    def _electrical(self, voltages: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bias v, conductance G(|v|), and dG/d|v| per (sample, mtj)."""
        v = (_gather2(voltages, self._free_clip, self._free_mask)
             - _gather2(voltages, self._ref_clip, self._ref_mask))
        av = np.abs(v)
        ratio = av / self.vh
        denom = 1.0 + ratio * ratio
        r_ap = self.rp * (1.0 + self.tmr0 / denom)
        r = np.where(self.is_ap, r_ap, self.rp)
        g = 1.0 / r
        dr_dv = self.rp * self.tmr0 * (-1.0 / (denom * denom)) * (
            2.0 * av / (self.vh * self.vh))
        dg = np.where(self.is_ap, -dr_dv / (r_ap * r_ap), 0.0)
        return v, g, dg

    def stamp(self, matrix_flat: np.ndarray, rhs_flat: np.ndarray,
              voltages: np.ndarray) -> None:
        v, g, dg = self._electrical(voltages)
        g_eff = np.maximum(g + np.abs(v) * dg, 0.1 * g)
        const = g * v - g_eff * v
        self._matrix.stamp(matrix_flat, g_eff)
        self._rhs.stamp(rhs_flat, const)

    def update_state(self, voltages: np.ndarray, dt: float,
                     now: float) -> None:
        """Vectorised :meth:`SwitchingModel.step` over every junction."""
        if not self.has_switching.any():
            return
        v, g, _dg = self._electrical(voltages)
        current = g * v
        target_ap = current > 0.0
        moving = ((current != 0.0) & (target_ap != self.is_ap)
                  & self.has_switching[None, :])
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
        relaxing = self.has_switching[None, :] & ~moving
        decay = np.exp(-dt / self.attempt)
        self.progress = np.where(relaxing, self.progress * decay,
                                 self.progress + gained)
        flipped = moving & (self.progress >= 1.0)
        if flipped.any():
            for n, m in np.argwhere(flipped):
                state = (MTJState.ANTIPARALLEL if target_ap[n, m]
                         else MTJState.PARALLEL)
                self._events.append((int(n), int(m), SwitchingEvent(
                    time=now, new_state=state,
                    current=float(current[n, m]))))
            self.is_ap[flipped] = target_ap[flipped]
            self.progress[flipped] = 0.0

    def finalize(self) -> None:
        """Write final magnetisation state, progress, and the recorded
        switching events back into the sample circuits' elements."""
        for n, row in enumerate(self.elements):
            for m, element in enumerate(row):
                element.device.state = (MTJState.ANTIPARALLEL
                                        if self.is_ap[n, m]
                                        else MTJState.PARALLEL)
                if element.switching is not None:
                    element.switching.progress = float(self.progress[n, m])
        for n, m, event in self._events:
            self.elements[n][m].switching.events.append(event)


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
        self._static = np.zeros((n, s, s))
        self._step_rhs = np.zeros((n, s))
        self._diag = np.arange(self.num_nodes, dtype=np.intp)

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

        self.fet_group = (_EnsembleMOSFETs(fets, s) if fets[0] else None)
        self.cap_group = (_EnsembleCapacitors(caps, s, dt, integrator)
                          if caps[0] else None)
        self.mtj_group = (_EnsembleMTJs(mtjs, s) if mtjs[0] else None)
        self._linear = linear

        # Shared-linear fast path: when every sample's linear devices are
        # value-identical (the Monte-Carlo case — only MTJ parameters
        # vary), the static matrix and the per-step source RHS are
        # computed once and broadcast.
        fp0 = _linear_fingerprints(linear[0])
        self._shared_linear = fp0 is not None and all(
            _linear_fingerprints(linear[i]) == fp0 for i in range(1, n))
        self._build_static()
        self._time = 0.0
        self._prev: Optional[np.ndarray] = None

    def _static_ctx(self) -> EvalContext:
        return EvalContext(voltages=np.zeros(self.num_nodes),
                           prev_voltages=None, time=0.0, dt=self.dt,
                           integrator=self.integrator)

    def _build_static(self) -> None:
        ctx = self._static_ctx()
        if self._shared_linear:
            base = np.zeros((self.size, self.size))
            stamper = MNAStamper(self.num_nodes, self.num_branches,
                                 matrix=base, rhs=np.zeros(self.size))
            for device in self._linear[0]:
                device.stamp_static(stamper, ctx)
            self._static[:] = base[None, :, :]
        else:
            for i in range(self.count):
                stamper = MNAStamper(self.num_nodes, self.num_branches,
                                     matrix=self._static[i],
                                     rhs=np.zeros(self.size))
                for device in self._linear[i]:
                    device.stamp_static(stamper, ctx)
        if self.cap_group is not None:
            self.cap_group.stamp_static(self._static)

    def begin_step(self, time: float, prev: Optional[np.ndarray]) -> None:
        """Rebuild the iterate-free RHS stack for a new timepoint."""
        self._time = time
        self._prev = prev
        self._step_rhs[:] = 0.0
        if self._shared_linear:
            row = np.zeros(self.size)
            view = _RHSView(self.num_nodes, self.num_branches, row)
            ctx = EvalContext(voltages=np.zeros(0), prev_voltages=None,
                              time=time, dt=self.dt,
                              integrator=self.integrator)
            for device in self._linear[0]:
                device.stamp_step(view, ctx)
            self._step_rhs[:] = row[None, :]
        else:
            for i in range(self.count):
                view = _RHSView(self.num_nodes, self.num_branches,
                                self._step_rhs[i])
                ctx = EvalContext(
                    voltages=np.zeros(0),
                    prev_voltages=None if prev is None else prev[i],
                    time=time, dt=self.dt, integrator=self.integrator)
                for device in self._linear[i]:
                    device.stamp_step(view, ctx)
        if self.cap_group is not None and prev is not None:
            self.cap_group.step_rhs(self._step_rhs, prev)

    def assemble(self, x: np.ndarray, gmin: float = 0.0) -> None:
        """Assemble every sample's system at the iterate stack ``x``."""
        np.copyto(self.matrix, self._static)
        np.copyto(self.rhs, self._step_rhs)
        if gmin > 0.0 and self.num_nodes:
            self.matrix[:, self._diag, self._diag] += gmin
        voltages = x[:, : self.num_nodes]
        if self.fet_group is not None:
            self.fet_group.stamp(self._matrix_flat, self._rhs_flat, voltages)
        if self.mtj_group is not None:
            self.mtj_group.stamp(self._matrix_flat, self._rhs_flat, voltages)
        if any(self._iterate):
            for i in range(self.count):
                if not self._iterate[i]:
                    continue
                view = MNAStamper(self.num_nodes, self.num_branches,
                                  matrix=self.matrix[i], rhs=self.rhs[i])
                ctx = EvalContext(
                    voltages=voltages[i],
                    prev_voltages=None if self._prev is None
                    else self._prev[i],
                    time=self._time, dt=self.dt, gmin=gmin,
                    integrator=self.integrator)
                for device in self._iterate[i]:
                    device.stamp(view, ctx)

    def update_state(self, x: np.ndarray) -> None:
        """Advance every sample's stateful devices after an accepted step."""
        voltages = x[:, : self.num_nodes]
        if self.cap_group is not None:
            self.cap_group.update_state(voltages)
        if self.mtj_group is not None:
            self.mtj_group.update_state(voltages, self.dt, self._time)
        if any(self._iterate):
            for i in range(self.count):
                if not self._iterate[i]:
                    continue
                ctx = EvalContext(
                    voltages=voltages[i],
                    prev_voltages=None if self._prev is None
                    else self._prev[i],
                    time=self._time, dt=self.dt,
                    integrator=self.integrator)
                for device in self._iterate[i]:
                    device.update_state(ctx)

    def finalize_devices(self) -> None:
        """Write group-held device state back into the sample circuits."""
        if self.mtj_group is not None:
            self.mtj_group.finalize()


class EnsembleNewtonSolver:
    """Damped modified Newton over an :class:`EnsembleWorkspace`, run per
    sample with one LU per sample.

    Each sample follows :class:`~repro.spice.analysis.engine.FastNewtonSolver`
    step for step: it keeps its own LAPACK ``getrf`` factors and solves
    ``A₀·δ = −F(x)`` against them with ``getrs``, refactorising when the
    shared :func:`~repro.spice.analysis.engine.jacobian_refresh` rule says
    so for that sample, and refactorising once to retry a non-finite
    update from stale factors.  Damping, convergence and freezing are
    per-sample masks.  Assembly and residuals are batched over the sample
    axis; the factor and solve calls loop over the samples that need them.
    On a 32-sample chunk of the 48-unknown 2-bit latch (one BLAS thread,
    2-vCPU x86-64 VM) that loop factors in ~0.5 ms and solves in ~0.1 ms,
    against 2.0 ms to invert the stack, 1.6 ms for scipy's batched
    ``lu_factor`` (0.36 ms per ``lu_solve``) and 5.5 ms for SuperLU on the
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
        #: Per-sample ``getrf`` factors ``(lu, piv)``.
        self._lu: List[Optional[Tuple[np.ndarray, np.ndarray]]] = (
            [None] * count)

    def _factorize(self, samples: List[int], gmin: float) -> None:
        """Fresh LU factors for each listed sample.  The LAPACK handles
        are read from the engine module at call time, so they are the
        ones the fast engine uses (and any instrumentation of them)."""
        getrf = _engine._getrf
        matrix = self.workspace.matrix
        for sample in samples:
            lu, piv, info = getrf(matrix[sample])
            if info != 0:
                raise EnsembleFallback(
                    f"singular sample {sample} at gmin={gmin:g} "
                    f"(getrf info={info})")
            self._lu[sample] = (lu, piv)

    def _corrections(self, samples: List[int], residual: np.ndarray,
                     out: np.ndarray) -> None:
        """``out[i] = A₀⁻¹·residual[i]`` against each listed sample's
        stored factors."""
        getrs = _engine._getrs
        factors = self._lu
        for sample in samples:
            lu, piv = factors[sample]
            out[sample], info = getrs(lu, piv, residual[sample])
            if info != 0:
                raise EnsembleFallback(
                    f"LU solve failed for sample {sample} "
                    f"(getrs info={info})")

    def solve(self, x0: np.ndarray, time: float,
              prev: Optional[np.ndarray], gmin: float, max_iterations: int,
              vtol: float, damping: float
              ) -> Tuple[np.ndarray, np.ndarray]:
        """One timepoint for every sample; returns ``(x, failed_mask)``.

        ``failed_mask[i]`` is True when sample ``i`` did not converge
        within the iteration budget.  Raises :class:`EnsembleFallback`
        when a sample's linear algebra breaks down (a singular matrix, or
        a non-finite update from fresh factors) — the caller reruns
        scalar.
        """
        ws = self.workspace
        ws.begin_step(time, prev)
        num_nodes = ws.num_nodes
        count = ws.count
        x = x0.copy()
        # A₀⁻¹·F(x) per sample; rows of converged samples go stale.
        correction = np.zeros_like(x)
        converged = np.zeros(count, dtype=bool)
        last_factor = np.zeros(count, dtype=np.intp)
        max_dv = np.full(count, np.inf)
        prev_max_dv = max_dv
        for iteration in range(1, max_iterations + 1):
            active = ~converged
            self.iterations[active] += 1
            ws.assemble(x, gmin=gmin)
            fresh = active & jacobian_refresh(iteration, last_factor,
                                              max_dv, prev_max_dv)
            last_factor[fresh] = iteration
            self.factorizations[fresh] += 1
            self.reuses[active & ~fresh] += 1
            self._factorize(np.flatnonzero(fresh).tolist(), gmin)
            residual = np.matmul(ws.matrix, x[:, :, None])[:, :, 0] - ws.rhs
            self._corrections(np.flatnonzero(active).tolist(), residual,
                              correction)
            bad = np.flatnonzero(
                active & ~np.isfinite(correction).all(axis=1)).tolist()
            if bad:
                if fresh[bad].any():
                    raise EnsembleFallback(
                        f"non-finite update from fresh factors at "
                        f"gmin={gmin:g}")
                # Stale factors went bad: refactor and retry once.
                self.singular_retries[bad] += 1
                self.factorizations[bad] += 1
                last_factor[bad] = iteration
                self._factorize(bad, gmin)
                self._corrections(bad, residual, correction)
                if not np.isfinite(correction[bad]).all():
                    raise EnsembleFallback(
                        f"non-finite update after refactorisation at "
                        f"gmin={gmin:g}")
            delta = -correction
            prev_max_dv = max_dv
            max_dv = (np.max(np.abs(delta[:, :num_nodes]), axis=1)
                      if num_nodes else np.zeros(count))
            scale = np.where(max_dv > damping,
                             damping / np.maximum(max_dv, 1e-300), 1.0)
            stepped = x + delta * scale[:, None]
            x = np.where(converged[:, None], x, stepped)
            converged |= active & (max_dv <= damping) & (max_dv < vtol)
            if converged.all():
                self.solves += 1
                return x, ~converged
        self.solves[converged] += 1
        return x, ~converged


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
    fallback_engine: str = "fast",
):
    """Advance N same-topology circuits through one batched transient.

    Returns a list of :class:`~repro.spice.analysis.transient.TransientResult`,
    one per circuit, in input order.  Options mirror
    :func:`~repro.spice.analysis.transient.run_transient`; the ERC
    pre-flight runs on the first sample (the samples are structurally
    identical by construction).  Falls back to per-sample scalar runs via
    ``fallback_engine`` when the batched path cannot converge, so the
    call never fails where the scalar engines would succeed.
    """
    from repro.spice.analysis.transient import TransientResult, run_transient

    if stop_time <= 0.0 or dt <= 0.0:
        raise AnalysisError("stop_time and dt must be positive")
    if dt > stop_time:
        raise AnalysisError(f"dt={dt} exceeds stop_time={stop_time}")
    if integrator not in ("be", "trap"):
        raise AnalysisError(f"unknown integrator {integrator!r}")
    circuits = list(circuits)
    if not circuits:
        return []

    from repro.lint import preflight

    preflight(circuits[0], lint)

    def scalar_fallback():
        return [
            run_transient(c, stop_time, dt, integrator=integrator,
                          initial_voltages=initial_voltages, dc_seed=dc_seed,
                          max_iterations=max_iterations, vtol=vtol,
                          damping=damping, engine=fallback_engine, lint="off")
            for c in circuits
        ]

    if len(circuits) == 1 or not _engine._HAVE_SCIPY:
        # One sample is a scalar run; the per-sample LU reuse needs the
        # LAPACK handles scipy provides.
        return scalar_fallback()

    span = _obs_span("analysis.ensemble_transient", category="analysis",
                     attrs={"circuit": circuits[0].name,
                            "samples": len(circuits), "dt": dt,
                            "stop_time": stop_time})
    with span:
        for circuit in circuits:
            circuit.finalize()
            circuit.reset_state()
        # Topology must be validated before the per-sample DC seeding —
        # a mismatched circuit would otherwise surface as a shape error
        # from the seed-stacking loop instead of the real diagnostic.
        signature = structure_signature(circuits[0])
        for circuit in circuits[1:]:
            if structure_signature(circuit) != signature:
                raise AnalysisError(
                    "ensemble circuits must share one topology; "
                    f"{circuit.name!r} differs structurally from "
                    f"{circuits[0].name!r}")
        n = len(circuits)
        num_nodes = circuits[0].num_nodes
        num_branches = circuits[0].num_branches
        size = num_nodes + num_branches

        x = np.zeros((n, size))
        if initial_voltages is not None:
            for node_name, value in initial_voltages.items():
                index = circuits[0].node(node_name)
                if index >= 0:
                    x[:, index] = value
        else:
            for i, circuit in enumerate(circuits):
                dc = solve_dc(circuit, time=0.0, initial_guess=dc_seed,
                              max_iterations=max_iterations, vtol=vtol,
                              damping=damping, lint="off")
                x[i] = np.concatenate([dc.voltages, dc.branch_currents])

        try:
            workspace = EnsembleWorkspace(circuits, dt,
                                          integrator=integrator)
            solver = EnsembleNewtonSolver(workspace)

            steps = int(round(stop_time / dt))
            times = np.arange(steps + 1) * dt
            voltages = np.empty((steps + 1, n, num_nodes))
            currents = np.empty((steps + 1, n, num_branches))
            voltages[0] = x[:, :num_nodes]
            currents[0] = x[:, num_nodes:]
            gmin_retries = np.zeros(n, dtype=np.intp)

            prev = x[:, :num_nodes].copy()
            for step in range(1, steps + 1):
                time = step * dt
                x_new, failed = solver.solve(
                    x, time, prev, FLOOR_GMIN, max_iterations, vtol,
                    damping)
                if failed.any():
                    # Scalar drivers' gmin rung, adopted only for the
                    # samples that actually failed.  The ladder values
                    # come from the shared recovery policy so batched
                    # and scalar runs retry at identical conductances.
                    still = failed
                    for retry_gmin in _recovery_gmin_ladder():
                        gmin_retries[still] += 1
                        x_retry, unconverged = solver.solve(
                            x, time, prev, retry_gmin, max_iterations,
                            vtol, damping)
                        x_new[still] = x_retry[still]
                        still = still & unconverged
                        if not still.any():
                            break
                    if still.any():
                        raise EnsembleFallback(
                            f"{int(still.sum())} samples "
                            f"unconverged at t={time:g}")
                x = x_new
                workspace.update_state(x)
                voltages[step] = x[:, :num_nodes]
                currents[step] = x[:, num_nodes:]
                prev = x[:, :num_nodes].copy()
        except (EnsembleFallback, ConvergenceError):
            if _obs_active():
                _obs_metrics().inc("analysis.ensemble_fallbacks", 1)
            return scalar_fallback()

        workspace.finalize_devices()

        results = []
        for i, circuit in enumerate(circuits):
            stats = SolverStats(
                solves=int(solver.solves[i]),
                iterations=int(solver.iterations[i]),
                factorizations=int(solver.factorizations[i]),
                reuses=int(solver.reuses[i]),
                singular_retries=int(solver.singular_retries[i]),
                gmin_retries=int(gmin_retries[i]),
                timesteps=steps,
            )
            results.append(TransientResult(
                circuit, times.copy(), voltages[:, i].copy(),
                currents[:, i].copy(), stats=stats))

        if _obs_active():
            registry = _obs_metrics()
            registry.inc("analysis.ensemble_transients", 1)
            registry.inc("analysis.ensemble_samples", n)
            registry.inc("engine.newton_iterations",
                         int(solver.iterations.sum()))
            registry.inc("engine.jacobian_factorizations",
                         int(solver.factorizations.sum()))
            registry.inc("engine.jacobian_reuses", int(solver.reuses.sum()))
            singular_retries = int(solver.singular_retries.sum())
            if singular_retries:
                registry.inc("engine.singular_retries", singular_retries)
            registry.inc("engine.timesteps", steps * n)
            span.annotate(samples=n,
                          newton_iterations=int(solver.iterations.sum()),
                          gmin_retries=int(gmin_retries.sum()))
        return results

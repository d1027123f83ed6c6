"""Fast-path simulation engine: cached MNA assembly + Jacobian reuse.

A full-restamp Newton re-allocates a dense MNA system and re-stamps
*every* device on *every* Newton iteration.  For the latch circuits the
device population is dominated by linear elements (resistors, the
capacitors' companion conductances, source incidence rows) whose matrix
stamps never change within a run — only the MOSFETs and MTJs genuinely
need re-linearisation.  This module exploits that:

* :class:`MNAWorkspace` preallocates the matrix/RHS once, caches the
  static stamps of linear devices (``Device.stamp_static``) and the
  per-timepoint RHS of sources/capacitor companions
  (``Device.stamp_step``), and re-stamps only nonlinear devices per
  Newton iteration.  MOSFETs are evaluated *vectorised* across all
  transistors of the circuit (one EKV evaluation over numpy arrays
  instead of N Python calls) when the circuit has enough of them.
* :func:`modified_newton` is the damped modified-Newton loop of every
  scalar solve, transient timepoint or DC operating point: the LU
  factorisation of the Jacobian is reused across iterations and across
  timepoints, with a full refactorisation when the factors grow old or
  convergence stalls, and on the first iteration after a solve that did
  not converge at the same gmin.  A reuse iteration assembles nothing:
  it evaluates device currents only and forms the residual
  ``F(x) = G·x − b_step + gmin·x + Σ device currents``
  (:meth:`MNAWorkspace.residual`).  A fixed-step run starts each
  timepoint's loop at a polynomial prediction through its last accepted
  solutions (up to :data:`PREDICTOR_ORDER`), as SPICE-class simulators
  do, so most timepoints converge in one or two iterations; the
  capacitor history stays the last accepted solution.  A solve with no
  previous solution, the DC point with the capacitors open
  (:func:`~repro.spice.analysis.dc.solve_dc` and a DC-started run's
  t = 0 point), refactorises on every iteration and watches the
  solver's wall-clock deadline.  :class:`FastNewtonSolver` supplies
  its dense assembly, factorisation (LAPACK getrf) and update (getrs)
  steps;
  :func:`~repro.spice.analysis.transient.run_transient` selects it with
  ``engine="fast"`` (the default).

Equivalence contract, enforced by ``tests/test_engine_equivalence.py``:
the workspace assembly matches the full-restamp :class:`MNAStamper`
assembly to ≤ 1e-12, the reuse residual matches the assembled
``A(x)·x − b(x)`` to ≤ 1e-12 relative, and fast waveforms match the
full-restamp reference transient there (``naive_transient``) to
≤ 1 µV.
"""

from __future__ import annotations

import copy
import time as _time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.errors import ConvergenceError
from repro.mtj.device import MTJState
from repro.spice.devices.base import Device, EvalContext
from repro.spice.devices.mosfet import MOSFET
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.devices.passive import Capacitor
from repro.spice.devices.sources import VoltageSource
from repro.spice.analysis.mna import MNAStamper
from repro.spice.netlist import Circuit
from repro.spice.waveforms import DC

#: Raw LAPACK LU handles; module-level names so a profiler can rebind
#: them (the ensemble reads them from here at call time).
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"),
                                  (np.empty((1, 1)), np.empty(1)))

#: Minimum transistor count before the vectorised MOSFET group pays off;
#: below this the per-device scalar stamp (the one a full restamp uses)
#: is cheaper than numpy call overhead.  The two round differently: the
#: scalar EKV interpolation goes through math.exp/math.log1p, the group
#: through np.logaddexp (dF differs in 86 % of 200,000 random overdrives).
VECTORIZE_MOSFET_THRESHOLD = 4
#: Minimum MTJ count before the vectorised MTJ group pays off — array
#: workloads (1T-1MTJ grids) have hundreds of junctions whose scalar
#: Python stamps would otherwise dominate the Newton iteration.  Set
#: *above* 4 so the shipped cells (1-bit: 2 MTJs, 2-bit: 4 MTJs) keep
#: the scalar per-element stamps, which the golden baselines
#: (tests/test_golden_faults_baseline.py) pin bit-exactly.  The group
#: differs from them at the ulp level for two reasons: its scatter
#: reorders the floating-point sums, and MTJDevice.conductance_derivative
#: squares with Python ``** 2`` (libm pow) where the group computes
#: ``x * x`` — dG/dV differs in 179 of 200,000 random AP biases (G in
#: none).
VECTORIZE_MTJ_THRESHOLD = 5
#: Refactorise the Jacobian at least every this many iterations, counted
#: from the factorising one across timepoints: factors a converged solve
#: leaves serve the next timepoint's first iterations.
JACOBIAN_MAX_AGE = 6
#: Highest order of the polynomial through the last accepted timepoints
#: that predicts a fixed step's Newton start (the step control
#: ``_FixedSteps`` of :mod:`repro.spice.analysis.transient`).  Cubic
#: took the fewest Newton iterations on Table II: about 1.55 per
#: timestep against 2.03 for quadratic and 2.85 from the last point.
PREDICTOR_ORDER = 3
#: Smoothing of the channel-length-modulation overdrive (mirrors mosfet.py).
_CLM_EPSILON = 1e-3


#: The one metric name of each :class:`SolverStats` field (names only,
#: so no cache key holds it).  A dict field adds one metric per key
#: (``recovery.rung.gmin``); ``worst_condition`` is a maximum, every
#: other field a counter.
METRIC_NAMES = {  # devlint: not-keyed
    "solves": "engine.solves",
    "iterations": "engine.newton_iterations",
    "factorizations": "engine.jacobian_factorizations",
    "reuses": "engine.jacobian_reuses",
    "singular_retries": "engine.singular_retries",
    "gmin_retries": "engine.gmin_retries",
    "timesteps": "engine.timesteps",
    "lte_rejects": "engine.lte_rejects",
    "predictor_fallbacks": "engine.predictor_fallbacks",
    "recovered_steps": "recovery.recovered_steps",
    "rung_counts": "recovery.rung",
    "rungs_climbed": "recovery.rungs_climbed",
    "nonfinite_trips": "recovery.nonfinite_trips",
    "condition_checks": "recovery.condition_checks",
    "condition_warnings": "recovery.condition_warnings",
    "worst_condition": "recovery.worst_condition",
    "dc_gmin_stages": "recovery.dc_gmin_stages",
    "dc_source_steps": "recovery.dc_source_steps",
}


@dataclass
class SolverStats:
    """The solver record of one analysis: the engine's work and the
    recovery ladder's.

    Kept as plain attribute increments so the untraced hot path pays
    integer adds only; :meth:`flush_to` moves the totals into the
    observability metrics registry once per analysis when a session is
    active, each under its name in :data:`METRIC_NAMES`.  Round-tripped
    through the result cache, so a recovered run stays distinguishable
    from a clean one on a warm hit.  It holds counts only (and the
    ``worst_condition`` maximum): time goes to spans.
    """

    solves: int = 0
    iterations: int = 0
    factorizations: int = 0
    reuses: int = 0
    singular_retries: int = 0
    gmin_retries: int = 0
    timesteps: int = 0
    #: Adaptive timestep control: steps rejected by the LTE estimator.
    lte_rejects: int = 0
    #: Fixed-step solves that failed from the predicted start and were
    #: retried from the last accepted point.
    predictor_fallbacks: int = 0
    #: Timesteps completed only via the recovery ladder (any rung).
    recovered_steps: int = 0
    #: Successful rung firings by rung name.
    rung_counts: Dict[str, int] = field(default_factory=dict)
    #: Rung attempts during recoveries (failed rungs included).
    rungs_climbed: int = 0
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

    @property
    def clean(self) -> bool:
        """True when no rung fired and no guard tripped."""
        return not (self.rung_counts or self.recovered_steps
                    or self.nonfinite_trips or self.condition_warnings
                    or self.dc_source_steps)

    def counters(self) -> Dict[str, int]:
        """Every count under its metric name, one per rung for
        ``rung_counts``."""
        counts: Dict[str, int] = {}
        for name, metric in METRIC_NAMES.items():
            value = getattr(self, name)
            if name == "rung_counts":
                counts.update((f"{metric}.{rung}", value[rung])
                              for rung in sorted(value))
            elif isinstance(value, int):
                counts[metric] = value
        return counts

    def flush_to(self, registry) -> None:
        """Add the non-zero totals to an :class:`repro.obs.MetricsRegistry`."""
        for metric, count in self.counters().items():
            if count:
                registry.inc(metric, count)
        if self.worst_condition > 0.0:
            registry.set_max(METRIC_NAMES["worst_condition"],
                             self.worst_condition)

    def as_attrs(self) -> Dict[str, int]:
        """Span-attribute form (the trace viewer's tooltip payload): the
        counts under their metric names without the namespace."""
        return {metric.split(".", 1)[1]: count
                for metric, count in self.counters().items()}

    def to_json(self) -> Dict[str, object]:
        """Plain-dict form for cache entries and forensics bundles: what
        the original solve cost, replayed verbatim on a hit."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SolverStats":
        """Inverse of :meth:`to_json`; a missing field raises KeyError."""
        return cls(**copy.deepcopy({f.name: data[f.name]
                                    for f in fields(cls)}))


def engine_config_fingerprint() -> Dict[str, object]:
    """The engine configuration a cache key must capture: anything that
    could change the bit pattern of a solution between two hosts or two
    builds."""
    from repro.spice.analysis.sparse import sparse_config_fingerprint

    return {
        "vectorize_mosfet_threshold": VECTORIZE_MOSFET_THRESHOLD,
        "vectorize_mtj_threshold": VECTORIZE_MTJ_THRESHOLD,
        "jacobian_max_age": JACOBIAN_MAX_AGE,
        # Algorithm revision marker: a Newton iteration that reuses the LU
        # factors forms its residual from the device currents instead of
        # an assembled A(x)·x − b(x), which moves the last bits.
        "reuse_residual_from_currents": True,
        # Algorithm revision marker: LU factors carry from a converged
        # timepoint to the next instead of being renewed on every
        # timepoint's first iteration, which moves the last bits.
        "jacobian_carried_across_timepoints": True,
        # Algorithm revision marker: a fixed step's Newton solve starts
        # from a polynomial prediction of this order instead of the last
        # accepted point, which moves the last bits.
        "fixed_step_predictor_order": PREDICTOR_ORDER,
        # Algorithm revision marker: a DC point solves on the engine's
        # workspace through modified_newton, refactorising on every
        # iteration, instead of re-stamping every device, which moves the
        # last bits.
        "dc_on_engine_workspace": True,
        "sparse": sparse_config_fingerprint(),
    }


def jacobian_refresh(no_factors, age, max_dv, prev_max_dv):
    """The modified-Newton LU refresh rule every Newton loop shares.

    Refactorise when the solver holds no usable factors, once the factors
    are :data:`JACOBIAN_MAX_AGE` iterations old, or when the last update
    stopped shrinking (``max_dv > 0.5 · prev_max_dv``).  Factors are
    usable when this ``solve()`` made them or the solver's previous
    ``solve()`` converged with them at the same gmin, so they carry
    across timepoints.  ``age`` counts the iterations since the one that
    factorised, this one included, across timepoints; ``max_dv`` /
    ``prev_max_dv`` are the undamped update norms of the previous two
    iterations of this ``solve()`` (``inf`` before there are any).
    Scalars give a ``bool``; per-sample arrays (the batched ensemble)
    give a mask whose every element is the decision a scalar call on
    that sample's values makes.
    """
    return (no_factors
            | (age >= JACOBIAN_MAX_AGE)
            | (max_dv > 0.5 * prev_max_dv))


def _sample_base(per_sample: Sequence[Sequence[Device]],
                 size: int) -> np.ndarray:
    """Block offset of every device of a group, devices taken sample by
    sample: sample *i*'s devices get ``i · size``.

    A group over the devices of one or more same-topology circuits stamps
    sample *i* into block *i* of a block-diagonal system: its node ``n``
    reads and writes flat slot ``i·size + n`` of the stacked iterates and
    right-hand sides, and its matrix entry ``(r, c)`` is flat slot
    ``(i·size + r)·size + c`` (offset ``i·size²``) of the stacked
    matrices.  One circuit is the block-diagonal system of one sample,
    with every offset 0.
    """
    return np.repeat(np.arange(len(per_sample), dtype=np.intp) * size,
                     [len(devices) for devices in per_sample])


def _matrix_scatter(pairs, base: np.ndarray, size: int
                    ) -> Tuple[np.ndarray, ...]:
    """Flat matrix slots of a group's stamps, ground entries dropped.

    ``pairs`` lists ``(rows, cols, sign)`` with per-device node arrays.
    Returns the slot, sign, pair number and device of every kept entry,
    pair by pair and, within a pair, device by device.
    """
    slot, sign, kind, device = [], [], [], []
    for number, (rows, cols, value) in enumerate(pairs):
        keep = np.nonzero((rows >= 0) & (cols >= 0))[0]
        slot.append((base[keep] + rows[keep]) * size + cols[keep])
        sign.append(np.full(keep.shape, value))
        kind.append(np.full(keep.shape, number, dtype=np.intp))
        device.append(keep)
    return tuple(np.concatenate(part) for part in (slot, sign, kind, device))


def _conductance_scatter(a: np.ndarray, b: np.ndarray, base: np.ndarray,
                         size: int) -> Tuple[np.ndarray, ...]:
    """Two-terminal conductance stamps: +g on both diagonals, −g on both
    couplings (the entries ``MNAStamper.add_conductance`` writes)."""
    return _matrix_scatter(((a, a, 1.0), (b, b, 1.0),
                            (a, b, -1.0), (b, a, -1.0)), base, size)


def _rhs_scatter(terminals, base: np.ndarray) -> Tuple[np.ndarray, ...]:
    """RHS slots of a group's terminal currents, ground dropped:
    ``terminals`` lists ``(nodes, sign)``; returns the slot, sign and
    device of every kept entry, terminal by terminal."""
    slot, sign, device = [], [], []
    for nodes, value in terminals:
        keep = np.nonzero(nodes >= 0)[0]
        slot.append(base[keep] + nodes[keep])
        sign.append(np.full(keep.shape, value))
        device.append(keep)
    return tuple(np.concatenate(part) for part in (slot, sign, device))


class _Gather:
    """Precompiled ground-masked gather of a stack of terminal rows.

    ``rows`` holds node indices (one row per terminal, one column per
    device); the gather is one ``take`` of the offset, ground-clipped
    indices and one multiply by a mask that is 0 on ground and 1
    elsewhere, times the per-device ``sign`` when one is given.  Every
    mask entry is ±0 or ±1, so the product is exact: ``sign · (v · mask)``
    to the bit, signed zeros included.
    """

    def __init__(self, rows: np.ndarray, base: np.ndarray,
                 sign: Optional[np.ndarray] = None):
        self.clipped = np.clip(rows, 0, None) + base
        mask = (rows >= 0).astype(float)
        self.mask = mask if sign is None else mask * sign

    def __call__(self, voltages: np.ndarray) -> np.ndarray:
        if not voltages.size:  # no unknowns: every terminal is ground
            voltages = np.zeros(1)
        return voltages.take(self.clipped) * self.mask


#: Row of each MOSFET partial in :attr:`_MOSFETGroup.partials`, by the
#: (d, g, s, b) terminal order of the scatter patterns.
_PARTIAL_ROW = np.array([1, 2, 0, 3], dtype=np.intp)


class _MOSFETGroup:
    """The MOSFETs of one or more same-topology circuits, evaluated and
    stamped as numpy arrays into their block-diagonal system
    (:func:`_sample_base`).

    Reproduces :meth:`MOSFET.evaluate` / :meth:`MOSFET.stamp` (same
    formulas, vectorised); the equivalence property tests compare the two
    to 1e-12.  One stamp is about 55 small numpy calls, so the layout
    serves call count:

    * one gather reads the primed (channel-sign mirrored) terminal
      voltages in rows (s, d, g, b, b): rows 0–3 line up with the
      partials, and the forward and reverse overdrives are the one
      same-shape block ``rows 0:2 − rows 3:5``;
    * the partials land in a preallocated (4, N) buffer in rows
      (s, d, g, b), and the matrix scatter is one flat ``take`` of it;
    * the per-device constants (``1 − 1/n``, ones, ε, ε², and (2, N)
      blocks of 0, 2 and 2V_t) are built once, so no operation
      broadcasts a Python scalar.

    Every element goes through one fixed expression tree, operation by
    operation (no reassociation, no merged constants), and ``np.add.at``
    accumulates each slot in scatter-pattern order, so a layout change
    under these rules moves no bit (``tests/test_golden_engine_bits.py``
    pins the stamps' bits through the waveforms).
    """

    def __init__(self, per_sample: Sequence[Sequence[MOSFET]], size: int):
        self.fets = fets = [f for sample in per_sample for f in sample]
        base = _sample_base(per_sample, size)
        drain = np.array([f.drain for f in fets], dtype=np.intp)
        gate = np.array([f.gate for f in fets], dtype=np.intp)
        source = np.array([f.source for f in fets], dtype=np.intp)
        bulk = np.array([f.bulk for f in fets], dtype=np.intp)
        count = len(fets)
        self.sign = np.array([f.model.sign for f in fets])
        self.vth0 = np.array([f.model.vth0 for f in fets])
        self.slope = np.array([f.model.slope_factor for f in fets])
        self.lam = np.array([f.model.lambda_clm for f in fets])
        self.i_spec = np.array(
            [f.model.specific_current(f.width, f.length) for f in fets]
        )
        self._two_vt = np.tile([2.0 * f.model.thermal_volt for f in fets],
                               (2, 1))
        self._bulk_factor = 1.0 - 1.0 / self.slope
        self._ones = np.ones(count)
        self._zeros = np.zeros((2, count))
        self._twos = np.full((2, count), 2.0)
        self._eps = np.full(count, _CLM_EPSILON)
        self._eps_sq = np.full(count, _CLM_EPSILON * _CLM_EPSILON)
        self._gather = _Gather(np.stack([source, drain, gate, bulk, bulk]),
                               base, self.sign)
        #: Unprimed-voltage factor of gather rows 0–3 (sign² = 1, exact).
        self._unprime = self._gather.mask[:4]
        self.partials = np.empty((4, count))

        # Precomputed scatter patterns.  Matrix contributions: for every
        # partial k ∈ (d, g, s, b), +g_k lands on (drain, node_k) and −g_k
        # on (source, node_k) — ground rows/columns dropped.
        terminals = (drain, gate, source, bulk)
        self.flat_index, self.scatter_sign, kind, scatter_fet = (
            _matrix_scatter([(row, col, sign)
                             for row, sign in ((drain, 1.0), (source, -1.0))
                             for col in terminals], base, size))
        self._scatter_take = (_PARTIAL_ROW[kind % len(terminals)] * count
                              + scatter_fet)
        self.rhs_index, self.rhs_sign, self.rhs_fet = _rhs_scatter(
            ((drain, -1.0), (source, 1.0)), base)
        #: Drain currents of the last stamp (a batch's reuse samples read
        #: them instead of a second device pass).
        self.stamped_currents = np.zeros(count)

    def _channel(self, voltages: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Drain currents and the intermediates the partials reuse.

        Returns ``(i_drain, primed, x, log_term, delta_i, vds_p, root,
        m)``: ``x`` is the (2, N) forward/reverse overdrive over 2V_t and
        ``log_term`` its ln(1+eˣ), so F(x) = ln²(1+eˣ).  :meth:`evaluate`
        and :meth:`currents` share this one expression tree, so the
        currents of a stamp and of a currents-only pass are the same bits.
        """
        primed = self._gather(voltages)
        vp_pinch = (primed[2] - primed[3] - self.vth0) / self.slope
        # Rows (forward, reverse): u_f = v_P − v_SB, u_r = v_P − v_DB.
        x = (vp_pinch - (primed[0:2] - primed[3:5])) / self._two_vt
        log_term = np.logaddexp(self._zeros, x)
        f = log_term * log_term
        delta_i = f[0] - f[1]
        vds_p = primed[1] - primed[0]
        root = np.sqrt(vds_p * vds_p + self._eps_sq)
        h = root - self._eps
        m = self._ones + self.lam * h
        i_drain = self.sign * (self.i_spec * delta_i * m)
        return i_drain, primed, x, log_term, delta_i, vds_p, root, m

    def currents(self, voltages: np.ndarray) -> np.ndarray:
        """Drain currents alone: no partials and no sigmoid ``exp``."""
        return self._channel(voltages)[0]

    def evaluate(self, voltages: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain currents and the (4, N) partial-derivative matrix.

        Returns ``(i_drain, partials, const)`` where ``partials`` rows
        follow the (s, d, g, b) terminal order and ``const`` is the Norton
        offset current of the linearisation.  ``partials`` is the group's
        buffer, overwritten by the next call.
        """
        (i_drain, primed, x, log_term, delta_i, vds_p, root,
         m) = self._channel(voltages)
        # dF/du = 2·ln(1+eˣ)·σ(x) / 2V_t, with σ(x) = eˣ/(1+eˣ)
        # = exp(x − ln(1+eˣ)), stable for both signs.
        sigmoid = np.exp(x - log_term)
        df = self._twos * log_term * sigmoid / self._two_vt
        df_f, df_r = df[0], df[1]
        dm_dvds = self.lam * vds_p / root

        partials = self.partials
        gate_term = self.i_spec * m * (df_f - df_r)
        clm_term = delta_i * dm_dvds
        np.multiply(self.i_spec, -m * df_f - clm_term, out=partials[0])  # s
        np.multiply(self.i_spec, m * df_r + clm_term, out=partials[1])   # d
        np.divide(gate_term, self.slope, out=partials[2])                # g
        np.multiply(gate_term, self._bulk_factor, out=partials[3])       # b
        # i − (((g_d·v_d + g_g·v_g) + g_s·v_s) + g_b·v_b), unprimed v.
        terms = partials * (primed[:4] * self._unprime)
        const = i_drain - (terms[1] + terms[2] + terms[0] + terms[3])
        return i_drain, partials, const

    def stamp(self, matrix_flat: np.ndarray, rhs: np.ndarray,
              voltages: np.ndarray) -> None:
        """Scatter the linearised stamps of all transistors at once."""
        self.stamp_into(matrix_flat, self.flat_index, rhs, voltages)

    def stamp_into(self, target: np.ndarray, index: np.ndarray,
                   rhs: np.ndarray, voltages: np.ndarray) -> None:
        """Stamp with a caller-supplied slot mapping: ``target[index]``
        must alias the same matrix slots as ``matrix_flat[flat_index]``
        (the sparse engine passes CSC data positions)."""
        self.stamped_currents, partials, const = self.evaluate(voltages)
        np.add.at(target, index,
                  partials.ravel().take(self._scatter_take)
                  * self.scatter_sign)
        np.add.at(rhs, self.rhs_index,
                  self.rhs_sign * const.take(self.rhs_fet))

    def inject(self, residual: np.ndarray, currents: np.ndarray) -> None:
        """Add the drain currents to a Newton residual: +i on the drain
        row, −i on the source row (what a stamp's ``A·x − b`` holds
        there)."""
        np.subtract.at(residual, self.rhs_index,
                       self.rhs_sign * currents.take(self.rhs_fet))


def _plain_junction(device: Device) -> bool:
    """Whether a device is a junction whose stamp linearises its own
    current ``g·v`` (free → ref): its ``A_dev·x − b_dev`` at the iterate
    is then ``+g·v`` on the free row and ``−g·v`` on the reference row.
    The NAND-SPIN junction qualifies; a subclass that overrides the stamp
    or the current does not."""
    kind = type(device)
    return (kind.stamp is MTJElement.stamp
            and kind.current is MTJElement.current)


def _frozen(device: Device) -> bool:
    """Whether a device is a junction that cannot switch: a plain
    :class:`MTJElement` without switching dynamics, whose state stays
    fixed through a run and whose ``update_state`` is a no-op (a subclass
    may add dynamics, as the NAND-SPIN junction's SOT erase does)."""
    return type(device) is MTJElement and device.switching is None


class _MTJGroup:
    """The MTJ elements of one or more same-topology circuits, evaluated
    and stamped as arrays into their block-diagonal system
    (:func:`_sample_base`).

    Replicates :meth:`MTJElement.stamp` element-wise (same conductance
    and roll-off expressions, vectorised).  The stamps read the P/AP mask
    :attr:`is_ap`, or the elements' states when it is ``None``.
    :class:`MNAWorkspace` leaves magnetisation to the elements (their
    scalar :class:`~repro.mtj.dynamics.SwitchingModel`) and snapshots the
    mask at the start of a timepoint: during a run ``device.state`` flips
    only inside an element's ``update_state``, between accepted
    timepoints, or through the recovery ladder's restore, which is always
    followed by ``reload_state``.  So when no junction of the group can
    switch (each a plain :class:`MTJElement` with ``switching`` ``None``,
    :func:`_frozen`), the workspace reads the mask once after it is built
    and once after each ``reload_state``; otherwise it re-reads it every
    timepoint.  The batched ensemble integrates switching itself and owns
    the mask.
    """

    def __init__(self, per_sample: Sequence[Sequence[MTJElement]],
                 size: int):
        self.mtjs = mtjs = [m for sample in per_sample for m in sample]
        base = _sample_base(per_sample, size)
        self.free = np.array([m.free for m in mtjs], dtype=np.intp)
        self.ref = np.array([m.ref for m in mtjs], dtype=np.intp)
        self.r_p = np.array([m.device.params.resistance_p for m in mtjs])
        self.tmr0 = np.array([m.device.params.tmr_zero_bias for m in mtjs])
        self.v_h = np.array(
            [m.device.params.tmr_half_bias_voltage for m in mtjs])
        self._gather = _Gather(np.stack([self.free, self.ref]), base)
        self.flat_index, self.scatter_sign, _, self.scatter_mtj = (
            _conductance_scatter(self.free, self.ref, base, size))
        self.rhs_index, self.rhs_sign, self.rhs_mtj = _rhs_scatter(
            ((self.free, -1.0), (self.ref, 1.0)), base)
        #: Junction currents of the last stamp (see
        #: :attr:`_MOSFETGroup.stamped_currents`).
        self.stamped_currents = np.zeros(len(mtjs))
        #: P/AP mask the stamps read (``None``: read the elements).
        self.is_ap: Optional[np.ndarray] = None

    def read_states(self) -> np.ndarray:
        """The elements' P/AP mask."""
        return np.fromiter(
            (m.device.state is not MTJState.PARALLEL for m in self.mtjs),
            dtype=bool, count=len(self.mtjs))

    def _conductance(self, voltages: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(v, |v|, is_ap, denom, r_ap, g)`` per junction: bias,
        conductance and the roll-off terms its derivative reuses."""
        terminal = self._gather(voltages)
        v = terminal[0] - terminal[1]
        av = np.abs(v)
        is_ap = self.is_ap if self.is_ap is not None else self.read_states()
        ratio = av / self.v_h
        denom = 1.0 + ratio * ratio
        r_ap = self.r_p * (1.0 + self.tmr0 / denom)
        g = np.where(is_ap, 1.0 / r_ap, 1.0 / self.r_p)
        return v, av, is_ap, denom, r_ap, g

    def currents(self, voltages: np.ndarray) -> np.ndarray:
        """Junction currents g·v, free → ref, without the derivative."""
        v, _, _, _, _, g = self._conductance(voltages)
        return g * v

    def electrical(self, voltages: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bias, conductance and conductance derivative per junction."""
        v, av, is_ap, denom, r_ap, g = self._conductance(voltages)
        dr_dv = (self.r_p * self.tmr0 * (-1.0 / (denom * denom))
                 * (2.0 * av / (self.v_h * self.v_h)))
        dg = np.where(is_ap, -dr_dv / (r_ap * r_ap), 0.0)
        return v, g, dg

    def stamp(self, matrix_flat: np.ndarray, rhs: np.ndarray,
              voltages: np.ndarray) -> None:
        """Scatter the linearised stamps of all junctions at once."""
        self.stamp_into(matrix_flat, self.flat_index, rhs, voltages)

    def stamp_into(self, target: np.ndarray, index: np.ndarray,
                   rhs: np.ndarray, voltages: np.ndarray) -> None:
        """Stamp with a caller-supplied slot mapping (see
        :meth:`_MOSFETGroup.stamp_into`)."""
        v, g, dg = self.electrical(voltages)
        g_eff = np.maximum(g + np.abs(v) * dg, 0.1 * g)
        self.stamped_currents = current = g * v
        const = current - g_eff * v
        np.add.at(target, index,
                  self.scatter_sign * g_eff.take(self.scatter_mtj))
        np.add.at(rhs, self.rhs_index,
                  self.rhs_sign * const.take(self.rhs_mtj))

    def inject(self, residual: np.ndarray, currents: np.ndarray) -> None:
        """Add the junction currents to a Newton residual: +i on the free
        row, −i on the reference row."""
        np.subtract.at(residual, self.rhs_index,
                       self.rhs_sign * currents.take(self.rhs_mtj))


class _CapacitorGroup:
    """The capacitors of one or more same-topology circuits: static
    companion conductances plus a vectorised per-step RHS and state
    update, in their block-diagonal system (:func:`_sample_base`)."""

    def __init__(self, per_sample: Sequence[Sequence[Capacitor]], size: int,
                 dt: Optional[float], integrator: str):
        self.caps = caps = [c for sample in per_sample for c in sample]
        base = _sample_base(per_sample, size)
        self.transient = dt is not None
        self.integrator = integrator
        self.pos = np.array([c.positive for c in caps], dtype=np.intp)
        self.neg = np.array([c.negative for c in caps], dtype=np.intp)
        capacitance = np.array([c.capacitance for c in caps])
        if self.transient:
            scale = 2.0 if integrator == "trap" else 1.0
            self.g = scale * capacitance / dt
        else:
            self.g = np.zeros(len(caps))
        self.i_prev = np.array([c._prev_current for c in caps])
        self._ieq = np.zeros(len(caps))
        # Companion conductances in MNAStamper.add_conductance order (aa,
        # bb, ab, ba for each capacitor in turn), so the static matrix
        # sums come out as a per-device stamp loop leaves them.
        slot, sign, _, cap = _conductance_scatter(self.pos, self.neg, base,
                                                  size)
        order = np.argsort(cap, kind="stable")
        self.g_index, self.g_sign, self.g_cap = (slot[order], sign[order],
                                                 cap[order])
        self.rhs_index, self.rhs_sign, self.rhs_cap = _rhs_scatter(
            ((self.pos, 1.0), (self.neg, -1.0)), base)
        self._gather = _Gather(np.stack([self.pos, self.neg]), base)

    def stamp_static(self, matrix_flat: np.ndarray) -> None:
        """Companion conductances into the (flat) static matrix."""
        if not self.transient:
            return
        np.add.at(matrix_flat, self.g_index, self.g_sign * self.g[self.g_cap])

    def step_rhs(self, rhs: np.ndarray, prev_voltages: np.ndarray) -> None:
        """Norton companion currents for the timepoint (iterate-free)."""
        if not self.transient:
            return
        terminal = self._gather(prev_voltages)
        v_prev = terminal[0] - terminal[1]
        ieq = self.g * v_prev
        if self.integrator == "trap":
            ieq = ieq + self.i_prev
        self._ieq = ieq
        np.add.at(rhs, self.rhs_index, self.rhs_sign * ieq.take(self.rhs_cap))

    def update_state(self, voltages: np.ndarray) -> None:
        """Advance the stored capacitor currents after an accepted step."""
        if not self.transient:
            return
        terminal = self._gather(voltages)
        v_now = terminal[0] - terminal[1]
        self.i_prev = self.g * v_now - self._ieq

    def flush_to_devices(self) -> None:
        """Write the group's companion-current history back onto the
        devices (so another workspace — a recovery-ladder alternate at a
        different dt or engine — can pick the state up)."""
        for cap, current in zip(self.caps, self.i_prev):
            cap._prev_current = float(current)

    def reload_from_devices(self) -> None:
        """Re-read companion-current history from the devices."""
        self.i_prev = np.array([c._prev_current for c in self.caps])


class _RHSView(MNAStamper):
    """Stamper view that only exposes the RHS — used for ``stamp_step`` so
    a linear device violating the matrix-free contract fails loudly."""

    def __init__(self, num_nodes: int, num_branches: int, rhs: np.ndarray):
        self.num_nodes = num_nodes
        self.num_branches = num_branches
        self.matrix = None  # any matrix write raises immediately
        self.rhs = rhs


def _split_step_devices(devices: Sequence[Device], num_nodes: int,
                        num_branches: int, dt: Optional[float],
                        integrator: str) -> Tuple[np.ndarray, List[Device]]:
    """The step-tier RHS of linear devices, split by whether it changes.

    Returns the base step RHS, holding the stamps of the DC voltage
    sources, and the other devices with a per-timepoint RHS, in device
    order.  A step starts from a copy of the base and stamps the rest.  A
    voltage source writes only its own branch row, which no other step
    device touches, so stamping the DC ones first and once moves no bit.
    """
    base = np.zeros(num_nodes + num_branches)
    view = _RHSView(num_nodes, num_branches, base)
    ctx = EvalContext(voltages=np.zeros(0), prev_voltages=None, time=0.0,
                      dt=dt, integrator=integrator)
    varying: List[Device] = []
    for device in devices:
        if type(device).stamp_step is Device.stamp_step:
            continue  # the base-class no-op
        if type(device) is VoltageSource and type(device.waveform) is DC:
            device.stamp_step(view, ctx)
        else:
            varying.append(device)
    return base, varying


class MNAWorkspace:
    """Preallocated MNA system with cached static stamps for one run.

    The workspace is bound to a finalised circuit and one (dt, integrator)
    pair.  Assembly proceeds in three tiers:

    1. **static** — built once: linear-device matrix stamps
       (``stamp_static``); invariant across the whole analysis, except
       that a timepoint with no previous solution (a DC operating point)
       opens the capacitors (:meth:`begin_step`);
    2. **step**   — rebuilt once per timepoint: RHS of sources and
       capacitor companions (``stamp_step``), which depend on time and the
       previous accepted solution but not on the Newton iterate (the DC
       voltage sources' part is stamped once and copied in);
    3. **iterate** — rebuilt on every Newton iteration that refactorises:
       nonlinear device stamps (MOSFETs vectorised, MTJs and any other
       ``nonlinear`` device through their ordinary ``stamp``).  An
       iteration that reuses the factors evaluates the device currents
       only (:meth:`residual`).
    """

    def __init__(self, circuit: Circuit, dt: Optional[float] = None,
                 integrator: str = "be"):
        circuit.finalize()
        self.circuit = circuit
        self.dt = dt
        self.integrator = integrator
        self.num_nodes = circuit.num_nodes
        self.num_branches = circuit.num_branches
        self.size = self.num_nodes + self.num_branches

        self.matrix = np.zeros((self.size, self.size))
        self.rhs = np.zeros(self.size)
        self._matrix_flat = self.matrix.ravel()
        self._step_rhs = np.zeros(self.size)
        self._static_matrix = np.zeros((self.size, self.size))

        mtj_count = sum(1 for d in circuit.devices
                        if isinstance(d, MTJElement))
        vectorize_mtjs = mtj_count >= VECTORIZE_MTJ_THRESHOLD
        fets: List[MOSFET] = []
        mtjs: List[MTJElement] = []
        caps: List[Capacitor] = []
        self._linear_devices: List[Device] = []
        self._iterate_devices: List[Device] = []
        for device in circuit.devices:
            if isinstance(device, MOSFET):
                fets.append(device)
            elif vectorize_mtjs and isinstance(device, MTJElement):
                mtjs.append(device)
            elif isinstance(device, Capacitor):
                caps.append(device)
            elif device.nonlinear:
                self._iterate_devices.append(device)
            else:
                self._linear_devices.append(device)

        self.cap_group = _CapacitorGroup([caps], self.size, dt, integrator)
        if len(fets) >= VECTORIZE_MOSFET_THRESHOLD:
            self.fet_group: Optional[_MOSFETGroup] = _MOSFETGroup(
                [fets], self.size)
        else:
            self.fet_group = None
            self._iterate_devices = fets + self._iterate_devices
        self.mtj_group: Optional[_MTJGroup] = (
            _MTJGroup([mtjs], self.size) if mtjs else None)
        #: Whether the group's P/AP mask holds for the whole run (no
        #: grouped junction can switch).
        self._mask_frozen = all(_frozen(m) for m in mtjs)

        # Per-step device lists, built once: the linear devices with a
        # per-timepoint RHS that changes (the DC voltage sources are
        # stamped once, into the base step RHS), and every device with
        # state to advance after an accepted step (in iterate, MOSFET,
        # MTJ, linear order).  The base-class no-ops and the junctions that
        # cannot switch are skipped.
        self._base_step_rhs, self._step_devices = _split_step_devices(
            self._linear_devices, self.num_nodes, self.num_branches, dt,
            integrator)
        self._stateful_devices = [
            d for d in (self._iterate_devices
                        + (self.fet_group.fets if self.fet_group else [])
                        + mtjs + self._linear_devices)
            if type(d).update_state is not Device.update_state
            and not _frozen(d)]
        self._step_view = _RHSView(self.num_nodes, self.num_branches,
                                   self._step_rhs)
        self._iterate_view = MNAStamper(self.num_nodes, self.num_branches,
                                        matrix=self.matrix, rhs=self.rhs)
        # The reuse residual's view of the ungrouped iterate devices: the
        # junctions inject their own current, and every other device's
        # A_dev·x − b_dev comes from its stamp into a scratch system.
        self._junctions = [d for d in self._iterate_devices
                           if _plain_junction(d)]
        self._stamped_devices = [d for d in self._iterate_devices
                                 if not _plain_junction(d)]
        self._scratch = (MNAStamper(self.num_nodes, self.num_branches)
                         if self._stamped_devices else None)

        self._build_static()
        # Reusable EvalContext scaffolding.
        self._time = 0.0
        self._prev_voltages: Optional[np.ndarray] = None
        #: Fraction of the independent sources a timepoint with no
        #: previous solution stamps: the DC recovery ladder's source
        #: stepping (1.0 otherwise).
        self.source_scale = 1.0

    # -- assembly tiers --------------------------------------------------------

    def _static_ctx(self) -> EvalContext:
        return EvalContext(voltages=np.zeros(self.num_nodes),
                           prev_voltages=None, time=0.0, dt=self.dt,
                           integrator=self.integrator)

    def _build_static(self) -> None:
        self._static_matrix[:, :] = 0.0
        stamper = MNAStamper(self.num_nodes, self.num_branches,
                             matrix=self._static_matrix,
                             rhs=np.zeros(self.size))
        ctx = self._static_ctx()
        for device in self._linear_devices:
            device.stamp_static(stamper, ctx)
        # The static entries on the capacitor companion slots before and
        # after the companions go in: begin_step writes one set or the
        # other back, so the static tier opens and closes the capacitors
        # bit for bit.
        flat = self._static_matrix.reshape(-1)
        slots = self.cap_group.g_index
        self._open_entries = flat.take(slots)
        self.cap_group.stamp_static(flat)
        self._closed_entries = flat.take(slots)
        self._capacitors_open = False

    def begin_step(self, time: float,
                   prev_voltages: Optional[np.ndarray]) -> None:
        """Rebuild the iterate-free RHS for a new timepoint.

        With no previous solution (``prev_voltages`` ``None``, the DC
        operating point) the capacitors are open: the static tier holds
        no companion conductances and the step RHS no companion currents
        until a timepoint with one, so the step RHS holds the independent
        sources alone, scaled by :attr:`source_scale`."""
        self._time = time
        self._prev_voltages = prev_voltages
        is_open = prev_voltages is None
        if is_open is not self._capacitors_open:
            self._capacitors_open = is_open
            self._static_matrix.reshape(-1)[self.cap_group.g_index] = (
                self._open_entries if is_open else self._closed_entries)
        np.copyto(self._step_rhs, self._base_step_rhs)
        view = self._step_view
        ctx = EvalContext(voltages=np.zeros(0), prev_voltages=prev_voltages,
                          time=time, dt=self.dt, integrator=self.integrator)
        for device in self._step_devices:
            device.stamp_step(view, ctx)
        if is_open:
            self._step_rhs *= self.source_scale
        else:
            self.cap_group.step_rhs(self._step_rhs, prev_voltages)
        group = self.mtj_group
        if group is not None and (group.is_ap is None
                                  or not self._mask_frozen):
            group.is_ap = group.read_states()

    def assemble(self, x: np.ndarray, gmin: float = 0.0) -> None:
        """Assemble matrix+RHS at the iterate ``x`` into the workspace
        buffers."""
        np.copyto(self.matrix, self._static_matrix)
        np.copyto(self.rhs, self._step_rhs)
        if gmin > 0.0 and self.num_nodes:
            self._matrix_flat[: self.num_nodes * self.size + self.num_nodes
                              : self.size + 1] += gmin
        voltages = x[: self.num_nodes]
        if self.fet_group is not None:
            self.fet_group.stamp(self._matrix_flat, self.rhs, voltages)
        if self.mtj_group is not None:
            self.mtj_group.stamp(self._matrix_flat, self.rhs, voltages)
        if self._iterate_devices:
            view = self._iterate_view
            ctx = EvalContext(voltages=voltages,
                              prev_voltages=self._prev_voltages,
                              time=self._time, dt=self.dt, gmin=gmin,
                              integrator=self.integrator)
            for device in self._iterate_devices:
                device.stamp(view, ctx)

    def residual(self, x: np.ndarray, gmin: float = 0.0,
                 static=None) -> np.ndarray:
        """The Newton residual ``F(x) = A(x)·x − b(x)`` at the iterate,
        formed without assembling ``A(x)``.

        ``F(x) = G·x − b_step + gmin·x_nodes`` plus each nonlinear
        device's current injection: the MOSFET group's drain currents
        from a currents-only EKV pass, the MTJ group's ``g·v``, an
        ungrouped junction's :meth:`~MTJElement.current`, and ``A_dev·x
        − b_dev`` from the stamp of any other iterate device.  ``G`` is the
        static matrix, or ``static`` when the caller holds it in another
        form (the sparse engine's CSC copy).
        """
        if static is None:
            static = self._static_matrix
        f = static @ x - self._step_rhs
        voltages = x[: self.num_nodes]
        if gmin > 0.0 and self.num_nodes:
            f[: self.num_nodes] += gmin * voltages
        if self.fet_group is not None:
            self.fet_group.inject(f, self.fet_group.currents(voltages))
        if self.mtj_group is not None:
            self.mtj_group.inject(f, self.mtj_group.currents(voltages))
        if self._iterate_devices:
            ctx = EvalContext(voltages=voltages,
                              prev_voltages=self._prev_voltages,
                              time=self._time, dt=self.dt, gmin=gmin,
                              integrator=self.integrator)
            for junction in self._junctions:
                i = junction.current(ctx)
                if junction.free >= 0:
                    f[junction.free] += i
                if junction.ref >= 0:
                    f[junction.ref] -= i
            scratch = self._scratch
            if scratch is not None:
                scratch.matrix.fill(0.0)
                scratch.rhs.fill(0.0)
                for device in self._stamped_devices:
                    device.stamp(scratch, ctx)
                f += scratch.matrix @ x - scratch.rhs
        return f

    def update_state(self, x: np.ndarray) -> None:
        """Advance stateful devices after an accepted timepoint."""
        voltages = x[: self.num_nodes]
        self.cap_group.update_state(voltages)
        if self._stateful_devices:
            ctx = EvalContext(voltages=voltages,
                              prev_voltages=self._prev_voltages,
                              time=self._time, dt=self.dt,
                              integrator=self.integrator)
            for device in self._stateful_devices:
                device.update_state(ctx)

    # -- recovery-ladder state exchange -----------------------------------

    def flush_state(self) -> None:
        """Push workspace-held device state (capacitor companion
        currents) back onto the devices, making this workspace's view of
        the circuit visible to other workspaces.  MTJ and iterate-device
        state already lives on the devices themselves."""
        self.cap_group.flush_to_devices()

    def reload_state(self) -> None:
        """Re-read device state after another workspace advanced it (the
        inverse of :meth:`flush_state`)."""
        self.cap_group.reload_from_devices()
        if self.mtj_group is not None:
            self.mtj_group.is_ap = None


def modified_newton(solver, x0: np.ndarray, time: float,
                    prev_voltages: Optional[np.ndarray], gmin: float,
                    max_iterations: int, vtol: float,
                    damping: float) -> np.ndarray:
    """One converged damped modified-Newton solve at a timepoint or a DC
    point: the Newton loop of every scalar solve.

    Each iteration first decides under :func:`jacobian_refresh` whether
    to renew the LU factors ``A₀``.  A refresh iteration assembles the
    system at the iterate, factorises it and forms the residual ``F(x) =
    A(x)·x − b(x)`` from it; a reuse iteration assembles nothing and
    takes ``F(x)`` from the device currents
    (:meth:`MNAWorkspace.residual`).  The factors outlive the call: a
    solve that converges leaves ``solver._carried = (gmin, age)``, and
    the next solve at that gmin starts on them, so a timepoint's first
    iteration is a reuse iteration unless they are
    :data:`JACOBIAN_MAX_AGE` iterations old.  A solve that raises and a
    solve at another gmin refactorise on their first iteration.  A solve
    with no previous solution (``prev_voltages`` ``None``: a DC point,
    capacitors open) refactorises on every iteration, since a homotopy
    stage on stale factors can diverge; it raises once the wall clock
    passes ``solver.deadline`` (a :func:`time.monotonic` instant, or
    ``None``) and leaves no factors, so the first timestep factorises
    its own matrix.  ``x0`` is only the first iterate: a fixed-step run
    passes the prediction of its step control, while ``prev_voltages``
    stays the last accepted solution.
    ``solver`` supplies ``workspace``, ``stats``, ``deadline``,
    ``_factors`` (the last factors) and ``_carried`` (both ``None`` on a
    new solver), so a caller that saves the pair and puts it back starts
    its next solve on the factors the saved one started on, and four
    steps: ``_assemble(x, gmin)`` builds the
    system, ``_factorize()`` LU-factorises its matrix (and runs the
    condition probe, except at a DC point),
    ``_residual(x, gmin)`` forms a reuse iteration's ``F(x)`` and
    ``_update(x, residual)`` returns ``−A₀⁻¹·F(x)``, with ``F(x)`` from
    the assembled system when ``residual`` is ``None``.  Raises
    :class:`ConvergenceError` on failure, carrying the last iterate
    when the iterations or the deadline run out.
    """
    ws = solver.workspace
    ws.begin_step(time, prev_voltages)
    num_nodes = ws.num_nodes
    stats = solver.stats
    assemble, factorize, residual, update = (
        solver._assemble, solver._factorize, solver._residual,
        solver._update)
    dc_point = prev_voltages is None
    deadline = solver.deadline if dc_point else None
    x = x0.copy()
    carried, solver._carried = solver._carried, None
    factored = carried is not None and carried[0] == gmin
    age = carried[1] if factored else 0
    prev_max_dv = np.inf
    max_dv = np.inf
    for iteration in range(1, max_iterations + 1):
        if deadline is not None and _time.monotonic() > deadline:
            raise ConvergenceError(
                f"Newton solve exceeded its wall-clock timeout at "
                f"iteration {iteration} (gmin={gmin:g})",
                iterations=iteration, state=x.copy())
        stats.iterations += 1
        age += 1
        fresh = dc_point or jacobian_refresh(not factored, age, max_dv,
                                             prev_max_dv)
        try:
            if fresh:
                assemble(x, gmin)
                factorize()
                factored = True
                age = 0
                f = None
            else:
                stats.reuses += 1
                f = residual(x, gmin)
            delta = update(x, f)
            finite = np.isfinite(delta).all()
            if not finite and not fresh:
                # Stale factorisation went bad: assemble, refactor and
                # retry once (the retried update still counts as a reuse).
                stats.singular_retries += 1
                assemble(x, gmin)
                factorize()
                age = 0
                stats.reuses += 1
                delta = update(x, f)
                finite = np.isfinite(delta).all()
            if not finite:
                raise np.linalg.LinAlgError("non-finite Newton update")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular MNA matrix at gmin={gmin:g} "
                f"(iteration {iteration})",
                iterations=iteration,
            ) from exc

        prev_max_dv = max_dv
        dv = delta[:num_nodes]
        max_dv = float(np.abs(dv).max()) if num_nodes else 0.0
        if max_dv > damping:
            x = x + delta * (damping / max_dv)
        else:
            x = x + delta
            if max_dv < vtol:
                stats.solves += 1
                if not dc_point:
                    solver._carried = (gmin, age)
                return x
    raise ConvergenceError(
        f"Newton failed to converge in {max_iterations} iterations "
        f"(gmin={gmin:g}, last max dV={max_dv:g})",
        iterations=max_iterations,
        residual=max_dv,
        state=x.copy(),
    )


class FastNewtonSolver:
    """Damped modified Newton (:func:`modified_newton`) over an
    :class:`MNAWorkspace`, with dense LAPACK getrf/getrs factors that
    carry from one converged timepoint to the next."""

    #: The ``run_transient`` engine name of the solver.
    engine = "fast"

    def __init__(self, workspace: MNAWorkspace,
                 stats: Optional[SolverStats] = None):
        self.workspace = workspace
        #: :func:`time.monotonic` instant past which a DC solve raises.
        self.deadline: Optional[float] = None
        #: The last getrf factors ``(lu, piv)``.
        self._factors = None
        #: ``(gmin, age)`` of the factors the last converged solve left.
        self._carried: Optional[Tuple[float, int]] = None
        #: Work counters, shared with the caller when one is passed in
        #: (``run_transient`` aggregates them across every timestep).
        self.stats = stats if stats is not None else SolverStats()
        #: Optional :class:`~repro.recovery.health.ConditionProbe`
        #: (duck-typed — this module never imports the recovery package);
        #: probed on fresh factorisations of timepoints, interval-gated by
        #: the probe.  A DC point is not probed: a node that only
        #: capacitors tie to the circuit rests on gmin there.
        self.condition_probe = None

    def _assemble(self, x: np.ndarray, gmin: float) -> None:
        self.workspace.assemble(x, gmin)

    def _factorize(self) -> None:
        # Raw LAPACK getrf: skips the scipy wrapper overhead (asarray +
        # finiteness checks) that showed up in per-iteration profiles.
        self.stats.factorizations += 1
        lu, piv, info = _getrf(self.workspace.matrix)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"LU factorisation failed (getrf info={info})")
        self._factors = (lu, piv)
        if (self.condition_probe is not None
                and not self.workspace._capacitors_open):
            matrix = self.workspace.matrix
            self.condition_probe.after_factorization(
                lambda b: _getrs(lu, piv, b)[0],
                lambda b: _getrs(lu, piv, b, trans=1)[0],
                lambda: (float(np.abs(matrix).sum(axis=0).max())
                         if matrix.size else 0.0),
                self.workspace.size)

    def _residual(self, x: np.ndarray, gmin: float) -> np.ndarray:
        return self.workspace.residual(x, gmin)

    def _update(self, x: np.ndarray,
                residual: Optional[np.ndarray]) -> np.ndarray:
        ws = self.workspace
        if residual is None:
            residual = ws.matrix @ x - ws.rhs
        lu, piv = self._factors
        delta, info = _getrs(lu, piv, residual)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"LU solve failed (getrs info={info})")
        return -delta

    def solve(self, x0: np.ndarray, time: float,
              prev_voltages: Optional[np.ndarray], gmin: float,
              max_iterations: int, vtol: float, damping: float) -> np.ndarray:
        return modified_newton(self, x0, time, prev_voltages, gmin,
                               max_iterations, vtol, damping)

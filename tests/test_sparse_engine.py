"""Unit suite for the sparse solver generation.

Covers the pieces of :mod:`repro.spice.analysis.sparse` and
:mod:`repro.spice.analysis.ensemble` individually — structural pattern
discovery and reuse, the pure-CSC assembly path, the LTE step
control of adaptive runs, the block-diagonal ensemble — while
``tests/test_engine_differential.py`` pins the end-to-end cross-engine
waveform contract on randomized circuits.
"""

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.cells.miniarray import build_mini_array
from repro.errors import AnalysisError, ConvergenceError
from repro.mtj.device import MTJState
from repro.obs import disable_tracing, enable_tracing, metrics
from repro.mtj.parameters import PAPER_TABLE_I
from repro.mtj.variation import monte_carlo_parameters
from repro.spice import Circuit, Pulse
from repro.spice.devices.base import TwoTerminal
from repro.spice.devices.passive import Capacitor
from repro.spice.analysis import (
    EnsembleWorkspace,
    run_ensemble_transient,
    run_transient,
)
from repro.spice.analysis.engine import (
    JACOBIAN_MAX_AGE,
    VECTORIZE_MTJ_THRESHOLD,
    MNAWorkspace,
    jacobian_refresh,
)
from repro.spice.analysis.sparse import (
    PERMC_SPEC,
    SparseNewtonSolver,
    SparsePattern,
    clear_pattern_cache,
    get_pattern,
    sparse_config_fingerprint,
    structure_signature,
)

WAVEFORM_TOL = 1e-6  # 1 µV


def mtj_read_circuit(params=None, widths=(300e-9, 300e-9),
                     dynamic=True) -> Circuit:
    """Two-bit-line MTJ read structure: enough FETs/MTJs to stay small
    but exercise sources, passives, transistors and junctions."""
    c = Circuit("sparse-read")
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_vsource("ren", "ren", "0",
                  Pulse(0.0, 1.1, delay=0.1e-9, rise=20e-12, width=5e-9))
    for i, state in enumerate((MTJState.PARALLEL, MTJState.ANTIPARALLEL)):
        c.add_resistor(f"rl{i}", "vdd", f"bl{i}", 4e3)
        c.add_mtj(f"mtj{i}", f"bl{i}", f"sn{i}", params=params, state=state,
                  dynamic=dynamic)
        c.add_nmos(f"acc{i}", f"sn{i}", "ren", "0", width=widths[i])
        c.add_capacitor(f"cb{i}", f"bl{i}", "0", 0.4e-15)
    return c


def sharp_edge_circuit(rise) -> Circuit:
    """The recovery corpus's sharp-edge circuit with an input edge that
    rises in ``rise`` seconds."""
    from tests.recovery_corpus import corpus_entry

    circuit = corpus_entry("sharp-edge").build()
    circuit.device("vin").waveform = Pulse(0.0, 1.1, delay=20e-12,
                                           rise=rise, width=5e-9)
    return circuit


def grouped_array_circuit(rows=3, cols=3) -> Circuit:
    """A small 1T-1MTJ array: ≥4 FETs and ≥4 MTJs with no other
    nonlinear devices, so both vectorised groups engage and the sparse
    solver takes the pure-CSC assembly path."""
    return build_mini_array(rows=rows, cols=cols, active_rows=1,
                            access_time=0.5e-9)


# ---------------------------------------------------------------------------
# Structural pattern
# ---------------------------------------------------------------------------


class TestSparsePattern:
    def test_pattern_covers_every_assembled_nonzero(self):
        circuit = mtj_read_circuit()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=1e-12)
        pattern = SparsePattern(ws)
        rng = np.random.default_rng(3)
        ws.begin_step(0.2e-9, rng.uniform(0.0, 1.1, ws.num_nodes))
        ws.assemble(rng.uniform(0.0, 1.1, ws.size), gmin=1e-12)
        structural = np.zeros(ws.size * ws.size, dtype=bool)
        structural[pattern.take_flat] = True
        leaked = np.abs(ws.matrix.ravel()[~structural])
        assert pattern.nnz < ws.size * ws.size
        assert not leaked.size or float(np.max(leaked)) == 0.0

    def test_gather_reproduces_dense_values(self):
        circuit = mtj_read_circuit()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=1e-12)
        pattern = SparsePattern(ws)
        ws.begin_step(0.2e-9, np.zeros(ws.num_nodes))
        ws.assemble(np.full(ws.size, 0.4), gmin=0.0)
        data = np.empty(pattern.nnz)
        pattern.gather(ws.matrix, data)
        assert np.array_equal(data, ws.matrix.ravel()[pattern.take_flat])

    def test_csc_positions_roundtrip_and_rejects_nonstructural(self):
        circuit = grouped_array_circuit()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=1e-12)
        pattern = SparsePattern(ws)
        some = pattern.take_flat[:: max(1, pattern.nnz // 7)]
        pos = pattern.csc_positions(some)
        assert np.array_equal(pattern.take_flat[pos], some)
        missing = np.setdiff1d(
            np.arange(ws.size * ws.size, dtype=np.intp), pattern.take_flat)
        assert missing.size  # pattern really is sparse
        with pytest.raises(AnalysisError):
            pattern.csc_positions(missing[:1])

    def test_signature_ignores_parameter_values(self):
        samples = monte_carlo_parameters(PAPER_TABLE_I, count=2, seed=5)
        a = mtj_read_circuit(params=samples[0])
        b = mtj_read_circuit(params=samples[1])
        wider = mtj_read_circuit(widths=(300e-9, 500e-9))
        assert structure_signature(a) == structure_signature(b)
        assert structure_signature(a) == structure_signature(wider)

    def test_pattern_registry_reuses_per_topology(self):
        # The registry serves the whole process, so it counts its builds
        # and reuses in the metrics registry, not in a run's record.
        clear_pattern_cache()
        disable_tracing()
        metrics().reset()
        try:
            enable_tracing()
            circuit = mtj_read_circuit()
            circuit.finalize()
            ws = MNAWorkspace(circuit, dt=1e-12)
            first = get_pattern(circuit, ws)
            second = get_pattern(circuit, ws)
            assert first is second
            assert metrics().counter("engine.sparse_pattern_builds") == 1
            assert metrics().counter("engine.sparse_pattern_reuses") == 1
        finally:
            disable_tracing()
            metrics().reset()
            clear_pattern_cache()

    def test_run_record_does_not_depend_on_earlier_runs(self):
        # The first run of a topology builds its pattern and the next
        # reuses it; their records, and so their forensics bundles, are
        # the same.
        from tests.recovery_corpus import corpus_entry

        clear_pattern_cache()
        try:
            stats = [run_transient(mtj_read_circuit(), 0.2e-9, 2e-12,
                                   engine="sparse").stats
                     for _ in range(2)]
            digests = []
            for _ in range(2):
                with pytest.raises(ConvergenceError) as excinfo:
                    corpus_entry("ladder-exhaustion").run(engine="sparse")
                digests.append(excinfo.value.forensics.digest())
        finally:
            clear_pattern_cache()
        assert stats[0] == stats[1]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("builder", [
        partial(build_mini_array, rows=4, cols=4), grouped_array_circuit,
        mtj_read_circuit], ids=["array-4x4", "pure-csc", "dense-route"])
    def test_pattern_does_not_depend_on_dt(self, builder):
        # The capacitor companions hold values only when dt is set; their
        # slots come from the scatter, so a capacitor-open workspace
        # finds the transient pattern.
        circuit = builder()
        circuit.finalize()
        assert any(isinstance(d, Capacitor) and min(d.node_indices()) >= 0
                   for d in circuit.devices)  # a companion off the diagonal
        opened = SparsePattern(MNAWorkspace(circuit))
        transient = SparsePattern(MNAWorkspace(circuit, dt=2.5e-12))
        for name in ("take_flat", "indices", "indptr"):
            assert np.array_equal(getattr(opened, name),
                                  getattr(transient, name)), name

    def test_fingerprint_names_the_controller_constants(self):
        fp = sparse_config_fingerprint()
        assert {"permc_spec", "lte_tol", "max_dt_factor",
                "mtj_window_fraction"} <= fp.keys()


# ---------------------------------------------------------------------------
# Sparse Newton solver
# ---------------------------------------------------------------------------


class TestSparseSolver:
    def test_pure_csc_mode_engages_on_grouped_circuits(self):
        circuit = grouped_array_circuit()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=2e-12)
        solver = SparseNewtonSolver(ws)
        assert solver._pure
        assert ws.fet_group is not None and ws.mtj_group is not None

    def test_mixed_circuits_keep_dense_assembly(self):
        # Below both vectorisation thresholds every nonlinear device is
        # iterated individually — the solver must use the dense route.
        circuit = mtj_read_circuit()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=2e-12)
        assert ws._iterate_devices
        assert not SparseNewtonSolver(ws)._pure

    @pytest.mark.parametrize("builder", [mtj_read_circuit,
                                         grouped_array_circuit],
                             ids=["dense-route", "pure-csc"])
    def test_sparse_waveforms_match_fast(self, builder):
        fast = run_transient(builder(), 0.6e-9, 2e-12, engine="fast")
        sparse = run_transient(builder(), 0.6e-9, 2e-12, engine="sparse")
        diff = float(np.max(np.abs(fast.node_voltages
                                   - sparse.node_voltages)))
        assert diff <= WAVEFORM_TOL


# ---------------------------------------------------------------------------
# SuperLU column order, recorded once per topology
# ---------------------------------------------------------------------------


def proposed_latch_circuit() -> Circuit:
    """The proposed 2-bit latch restoring (1, 0): scalar-stamped
    junctions beside the MOSFET group, so the sparse solver assembles
    densely and gathers."""
    from repro.cells.nvlatch_2bit import build_proposed_latch
    from repro.nv.base import get_backend

    nv = get_backend("mtj")
    schedule = nv.restore_schedule("proposed", bits=(1, 0), vdd=1.1,
                                   cycles=1)
    return build_proposed_latch(schedule, stored_bits=(1, 0), vdd=1.1,
                                backend=nv).circuit


def floating_source_circuit() -> Circuit:
    """A source floating between two equal resistors to ground: the ±1
    entries of its branch column tie at the pivot search, where SuperLU
    prefers the diagonal, so a column-only reordering picks another
    pivot here."""
    c = Circuit("floating-source")
    c.add_vsource("vf", "a", "b", 0.1)
    c.add_resistor("ra", "a", "0", 1e6)
    c.add_resistor("rb", "b", "0", 1e6)
    return c


def _same_csc(a, b) -> bool:
    """Same structure and the same bits in every stored value."""
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


class TestRecordedColumnOrder:
    """Every factorisation after a topology's first hands SuperLU the
    matrix in the order the first one chose (``permc_spec="NATURAL"``);
    the factors and solves must be those of ordering on every call."""

    @pytest.mark.parametrize("builder", [
        grouped_array_circuit, partial(build_mini_array, rows=8, cols=4),
        mtj_read_circuit, proposed_latch_circuit, floating_source_circuit,
    ], ids=["pure-csc", "array-8x4", "dense-route", "proposed-latch",
            "tied-pivots"])
    def test_factors_match_per_call_ordering(self, builder, monkeypatch):
        import repro.spice.analysis.sparse as sparse

        factors = []

        def recording_splu(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(sparse, "splu", recording_splu)
        circuit = builder()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=1e-12)
        pattern = SparsePattern(ws)
        solver = SparseNewtonSolver(ws, pattern=pattern)
        csc = solver._csc
        rng = np.random.default_rng(7)
        for iterate in range(3):
            ws.begin_step(0.2e-9, rng.uniform(0.0, 1.1, ws.num_nodes))
            x = rng.uniform(0.0, 1.1, ws.size)
            for gmin in (0.0, 1e-12):
                solver._assemble(x, gmin)
                if iterate == 0 and gmin == 0.0:
                    pattern.factorize(csc)  # records the order
                solve, solve_t = pattern.factorize(csc)
                natural = factors[-1]
                reference = splu(csc, permc_spec=PERMC_SPEC)
                order = reference.perm_c
                assert np.array_equal(pattern._order[0], order)
                assert np.array_equal(natural.perm_c, np.arange(ws.size))
                assert _same_csc(natural.L, reference.L)
                assert _same_csc(natural.U, reference.U)
                # Row k of the original is row order[k] of the ordered.
                assert np.array_equal(natural.perm_r.take(order),
                                      reference.perm_r)
                b = rng.standard_normal(ws.size)
                assert (solve(b).tobytes()
                        == reference.solve(b).tobytes())
                assert (solve_t(b).tobytes()
                        == reference.solve(b, trans="T").tobytes())
        assert len(factors) == 7

    @pytest.mark.parametrize("builder", [grouped_array_circuit,
                                         mtj_read_circuit],
                             ids=["pure-csc", "dense-route"])
    def test_runs_match_per_call_ordering(self, builder, monkeypatch):
        # The oracle is the same run with the order never recorded, so
        # every factorisation orders its columns itself.
        import repro.spice.analysis.sparse as sparse

        specs = []

        def recording_splu(*args, permc_spec, **kwargs):
            specs.append(permc_spec)
            return splu(*args, permc_spec=permc_spec, **kwargs)

        def run():
            clear_pattern_cache()
            return run_transient(builder(), 0.6e-9, 2e-12, engine="sparse")

        monkeypatch.setattr(sparse, "splu", recording_splu)
        try:
            recorded = run()
            assert specs.count(PERMC_SPEC) == 1
            assert specs.count("NATURAL") == recorded.stats.factorizations - 1
            monkeypatch.setattr(SparsePattern, "_record_order",
                                lambda self, perm_c: None)
            per_call = run()
        finally:
            clear_pattern_cache()
        for name in ("times", "node_voltages", "branch_currents"):
            assert (getattr(recorded, name).tobytes()
                    == getattr(per_call, name).tobytes())
        assert recorded.stats == per_call.stats
        assert recorded.stats.condition_checks > 0

    def test_threads_racing_to_record_the_order_agree(self):
        # A pattern is shared process-wide: threads that factorise a new
        # topology at once all record the order, and every solve must
        # still be the per-call one.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        circuit = grouped_array_circuit()
        circuit.finalize()
        ws = MNAWorkspace(circuit, dt=1e-12)
        pattern = SparsePattern(ws)
        solver = SparseNewtonSolver(ws, pattern=pattern)
        rng = np.random.default_rng(3)
        ws.begin_step(0.2e-9, rng.uniform(0.0, 1.1, ws.num_nodes))
        solver._assemble(rng.uniform(0.0, 1.1, ws.size), 0.0)
        b = rng.standard_normal(ws.size)
        expected = splu(solver._csc, permc_spec=PERMC_SPEC).solve(b)

        def factor_and_solve(_):
            return pattern.factorize(solver._csc)[0](b).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                solves = list(pool.map(factor_and_solve, range(64),
                                       timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert solves == [expected.tobytes()] * 64


# ---------------------------------------------------------------------------
# MTJ group P/AP mask
# ---------------------------------------------------------------------------


class TestFrozenJunctionMask:
    """A grouped junction's P/AP mask is re-read every timepoint only
    when some junction of the group can switch."""

    @staticmethod
    def write_beside_reads() -> Circuit:
        """One junction written P→AP from a pulse source through a
        series resistor, beside enough read-only junctions for the
        vectorised MTJ group to engage."""
        c = Circuit("write-beside-reads")
        c.add_vsource("vw", "drv", "0",
                      Pulse(0.0, 1.1, delay=0.05e-9, rise=10e-12,
                            width=8e-9))
        c.add_resistor("rs", "drv", "top", 1.5e3)
        c.add_mtj("bit", "top", "0", state=MTJState.PARALLEL, dynamic=True)
        c.add_capacitor("cl", "top", "0", 0.2e-15)
        c.add_vsource("vr", "rd", "0", 0.1)
        for i in range(VECTORIZE_MTJ_THRESHOLD - 1):
            c.add_resistor(f"rr{i}", "rd", f"s{i}", 4e3)
            c.add_mtj(f"m{i}", f"s{i}", "0", dynamic=False,
                      state=(MTJState.PARALLEL, MTJState.ANTIPARALLEL)[i % 2])
        return c

    def test_switching_junction_flips_when_the_naive_engine_flips(self):
        # The naive engine is the tests' naive_transient oracle.
        from tests.test_engine_equivalence import naive_transient

        workspace = MNAWorkspace(self.write_beside_reads(), dt=5e-12)
        assert workspace.mtj_group is not None
        assert not workspace._mask_frozen

        def flip_times(circuit):
            return [e.time for e in circuit.device("bit").switching.events]

        circuit = self.write_beside_reads()
        naive = naive_transient(circuit, 3e-9, 5e-12)
        flips = flip_times(circuit)
        assert len(flips) == 1 and flips[0] < 2e-9
        for engine in ("fast", "sparse"):
            circuit = self.write_beside_reads()
            result = run_transient(circuit, 3e-9, 5e-12, engine=engine)
            assert flip_times(circuit) == flips
            diff = float(np.max(np.abs(result.node_voltages
                                       - naive.node_voltages)))
            assert diff <= WAVEFORM_TOL

    @pytest.mark.parametrize("engine", ["fast", "sparse"])
    def test_read_only_array_reads_the_mask_once_per_run(self, engine,
                                                         monkeypatch):
        from repro.spice.analysis.engine import _MTJGroup

        reads = []
        read_states = _MTJGroup.read_states

        def counted(group):
            reads.append(group)
            return read_states(group)

        monkeypatch.setattr(_MTJGroup, "read_states", counted)
        result = run_transient(build_mini_array(rows=3, cols=3), 0.5e-9,
                               2.5e-12, engine=engine)
        assert result.stats.timesteps == 200
        assert len(reads) == 1


# ---------------------------------------------------------------------------
# Adaptive timestep (LTE control)
# ---------------------------------------------------------------------------


class TestAdaptiveTransient:
    def test_adaptive_requires_sparse_engine_and_be(self):
        with pytest.raises(AnalysisError):
            run_transient(mtj_read_circuit(), 0.5e-9, 2e-12, engine="fast",
                          adaptive=True)
        with pytest.raises(AnalysisError):
            run_transient(mtj_read_circuit(), 0.5e-9, 2e-12,
                          engine="sparse", integrator="trap", adaptive=True)

    def test_adaptive_stays_on_output_grid_and_traces_dt(self):
        from repro.spice.analysis.sparse import MAX_DT_FACTOR, MIN_DT_DIVISOR

        dt = 2e-12
        circuit = mtj_read_circuit(dynamic=False)
        result = run_transient(circuit, 0.6e-9, dt,
                               engine="sparse", adaptive=True)
        steps = int(round(0.6e-9 / dt))
        assert np.allclose(result.times, np.arange(steps + 1) * dt)
        assert result.dt_trace is not None and len(result.dt_trace) >= 1
        assert float(np.min(result.dt_trace)) >= dt / MIN_DT_DIVISOR * 0.999
        assert float(np.max(result.dt_trace)) \
            <= dt * MAX_DT_FACTOR * 1.001
        # The controller must actually save work on this smooth circuit.
        assert len(result.dt_trace) < steps

    def test_switching_window_refines_instead_of_coarsening(self):
        # Same topology, switching-capable junctions: the read current
        # keeps the MTJs inside the guarded window, so the controller
        # must refine below the base step rather than stride over the
        # bit-fidelity-critical region.
        dt = 2e-12
        smooth = run_transient(mtj_read_circuit(dynamic=False), 0.6e-9, dt,
                               engine="sparse", adaptive=True)
        guarded = run_transient(mtj_read_circuit(dynamic=True), 0.6e-9, dt,
                                engine="sparse", adaptive=True)
        assert float(np.max(smooth.dt_trace)) > dt
        assert float(np.min(guarded.dt_trace)) < dt
        assert len(guarded.dt_trace) > len(smooth.dt_trace)

    def test_adaptive_tracks_fixed_step_waveforms(self):
        # Mid-edge the two runs sample the stiff turn-on with different
        # internal steps, so each carries its *own* truncation error
        # there; away from the source corners both have settled and the
        # bit-level 1 µV contract applies.
        fixed = run_transient(mtj_read_circuit(dynamic=False), 0.6e-9,
                              2e-12, engine="sparse")
        adaptive = run_transient(mtj_read_circuit(dynamic=False), 0.6e-9,
                                 2e-12, engine="sparse", adaptive=True)
        settled = (fixed.times < 0.09e-9) | (fixed.times > 0.2e-9)
        diff = float(np.max(np.abs(fixed.node_voltages[settled]
                                   - adaptive.node_voltages[settled])))
        assert diff <= WAVEFORM_TOL

    def test_pulse_and_pwl_report_their_corners(self):
        from repro.spice.waveforms import PWL, DC

        pulse = Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, fall=0.2e-9,
                      width=1e-9, period=4e-9)
        assert np.allclose(pulse.breakpoints(3e-9),
                           (1e-9, 1.1e-9, 2.1e-9, 2.3e-9), rtol=1e-12)
        # Periodic: the second cycle's corners appear once in range.
        assert 5e-9 in Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9,
                             width=1e-9, period=4e-9).breakpoints(6e-9)
        pwl = PWL(points=((0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)))
        assert pwl.breakpoints(1.5e-9) == (0.0, 1e-9)
        assert DC(1.1).breakpoints(1e-9) == ()

    def test_fixed_step_runs_carry_no_dt_trace(self):
        result = run_transient(mtj_read_circuit(), 0.4e-9, 2e-12,
                               engine="sparse")
        assert result.dt_trace is None

    def test_failed_solves_halve_dt_then_climb_the_ladder(self):
        # Four Newton iterations are too few for some steps of this run:
        # a failed solve halves dt down to the dt_base/4 floor, and a
        # floor step that still fails is rescued by the recovery ladder
        # fixed steps use.
        from repro.spice.analysis.sparse import MIN_DT_DIVISOR

        dt, stop = 2e-12, 0.6e-9
        starved = run_transient(mtj_read_circuit(dynamic=False), stop, dt,
                                engine="sparse", adaptive=True,
                                max_iterations=4)
        default = run_transient(mtj_read_circuit(dynamic=False), stop, dt,
                                engine="sparse", adaptive=True)
        stats = starved.stats
        assert not stats.clean
        assert stats.rung_counts.get("timestep-cut", 0) > 0
        assert stats.recovered_steps > 0
        assert float(np.min(starved.dt_trace)) \
            >= dt / MIN_DT_DIVISOR * 0.999
        assert float(np.sum(starved.dt_trace)) == pytest.approx(stop,
                                                                rel=1e-12)
        diff = float(np.max(np.abs(starved.node_voltages
                                   - default.node_voltages)))
        assert diff <= WAVEFORM_TOL

    def test_exhausted_floor_step_raises_with_forensics(self, monkeypatch):
        # With an empty rung tuple, the first failing floor step exhausts
        # the ladder; the forensics bundle's shrink oracle re-runs the
        # adaptive request at the base dt.
        import repro.recovery.ladder as ladder
        import repro.spice.analysis.transient as transient

        oracle_requests = []

        def spy(*args, **kwargs):
            oracle_requests.append(kwargs)
            return run_transient(*args, **kwargs)

        monkeypatch.setattr(ladder, "RUNGS", ())
        monkeypatch.setattr(ladder, "SHRINK_BUDGET", 2)
        monkeypatch.setattr(transient, "run_transient", spy)
        with pytest.raises(ConvergenceError,
                           match="no rungs enabled") as excinfo:
            run_transient(mtj_read_circuit(dynamic=False), 0.6e-9, 2e-12,
                          engine="sparse", adaptive=True, max_iterations=4)
        bundle = excinfo.value.forensics
        assert bundle is not None and bundle.analysis == "transient"
        assert oracle_requests
        assert all(request["adaptive"] and request["dt"] == 2e-12
                   and request["recovery"] is False
                   for request in oracle_requests)


# ---------------------------------------------------------------------------
# Batched ensemble
# ---------------------------------------------------------------------------


def _sample_circuits(count, seed=11):
    samples = monte_carlo_parameters(PAPER_TABLE_I, count=count, seed=seed)
    return [mtj_read_circuit(params=p) for p in samples]


@dataclass
class _SquareLawConductor(TwoTerminal):
    """A nonlinear two-terminal that no device group covers (i = k·v·|v|,
    Newton-linearised): the ensemble stamps it per sample through its
    ordinary ``stamp``, anywhere in the sample's matrix."""

    k: float = 1e-4

    def stamp(self, stamper, ctx) -> None:
        v = self.branch_voltage(ctx)
        g = 2.0 * self.k * abs(v) + 1e-9
        offset = self.k * v * abs(v) - g * v
        stamper.add_conductance(self.positive, self.negative, g)
        stamper.add_current(self.positive, -offset)
        stamper.add_current(self.negative, offset)


def _generic_device_circuits(count):
    circuits = _sample_circuits(count)
    for circuit in circuits:
        circuit._register(_SquareLawConductor(positive=circuit.node("bl0"),
                                              negative=circuit.node("bl1")),
                          "sq")
    return circuits


class TestEnsemble:
    def test_matches_per_sample_scalar_runs(self):
        n = 5
        ensemble = run_ensemble_transient(_sample_circuits(n), 0.6e-9, 2e-12)
        scalars = [run_transient(c, 0.6e-9, 2e-12, engine="fast")
                   for c in _sample_circuits(n)]
        assert len(ensemble) == n
        for batch, scalar in zip(ensemble, scalars):
            diff = float(np.max(np.abs(batch.node_voltages
                                       - scalar.node_voltages)))
            assert diff <= WAVEFORM_TOL

    def test_single_sample_delegates_to_scalar_engine(self):
        [only] = run_ensemble_transient(_sample_circuits(1), 0.4e-9, 2e-12)
        scalar = run_transient(_sample_circuits(1)[0], 0.4e-9, 2e-12,
                               engine="fast")
        assert np.array_equal(only.node_voltages, scalar.node_voltages)

    def test_empty_input_returns_empty(self):
        assert run_ensemble_transient([], 0.4e-9, 2e-12) == []

    def test_unconverged_batch_falls_back_to_scalar_runs(self):
        # Three Newton iterations are too few for every sample of the
        # batch: each leaves it and reruns as a scalar fast run, whose
        # recovery ladder rescues the steps that fail, so the call counts
        # one fallback and returns exactly the scalar runs at the same
        # iteration budget.
        from repro.obs import disable_tracing, enable_tracing, metrics

        enable_tracing()
        try:
            before = metrics().counter("analysis.ensemble_fallbacks")
            results = run_ensemble_transient(_sample_circuits(3), 0.6e-9,
                                             2e-12, max_iterations=3)
            fallbacks = (metrics().counter("analysis.ensemble_fallbacks")
                         - before)
        finally:
            disable_tracing()
        scalars = [run_transient(c, 0.6e-9, 2e-12, engine="fast",
                                 max_iterations=3)
                   for c in _sample_circuits(3)]
        assert fallbacks == 1
        assert len(results) == len(scalars)
        for result, scalar in zip(results, scalars):
            assert np.array_equal(result.node_voltages,
                                  scalar.node_voltages)
            assert np.array_equal(result.branch_currents,
                                  scalar.branch_currents)
            assert not result.stats.clean

    def test_rejects_mismatched_topologies(self):
        circuits = _sample_circuits(2)
        circuits.append(grouped_array_circuit())
        with pytest.raises(AnalysisError):
            run_ensemble_transient(circuits, 0.4e-9, 2e-12)

    def test_workspace_takes_full_previous_solutions(self):
        # The device groups read sample i's previous solution at row i of
        # an (N, size) stack; a node-voltage-only stack would put every
        # sample but the first at the wrong offset.
        workspace = EnsembleWorkspace(_sample_circuits(2), 2e-12)
        assert workspace.num_branches > 0
        with pytest.raises(AnalysisError):
            workspace.begin_step(2e-12, np.zeros((2, workspace.num_nodes)))
        workspace.begin_step(2e-12, np.zeros((2, workspace.size)))

    def test_mtj_state_written_back_per_sample(self):
        # A deliberately overdriven write cell: free layer pulled hard
        # enough that the pulse switches the junction, so the ensemble
        # must hand each sample's switching event back to its devices.
        def write_cell(params):
            c = Circuit("write")
            c.add_vsource("vw", "drv", "0",
                          Pulse(0.0, 1.1, delay=0.05e-9, rise=10e-12,
                                width=8e-9))
            c.add_resistor("rs", "drv", "top", 1.5e3)
            c.add_mtj("bit", "top", "0", params=params,
                      state=MTJState.PARALLEL, dynamic=True)
            c.add_capacitor("cl", "top", "0", 0.2e-15)
            return c

        samples = monte_carlo_parameters(PAPER_TABLE_I, count=4, seed=23)
        circuits = [write_cell(p) for p in samples]
        results = run_ensemble_transient(circuits, 6e-9, 5e-12)
        reference = [run_transient(write_cell(p), 6e-9, 5e-12,
                                   engine="fast")
                     for p in samples]
        for circuit, batch, scalar in zip(circuits, results, reference):
            expected = scalar.circuit.device("bit").device.state
            assert circuit.device("bit").device.state is expected
            assert batch.circuit is circuit

    def test_sample_bits_do_not_depend_on_the_batch(self):
        # Same topology, different transistor widths: the partner's
        # Newton refreshes its LU at other iterations than sample 0
        # does, so any batch-wide refresh or convergence decision would
        # move sample 0's bits.
        params = monte_carlo_parameters(PAPER_TABLE_I, count=2, seed=11)
        partner = mtj_read_circuit(params=params[1],
                                   widths=(2e-6, 100e-9))
        mixed = run_ensemble_transient(
            [mtj_read_circuit(params=params[0]), partner], 0.6e-9, 2e-12)
        alike = run_ensemble_transient(
            [mtj_read_circuit(params=params[0]),
             mtj_read_circuit(params=params[0])], 0.6e-9, 2e-12)
        assert (mixed[1].stats.factorizations
                != mixed[0].stats.factorizations)
        assert np.array_equal(mixed[0].node_voltages,
                              alike[0].node_voltages)
        assert np.array_equal(mixed[0].branch_currents,
                              alike[0].branch_currents)

    def test_per_sample_stats_show_lu_reuse(self):
        # Modified Newton per sample: each sample keeps its LU factors
        # across iterations, so it factorises less often than it iterates.
        results = run_ensemble_transient(_sample_circuits(3), 0.6e-9, 2e-12)
        for result in results:
            stats = result.stats
            assert stats.reuses > 0
            assert stats.factorizations < stats.iterations
            assert (stats.factorizations + stats.reuses
                    == stats.iterations + stats.singular_retries)


    def test_failing_sample_leaves_the_batch(self):
        # At eight Newton iterations only the 20 ps edge fails a step in
        # the batch (the scalar ladder rescues it on the damping rung).
        # That sample alone reruns as a scalar fast run; the other two
        # finish in the batch exactly as they would without it.
        from repro.obs import disable_tracing, enable_tracing, metrics
        from repro.obs.metrics import MetricsRegistry
        from repro.spice.analysis.dc import solve_dc

        options = dict(stop_time=0.2e-9, dt=10e-12, max_iterations=8,
                       lint="off")
        rises = (100e-12, 20e-12, 200e-12)
        enable_tracing()
        try:
            before = metrics().snapshot()["counters"]
            results = run_ensemble_transient(
                [sharp_edge_circuit(rise) for rise in rises], **options)
            after = metrics().snapshot()["counters"]
            # The batch's t = 0 DC solves (one per sample) count engine
            # work that no result's stats carry; the rerun's point is in
            # its own record, and counts one more DC solve.
            for rise in rises:
                solve_dc(sharp_edge_circuit(rise), max_iterations=8,
                         lint="off")
            with_dc = metrics().snapshot()["counters"]
        finally:
            disable_tracing()

        def delta(newer, older, name):
            return newer.get(name, 0) - older.get(name, 0)

        assert delta(after, before, "analysis.transients") == 1
        assert delta(after, before, "analysis.ensemble_fallbacks") == 1
        summed = MetricsRegistry()
        for result in results:
            result.stats.flush_to(summed)
        for name in sorted(set(after) | set(summed.counters)):
            if not name.startswith("engine."):
                continue
            expected = summed.counter(name) + delta(with_dc, after, name)
            if name == "engine.dc_solves":
                expected += 1
            assert delta(after, before, name) == expected, name

        slow, sharp, slower = results
        alone = run_transient(sharp_edge_circuit(20e-12), engine="fast",
                              **options)
        assert np.array_equal(sharp.node_voltages, alone.node_voltages)
        assert np.array_equal(sharp.branch_currents, alone.branch_currents)
        assert sharp.stats.rung_counts == {"damping": 1}
        pair = run_ensemble_transient(
            [sharp_edge_circuit(100e-12), sharp_edge_circuit(200e-12)],
            **options)
        for result, reference in zip((slow, slower), pair):
            assert np.array_equal(result.node_voltages,
                                  reference.node_voltages)
            assert np.array_equal(result.branch_currents,
                                  reference.branch_currents)
            assert result.stats.clean

    def test_results_are_disjoint_contiguous_rows(self):
        # Each batched result's waveforms are a view of its own row of
        # the batch's sample-major block: C-contiguous, overlapping no
        # other sample's, so writing into one result leaves the others.
        circuits = _sample_circuits(3)
        results = run_ensemble_transient(circuits, 0.4e-9, 2e-12)
        steps = len(results[0].times)
        arrays = [(r.node_voltages, r.branch_currents) for r in results]
        for voltages, currents in arrays:
            assert voltages.shape == (steps, circuits[0].num_nodes)
            assert currents.shape == (steps, circuits[0].num_branches)
            assert voltages.flags.c_contiguous
            assert currents.flags.c_contiguous
        for i, j in itertools.combinations(range(len(arrays)), 2):
            for a in arrays[i]:
                for b in arrays[j]:
                    assert not np.shares_memory(a, b), (i, j)
        before = [(v.copy(), c.copy()) for v, c in arrays]
        results[1].node_voltages[:] = np.nan
        results[1].branch_currents[:] = np.nan
        for k in (0, 2):
            assert np.array_equal(arrays[k][0], before[k][0])
            assert np.array_equal(arrays[k][1], before[k][1])

    @pytest.mark.parametrize("build", [_sample_circuits,
                                       _generic_device_circuits],
                             ids=["grouped", "generic-device"])
    def test_dirty_slot_assembly_matches_a_full_copy(self, build):
        # Assembly restores only the slots the iterate tier writes (the
        # device groups' and the node diagonal, where gmin goes) to their
        # static values; a per-sample generic device may write anywhere,
        # so that batch restores the whole static stack.  Either way each
        # assembly must equal one that starts from a full copy of the
        # static stack, whatever earlier iterates and gmins left behind.
        count = 3
        dirty = EnsembleWorkspace(build(count), 2e-12)
        full = EnsembleWorkspace(build(count), 2e-12)
        assert (dirty._static is not None) == (build is
                                               _generic_device_circuits)
        full._static = full.matrix.copy()  # the static stack, as built
        rng = np.random.default_rng(29)
        shape = (count, dirty.size)
        for step, gmin in enumerate((0.0, 1e-3, 1e-3, 0.0, 1e-9, 0.0)):
            prev = rng.uniform(-0.2, 1.3, shape)
            x = rng.uniform(-0.2, 1.3, shape)
            for workspace in (dirty, full):
                workspace.begin_step((step + 1) * 2e-12, prev)
                workspace.assemble(x, gmin=gmin)
            assert np.array_equal(dirty.matrix, full.matrix), (step, gmin)
            assert np.array_equal(dirty.rhs, full.rhs), (step, gmin)

    def test_nandspin_batch_runs_as_scalar_runs(self):
        # The batch integrates STT switching only, so a batch holding
        # NAND-SPIN junctions must run each circuit as a scalar run: the
        # SOT erase of a store then happens as it does alone.
        from repro.cells.nvlatch_1bit import build_standard_latch
        from repro.nv.base import get_backend

        nv = get_backend("nandspin")
        schedule = nv.store_schedule("standard", bit=1,
                                     erase_width=1.0e-9, write_width=1.5e-9)

        def store_latch():
            return build_standard_latch(schedule, stored_bit=0, vdd=1.1,
                                        backend=nv)

        options = dict(initial_voltages={"vdd": 1.1})
        latches = [store_latch(), store_latch()]
        batch = run_ensemble_transient([latch.circuit for latch in latches],
                                       schedule.stop_time, 4e-12, **options)
        scalar = run_transient(store_latch().circuit, schedule.stop_time,
                               4e-12, engine="fast", **options)
        for latch, result in zip(latches, batch):
            assert latch.stored_bit() == 1
            assert len(latch.mtj1.sot.events) == 1
            assert np.array_equal(result.node_voltages,
                                  scalar.node_voltages)
            assert np.array_equal(result.branch_currents,
                                  scalar.branch_currents)


class TestJacobianRefreshRule:
    """The LU refresh rule shared by the fast, sparse and ensemble Newton
    loops decides the same way for a scalar and for each element of a
    per-sample array."""

    @staticmethod
    def _cases():
        inf = float("inf")
        for no_factors in (False, True):
            for age in range(1, 2 * JACOBIAN_MAX_AGE + 2):
                for max_dv, prev_max_dv in ((inf, inf), (0.3, inf),
                                            (0.2, 0.3), (0.2, 0.4),
                                            (0.2, 0.5), (1e-7, 1e-6),
                                            (0.0, 0.0)):
                    yield no_factors, age, max_dv, prev_max_dv

    def test_scalar_matches_the_fast_engine_rule(self):
        for no_factors, age, max_dv, prev_max_dv in self._cases():
            expected = (no_factors or age >= JACOBIAN_MAX_AGE
                        or max_dv > 0.5 * prev_max_dv)
            decision = jacobian_refresh(no_factors, age, max_dv,
                                        prev_max_dv)
            assert isinstance(decision, bool)
            assert decision == expected

    def test_per_sample_arrays_decide_like_scalars(self):
        cases = list(self._cases())
        no_factors, age, max_dv, prev_max_dv = (
            np.array(column) for column in zip(*cases))
        assert no_factors.dtype == bool and age.dtype.kind == "i"
        mask = jacobian_refresh(no_factors, age, max_dv, prev_max_dv)
        assert mask.dtype == bool
        assert mask.tolist() == [jacobian_refresh(*case) for case in cases]

"""A run's t = 0 operating point, solved on its own solver.

A DC-started ``run_transient`` solves its t = 0 point with the run's own
Newton solver (:class:`FastNewtonSolver` or :class:`SparseNewtonSolver`,
on the run's workspace; the sparse one also on its pattern and recorded
SuperLU order) with the capacitors open, as
:func:`~repro.spice.analysis.dc.solve_dc` does on its own workspace:
plain Newton at the floor gmin, refactorising on every iteration, then
the recovery ladder's homotopies on the same solver.  These tests run
on both engines.  They hold the point to ``solve_dc``'s, pin the path
of a failed plain attempt and of a passed deadline, and check that the
transient after the point starts from the static tier and factors it
always had.
"""

from functools import partial

import numpy as np
import pytest

from repro.cells.miniarray import build_mini_array
from repro.cells.nvlatch_1bit import build_standard_latch
from repro.errors import ConvergenceError
from repro.flow_params import ENGINES
from repro.obs import disable_tracing, enable_tracing, get_tracer, metrics
from repro.recovery.policy import DC_GMIN_REDUCTION, DC_GMIN_START
from repro.spice import Circuit
from repro.spice.analysis import dc, transient
from repro.spice.analysis.dc import (
    DEFAULT_MAX_ITERATIONS,
    FLOOR_GMIN,
    solve_dc,
)
from repro.spice.analysis.engine import FastNewtonSolver, MNAWorkspace
from repro.spice.analysis.sparse import SparseNewtonSolver
from tests.test_sparse_engine import grouped_array_circuit, mtj_read_circuit
from tests.test_spice_transient import rc_circuit

DT = 2.5e-12
#: The sparse point may differ from solve_dc's by rounding only.
POINT_TOL = 1e-9  # V
SOLVERS = {"fast": FastNewtonSolver, "sparse": SparseNewtonSolver}


@pytest.fixture
def dc_calls(monkeypatch):
    """The ``recovery`` flag of every ``solve_dc`` call made through the
    DC module."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("recovery", True))
        return solve_dc(*args, **kwargs)

    monkeypatch.setattr(dc, "solve_dc", spy)
    return calls


def cross_coupled_inverters() -> Circuit:
    """Two cross-coupled inverters: bistable, with four transistors, so
    the MOSFET group engages and the solver assembles pure-CSC."""
    c = Circuit("bistable")
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_pmos("p1", "a", "b", "vdd", "vdd")
    c.add_nmos("n1", "a", "b", "0")
    c.add_pmos("p2", "b", "a", "vdd", "vdd")
    c.add_nmos("n2", "b", "a", "0")
    c.add_capacitor("ca", "a", "0", 1e-15)
    c.add_capacitor("cb", "b", "0", 1e-15)
    return c


def idle_standard_latch():
    """The idle standard latch and its Table II leakage seed: plain
    Newton at the floor gmin diverges from it, and the gmin homotopy of
    ``solve_dc`` converges."""
    latch = build_standard_latch(vdd=1.1)
    return latch.circuit, {"vdd": 1.1, latch.out: 1.1, latch.outb: 1.1}


def assert_point_matches(engine, point, reference):
    """The fast point has ``solve_dc``'s bits (the same solver on a
    workspace whose open static tier is the DC one); the sparse point
    differs by rounding only."""
    if engine == "fast":
        assert point.tobytes() == reference.tobytes()
    else:
        assert np.max(np.abs(point - reference)) <= POINT_TOL


@pytest.mark.parametrize("builder", [
    partial(build_mini_array, rows=32, cols=32),
    partial(build_mini_array, rows=4, cols=4),
    grouped_array_circuit, mtj_read_circuit,
], ids=["array-32x32", "array-4x4", "pure-csc", "dense-route"])
def test_point_matches_solve_dc(builder, dc_calls):
    reference = solve_dc(builder())
    for engine in ENGINES:
        result = transient.run_transient(builder(), DT, DT, engine=engine)
        assert_point_matches(engine, result.node_voltages[0],
                             reference.voltages)
        # The run's record counts the point's work: one solve beyond the
        # timesteps, and the point's iterations.
        assert result.stats.solves == result.stats.timesteps + 1
        assert result.stats.iterations > reference.iterations
        assert result.stats.clean
    assert dc_calls == []


@pytest.mark.parametrize("seed, high, low", [
    ({"a": 1.1, "b": 0.0}, "a", "b"), ({"a": 0.0, "b": 1.1}, "b", "a")])
def test_dc_seed_selects_the_branch_solve_dc_picks(seed, high, low):
    reference = solve_dc(cross_coupled_inverters(), initial_guess=seed)
    for engine in ENGINES:
        result = transient.run_transient(cross_coupled_inverters(), DT, DT,
                                         dc_seed=seed, engine=engine)
        for node in (high, low):
            assert abs(result.voltage(node)[0] - reference.voltage(node)) \
                <= POINT_TOL
        assert result.voltage(high)[0] > 1.0
        assert result.voltage(low)[0] < 0.1


@pytest.mark.parametrize("recovery", [True, False])
def test_failed_plain_attempt_climbs_the_homotopy_on_the_run_solver(
        recovery, dc_calls, monkeypatch):
    # One plain attempt at the floor gmin, then the decade homotopy.
    stages = [FLOOR_GMIN]
    gmin = DC_GMIN_START
    while gmin >= FLOOR_GMIN:
        stages.append(gmin)
        gmin /= DC_GMIN_REDUCTION
    circuit, seed = idle_standard_latch()
    reference = solve_dc(circuit, initial_guess=seed, recovery=recovery)
    for engine, solver_class in SOLVERS.items():
        dc_solves = []  # the gmin of every solve with no previous solution

        def record(self, x0, time, prev_voltages, gmin, *args,
                   _original=solver_class.solve):
            if prev_voltages is None:
                dc_solves.append(gmin)
            return _original(self, x0, time, prev_voltages, gmin, *args)

        monkeypatch.setattr(solver_class, "solve", record)
        circuit, seed = idle_standard_latch()
        result = transient.run_transient(circuit, 2 * DT, DT, dc_seed=seed,
                                         engine=engine, recovery=recovery)
        assert dc_solves == stages, engine
        assert result.stats.dc_gmin_stages == len(stages) - 1
        assert_point_matches(engine, result.node_voltages[0],
                             reference.voltages)
        assert_point_matches(engine, result.branch_currents[0],
                             reference.branch_currents)
        # The failed attempt and the homotopy are the run's work, once.
        assert (DEFAULT_MAX_ITERATIONS < reference.iterations
                < result.stats.iterations < 2 * DEFAULT_MAX_ITERATIONS)
    assert dc_calls == []


def test_passed_deadline_raises_with_the_last_iterate(dc_calls):
    for engine in ENGINES:
        circuit = rc_circuit()
        with pytest.raises(ConvergenceError,
                           match="DC solve .* wall-clock timeout") as info:
            transient.run_transient(circuit, 1e-6, 1e-12, timeout=1e-9,
                                    engine=engine)
        # The deadline had passed before the first iteration: the last
        # iterate is the start.
        size = circuit.num_nodes + circuit.num_branches
        assert np.array_equal(info.value.state, np.zeros(size))
    assert dc_calls == []


def test_generous_timeout_is_invisible(dc_calls):
    for engine in ENGINES:
        with_limit = transient.run_transient(rc_circuit(), 0.1e-9, 1e-12,
                                             timeout=60.0, engine=engine)
        without = transient.run_transient(rc_circuit(), 0.1e-9, 1e-12,
                                          engine=engine)
        assert (with_limit.node_voltages.tobytes()
                == without.node_voltages.tobytes())
    assert dc_calls == []


def test_point_leaves_the_static_tier_and_no_factors(monkeypatch):
    circuit = build_mini_array(rows=4, cols=4)
    circuit.finalize()
    for solver_class in SOLVERS.values():
        workspace = MNAWorkspace(circuit, dt=DT)
        solver = solver_class(workspace)
        steps = []
        for name in ("_assemble", "_residual"):
            def record(self, x, gmin, _name=name,
                       _original=getattr(solver_class, name)):
                steps.append((_name, self.workspace._capacitors_open))
                return _original(self, x, gmin)
            monkeypatch.setattr(solver_class, name, record)

        x = solver.solve(np.zeros(workspace.size), 0.0, None, FLOOR_GMIN,
                         DEFAULT_MAX_ITERATIONS, 1e-7, 0.4)
        # Every iteration of the point refactorises its open matrix.
        assert steps == [("_assemble", True)] * solver.stats.iterations
        assert solver.stats.factorizations == solver.stats.iterations
        assert solver._carried is None
        steps.clear()
        solver.solve(x, DT, x[:workspace.num_nodes].copy(), FLOOR_GMIN,
                     DEFAULT_MAX_ITERATIONS, 1e-7, 0.4)
        # The first timestep factorises its own, capacitor-closed matrix.
        assert steps[0] == ("_assemble", False)
        monkeypatch.undo()
        fresh = solver_class(MNAWorkspace(circuit, dt=DT))
        assert (workspace._static_matrix.tobytes()
                == fresh.workspace._static_matrix.tobytes())
        if solver_class is SparseNewtonSolver:
            assert (solver._static_data.tobytes()
                    == fresh._static_data.tobytes())


def test_point_is_not_condition_probed():
    # A node that only capacitors tie to the circuit rests on the floor
    # gmin at t = 0: the point's matrix is near singular (κ₁ about 1e12
    # here), a fact of the DC point that no timestep's matrix shares.
    c = Circuit("capacitor-coupled")
    c.add_vsource("vs", "in", "0", 1.0)
    c.add_resistor("r", "in", "a", 1e3)
    c.add_capacitor("c1", "a", "x", 1e-15)
    c.add_capacitor("c2", "x", "0", 1e-15)
    for engine in ENGINES:
        stats = transient.run_transient(c, 10e-12, 1e-12,
                                        engine=engine).stats
        assert stats.condition_checks > 0
        assert stats.worst_condition < 1e6


def test_point_counts_one_dc_solve_in_the_run_record():
    for engine in ENGINES:
        disable_tracing()
        metrics().reset()
        try:
            enable_tracing()
            result = transient.run_transient(
                build_mini_array(rows=4, cols=4), DT, DT, engine=engine)
            spans = [r.name for r in get_tracer().records]
            counters = metrics().snapshot()["counters"]
        finally:
            disable_tracing()
            metrics().reset()
        assert spans.count("analysis.dc") == 1
        assert counters["engine.dc_solves"] == 1
        # Flushed once, with the run's record: no work counted twice.
        assert counters["engine.newton_iterations"] == result.stats.iterations
        assert counters["engine.solves"] == result.stats.solves

"""A sparse run's t = 0 operating point, solved on its own CSC engine.

A DC-started ``run_transient(engine="sparse")`` solves its t = 0 point
with the run's own :class:`SparseNewtonSolver` (the run's workspace,
pattern and recorded SuperLU order) at the floor gmin with the
capacitors open.  :func:`~repro.spice.analysis.dc.solve_dc` takes over
only when that attempt fails or the deadline has passed.  These tests
hold the point to ``solve_dc``'s, pin the fallback, and check that the
transient after it starts from the static tier and factors it always
had.
"""

from functools import partial

import numpy as np
import pytest

from repro.cells.miniarray import build_mini_array
from repro.cells.nvlatch_1bit import build_standard_latch
from repro.errors import ConvergenceError
from repro.obs import disable_tracing, enable_tracing, get_tracer, metrics
from repro.spice import Circuit
from repro.spice.analysis import transient
from repro.spice.analysis.dc import (
    DEFAULT_MAX_ITERATIONS,
    FLOOR_GMIN,
    solve_dc,
)
from repro.spice.analysis.engine import MNAWorkspace
from repro.spice.analysis.sparse import SparseNewtonSolver
from tests.test_sparse_engine import grouped_array_circuit, mtj_read_circuit
from tests.test_spice_transient import rc_circuit

DT = 2.5e-12
#: The sparse point may differ from the dense DC's by rounding only.
POINT_TOL = 1e-9  # V


@pytest.fixture
def dc_calls(monkeypatch):
    """The ``recovery`` flag of every ``solve_dc`` call a transient makes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["recovery"])
        return solve_dc(*args, **kwargs)

    monkeypatch.setattr(transient, "solve_dc", spy)
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


@pytest.mark.parametrize("builder", [
    partial(build_mini_array, rows=32, cols=32),
    partial(build_mini_array, rows=4, cols=4),
    grouped_array_circuit, mtj_read_circuit,
], ids=["array-32x32", "array-4x4", "pure-csc", "dense-route"])
def test_point_matches_solve_dc(builder, dc_calls):
    result = transient.run_transient(builder(), DT, DT, engine="sparse")
    assert dc_calls == []
    reference = solve_dc(builder())
    assert np.max(np.abs(result.node_voltages[0] - reference.voltages)) \
        <= POINT_TOL
    # The run's record counts the point's work: one solve beyond the
    # timesteps.
    assert result.stats.solves == result.stats.timesteps + 1
    assert result.stats.clean


@pytest.mark.parametrize("seed, high, low", [
    ({"a": 1.1, "b": 0.0}, "a", "b"), ({"a": 0.0, "b": 1.1}, "b", "a")])
def test_dc_seed_selects_the_branch_solve_dc_picks(seed, high, low,
                                                   dc_calls):
    result = transient.run_transient(cross_coupled_inverters(), DT, DT,
                                     dc_seed=seed, engine="sparse")
    assert dc_calls == []
    reference = solve_dc(cross_coupled_inverters(), initial_guess=seed)
    for node in (high, low):
        assert abs(result.voltage(node)[0] - reference.voltage(node)) \
            <= POINT_TOL
    assert result.voltage(high)[0] > 1.0 and result.voltage(low)[0] < 0.1


@pytest.mark.parametrize("recovery", [True, False])
def test_unconverged_attempt_falls_back_to_solve_dc(recovery, dc_calls):
    circuit, seed = idle_standard_latch()
    result = transient.run_transient(circuit, 2 * DT, DT, dc_seed=seed,
                                     engine="sparse", recovery=recovery)
    assert dc_calls == [recovery]
    circuit, seed = idle_standard_latch()
    reference = solve_dc(circuit, initial_guess=seed, recovery=recovery)
    assert (result.node_voltages[0].tobytes()
            == reference.voltages.tobytes())
    assert (result.branch_currents[0].tobytes()
            == reference.branch_currents.tobytes())
    # The failed attempt is the run's work too.
    assert result.stats.iterations > DEFAULT_MAX_ITERATIONS


def test_passed_deadline_goes_to_solve_dc(dc_calls):
    with pytest.raises(ConvergenceError, match="wall-clock timeout"):
        transient.run_transient(rc_circuit(), 1e-6, 1e-12, timeout=1e-9,
                                engine="sparse")
    assert dc_calls == [True]


def test_generous_timeout_is_invisible(dc_calls):
    with_limit = transient.run_transient(rc_circuit(), 0.1e-9, 1e-12,
                                         timeout=60.0, engine="sparse")
    without = transient.run_transient(rc_circuit(), 0.1e-9, 1e-12,
                                      engine="sparse")
    assert dc_calls == []
    assert (with_limit.node_voltages.tobytes()
            == without.node_voltages.tobytes())


def test_point_leaves_the_static_tier_and_no_factors(monkeypatch):
    circuit = build_mini_array(rows=4, cols=4)
    circuit.finalize()
    workspace = MNAWorkspace(circuit, dt=DT)
    solver = SparseNewtonSolver(workspace)
    steps = []
    for name in ("_assemble", "_residual"):
        def record(self, x, gmin, _name=name,
                   _original=getattr(SparseNewtonSolver, name)):
            steps.append((_name, self.workspace._capacitors_open))
            return _original(self, x, gmin)
        monkeypatch.setattr(SparseNewtonSolver, name, record)

    x = solver.solve(np.zeros(workspace.size), 0.0, None, FLOOR_GMIN,
                     DEFAULT_MAX_ITERATIONS, 1e-7, 0.4)
    assert all(is_open for _, is_open in steps)
    assert solver._carried is None
    steps.clear()
    solver.solve(x, DT, x[:workspace.num_nodes].copy(), FLOOR_GMIN,
                 DEFAULT_MAX_ITERATIONS, 1e-7, 0.4)
    # The first timestep factorises its own, capacitor-closed matrix.
    assert steps[0] == ("_assemble", False)
    fresh = SparseNewtonSolver(MNAWorkspace(circuit, dt=DT))
    assert (workspace._static_matrix.tobytes()
            == fresh.workspace._static_matrix.tobytes())
    assert solver._static_data.tobytes() == fresh._static_data.tobytes()


def test_point_is_not_condition_probed():
    # A node that only capacitors tie to the circuit rests on the floor
    # gmin at t = 0: the point's matrix is near singular (κ₁ about 1e12
    # here), a fact of the DC point that no timestep's matrix shares.
    c = Circuit("capacitor-coupled")
    c.add_vsource("vs", "in", "0", 1.0)
    c.add_resistor("r", "in", "a", 1e3)
    c.add_capacitor("c1", "a", "x", 1e-15)
    c.add_capacitor("c2", "x", "0", 1e-15)
    stats = transient.run_transient(c, 10e-12, 1e-12, engine="sparse").stats
    assert stats.condition_checks > 0
    assert stats.worst_condition < 1e6


def test_point_counts_one_dc_solve_in_the_run_record():
    disable_tracing()
    metrics().reset()
    try:
        enable_tracing()
        result = transient.run_transient(build_mini_array(rows=4, cols=4),
                                         DT, DT, engine="sparse")
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

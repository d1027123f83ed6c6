"""Fast engine ↔ naive reference equivalence.

The fast engine (:mod:`repro.spice.analysis.engine`) must be a pure
optimisation: for any circuit the cached three-tier assembly produces the
same MNA system as re-stamping every device through the naive
:class:`MNAStamper` (≤ 1e-12 element-wise), and ``engine="fast"``
transients match the :func:`naive_transient` oracle's waveforms to
≤ 1 µV.  The circuits below are randomised (seeded) RC ladders, MOSFET
chains/latches, and MTJ read structures so the contract is checked well
beyond the shapes the characterisation code happens to build.

The oracles live here, apart from the code they check: :func:`_newton`
is the full-restamp damped Newton, :func:`naive_dc` the DC point it
finds (plain, then the decade gmin schedule), which ``solve_dc`` must
match on Table II's leakage circuits, and :func:`naive_transient` the
reference transient.
"""

import numpy as np
import pytest

from repro.cells.characterize import leakage_power
from repro.cells.nvlatch_1bit import build_standard_latch
from repro.cells.nvlatch_2bit import build_proposed_latch
from repro.errors import ConvergenceError
from repro.nv.base import get_backend
from repro.recovery.policy import DC_GMIN_REDUCTION, DC_GMIN_START
from repro.spice import Circuit, Pulse
from repro.spice.analysis.dc import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_VTOL,
    FLOOR_GMIN,
    solve_dc,
)
from repro.spice.corners import CORNERS
from repro.spice.analysis.engine import (
    MNAWorkspace,
    VECTORIZE_MOSFET_THRESHOLD,
)
from repro.spice.analysis.ensemble import EnsembleWorkspace
from repro.spice.analysis.mna import MNAStamper
from repro.spice.analysis.transient import TransientResult, run_transient
from repro.spice.devices.base import EvalContext
from repro.mtj.device import MTJState

ASSEMBLY_TOL = 1e-12
WAVEFORM_TOL = 1e-6  # 1 µV


# ---------------------------------------------------------------------------
# Randomised circuit builders (all seeded)
# ---------------------------------------------------------------------------


def random_rc_ladder(rng: np.random.Generator) -> Circuit:
    """Pulse-driven RC ladder with random section values and random
    cross-coupling caps (some floating node-to-node, some to ground)."""
    c = Circuit("rc-ladder")
    sections = int(rng.integers(2, 6))
    c.add_vsource("vin", "n0", "0",
                  Pulse(0.0, 1.0, delay=0.05e-9,
                        rise=float(rng.uniform(1e-12, 20e-12)), width=50e-9))
    for i in range(sections):
        c.add_resistor(f"r{i}", f"n{i}", f"n{i + 1}",
                       float(rng.uniform(0.5e3, 20e3)))
        c.add_capacitor(f"c{i}", f"n{i + 1}", "0",
                        float(rng.uniform(0.1e-15, 5e-15)))
    if sections >= 3:
        c.add_capacitor("cx", "n1", f"n{sections}",
                        float(rng.uniform(0.1e-15, 1e-15)))
    return c


def random_mosfet_chain(rng: np.random.Generator) -> Circuit:
    """Inverter chain (enough transistors to trigger the vectorised
    group) with randomised widths, driven by a pulse."""
    c = Circuit("inv-chain")
    stages = int(rng.integers(3, 6))  # ≥ 6 fets ≥ threshold
    assert 2 * stages >= VECTORIZE_MOSFET_THRESHOLD
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_vsource("vin", "in", "0",
                  Pulse(0.0, 1.1, delay=0.05e-9, rise=10e-12, width=5e-9))
    prev = "in"
    for i in range(stages):
        out = f"s{i}"
        c.add_pmos(f"p{i}", out, prev, "vdd", "vdd",
                   width=float(rng.uniform(200e-9, 600e-9)))
        c.add_nmos(f"n{i}", out, prev, "0",
                   width=float(rng.uniform(120e-9, 400e-9)))
        c.add_capacitor(f"cl{i}", out, "0", float(rng.uniform(0.05e-15, 0.5e-15)))
        prev = out
    return c


def random_mtj_read(rng: np.random.Generator) -> Circuit:
    """Access-transistor + MTJ divider pair — the core of the latch read
    path — with a random MTJ state assignment."""
    c = Circuit("mtj-read")
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_vsource("ren", "ren", "0",
                  Pulse(0.0, 1.1, delay=0.1e-9, rise=20e-12, width=5e-9))
    states = [MTJState.PARALLEL, MTJState.ANTIPARALLEL]
    rng.shuffle(states)
    for i, state in enumerate(states):
        c.add_resistor(f"rl{i}", "vdd", f"bl{i}", float(rng.uniform(2e3, 8e3)))
        c.add_mtj(f"mtj{i}", f"bl{i}", f"sn{i}", state=state)
        c.add_nmos(f"acc{i}", f"sn{i}", "ren", "0",
                   width=float(rng.uniform(150e-9, 500e-9)))
        c.add_capacitor(f"cb{i}", f"bl{i}", "0", float(rng.uniform(0.1e-15, 1e-15)))
    return c


BUILDERS = (random_rc_ladder, random_mosfet_chain, random_mtj_read)


# ---------------------------------------------------------------------------
# Assembly equivalence: workspace vs full naive restamp
# ---------------------------------------------------------------------------


def naive_assembly(circuit, x, time, prev_voltages, dt, integrator, gmin):
    """The system the naive Newton iteration would solve at iterate x."""
    stamper = MNAStamper(circuit.num_nodes, circuit.num_branches)
    ctx = EvalContext(voltages=x[: circuit.num_nodes],
                      prev_voltages=prev_voltages, time=time, dt=dt,
                      gmin=gmin, integrator=integrator)
    for device in circuit.devices:
        device.stamp(stamper, ctx)
    stamper.apply_gmin(gmin)
    return stamper.matrix, stamper.rhs


def _start_vector(circuit, voltages):
    """A solution vector with the listed node voltages and every other
    unknown at 0."""
    x = np.zeros(circuit.num_nodes + circuit.num_branches)
    for name, value in (voltages or {}).items():
        if circuit.node(name) >= 0:
            x[circuit.node(name)] = value
    return x


def _newton(circuit, x0, time, gmin, max_iterations=DEFAULT_MAX_ITERATIONS,
            vtol=DEFAULT_VTOL, damping=DEFAULT_DAMPING, prev_voltages=None,
            dt=None, integrator="be"):
    """The full-restamp damped Newton solve the oracles share; returns
    ``(x, iterations)`` or raises :class:`ConvergenceError`.

    Every iteration re-stamps every device into a fresh
    :class:`MNAStamper` and solves the assembled system directly, with
    the update clamped to ``damping`` volts.  ``prev_voltages``/``dt``/
    ``integrator`` make it a transient timepoint solve with capacitor
    companions; without them it is a DC solve, capacitors open."""
    num_nodes = circuit.num_nodes
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        matrix, rhs = naive_assembly(circuit, x, time, prev_voltages, dt,
                                     integrator, gmin)
        try:
            x_new = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular MNA matrix at gmin={gmin:g}",
                                   iterations=iteration) from exc
        delta = x_new - x
        max_dv = float(np.max(np.abs(delta[:num_nodes]))) if num_nodes else 0.0
        if max_dv > damping:
            # Damp the whole update uniformly to keep the Newton direction.
            x = x + delta * (damping / max_dv)
        else:
            x = x_new
            if max_dv < vtol:
                return x, iteration
    raise ConvergenceError(
        f"Newton failed to converge in {max_iterations} iterations "
        f"(gmin={gmin:g}, last max dV={max_dv:g})",
        iterations=max_iterations, residual=max_dv, state=x.copy())


def naive_dc(circuit, initial_guess=None):
    """The reference DC point: plain full-restamp Newton at the floor
    gmin from ``initial_guess`` (every other unknown at 0), then, when
    that fails, the decade gmin homotopy of :mod:`repro.recovery.policy`
    (warm-started stages from ``DC_GMIN_START`` down to the floor).
    Returns ``(x, iterations)``, the iterations of every attempt
    counted; a failed stage raises."""
    circuit.finalize()
    x0 = _start_vector(circuit, initial_guess)
    try:
        return _newton(circuit, x0, 0.0, FLOOR_GMIN)
    except ConvergenceError as exc:
        spent = exc.iterations
    x, gmin = x0, DC_GMIN_START
    while gmin >= FLOOR_GMIN:
        x, iterations = _newton(circuit, x, 0.0, gmin)
        spent += iterations
        gmin /= DC_GMIN_REDUCTION
    return x, spent


def naive_transient(circuit, stop_time, dt, integrator="be",
                    initial_voltages=None):
    """The reference transient every engine is checked against: from the
    t = 0 point of :func:`naive_dc` (or the listed ``initial_voltages``,
    every other unknown at 0), each fixed step ``k·dt`` solves a damped
    Newton from the last solution that re-stamps every device on every
    iteration (:func:`_newton`, at the floor gmin), then advances every
    device's state.  No Jacobian reuse, no prediction, no recovery
    ladder: a step that fails raises."""
    circuit.finalize()
    circuit.reset_state()
    if initial_voltages is None:
        x, _ = naive_dc(circuit)
    else:
        x = _start_vector(circuit, initial_voltages)
    num_nodes = circuit.num_nodes
    steps = int(round(stop_time / dt))
    solutions = [x]
    for k in range(1, steps + 1):
        time, prev = k * dt, x[:num_nodes].copy()
        x, _ = _newton(circuit, x, time, FLOOR_GMIN, prev_voltages=prev,
                       dt=dt, integrator=integrator)
        ctx = EvalContext(voltages=x[:num_nodes], prev_voltages=prev,
                          time=time, dt=dt, integrator=integrator)
        for device in circuit.devices:
            device.update_state(ctx)
        solutions.append(x)
    stacked = np.array(solutions)
    return TransientResult(circuit, np.arange(steps + 1) * dt,
                           stacked[:, :num_nodes], stacked[:, num_nodes:])


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("integrator", ["be", "trap"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_workspace_assembly_matches_naive(builder, integrator, seed):
    rng = np.random.default_rng(1000 * seed + sum(map(ord, builder.__name__)))
    circuit = builder(rng)
    circuit.finalize()
    dt = 1e-12
    size = circuit.num_nodes + circuit.num_branches

    workspace = MNAWorkspace(circuit, dt=dt, integrator=integrator)
    for trial in range(3):
        time = float(rng.uniform(0.0, 1e-9))
        prev = rng.uniform(-0.2, 1.3, size=circuit.num_nodes)
        x = rng.uniform(-0.2, 1.3, size=size)
        gmin = float(rng.choice([0.0, 1e-12, 1e-9]))

        workspace.begin_step(time, prev)
        workspace.assemble(x, gmin=gmin)
        matrix, rhs = naive_assembly(circuit, x, time, prev, dt, integrator,
                                     gmin)
        assert np.max(np.abs(workspace.matrix - matrix)) <= ASSEMBLY_TOL
        assert np.max(np.abs(workspace.rhs - rhs)) <= ASSEMBLY_TOL

    # Batched: three samples of the builder's topology with their own
    # device values, previous solutions and iterates.  Each block of the
    # ensemble system must be that sample's naive system, and `==` to that
    # sample's own workspace assembly where the scalar workspace groups
    # the same devices the batch does.  random_mtj_read is exempt: its 2
    # transistors and 2 junctions sit below the scalar grouping thresholds,
    # so the scalar workspace stamps them one by one and rounds
    # differently from the batch's groups (the EKV interpolation through
    # math.exp/math.log1p against np.logaddexp, and `** 2`, libm pow, in
    # MTJDevice.conductance_derivative against `x * x`).
    circuits = [builder(_SameTopologyRng(seed, 100 * seed + sample))
                for sample in range(3)]
    ensemble = EnsembleWorkspace(circuits, dt, integrator=integrator)
    singles = ([] if builder is random_mtj_read else
               [MNAWorkspace(sample, dt=dt, integrator=integrator)
                for sample in circuits])
    for _ in range(3):
        time = float(rng.uniform(0.0, 1e-9))
        prev = rng.uniform(-0.2, 1.3, size=ensemble.rhs.shape)
        x = rng.uniform(-0.2, 1.3, size=ensemble.rhs.shape)
        gmin = float(rng.choice([0.0, 1e-12, 1e-9]))

        ensemble.begin_step(time, prev)
        ensemble.assemble(x, gmin=gmin)
        for i, sample in enumerate(circuits):
            matrix, rhs = naive_assembly(sample, x[i], time,
                                         prev[i, : sample.num_nodes], dt,
                                         integrator, gmin)
            assert np.max(np.abs(ensemble.matrix[i] - matrix)) <= ASSEMBLY_TOL
            assert np.max(np.abs(ensemble.rhs[i] - rhs)) <= ASSEMBLY_TOL
        for i, single in enumerate(singles):
            single.begin_step(time, prev[i, : circuits[i].num_nodes])
            single.assemble(x[i], gmin=gmin)
            assert np.array_equal(ensemble.matrix[i], single.matrix)
            assert np.array_equal(ensemble.rhs[i], single.rhs)


class _SameTopologyRng:
    """Random stream for the builders that keeps their topology fixed:
    integer draws (section and stage counts) come from one stream, every
    other draw (device values, MTJ states) from a per-sample one."""

    def __init__(self, topology_seed: int, value_seed: int):
        self._topology = np.random.default_rng(topology_seed)
        self._values = np.random.default_rng(value_seed)

    def integers(self, *args, **kwargs):
        return self._topology.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._values, name)


def test_workspace_assembly_matches_naive_dc():
    # dt=None workspace: capacitors must stamp nothing, like the naive DC.
    rng = np.random.default_rng(7)
    circuit = random_mosfet_chain(rng)
    circuit.finalize()
    size = circuit.num_nodes + circuit.num_branches
    workspace = MNAWorkspace(circuit, dt=None)
    x = rng.uniform(0.0, 1.1, size=size)
    workspace.begin_step(0.0, None)
    workspace.assemble(x, gmin=1e-12)
    matrix, rhs = naive_assembly(circuit, x, 0.0, None, None, "be", 1e-12)
    assert np.max(np.abs(workspace.matrix - matrix)) <= ASSEMBLY_TOL
    assert np.max(np.abs(workspace.rhs - rhs)) <= ASSEMBLY_TOL


# ---------------------------------------------------------------------------
# DC equivalence: solve_dc vs the naive_dc oracle on Table II's leakage
# ---------------------------------------------------------------------------

#: Bound on the node-voltage difference of solve_dc and the oracle [V]
#: (the Newton tolerance) and on the relative difference of their
#: leakage power.
DC_TOL = 1e-7
LEAKAGE_REL_TOL = 1e-6


def leakage_latch(design, backend):
    """A latch of the typical-corner Table II leakage solve and its DC
    seed, as :func:`~repro.cells.characterize.leakage_power` builds
    them."""
    nv = get_backend(backend)
    if design == "standard":
        latch = build_standard_latch(None, CORNERS["typical"], backend=nv)
        return latch, {"vdd": 1.1, latch.out: 1.1, latch.outb: 1.1}
    latch = build_proposed_latch(None, CORNERS["typical"], backend=nv)
    return latch, {"vdd": 1.1}


@pytest.mark.parametrize("backend", ["mtj", "nandspin"])
@pytest.mark.parametrize("design", ["standard", "proposed"])
def test_dc_matches_naive_on_table2_leakage(design, backend):
    latch, seed = leakage_latch(design, backend)
    dc = solve_dc(latch.circuit, initial_guess=seed)
    leakage = dc.supply_power(latch.vdd_source)
    assert leakage == leakage_power(design, backend=backend)

    oracle, seed = leakage_latch(design, backend)
    x, _ = naive_dc(oracle.circuit, seed)
    num_nodes = oracle.circuit.num_nodes
    assert np.max(np.abs(dc.voltages - x[:num_nodes])) <= DC_TOL
    source = oracle.circuit.device(oracle.vdd_source)
    naive_leakage = -source.voltage_at(0.0) * x[num_nodes
                                                + source.branch_index]
    assert abs(leakage - naive_leakage) <= LEAKAGE_REL_TOL * abs(naive_leakage)


# ---------------------------------------------------------------------------
# Waveform equivalence: engine="fast" vs the naive_transient oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("integrator", ["be", "trap"])
@pytest.mark.parametrize("seed", [3, 4])
def test_fast_waveforms_match_naive(builder, integrator, seed):
    rng = np.random.default_rng(seed)
    circuit = builder(rng)
    naive = naive_transient(circuit, 1e-9, 2e-12, integrator=integrator)
    fast = run_transient(circuit, 1e-9, 2e-12, integrator=integrator,
                         engine="fast")
    diff = float(np.max(np.abs(naive.node_voltages - fast.node_voltages)))
    assert diff <= WAVEFORM_TOL, f"waveforms diverge by {diff:g} V"


def test_fast_is_the_default_engine():
    from repro.spice.analysis.transient import get_default_engine

    assert get_default_engine() == "fast"


def test_unknown_engine_rejected():
    # "naive" names the tests' reference transient, not an engine.
    from repro.api import Session
    from repro.cli import build_parser
    from repro.errors import AnalysisError

    rng = np.random.default_rng(0)
    for engine in ("blazing", "naive"):
        with pytest.raises(AnalysisError):
            run_transient(random_rc_ladder(rng), 1e-9, 1e-12, engine=engine)
        with pytest.raises(AnalysisError):
            Session(engine=engine)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table2", "--engine", engine])
        assert exit_info.value.code == 2


def test_jacobian_reuse_matches_full_newton():
    # The default LU-reusing solver, stepped by hand on its own workspace,
    # converges to the naive oracle's points (both satisfy the same
    # tolerance on the same residual).
    from repro.spice.analysis.engine import FastNewtonSolver

    rng = np.random.default_rng(11)
    circuit = random_mosfet_chain(rng)
    naive = naive_transient(circuit, 0.5e-9, 2e-12)
    circuit.reset_state()

    ws = MNAWorkspace(circuit, dt=2e-12, integrator="be")
    solver = FastNewtonSolver(ws)
    size = circuit.num_nodes + circuit.num_branches
    x = np.concatenate([naive.node_voltages[0], naive.branch_currents[0]])
    prev = naive.node_voltages[0].copy()
    for step in range(1, 26):
        x = solver.solve(x, step * 2e-12, prev, 1e-12, 150, 1e-7, 0.4)
        ws.update_state(x)
        prev = x[: circuit.num_nodes].copy()
        ref = naive.node_voltages[step]
        assert np.max(np.abs(prev - ref)) <= WAVEFORM_TOL

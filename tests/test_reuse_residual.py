"""The residual of a Newton iteration that reuses its LU factors.

A reuse iteration assembles nothing: it forms ``F(x) = G·x − b_step +
gmin·x_nodes`` plus each nonlinear device's current injection
(:meth:`MNAWorkspace.residual`, :meth:`EnsembleWorkspace.residual`).
That must be the assembled system's ``A(x)·x − b(x)``, to 1e-12 of the
magnitude of the terms each row sums (``|A(x)|·|x| + |b(x)|``), on the
dense workspace, the sparse engine's pure-CSC route, circuits with
ungrouped and generic iterate devices, and every block of a batch.  The
Newton loops assemble only to factorise.
"""

import numpy as np
import pytest

from repro.cells.nvlatch_1bit import build_standard_latch
from repro.nv.base import get_backend
from repro.spice.analysis import engine as engine_module
from repro.spice.analysis.engine import FastNewtonSolver, MNAWorkspace
from repro.spice.analysis.ensemble import (
    EnsembleWorkspace,
    run_ensemble_transient,
)
from repro.spice.analysis.sparse import SparseNewtonSolver
from repro.spice.analysis.transient import run_transient
from tests.test_engine_equivalence import (
    BUILDERS,
    _SameTopologyRng,
    random_mosfet_chain,
)
from tests.test_sparse_engine import (
    _SquareLawConductor,
    _sample_circuits,
    grouped_array_circuit,
)

RESIDUAL_TOL = 1e-12
DT = 2e-12
GMINS = (0.0, 1e-9)


def with_square_law(circuit, a="s0", b="s1"):
    """The circuit plus a nonlinear two-terminal no device group covers
    and no current route knows: the reuse residual takes its
    ``A_dev·x − b_dev`` from its stamp."""
    circuit._register(_SquareLawConductor(positive=circuit.node(a),
                                          negative=circuit.node(b)), "sq")
    return circuit


def latch_circuit(backend):
    """A Table II standard latch: grouped MOSFETs beside two ungrouped
    junctions (NAND-SPIN ones subclass the MTJ element)."""
    nv = get_backend(backend)
    schedule = nv.restore_schedule("standard", bit=1, vdd=1.1, cycles=1)
    return build_standard_latch(schedule, stored_bit=1, vdd=1.1,
                                backend=nv).circuit


def assert_residual_matches(direct, matrix, x, rhs):
    """``direct`` is ``A·x − b`` to RESIDUAL_TOL of each row's terms."""
    assembled = matrix @ x - rhs
    scale = abs(matrix) @ np.abs(x) + np.abs(rhs)
    excess = np.abs(direct - assembled) - RESIDUAL_TOL * scale
    assert excess.max() <= 0.0, float(np.abs(direct - assembled).max())


def seeded_points(rng, workspace, count=3):
    """``(time, prev, x)`` triples around the rails."""
    for _ in range(count):
        yield (float(rng.uniform(0.0, 1e-9)),
               rng.uniform(-0.2, 1.3, workspace.num_nodes),
               rng.uniform(-0.2, 1.3, workspace.size))


SCALAR_CIRCUITS = {
    **{builder.__name__: builder for builder in BUILDERS},
    "square_law": lambda rng: with_square_law(random_mosfet_chain(rng)),
    "mtj_latch": lambda rng: latch_circuit("mtj"),
    "nandspin_latch": lambda rng: latch_circuit("nandspin"),
}


@pytest.mark.parametrize("gmin", GMINS)
@pytest.mark.parametrize("name", sorted(SCALAR_CIRCUITS))
def test_dense_residual_matches_assembly(name, gmin):
    rng = np.random.default_rng(sum(map(ord, name)))
    workspace = MNAWorkspace(SCALAR_CIRCUITS[name](rng), dt=DT)
    if name == "square_law":
        assert workspace._stamped_devices
    if name == "random_mtj_read" or name.endswith("_latch"):
        assert workspace._junctions
    for time, prev, x in seeded_points(rng, workspace):
        workspace.begin_step(time, prev)
        direct = workspace.residual(x, gmin)
        workspace.assemble(x, gmin)
        assert_residual_matches(direct, workspace.matrix, x, workspace.rhs)


@pytest.mark.parametrize("gmin", GMINS)
@pytest.mark.parametrize("pure", [True, False], ids=["pure-csc", "gathered"])
def test_sparse_residual_matches_assembly(pure, gmin):
    circuit = grouped_array_circuit()
    if not pure:
        with_square_law(circuit, "bl0", "bl1")
    workspace = MNAWorkspace(circuit, dt=DT)
    solver = SparseNewtonSolver(workspace)
    assert solver._pure == pure
    rng = np.random.default_rng(41)
    for time, prev, x in seeded_points(rng, workspace):
        workspace.begin_step(time, prev)
        direct = solver._residual(x, gmin, None)
        solver._assemble(x, gmin, None)
        assert_residual_matches(direct, solver._csc.toarray(), x,
                                workspace.rhs)


def ensemble_circuits(name, count=3):
    if name == "square_law":
        return [with_square_law(random_mosfet_chain(_SameTopologyRng(5, i)))
                for i in range(count)]
    builder = dict((b.__name__, b) for b in BUILDERS)[name]
    return [builder(_SameTopologyRng(5, 50 + i)) for i in range(count)]


@pytest.mark.parametrize("gmin", GMINS)
@pytest.mark.parametrize("name", sorted(b.__name__ for b in BUILDERS)
                         + ["square_law"])
def test_ensemble_residual_matches_every_block(name, gmin):
    ensemble = EnsembleWorkspace(ensemble_circuits(name), DT)
    rng = np.random.default_rng(sum(map(ord, name)) + 7)
    shape = ensemble.rhs.shape
    for step in range(3):
        prev = rng.uniform(-0.2, 1.3, shape)
        x = rng.uniform(-0.2, 1.3, shape)
        ensemble.begin_step((step + 1) * DT, prev)
        direct = ensemble.residual(x, gmin)
        ensemble.assemble(x, gmin)
        # The currents an assembly leaves behind are the currents-only
        # pass's bits, so a reuse sample's residual does not depend on
        # whether another sample of its batch refreshed.
        assert np.array_equal(ensemble.residual(x, gmin, assembled=True),
                              direct)
        for i in range(ensemble.count):
            assert_residual_matches(direct[i], ensemble.matrix[i], x[i],
                                    ensemble.rhs[i])


# ---------------------------------------------------------------------------
# The Newton loops assemble only to factorise
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, cls, name):
    """Record the keyword arguments of every call of a method."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(kwargs)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("engine, solver", [
    ("fast", FastNewtonSolver), ("sparse", SparseNewtonSolver)])
def test_scalar_run_assembles_once_per_factorisation(engine, solver,
                                                     monkeypatch):
    calls = count_calls(monkeypatch, solver, "_assemble")
    result = run_transient(grouped_array_circuit(), 0.6e-9, DT,
                           engine=engine)
    stats = result.stats
    assert stats.reuses > 0 and stats.factorizations > 0
    assert stats.singular_retries == 0
    assert len(calls) == stats.factorizations


def test_singular_retry_assembles_before_it_refactorises(monkeypatch):
    # A non-finite update from stale factors is retried once on fresh
    # ones.  A reuse iteration holds no assembly, so the retry assembles
    # first; its refactorisation counts as a factorisation.
    circuit = random_mosfet_chain(np.random.default_rng(3))
    workspace = MNAWorkspace(circuit, dt=DT)
    solver = FastNewtonSolver(workspace)
    stats = solver.stats
    getrs = engine_module._getrs
    poisoned = []

    def getrs_poisoned_once(lu, piv, b, *args):
        delta, info = getrs(lu, piv, b, *args)
        if stats.reuses and not poisoned:  # the first reuse's update
            poisoned.append(stats.reuses)
            delta = np.full_like(delta, np.nan)
        return delta, info

    calls = count_calls(monkeypatch, FastNewtonSolver, "_assemble")
    monkeypatch.setattr(engine_module, "_getrs", getrs_poisoned_once)
    x = np.zeros(workspace.size)
    for step in range(1, 20):
        x = solver.solve(x, step * DT, x[: workspace.num_nodes].copy(),
                         1e-12, 150, 1e-7, 0.4)
        workspace.update_state(x)
    assert poisoned == [1]
    assert stats.singular_retries == 1
    assert len(calls) == stats.factorizations


def test_batch_assembles_only_for_refreshing_samples(monkeypatch):
    # Every batch assembly lists the samples that factorise it, so the
    # listed samples add up to the factorisations, and an iteration in
    # which every sample reuses its factors assembles nothing.
    calls = count_calls(monkeypatch, EnsembleWorkspace, "assemble")
    results = run_ensemble_transient(_sample_circuits(4), 0.6e-9, DT)
    listed = [len(call["samples"]) for call in calls]
    assert min(listed) >= 1
    assert sum(listed) == sum(r.stats.factorizations for r in results)
    assert sum(r.stats.reuses for r in results) > 0

"""The residual of a Newton iteration that reuses its LU factors.

A reuse iteration assembles nothing: it forms ``F(x) = G·x − b_step +
gmin·x_nodes`` plus each nonlinear device's current injection
(:meth:`MNAWorkspace.residual`, :meth:`EnsembleWorkspace.residual`).
That must be the assembled system's ``A(x)·x − b(x)``, to 1e-12 of the
magnitude of the terms each row sums (``|A(x)|·|x| + |b(x)|``), on the
dense workspace, the sparse engine's pure-CSC route, circuits with
ungrouped and generic iterate devices, and every block of a batch.  The
Newton loops assemble only to factorise, and their LU factors carry from
a converged timepoint to the next, but not past a failed solve or into a
solve at another gmin.
"""

import numpy as np
import pytest

from repro.cells.nvlatch_1bit import build_standard_latch
from repro.errors import ConvergenceError
from repro.nv.base import get_backend
from repro.spice.analysis import engine as engine_module
from repro.spice.analysis.dc import FLOOR_GMIN
from repro.spice.analysis.engine import (
    JACOBIAN_MAX_AGE,
    FastNewtonSolver,
    MNAWorkspace,
)
from repro.spice.analysis.ensemble import (
    EnsembleNewtonSolver,
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
        direct = solver._residual(x, gmin)
        solver._assemble(x, gmin)
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
    # The factors carry across timepoints: most timepoints factorise
    # nothing.
    assert stats.factorizations < stats.timesteps


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


# ---------------------------------------------------------------------------
# LU factors carry across timepoints only from a converged solve
# ---------------------------------------------------------------------------


SOLVE = dict(max_iterations=150, vtol=1e-7, damping=0.4)


class _Steps:
    """A scalar solver stepped by hand on the fixed grid, recording
    whether each solve factorised on its first iteration."""

    def __init__(self, cls, monkeypatch):
        self.workspace = MNAWorkspace(grouped_array_circuit(), dt=DT)
        self.solver = cls(self.workspace)
        self.factorised_at = []
        original = cls._factorize

        def recorded(solver):
            self.factorised_at.append(solver.stats.iterations)
            return original(solver)

        monkeypatch.setattr(cls, "_factorize", recorded)
        self.x = np.zeros(self.workspace.size)
        self.step = 0

    def advance(self, gmin=FLOOR_GMIN):
        """Solve the next timepoint; whether its first iteration
        factorised."""
        self.step += 1
        first = self.solver.stats.iterations + 1
        x = self.solver.solve(self.x, self.step * DT,
                              self.x[: self.workspace.num_nodes].copy(),
                              gmin, **SOLVE)
        self.workspace.update_state(x)
        self.x = x
        return first in self.factorised_at

    def advance_to_young_factors(self, gmin=FLOOR_GMIN):
        """Step until the carried factors would still serve two more
        iterations, so that a refactorisation on the next first
        iteration is not the age rule's."""
        for _ in range(50):
            self.advance(gmin)
            if self.solver._carried[1] + 2 < JACOBIAN_MAX_AGE:
                return
        raise AssertionError("the factors never stayed young")


@pytest.mark.parametrize("cls", [FastNewtonSolver, SparseNewtonSolver],
                         ids=["fast", "sparse"])
def test_converged_solve_carries_its_factors(cls, monkeypatch):
    steps = _Steps(cls, monkeypatch)
    assert steps.advance()  # a new solver holds no factors
    steps.advance_to_young_factors()
    assert not steps.advance()


@pytest.mark.parametrize("cls", [FastNewtonSolver, SparseNewtonSolver],
                         ids=["fast", "sparse"])
def test_failed_solve_leaves_no_factors(cls, monkeypatch):
    steps = _Steps(cls, monkeypatch)
    steps.advance_to_young_factors()
    # One iteration from a far-off start: a reuse iteration, then raise.
    factorised = len(steps.factorised_at)
    with pytest.raises(ConvergenceError):
        steps.solver.solve(steps.x + 0.3, (steps.step + 1) * DT,
                           steps.x[: steps.workspace.num_nodes].copy(),
                           FLOOR_GMIN, 1, SOLVE["vtol"], SOLVE["damping"])
    assert len(steps.factorised_at) == factorised
    assert steps.advance()


@pytest.mark.parametrize("cls", [FastNewtonSolver, SparseNewtonSolver],
                         ids=["fast", "sparse"])
def test_solve_at_another_gmin_refactorises(cls, monkeypatch):
    steps = _Steps(cls, monkeypatch)
    steps.advance_to_young_factors()
    assert steps.advance(gmin=1e-9)
    steps.advance_to_young_factors(gmin=1e-9)
    assert steps.advance()


def test_batch_carries_factors_per_sample_at_one_gmin(monkeypatch):
    # The batch keeps each sample's factors and their age under the same
    # rule: a solve at the gmin of the last one starts on the young
    # factors, a solve at another gmin refactorises every sample first.
    workspace = EnsembleWorkspace(_sample_circuits(3), DT)
    solver = EnsembleNewtonSolver(workspace)
    calls = []
    original = EnsembleNewtonSolver._factorize

    def recorded(self, samples):
        calls.append((samples.tolist(), self.iterations.copy()))
        return original(self, samples)

    monkeypatch.setattr(EnsembleNewtonSolver, "_factorize", recorded)
    x = np.zeros(workspace.rhs.shape)

    def first_iteration_factorises(step, gmin=FLOOR_GMIN):
        """Which samples factorise on the solve's first iteration."""
        nonlocal x
        del calls[:]
        first = solver.iterations + 1
        x = solver.solve(x, step * DT, x.copy(), gmin, **SOLVE)
        workspace.update_state(x)
        assert not solver.failed.any()
        return next((samples for samples, at in calls
                     if (at[samples] == first[samples]).all()), [])

    assert first_iteration_factorises(1) == [0, 1, 2]
    step = 1
    for gmin in (FLOOR_GMIN, 1e-9):
        while not (solver._age + 2 < JACOBIAN_MAX_AGE).any():
            step += 1
            assert step < 50, "the factors never stayed young"
            first_iteration_factorises(step)
        young = np.flatnonzero(solver._age + 2 < JACOBIAN_MAX_AGE).tolist()
        step += 1
        factorised = first_iteration_factorises(step, gmin)
        if gmin == FLOOR_GMIN:
            assert not set(young) & set(factorised)
        else:
            assert factorised == [0, 1, 2]

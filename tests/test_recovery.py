"""Solver-resilience subsystem: the solver record and its guards,
recovery ladder, forensics, and the pathological-circuit corpus.

The headline contracts: pathological corpus entries hard-fail without
recovery and complete deterministically with it (same rungs, recovered
waveforms within 1 µV across the fast and sparse engines); a recovered run is
bit-identical across worker counts and cache warm/cold, and replays from
its cache request record; an exhausted ladder produces a forensics bundle
with a rebuildable minimal reproducer; and the recovery switch is part of
the cache key.
"""

import hashlib
import json
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

from repro.cache import store as cache_store
from repro.errors import ConvergenceError
from repro.recovery.forensics import ForensicsBundle, stamped_matrix_digest
from repro.recovery.health import (CONDITION_CAP, ConditionProbe,
                                   guard_finite, hager_inverse_norm1)
from repro.recovery.ladder import dc_recover
from repro.recovery.policy import CONDITION_WARN, RUNGS
from repro.recovery.shrink import greedy_shrink
from repro.spice.analysis.engine import (
    METRIC_NAMES,
    FastNewtonSolver,
    MNAWorkspace,
    SolverStats,
)
from repro.spice.analysis.transient import ENGINES, run_transient
from repro.spice.netlist import Circuit
from tests.recovery_corpus import corpus_entries, corpus_entry

WAVEFORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# The solver record and the guards
# ---------------------------------------------------------------------------


def _every_field_distinct() -> SolverStats:
    """A record whose every field holds its own non-zero value."""
    stats = SolverStats()
    for value, f in enumerate(fields(SolverStats), start=1):
        current = getattr(stats, f.name)
        if isinstance(current, dict):
            setattr(stats, f.name, {"a": value, "b": value + 100})
        else:
            setattr(stats, f.name, type(current)(value))
    return stats


class TestSolverStats:
    def test_one_count_one_field_one_metric_name(self):
        from repro.obs.metrics import MetricsRegistry

        stats = _every_field_distinct()
        assert SolverStats.from_json(stats.to_json()) == stats
        json.dumps(stats.to_json())  # canonical-JSON material
        assert list(METRIC_NAMES) == [f.name for f in fields(SolverStats)]
        assert len(set(METRIC_NAMES.values())) == len(METRIC_NAMES)

        # Every value is distinct, so a count flushed twice reads doubled
        # and a count flushed under two names leaves an extra name.
        expected = {}
        for f in fields(SolverStats):
            value, metric = getattr(stats, f.name), METRIC_NAMES[f.name]
            if isinstance(value, dict):
                expected.update((f"{metric}.{key}", value[key])
                                for key in value)
            else:
                expected[metric] = value
        registry = MetricsRegistry()
        stats.flush_to(registry)
        snapshot = registry.snapshot()
        assert {**snapshot["counters"], **snapshot["maxima"]} == expected
        assert len(snapshot["counters"]) + len(snapshot["maxima"]) \
            == len(expected)
        # A recovered step and a DC gmin stage are counted once, in the
        # recovery namespace.
        assert "engine.recovered_steps" not in expected
        assert "engine.gmin_stepping_stages" not in expected

        attrs = stats.as_attrs()
        counters = stats.counters()
        assert len(attrs) == len(counters)
        for f in fields(SolverStats):
            value = getattr(stats, f.name)
            if isinstance(value, int):
                metric = METRIC_NAMES[f.name]
                assert counters[metric] == value
                assert attrs[metric.split(".", 1)[1]] == value
        for rung, count in stats.rung_counts.items():
            assert counters[f"recovery.rung.{rung}"] == count
            assert attrs[f"rung.{rung}"] == count

    def test_clean_flips_on_any_event(self):
        stats = SolverStats()
        assert stats.clean
        stats.condition_checks += 1  # probe, no warn
        stats.iterations += 5
        assert stats.clean
        stats.rung_counts["gmin"] = 1
        assert not stats.clean

    def test_condition_estimates_are_capped(self):
        stats = SolverStats()
        probe = ConditionProbe(stats)  # the first factorisation is probed
        probe.after_factorization(lambda b: b, lambda b: b,
                                  lambda: float("inf"), 2)
        assert stats.condition_checks == 1
        assert stats.condition_warnings == 1
        assert stats.worst_condition == CONDITION_CAP
        json.dumps(stats.to_json())  # no IEEE infinities in payloads

    def test_worst_condition_is_the_largest_in_either_merge_order(self):
        """Two analyses probe κ = 1e9, then 1e3: the registry keeps 1e9,
        whether both flush into one registry or two workers' snapshots
        merge into the parent in either order."""
        from repro.obs.metrics import MetricsRegistry

        name = METRIC_NAMES["worst_condition"]
        runs = [SolverStats(worst_condition=1e9),
                SolverStats(worst_condition=1e3)]
        serial = MetricsRegistry()
        for stats in runs:
            stats.flush_to(serial)
        assert serial.snapshot()["maxima"][name] == 1e9
        workers = []
        for stats in runs:
            worker = MetricsRegistry()
            stats.flush_to(worker)
            workers.append(worker.snapshot())
        for order in (workers, workers[::-1]):
            parent = MetricsRegistry()
            for snapshot in order:
                parent.merge(snapshot)
            assert parent.snapshot()["maxima"][name] == 1e9

    def test_guard_finite_passes_finite_and_trips_on_nan(self):
        stats = SolverStats()
        x = np.array([1.0, 2.0])
        assert guard_finite(x, "test", stats) is x
        bad = np.array([1.0, np.nan, np.inf])
        with pytest.raises(ConvergenceError, match="non-finite"):
            guard_finite(bad, "test", stats)
        assert stats.nonfinite_trips == 1

    def test_hager_estimate_tracks_the_true_inverse_norm(self):
        # Fixed ill-scaled system: the estimate is a lower bound on
        # ||A^-1||_1 and, for matrices this small, nearly exact.
        A = np.array([[2.0, -1.0, 0.0],
                      [-1.0, 2.0, -1.0],
                      [0.0, -1.0, 1e-6]])
        est = hager_inverse_norm1(lambda b: np.linalg.solve(A, b),
                                  lambda b: np.linalg.solve(A.T, b),
                                  A.shape[0])
        true = float(np.abs(np.linalg.inv(A)).sum(axis=0).max())
        assert 0.3 * true <= est <= true * (1.0 + 1e-9)

    def test_stamped_matrix_digest_is_shape_tagged(self):
        flat = np.arange(8.0)
        assert (stamped_matrix_digest(flat.reshape(2, 4))
                != stamped_matrix_digest(flat.reshape(4, 2)))


# ---------------------------------------------------------------------------
# Ladder rollback of device state
# ---------------------------------------------------------------------------


def test_rollback_restores_nandspin_sot_and_capacitor_state():
    """A failed cut/switch rung rolls every device back: capacitor
    history, STT progress and events, and a NAND-SPIN junction's SOT
    erase progress and events."""
    from repro.cells.nvlatch_2bit import build_proposed_latch
    from repro.mtj.device import MTJState
    from repro.mtj.dynamics import SwitchingEvent
    from repro.nv.base import capture_storage_state
    from repro.recovery.ladder import (restore_device_state,
                                       snapshot_device_state)
    from repro.spice.devices.passive import Capacitor

    circuit = build_proposed_latch(backend="nandspin").circuit
    junction = next(d for d in circuit.devices
                    if getattr(d, "sot", None) is not None)
    capacitor = next(d for d in circuit.devices if isinstance(d, Capacitor))
    storage, prev_current = (capture_storage_state(circuit),
                             capacitor._prev_current)

    snapshot = snapshot_device_state(circuit)
    event = SwitchingEvent(time=1e-9, new_state=MTJState.ANTIPARALLEL,
                           current=1e-4)
    junction.sot.progress = 0.7
    junction.sot.events.append(event)
    junction.switching.progress = 0.4
    junction.switching.events.append(event)
    capacitor._prev_current = 1e-6
    restore_device_state(circuit, snapshot)

    assert junction.sot.progress == 0.0 and junction.sot.events == []
    assert capture_storage_state(circuit) == storage
    assert capacitor._prev_current == prev_current


# ---------------------------------------------------------------------------
# Greedy shrinker
# ---------------------------------------------------------------------------


class TestGreedyShrink:
    def test_reduces_to_the_failing_core(self):
        def still_fails(candidate):
            return {2, 5} <= set(candidate)

        assert greedy_shrink([1, 2, 3, 4, 5, 6], still_fails) == [2, 5]

    def test_budget_caps_oracle_evaluations(self):
        calls = []

        def still_fails(candidate):
            calls.append(list(candidate))
            return True

        result = greedy_shrink(list(range(10)), still_fails, budget=3)
        assert len(calls) <= 3
        assert len(result) >= 7  # at most one removal per evaluation

    def test_min_items_floor_is_respected(self):
        result = greedy_shrink([1, 2, 3], lambda c: True, min_items=2)
        assert len(result) == 2


# ---------------------------------------------------------------------------
# Healthy circuits stay off the ladder
# ---------------------------------------------------------------------------


def _healthy_rc() -> Circuit:
    from repro.spice.waveforms import Pulse

    c = Circuit("healthy-rc")
    c.add_vsource("vin", "in", "0",
                  Pulse(0.0, 1.0, delay=1e-9, rise=1e-9, width=10e-9))
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    return c


@pytest.mark.parametrize("engine", ENGINES)
def test_healthy_circuit_has_clean_health(engine):
    result = run_transient(_healthy_rc(), stop_time=5e-9, dt=0.5e-9,
                           engine=engine, lint="off")
    assert result.stats.clean
    assert result.stats.rung_counts == {}
    assert result.stats.recovered_steps == 0


# ---------------------------------------------------------------------------
# Pathological corpus across both engines
# ---------------------------------------------------------------------------

PATHOLOGICAL = [e for e in corpus_entries()
                if e.expect_rungs or e.expect_failure]
RECOVERABLE = [e for e in corpus_entries() if not e.expect_failure]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("entry", PATHOLOGICAL, ids=lambda e: e.name)
def test_pathological_entry_hard_fails_without_recovery(entry, engine):
    with pytest.raises(ConvergenceError):
        entry.run(engine=engine, recovery=False)


@pytest.fixture(scope="module")
def recovered():
    """Every recoverable entry on both engines, run under tracing:
    ``({(name, engine): result}, recovery counters the runs added)``."""
    from repro.obs import disable_tracing, enable_tracing, metrics

    enable_tracing()
    try:
        before = metrics().snapshot()["counters"]
        results = {(entry.name, engine): entry.run(engine=engine)
                   for entry in RECOVERABLE for engine in ENGINES}
        after = metrics().snapshot()["counters"]
    finally:
        disable_tracing()
    added = {name: value - before.get(name, 0)
             for name, value in after.items() if name.startswith("recovery.")}
    return results, added


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("entry", RECOVERABLE, ids=lambda e: e.name)
def test_corpus_entries_behave_as_tuned(entry, engine, recovered):
    stats = recovered[0][entry.name, engine].stats
    for rung in entry.expect_rungs:
        assert stats.rung_counts.get(rung, 0) > 0, stats.rung_counts
    if entry.expect_condition_warnings:
        assert stats.condition_warnings > 0
        assert stats.worst_condition >= CONDITION_WARN


@pytest.mark.parametrize("entry", RECOVERABLE, ids=lambda e: e.name)
def test_recovered_waveforms_agree_across_engines(entry, recovered):
    fast, sparse = (recovered[0][entry.name, engine].node_voltages
                    for engine in ENGINES)
    assert float(np.max(np.abs(fast - sparse))) <= WAVEFORM_TOL


def test_ladder_counters_reach_the_metrics_registry(recovered):
    counters = recovered[1]
    assert counters.get("recovery.rung.gmin", 0) > 0
    assert counters.get("recovery.rung.timestep-cut", 0) > 0
    assert counters.get("recovery.recovered_steps", 0) > 0
    assert counters.get("recovery.condition_warnings", 0) > 0


def test_exhaustion_forensics_bundle_rebuilds():
    from repro.cache.keys import rebuild_circuit

    for engine in ENGINES:
        with pytest.raises(ConvergenceError) as excinfo:
            corpus_entry("ladder-exhaustion").run(engine=engine)
        raised = excinfo.value.forensics
        bundle = ForensicsBundle.from_json(
            json.loads(json.dumps(raised.to_json())))
        assert bundle.analysis == "transient"
        assert bundle.engine == engine
        assert bundle.rung_history, "exhaustion must record the climbed rungs"
        climbed = {entry["rung"] for entry in bundle.rung_history}
        assert "gmin" in climbed
        assert bundle.matrix_digest is not None
        assert bundle.last_state is not None
        assert bundle.minimal_circuit is not None
        assert 0 < bundle.devices_after < bundle.devices_before
        rebuilt = rebuild_circuit(bundle.minimal_circuit)
        assert len(rebuilt.devices) == bundle.devices_after
        # The bundle digest is a pure function of its content.
        assert bundle.digest() == raised.digest()


def test_exhaustion_raises_with_forensics_attached():
    entry = corpus_entry("ladder-exhaustion")
    with pytest.raises(ConvergenceError) as excinfo:
        entry.run(engine="fast")
    bundle = excinfo.value.forensics
    assert bundle is not None
    assert bundle.circuit_name == "instant-edge"
    assert {e["rung"] for e in bundle.rung_history} <= (
        set(RUNGS) | {"dc-homotopy"})


def _exhaustion_digest() -> str:
    with pytest.raises(ConvergenceError) as excinfo:
        corpus_entry("ladder-exhaustion").run(engine="fast")
    return excinfo.value.forensics.digest()


def test_exhaustion_digest_is_the_same_traced_or_not():
    from repro.obs import disable_tracing, enable_tracing

    digests = [_exhaustion_digest()]
    for _ in range(2):
        enable_tracing(fresh=True)
        try:
            digests.append(_exhaustion_digest())
        finally:
            disable_tracing()
    assert len(set(digests)) == 1, digests


# ---------------------------------------------------------------------------
# Batched runs of the corpus: a failing sample takes the scalar ladder
# ---------------------------------------------------------------------------


def _batched_corpus_run(name: str):
    """A corpus entry run as a two-sample batch, with the entry's options
    (the batch reruns failing samples alone through the ladder)."""
    from repro.spice.analysis.ensemble import run_ensemble_transient

    entry = corpus_entry(name)
    return entry, run_ensemble_transient([entry.build(), entry.build()],
                                         **entry.run_options())


@pytest.mark.parametrize("name", ["sharp-edge", "near-singular-divider"])
def test_batched_corpus_runs_match_their_scalar_runs(name):
    entry, results = _batched_corpus_run(name)
    scalar = entry.run(engine="fast")
    for result in results:
        assert np.array_equal(result.node_voltages, scalar.node_voltages)
        assert np.array_equal(result.branch_currents,
                              scalar.branch_currents)
        if name == "sharp-edge":
            assert result.stats.rung_counts == scalar.stats.rung_counts
            assert result.stats.rung_counts == {"timestep-cut": 1,
                                                 "damping": 1}


def test_batched_ladder_exhaustion_raises_with_forensics():
    with pytest.raises(ConvergenceError) as excinfo:
        _batched_corpus_run("ladder-exhaustion")
    assert isinstance(excinfo.value.forensics, ForensicsBundle)


def test_corpus_lookup():
    names = [entry.name for entry in corpus_entries()]
    assert names == sorted(set(names), key=names.index)  # unique
    assert corpus_entry("razor-sense").expect_rungs == ("gmin",)
    with pytest.raises(KeyError):
        corpus_entry("no-such-entry")


# ---------------------------------------------------------------------------
# Determinism: worker counts and cache warm/cold
# ---------------------------------------------------------------------------


def _recovered_digest(name: str) -> str:
    """Digest of a recovered corpus run (module-level: must pickle)."""
    entry = corpus_entry(name)
    result = entry.run(engine="fast")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.node_voltages).tobytes())
    h.update(json.dumps(result.stats.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_recovered_runs_are_bit_identical_across_worker_counts():
    from repro.parallel import parallel_map

    names = ["razor-sense", "sharp-edge"]
    with warnings.catch_warnings():
        # Sandboxed environments may degrade the pool to the serial
        # path with a RuntimeWarning; the digests must match either way.
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = parallel_map(_recovered_digest, names, workers=1)
        pooled = parallel_map(_recovered_digest, names, workers=2)
    assert serial == pooled


class TestRecoveredRunsAndTheCache:
    @pytest.fixture()
    def active_cache(self, tmp_path):
        cache = cache_store.enable(str(tmp_path / "cache"))
        yield cache
        cache_store.disable()

    @staticmethod
    def _counters():
        from repro.obs import metrics

        counters = metrics().snapshot()["counters"]
        return {name: counters.get(name, 0)
                for name in ("cache.hit", "cache.miss", "cache.store")}

    def test_warm_hit_is_bit_identical_and_keeps_health(self, active_cache):
        entry = corpus_entry("razor-sense")
        before = self._counters()
        cold = entry.run(engine="fast")
        mid = self._counters()
        warm = entry.run(engine="fast")
        after = self._counters()
        assert mid["cache.store"] > before["cache.store"]
        assert after["cache.hit"] > mid["cache.hit"]
        assert (warm.node_voltages.tobytes()
                == cold.node_voltages.tobytes())
        assert warm.branch_currents.tobytes() == cold.branch_currents.tobytes()
        # The whole solver record survives the cache round trip, rung
        # counts included: a warm recovered run is still distinguishable
        # from a clean one.
        assert warm.stats == cold.stats
        assert warm.stats.rung_counts.get("gmin", 0) > 0

    def test_different_policy_is_a_different_cache_key(self, active_cache):
        # A healthy run with recovery on and off climbs no rung either
        # way, yet the two never share an entry: off must miss, not hit.
        run_transient(_healthy_rc(), stop_time=5e-9, dt=0.5e-9, lint="off")
        mid = self._counters()
        off = run_transient(_healthy_rc(), stop_time=5e-9, dt=0.5e-9,
                            lint="off", recovery=False)
        after = self._counters()
        assert off.stats.clean
        assert after["cache.hit"] == mid["cache.hit"]
        assert after["cache.miss"] > mid["cache.miss"]

    def test_policy_fingerprint_enters_the_request_key(self):
        from repro.cache.keys import dc_request, request_key, transient_request

        def transient_key(recovery):
            return request_key(transient_request(
                _healthy_rc(), stop_time=1e-9, dt=1e-10, integrator="be",
                initial_voltages=None, dc_seed=None, max_iterations=50,
                vtol=1e-6, damping=0.4, engine="fast", recovery=recovery))

        def dc_key(recovery):
            return request_key(dc_request(
                _healthy_rc(), time=0.0, initial_guess=None,
                max_iterations=50, vtol=1e-6, damping=0.4,
                recovery=recovery))

        assert transient_key(True) != transient_key(False)
        assert transient_key(True) == transient_key(True)
        assert dc_key(True) != dc_key(False)

    def test_recovered_entries_replay_from_their_request_records(
            self, active_cache):
        # The razor-sense run climbs the gmin rung; its transient entry,
        # with the t = 0 point the run solved on its own solver, must
        # recompute bit for bit from nothing but its stored request
        # record.
        from repro.cache.analysis import verify_entry

        cold = corpus_entry("razor-sense").run(engine="fast")
        assert cold.stats.rung_counts.get("gmin", 0) > 0
        verdicts = [verify_entry(entry) for entry in active_cache.entries()]
        assert {v["kind"] for v in verdicts} == {"transient"}
        assert all(v["ok"] for v in verdicts), verdicts


# ---------------------------------------------------------------------------
# DC recovery: failure reporting
# ---------------------------------------------------------------------------


class TestDCRecoveryReporting:
    @staticmethod
    def _divider():
        c = Circuit("dc-divider")
        c.add_vsource("v1", "a", "0", 1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "b", "0", 1e3)
        return c

    class _StuckSolver(FastNewtonSolver):
        """A DC solver whose every solve spends its budget in place."""

        def solve(self, x0, time, prev_voltages, gmin, max_iterations,
                  vtol, damping):
            self.stats.iterations += max_iterations
            raise ConvergenceError("stuck at the same iterate",
                                   iterations=max_iterations, residual=0.125,
                                   state=np.zeros(2))

    def test_exhausted_dc_reports_stage_and_residual_trajectory(self):
        first = ConvergenceError("no convergence", iterations=50,
                                 residual=0.5, state=np.zeros(2))
        solver = self._StuckSolver(MNAWorkspace(self._divider()))
        with pytest.raises(ConvergenceError) as excinfo:
            dc_recover(solver, np.zeros(2), time=0.0, max_iterations=50,
                       vtol=1e-6, damping=0.4, floor_gmin=1e-12,
                       first_failure=first)
        message = str(excinfo.value)
        # The failed homotopy stage and the full residual trajectory are
        # part of the message, not just "did not converge".
        assert "source stepping stalled" in message
        assert "residual trajectory" in message
        assert "gmin 0.01: stalled" in message
        assert "source step 0.25: stalled" in message
        assert "max dV=0.125" in message
        bundle = excinfo.value.forensics
        assert bundle is not None
        assert bundle.analysis == "dc"
        assert all(e["rung"] == "dc-homotopy" for e in bundle.rung_history)
        # Every stage ran on the solver, with the sources back at full
        # scale afterwards.
        assert bundle.stats["iterations"] == 2 * 50
        assert solver.workspace.source_scale == 1.0

    def test_gmin_homotopy_rescue_reports_its_stages(self):
        class StrongGminSolver(FastNewtonSolver):
            """Converges in three iterations at the strong-gmin stages
            only."""

            def solve(self, x0, time, prev_voltages, gmin, max_iterations,
                      vtol, damping):
                if gmin < 1e-3:
                    self.stats.iterations += max_iterations
                    raise ConvergenceError("stalled",
                                           iterations=max_iterations,
                                           residual=0.25, state=np.zeros(2))
                self.stats.iterations += 3
                return np.ones(2)

        first = ConvergenceError("no convergence", iterations=50,
                                 residual=0.5, state=np.zeros(2))
        solver = StrongGminSolver(MNAWorkspace(self._divider()))
        with pytest.raises(ConvergenceError) as excinfo:
            dc_recover(solver, np.zeros(2), time=0.0, max_iterations=50,
                       vtol=1e-6, damping=0.4, floor_gmin=1e-12,
                       first_failure=first,
                       recovery=False)  # gmin homotopy only
        message = str(excinfo.value)
        assert "gmin stepping stalled at gmin=0.0001" in message
        assert "gmin 0.01: converged in 3 iterations" in message
        assert excinfo.value.forensics.stats["dc_gmin_stages"] == 2

    def test_source_stepping_scales_the_workspace_sources(self):
        points = []  # (source scale, divider midpoint) of every step

        class NoGminSolver(FastNewtonSolver):
            """Fails every gmin stage; floor-gmin solves run for real."""

            def solve(self, x0, time, prev_voltages, gmin, *args):
                if gmin > 1e-12:
                    raise ConvergenceError("no gmin stage", iterations=1,
                                           residual=1.0, state=x0)
                x = super().solve(x0, time, prev_voltages, gmin, *args)
                points.append((self.workspace.source_scale, x[1]))
                return x

        first = ConvergenceError("no convergence", iterations=50,
                                 residual=0.5, state=np.zeros(3))
        solver = NoGminSolver(MNAWorkspace(self._divider()))
        x = dc_recover(solver, np.zeros(3), time=0.0, max_iterations=50,
                       vtol=1e-9, damping=0.4, floor_gmin=1e-12,
                       first_failure=first)
        # Each step solves the divider at that fraction of its 1 V
        # source, and the sources are back at full scale afterwards.
        assert [scale for scale, _ in points] == [0.25, 0.5, 0.75, 1.0]
        for scale, midpoint in points:
            assert midpoint == pytest.approx(0.5 * scale, abs=1e-9)
        assert solver.workspace.source_scale == 1.0
        assert solver.stats.dc_source_steps == 4
        assert solver.stats.rung_counts == {"dc-source-stepping": 4}
        assert x[1] == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# Campaign forensics dumping
# ---------------------------------------------------------------------------


def _exhausting_task(item, rng):
    """Campaign task that dies on a ladder exhaustion (module-level so
    the campaign machinery can treat it like any real task)."""
    return corpus_entry("ladder-exhaustion").run(engine="fast")


def test_campaign_dumps_forensics_bundles(tmp_path):
    from repro.faults.campaign import run_campaign

    forensics_dir = str(tmp_path / "forensics")
    report = run_campaign(_exhausting_task, ["only"], name="forensics-test",
                          workers=1, retries=0,
                          forensics_dir=forensics_dir)
    record = report.records[0]
    assert record.status == "failed"
    assert record.forensics is not None
    assert record.forensics == os.path.join(forensics_dir, "task-0.json")
    with open(record.forensics, encoding="utf-8") as handle:
        bundle = ForensicsBundle.from_json(json.load(handle))
    assert bundle.circuit_name == "instant-edge"
    assert bundle.rung_history
    assert any("forensics: 1 bundle(s) written" in note
               for note in report.notes)

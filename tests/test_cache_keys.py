"""Cache-key derivation: constructive fingerprints and invalidation.

The contract: the same circuit and analysis options always digest to the
same key (across separately built circuits — content addressing, not
identity); any change to a device parameter, an analysis option, or the
engine selection changes the key; and a fingerprint carries enough to
rebuild the *exact* circuit, which is what lets ``repro cache verify``
replay entries from their own request records.
"""

import pytest

from repro.errors import CacheError
from repro.cache.keys import (
    CACHE_SALT,
    circuit_fingerprint,
    dc_request,
    rebuild_circuit,
    request_key,
    transient_request,
)
from repro.spice.analysis.transient import ENGINES
from repro.spice.devices.passive import Resistor
from repro.spice.netlist import Circuit
from repro.spice.waveforms import PWL, Pulse


def _rc_circuit(resistance=1e3, with_mtj=False):
    circuit = Circuit("keys-under-test")
    circuit.add_vsource("vs", "in", "0",
                        Pulse(initial=0.0, pulsed=1.1, delay=10e-12,
                              rise=5e-12, fall=5e-12, width=80e-12,
                              period=200e-12))
    circuit.add_resistor("r1", "in", "out", resistance)
    circuit.add_capacitor("c1", "out", "0", 1e-15)
    circuit.add_isource("ib", "out", "0",
                        PWL(points=((0.0, 0.0), (1e-10, 1e-6))))
    circuit.add_nmos("mn", "out", "in", "0")
    if with_mtj:
        circuit.add_mtj("mtj1", "out", "0")
    return circuit


def _transient_key(circuit, **overrides):
    options = dict(stop_time=1e-10, dt=1e-12, integrator="be",
                   initial_voltages={"in": 0.0}, dc_seed=None,
                   max_iterations=60, vtol=1e-6, damping=1.0, engine="fast")
    options.update(overrides)
    return request_key(transient_request(circuit, **options))


def _dc_key(circuit):
    return request_key(dc_request(circuit, time=0.0, initial_guess=None,
                                  max_iterations=60, vtol=1e-6, damping=1.0))


class TestFingerprint:
    def test_identical_builds_digest_identically(self):
        assert (request_key(transient_request(
                    _rc_circuit(), stop_time=1e-10, dt=1e-12, integrator="be",
                    initial_voltages=None, dc_seed=None, max_iterations=60,
                    vtol=1e-6, damping=1.0, engine="fast"))
                == _transient_key(_rc_circuit(), initial_voltages=None))

    def test_salt_is_mixed_in(self):
        request = dc_request(_rc_circuit(), time=0.0, initial_guess=None,
                             max_iterations=150, vtol=1e-7, damping=0.4)
        assert request["salt"] == CACHE_SALT
        tampered = dict(request, salt=CACHE_SALT + "-next")
        assert request_key(tampered) != request_key(request)

    def test_initial_voltages_are_order_independent(self):
        a = _transient_key(_rc_circuit(),
                           initial_voltages={"in": 0.0, "out": 1.0})
        b = _transient_key(_rc_circuit(),
                           initial_voltages={"out": 1.0, "in": 0.0})
        assert a == b

    def test_unknown_device_is_uncacheable(self):
        class OddResistor(Resistor):
            pass

        circuit = Circuit("odd")
        circuit._register(OddResistor(positive=circuit.node("a"),
                                      negative=circuit.node("0"),
                                      resistance=1.0), "odd1")
        with pytest.raises(CacheError, match="no cache fingerprint"):
            circuit_fingerprint(circuit)


class TestInvalidation:
    def test_device_parameter_change_changes_key(self):
        assert (_transient_key(_rc_circuit(resistance=1e3))
                != _transient_key(_rc_circuit(resistance=2e3)))

    def test_mtj_initial_state_changes_key(self):
        from repro.mtj.device import MTJState

        flipped = _rc_circuit(with_mtj=True)
        flipped.device("mtj1").device.state = MTJState.ANTIPARALLEL
        flipped.device("mtj1")._initial_state = MTJState.ANTIPARALLEL
        assert (_transient_key(_rc_circuit(with_mtj=True))
                != _transient_key(flipped))

    @pytest.mark.parametrize("option, value", [
        ("stop_time", 2e-10),
        ("dt", 2e-12),
        ("vtol", 1e-9),
        ("damping", 0.5),
        ("max_iterations", 61),
        ("engine", "sparse"),
        ("initial_voltages", {"in": 0.5}),
        ("dc_seed", {"out": 0.1}),
    ])
    def test_analysis_option_change_changes_key(self, option, value):
        base = _transient_key(_rc_circuit())
        assert _transient_key(_rc_circuit(), **{option: value}) != base

    def test_transient_and_dc_requests_never_collide(self):
        circuit = _rc_circuit()
        assert (_transient_key(circuit)
                != request_key(dc_request(circuit, time=0.0,
                                          initial_guess=None,
                                          max_iterations=60, vtol=1e-6,
                                          damping=1.0)))


class TestSparseInvalidation:
    """The sparse-generation options must all be key-bearing: a cached
    fixed-step entry must never replay as adaptive (or vice versa), nor
    an entry cross between solver backends."""

    def test_every_engine_selection_digests_distinctly(self):
        keys = {engine: _transient_key(_rc_circuit(), engine=engine)
                for engine in ENGINES}
        assert len(set(keys.values())) == len(ENGINES)

    def test_adaptive_toggle_changes_key(self):
        fixed = _transient_key(_rc_circuit(), engine="sparse",
                               adaptive=False)
        adaptive = _transient_key(_rc_circuit(), engine="sparse",
                                  adaptive=True)
        assert fixed != adaptive

    def test_sparse_controller_constants_are_key_bearing(self):
        # The engine fingerprint embeds the controller constants, so a
        # constant change (an algorithm revision) retires old entries.
        request = transient_request(
            _rc_circuit(), stop_time=1e-10, dt=1e-12, integrator="be",
            initial_voltages=None, dc_seed=None, max_iterations=60,
            vtol=1e-6, damping=1.0, engine="sparse")
        sparse_cfg = request["solver_config"]["sparse"]
        assert sparse_cfg["source_breakpoints"] is True
        assert sparse_cfg["failed_step_halving"] is True
        # Reuse iterations take the residual from the device currents.
        assert request["solver_config"]["reuse_residual_from_currents"] \
            is True
        # LU factors carry from one converged timepoint to the next.
        assert request["solver_config"][
            "jacobian_carried_across_timepoints"] is True
        assert "permc_spec" in sparse_cfg
        tampered = dict(request, solver_config={
            **request["solver_config"],
            "sparse": {**sparse_cfg, "permc_spec": "COLAMD"}})
        assert request_key(tampered) != request_key(request)


#: Every constant of the solver-configuration record, with another value.
_SOLVER_CONSTANTS = [
    ("repro.spice.analysis.engine", "VECTORIZE_MOSFET_THRESHOLD", 5),
    ("repro.spice.analysis.engine", "VECTORIZE_MTJ_THRESHOLD", 6),
    ("repro.spice.analysis.engine", "JACOBIAN_MAX_AGE", 7),
    ("repro.spice.analysis.engine", "PREDICTOR_ORDER", 2),
    ("repro.spice.analysis.sparse", "LTE_TOL", 1e-5),
    ("repro.spice.analysis.sparse", "MAX_DT_FACTOR", 4),
    ("repro.spice.analysis.sparse", "MIN_DT_DIVISOR", 8),
    ("repro.spice.analysis.sparse", "GROW_THRESHOLD", 0.25),
    ("repro.spice.analysis.sparse", "MTJ_WINDOW_FRACTION", 0.25),
    ("repro.spice.analysis.sparse", "MTJ_PROGRESS_EPSILON", 1e-8),
    ("repro.spice.analysis.sparse", "PERMC_SPEC", "COLAMD"),
    ("repro.recovery.policy", "RUNGS", ("gmin", "damping")),
    ("repro.recovery.policy", "GMIN_LADDER", (1e-9, 1e-8)),
    ("repro.recovery.policy", "DAMPING_SCALE", 0.125),
    ("repro.recovery.policy", "ITERATION_SCALE", 3),
    ("repro.recovery.policy", "MAX_TIMESTEP_CUTS", 2),
    ("repro.recovery.policy", "CONDITION_INTERVAL", 1),
    ("repro.recovery.policy", "CONDITION_WARN", 1e12),
    ("repro.recovery.policy", "DC_GMIN_START", 1e-3),
    ("repro.recovery.policy", "DC_GMIN_REDUCTION", 100.0),
    ("repro.recovery.policy", "DC_SOURCE_STEPS", (0.5, 1.0)),
    ("repro.recovery.policy", "SHRINK_BUDGET", 16),
    ("repro.spice.analysis.dc", "FLOOR_GMIN", 1e-11),
]


class TestSolverConfig:
    """Transient and DC requests carry one solver-configuration record:
    a change to any engine, sparse or ladder constant, or to the floor
    gmin every transient step and the final DC solve add, retires both
    kinds of entry."""

    @pytest.mark.parametrize(
        "module, name, value",
        [pytest.param(*c, id=c[1]) for c in _SOLVER_CONSTANTS])
    def test_constant_change_changes_both_keys(self, monkeypatch, module,
                                               name, value):
        before = _transient_key(_rc_circuit()), _dc_key(_rc_circuit())
        monkeypatch.setattr(f"{module}.{name}", value)
        after = _transient_key(_rc_circuit()), _dc_key(_rc_circuit())
        assert after[0] != before[0]
        assert after[1] != before[1]

    def test_operating_point_marker_changes_the_transient_key(
            self, monkeypatch):
        # A DC-started sparse run solves its t = 0 point on its own
        # solver; the revision marker retires entries from before.
        from repro.spice.analysis import sparse

        fingerprint = sparse.sparse_config_fingerprint
        assert fingerprint()["own_operating_point"] is True
        before = _transient_key(_rc_circuit(), initial_voltages=None,
                                engine="sparse")
        monkeypatch.setattr(sparse, "sparse_config_fingerprint",
                            lambda: {**fingerprint(),
                                     "own_operating_point": False})
        assert _transient_key(_rc_circuit(), initial_voltages=None,
                              engine="sparse") != before

    def test_predictor_marker_changes_the_transient_key(self, monkeypatch):
        # A fixed step's Newton solve starts from a cubic prediction; the
        # revision marker retires entries solved from the last point.
        from repro.spice.analysis import engine

        fingerprint = engine.engine_config_fingerprint
        assert fingerprint()["fixed_step_predictor_order"] == 3
        before = _transient_key(_rc_circuit())
        monkeypatch.setattr(engine, "engine_config_fingerprint",
                            lambda: _without_predictor(fingerprint()))
        assert _transient_key(_rc_circuit()) != before

    def test_dc_marker_changes_the_dc_and_dc_seeded_keys(self,
                                                          monkeypatch):
        # A DC point solves on the engine's workspace and Newton loop;
        # without the revision marker the solver configuration is the
        # one of the revision before, whose DC points re-stamped every
        # device.  Its DC entries and its DC-started transients retire.
        from repro.spice.analysis import engine

        fingerprint = engine.engine_config_fingerprint
        assert fingerprint()["dc_on_engine_workspace"] is True

        def keys():
            return (_dc_key(_rc_circuit()),
                    _transient_key(_rc_circuit(), initial_voltages=None,
                                   dc_seed={"out": 0.1}))

        now = keys()
        monkeypatch.setattr(
            engine, "engine_config_fingerprint",
            lambda: {key: value for key, value in fingerprint().items()
                     if key != "dc_on_engine_workspace"})
        before = keys()
        assert now[0] != before[0]
        assert now[1] != before[1]

    def test_an_entry_from_before_the_predictor_misses(self, monkeypatch,
                                                       tmp_path):
        """A transient stored by the previous revision (cache format 4,
        no predictor marker) is not served: the run recomputes."""
        from repro import __version__
        from repro.cache import keys, store
        from repro.obs import metrics
        from repro.spice.analysis import engine
        from repro.spice.analysis.transient import run_transient

        def counts():
            counters = metrics().snapshot()["counters"]
            return {name: counters.get(name, 0)
                    for name in ("cache.hit", "cache.miss", "cache.store")}

        def run():
            run_transient(_rc_circuit(), 2e-11, 1e-12,
                          initial_voltages={"in": 0.0}, lint="off")

        fingerprint = engine.engine_config_fingerprint
        assert keys.CACHE_FORMAT == 5
        store.enable(str(tmp_path / "cache"))
        try:
            with monkeypatch.context() as previous:
                previous.setattr(keys, "CACHE_SALT",
                                 f"repro/{__version__}/cache-v4")
                previous.setattr(engine, "engine_config_fingerprint",
                                 lambda: _without_predictor(fingerprint()))
                before = counts()
                run()
                assert counts()["cache.store"] == before["cache.store"] + 1
            before = counts()
            run()
            after = counts()
        finally:
            store.disable()
        assert after["cache.hit"] == before["cache.hit"]
        assert after["cache.miss"] == before["cache.miss"] + 1


def _without_predictor(config):
    """A solver configuration as the revision before the predicted Newton
    start recorded it."""
    return {key: value for key, value in config.items()
            if key != "fixed_step_predictor_order"}


class TestBackendIdentity:
    """Two NV backends must never share cache entries: the builders
    stamp the backend fingerprint onto the circuit and the request key
    digests it."""

    def _latch_circuit(self, backend):
        from repro.cells.nvlatch_1bit import build_standard_latch
        from repro.nv.base import get_backend

        nv = get_backend(backend)
        schedule = nv.restore_schedule("standard", bit=1, vdd=1.1, cycles=1)
        return build_standard_latch(schedule, stored_bit=1, vdd=1.1,
                                    backend=nv).circuit

    def test_mtj_and_nandspin_keys_differ(self):
        assert (_transient_key(self._latch_circuit("mtj"))
                != _transient_key(self._latch_circuit("nandspin")))

    def test_backend_fingerprint_enters_the_circuit_fingerprint(self):
        from repro.nv.base import get_backend

        for name in ("mtj", "nandspin"):
            fingerprint = circuit_fingerprint(self._latch_circuit(name))
            assert fingerprint["nv_backend"] == \
                get_backend(name).fingerprint()

    def test_nandspin_fingerprint_rebuild_is_a_fixed_point(self):
        original = self._latch_circuit("nandspin")
        fingerprint = circuit_fingerprint(original)
        rebuilt = rebuild_circuit(fingerprint)
        assert circuit_fingerprint(rebuilt) == fingerprint


class TestRebuild:
    def test_round_trip_fingerprint_is_a_fixed_point(self):
        original = _rc_circuit(with_mtj=True)
        fingerprint = circuit_fingerprint(original)
        rebuilt = rebuild_circuit(fingerprint)
        assert circuit_fingerprint(rebuilt) == fingerprint

    def test_rebuilt_circuit_solves_identically(self):
        import numpy as np

        from repro.spice.analysis.transient import run_transient

        original = _rc_circuit()
        rebuilt = rebuild_circuit(circuit_fingerprint(original))
        res_a = run_transient(original, stop_time=5e-11, dt=1e-12, lint="off")
        res_b = run_transient(rebuilt, stop_time=5e-11, dt=1e-12, lint="off")
        assert np.asarray(res_a.node_voltages).tobytes() == \
            np.asarray(res_b.node_voltages).tobytes()
        assert np.asarray(res_a.branch_currents).tobytes() == \
            np.asarray(res_b.branch_currents).tobytes()

    def test_malformed_fingerprint_raises_cache_error(self):
        with pytest.raises(CacheError, match="malformed circuit fingerprint"):
            rebuild_circuit({"name": "x", "nodes": ["0"]})
        with pytest.raises(CacheError, match="unknown device kind"):
            rebuild_circuit({"name": "x", "nodes": ["0", "a"],
                             "devices": [{"type": "memristor", "name": "m1",
                                          "nodes": [0, 1]}]})

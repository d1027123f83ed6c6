"""End-to-end result caching through the analysis entry points.

The headline contract: with a cache active, running the *same* analysis
twice returns bit-identical arrays the second time without entering the
Newton loop (observed through the unconditional ``cache.*`` registry
counters); any change to the circuit or the options misses; a corrupted
entry silently recomputes; and MTJ end state — which characterisation
flows read off the circuit, not the waveforms — survives the round trip.
"""

import numpy as np
import pytest

from repro.cache import store as cache_store
from repro.obs import metrics
from repro.spice.analysis.dc import solve_dc
from repro.spice.analysis.transient import run_transient
from repro.spice.netlist import Circuit


def _rc_circuit(resistance=1e3):
    circuit = Circuit("cache-integration")
    circuit.add_vsource("vs", "in", "0", 1.0)
    circuit.add_resistor("r1", "in", "out", resistance)
    circuit.add_capacitor("c1", "out", "0", 1e-12)
    return circuit


def _counters():
    snapshot = metrics().snapshot()["counters"]
    return {name: snapshot.get(name, 0.0)
            for name in ("cache.hit", "cache.miss", "cache.store",
                         "cache.uncacheable")}


def _delta(before, after):
    return {name: after[name] - before[name] for name in before
            if after[name] != before[name]}


@pytest.fixture
def active_cache(tmp_path):
    cache = cache_store.enable(str(tmp_path / "cache"))
    yield cache
    cache_store.disable()


def _run(circuit=None, **overrides):
    # No ``initial_voltages`` → the transient solves its t = 0 DC point
    # on its own solver; the point is part of its one cache entry.
    options = dict(stop_time=5e-11, dt=1e-12, lint="off")
    options.update(overrides)
    return run_transient(circuit if circuit is not None else _rc_circuit(),
                         **options)


def _store_transient_and_dc():
    """One transient entry and one DC entry of the RC circuit."""
    _run()
    solve_dc(_rc_circuit(), lint="off")


class TestColdWarmTransient:
    def test_warm_run_is_bit_identical_and_skips_the_solver(self, active_cache):
        before = _counters()
        cold = _run()
        mid = _counters()
        warm = _run()
        after = _counters()

        # Cold: one transient miss+store, its t = 0 point included.
        assert _delta(before, mid) == {"cache.miss": 1, "cache.store": 1}
        # Warm: the transient hit short-circuits the whole run.
        assert _delta(mid, after) == {"cache.hit": 1}

        for attr in ("times", "node_voltages", "branch_currents"):
            assert (np.asarray(getattr(warm, attr)).tobytes()
                    == np.asarray(getattr(cold, attr)).tobytes()), attr
        # Replayed stats describe the original solve exactly.
        assert warm.stats.iterations == cold.stats.iterations
        assert warm.stats.timesteps == cold.stats.timesteps

    def test_results_survive_across_processes_via_disk(self, active_cache,
                                                       tmp_path):
        cold = _run()
        # A "new process": fresh module globals, same directory.
        cache_store.disable()
        cache_store.enable(str(tmp_path / "cache"))
        before = _counters()
        warm = _run()
        assert _delta(before, _counters()) == {"cache.hit": 1}
        assert (np.asarray(warm.node_voltages).tobytes()
                == np.asarray(cold.node_voltages).tobytes())

    def test_no_cache_activity_when_disabled(self):
        before = _counters()
        _run()
        assert _delta(before, _counters()) == {}


class TestInvalidation:
    def test_device_parameter_change_misses(self, active_cache):
        _run(_rc_circuit(resistance=1e3))
        before = _counters()
        _run(_rc_circuit(resistance=2e3))
        assert _delta(before, _counters())["cache.miss"] == 1

    def test_engine_option_change_misses(self, active_cache):
        _run(engine="fast")
        before = _counters()
        _run(engine="sparse")
        delta = _delta(before, _counters())
        # The transient (engine in its key) misses and re-stores; a run
        # solves its t = 0 point on its own solver, so it looks up no DC
        # entry.
        assert delta["cache.miss"] == 1
        assert delta["cache.store"] == 1
        assert "cache.hit" not in delta

    def test_timestep_change_misses(self, active_cache):
        _run(dt=1e-12)
        before = _counters()
        _run(dt=2e-12)
        delta = _delta(before, _counters())
        assert delta["cache.miss"] == 1, "the transient must miss on dt"
        assert "cache.hit" not in delta  # the t = 0 point is the run's

    def test_adaptive_toggle_misses(self, active_cache):
        # A fixed-step sparse entry must never replay as an adaptive
        # result: the controller configuration is part of the key.
        _run(engine="sparse")
        before = _counters()
        _run(engine="sparse", adaptive=True)
        delta = _delta(before, _counters())
        assert delta["cache.miss"] == 1
        assert "cache.hit" not in delta  # a run looks up no DC entry


class TestSparseWarmHits:
    def test_sparse_fixed_warm_hit_is_bit_identical(self, active_cache):
        cold = _run(engine="sparse")
        before = _counters()
        warm = _run(engine="sparse")
        delta = _delta(before, _counters())
        # One hit: the transient returns from cache (a sparse run's t = 0
        # point is part of its entry, not a DC entry of its own).
        assert delta["cache.hit"] == 1 and "cache.miss" not in delta
        assert np.array_equal(cold.node_voltages, warm.node_voltages)
        assert np.array_equal(cold.branch_currents, warm.branch_currents)
        assert warm.dt_trace is None

    def test_sparse_adaptive_warm_hit_round_trips_dt_trace(self,
                                                           active_cache):
        cold = _run(engine="sparse", adaptive=True)
        before = _counters()
        warm = _run(engine="sparse", adaptive=True)
        delta = _delta(before, _counters())
        assert delta["cache.hit"] == 1 and "cache.miss" not in delta
        assert np.array_equal(cold.node_voltages, warm.node_voltages)
        assert cold.dt_trace is not None
        assert warm.dt_trace is not None
        assert np.array_equal(cold.dt_trace, warm.dt_trace)


class TestCorruptionTolerance:
    def test_corrupted_entry_recomputes_and_heals(self, active_cache):
        cold = _run()
        for path in active_cache._entry_paths():
            with open(path, "w") as handle:
                handle.write('{"torn":')
        before = _counters()
        recomputed = _run()
        delta = _delta(before, _counters())
        assert delta["cache.miss"] == 1, "corrupt entries must read as misses"
        assert delta["cache.store"] == 1, "the store must heal itself"
        assert (np.asarray(recomputed.node_voltages).tobytes()
                == np.asarray(cold.node_voltages).tobytes())
        before = _counters()
        _run()
        assert _delta(before, _counters()) == {"cache.hit": 1}

    def test_truncated_entry_never_crashes(self, active_cache):
        _run()
        for path in active_cache._entry_paths():
            with open(path, "r+b") as handle:
                handle.truncate(64)
        _run()  # must not raise


class TestDCCaching:
    def test_dc_cold_warm_bit_identical(self, active_cache):
        cold = solve_dc(_rc_circuit(), lint="off")
        before = _counters()
        warm = solve_dc(_rc_circuit(), lint="off")
        assert _delta(before, _counters()) == {"cache.hit": 1}
        assert (np.asarray(warm.voltages).tobytes()
                == np.asarray(cold.voltages).tobytes())
        assert (np.asarray(warm.branch_currents).tobytes()
                == np.asarray(cold.branch_currents).tobytes())
        assert warm.iterations == cold.iterations
        assert warm.gmin == cold.gmin


class TestMTJStateHydration:
    def _restore_run(self):
        from repro.cells.control import standard_restore_schedule
        from repro.cells.nvlatch_1bit import build_standard_latch

        schedule = standard_restore_schedule(bit=1, vdd=1.1, cycles=1)
        latch = build_standard_latch(schedule, stored_bit=1, vdd=1.1)
        result = run_transient(latch.circuit, schedule.stop_time, 4e-12,
                               initial_voltages={"vdd": 1.1})
        return latch, result

    def _mtj_state(self, circuit):
        from repro.spice.devices.mtj_element import MTJElement

        state = {}
        for device in circuit.devices:
            if isinstance(device, MTJElement):
                state[device.name] = (
                    device.device.state,
                    device.switching.progress
                    if device.switching is not None else None,
                    tuple(device.switching.events)
                    if device.switching is not None else None,
                )
        return state

    def test_warm_hit_restores_mtj_end_state(self, active_cache):
        latch_cold, cold = self._restore_run()
        before = _counters()
        latch_warm, warm = self._restore_run()
        assert _delta(before, _counters()) == {"cache.hit": 1}
        assert (self._mtj_state(latch_warm.circuit)
                == self._mtj_state(latch_cold.circuit))
        assert (np.asarray(warm.node_voltages).tobytes()
                == np.asarray(cold.node_voltages).tobytes())


class TestBackendStateHydration:
    """Warm-cache replay must rehydrate the *backend's* device state
    bit-exactly — for NAND-SPIN that includes the SOT model's progress
    and event stream, not just the STT pair."""

    def _store_run(self):
        from repro.cells.nvlatch_1bit import build_standard_latch
        from repro.nv.base import capture_storage_state, get_backend

        nv = get_backend("nandspin")
        schedule = nv.store_schedule("standard", bit=1, erase_width=1.0e-9,
                                     write_width=1.5e-9)
        latch = build_standard_latch(schedule, stored_bit=0, vdd=1.1,
                                     backend=nv)
        result = run_transient(latch.circuit, schedule.stop_time, 4e-12,
                               initial_voltages={"vdd": 1.1})
        return capture_storage_state(latch.circuit), result

    def test_warm_hit_restores_nandspin_state_bit_exactly(self,
                                                          active_cache):
        cold_state, cold = self._store_run()
        before = _counters()
        warm_state, warm = self._store_run()
        assert _delta(before, _counters()) == {"cache.hit": 1}
        assert warm_state == cold_state
        # The captured records carry the SOT sub-record with real events
        # (the bulk erase flipped a junction) — hydration is exercised,
        # not vacuous.
        assert any(record.get("sot", {}).get("events")
                   for record in cold_state)
        assert (np.asarray(warm.node_voltages).tobytes()
                == np.asarray(cold.node_voltages).tobytes())


class TestVerifyEntry:
    def test_stored_entries_replay_bit_exactly(self, active_cache):
        from repro.cache.analysis import verify_entry

        _store_transient_and_dc()
        verdicts = [verify_entry(entry) for entry in active_cache.entries()]
        assert {v["kind"] for v in verdicts} == {"transient", "dc"}
        assert all(v["ok"] for v in verdicts), verdicts

    def test_tampered_entry_fails_verification(self, active_cache):
        from repro.cache.analysis import verify_entry
        from repro.cache.store import _decode_array, _encode_array

        _run()
        for entry in active_cache.entries():
            if entry.kind != "transient":
                continue
            voltages = _decode_array(entry.result["node_voltages"])
            voltages[0, 0] += 1e-9
            entry.result["node_voltages"] = _encode_array(voltages)
            verdict = verify_entry(entry)
            assert not verdict["ok"]
            assert "node_voltages" in verdict["detail"]

    def test_entries_of_a_removed_engine_or_policy_field_fail_cleanly(
            self, active_cache, capsys):
        # Entries written before the naive engine and the recovery
        # policy went carry engine="naive" or a recovery-policy record.
        # This version rejects both, so verify reports such an entry as
        # not ok and `repro cache verify` exits 1, as on a mismatch.
        from repro.cache.analysis import verify_entry
        from repro.cli import main

        _store_transient_and_dc()
        for entry in active_cache.entries():
            if entry.kind == "transient":
                entry.request["engine"] = "naive"
                expected = "unknown engine 'naive'"
            else:
                entry.request["recovery"] = {
                    "enabled": True, "engine_order": ["sparse", "fast"]}
                expected = "recovery-policy record"
            verdict = verify_entry(entry)
            assert not verdict["ok"]
            assert expected in verdict["detail"]
            active_cache.store(entry)
        assert main(["cache", "verify", "--dir", active_cache.root]) == 1
        assert capsys.readouterr().out.count("cannot replay") == 2

    def test_entries_whose_circuit_cannot_be_rebuilt_fail_cleanly(
            self, active_cache, capsys):
        # A circuit record this version cannot rebuild (a device kind it
        # lacks, or a device missing a field) is not ok either: verify
        # names the rebuild error, and `repro cache verify` exits 1.
        from repro.cache.analysis import verify_entry
        from repro.cli import main

        _store_transient_and_dc()
        for entry in active_cache.entries():
            devices = entry.request["circuit"]["devices"]
            if entry.kind == "transient":
                devices[0]["type"] = "memristor"
                expected = "unknown device kind 'memristor'"
            else:
                resistor = next(d for d in devices if d["type"] == "resistor")
                del resistor["resistance"]
                expected = "malformed circuit fingerprint"
            verdict = verify_entry(entry)
            assert not verdict["ok"]
            assert verdict["detail"].startswith("cannot replay: ")
            assert expected in verdict["detail"]
            active_cache.store(entry)
        assert main(["cache", "verify", "--dir", active_cache.root]) == 1
        assert capsys.readouterr().out.count("cannot replay") == 2

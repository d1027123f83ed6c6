"""Lookup/store glue between the solver entry points and the cache.

:func:`repro.spice.analysis.transient.run_transient` and
:func:`repro.spice.analysis.dc.solve_dc` call :func:`transient_handle` /
:func:`dc_handle` once caching is active.  A handle owns the derived key
and the full request record; ``lookup()`` returns a fully hydrated
result on a hit (``None`` otherwise) and ``store()`` persists a freshly
computed one.  Every failure mode inside this module — uncacheable
device, corrupt entry, full disk — degrades to "run/ran normally";
caching must never turn a working analysis into an error.

Hydration restores more than the waveforms: characterisation and fault
flows read MTJ *end state* off the circuit after a transient
(``stored_bit()``, ``switching.events``), so a transient entry carries
each MTJ's final magnetisation, switching progress and event list, and a
hit writes them back into the caller's circuit exactly as the solver
would have left them.  (Capacitor Newton-history scratch state is *not*
restored — no flow reads it, and it only seeds the next run's first
iterate, which ``reset_state()`` clears anyway.)

Counters: ``cache.hit`` / ``cache.miss`` / ``cache.store`` /
``cache.uncacheable`` are incremented unconditionally (the registry is
always live; one integer add per analysis), so the ≥90 % solver-skip
acceptance gate can be asserted without a tracing session.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError, CacheError
from repro.obs import span as _obs_span
from repro.cache.keys import (
    dc_request,
    rebuild_circuit,
    request_key,
    transient_request,
)
from repro.cache.store import (
    CacheEntry,
    ResultCache,
    _decode_array,
    _encode_array,
    bypassed,
    get_active_cache,
)


def _metrics():
    from repro.obs import metrics

    return metrics()


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------


class _Handle:
    """One analysis request against the active cache."""

    kind = ""

    def __init__(self, cache: ResultCache, key: str,
                 request: Dict[str, Any], circuit) -> None:
        self.cache = cache
        self.key = key
        self.request = request
        self.circuit = circuit

    def _lookup_entry(self) -> Optional[CacheEntry]:
        entry = self.cache.load(self.key)
        if entry is not None and entry.kind != self.kind:
            entry = None
        return entry

    def _store_entry(self, result_payload: Dict[str, Any]) -> None:
        try:
            self.cache.store(CacheEntry(key=self.key, kind=self.kind,
                                        request=self.request,
                                        result=result_payload))
        except Exception:  # noqa: BLE001 — a failed store must not fail the run
            return
        _metrics().inc("cache.store", 1)


class TransientHandle(_Handle):
    kind = "transient"

    def lookup(self):
        """Hydrated :class:`TransientResult` on a hit, else ``None``."""
        from repro.nv.base import hydrate_storage_state
        from repro.spice.analysis.engine import SolverStats
        from repro.spice.analysis.transient import TransientResult

        with _obs_span("cache.lookup", category="cache",
                       attrs={"kind": self.kind,
                              "key": self.key[:12]}) as sp:
            entry = self._lookup_entry()
            if entry is None:
                _metrics().inc("cache.miss", 1)
                sp.annotate(outcome="miss")
                return None
            try:
                payload = entry.result
                times = _decode_array(payload["times"])
                voltages = _decode_array(payload["node_voltages"])
                currents = _decode_array(payload["branch_currents"])
                stats = SolverStats.from_json(payload["stats"])
                raw_trace = payload.get("dt_trace")
                dt_trace = (_decode_array(raw_trace)
                            if raw_trace is not None else None)
                self.circuit.finalize()
                hydrate_storage_state(self.circuit, payload["mtj_state"])
            except Exception:  # noqa: BLE001 — broken entry reads as a miss
                _metrics().inc("cache.miss", 1)
                sp.annotate(outcome="miss")
                return None
            _metrics().inc("cache.hit", 1)
            sp.annotate(outcome="hit")
            return TransientResult(self.circuit, times, voltages, currents,
                                   stats=stats, dt_trace=dt_trace)

    def store(self, result) -> None:
        """Persist a freshly computed transient (with MTJ end state)."""
        from repro.nv.base import capture_storage_state

        self._store_entry({
            "times": _encode_array(result.times),
            "node_voltages": _encode_array(result.node_voltages),
            "branch_currents": _encode_array(result.branch_currents),
            "stats": result.stats.to_json(),
            "mtj_state": capture_storage_state(self.circuit),
            "dt_trace": (_encode_array(result.dt_trace)
                         if result.dt_trace is not None else None),
        })


class DCHandle(_Handle):
    kind = "dc"

    def lookup(self):
        """Hydrated :class:`DCResult` on a hit, else ``None``."""
        from repro.spice.analysis.dc import DCResult

        with _obs_span("cache.lookup", category="cache",
                       attrs={"kind": self.kind,
                              "key": self.key[:12]}) as sp:
            entry = self._lookup_entry()
            if entry is None:
                _metrics().inc("cache.miss", 1)
                sp.annotate(outcome="miss")
                return None
            try:
                payload = entry.result
                voltages = _decode_array(payload["voltages"])
                currents = _decode_array(payload["branch_currents"])
                iterations = int(payload["iterations"])
                gmin = float(payload["gmin"])
                self.circuit.finalize()
            except Exception:  # noqa: BLE001 — broken entry reads as a miss
                _metrics().inc("cache.miss", 1)
                sp.annotate(outcome="miss")
                return None
            _metrics().inc("cache.hit", 1)
            sp.annotate(outcome="hit")
            return DCResult(self.circuit, voltages, currents, iterations,
                            gmin)

    def store(self, result) -> None:
        self._store_entry({
            "voltages": _encode_array(result.voltages),
            "branch_currents": _encode_array(result.branch_currents),
            "iterations": result.iterations,
            "gmin": result.gmin,
        })


def transient_handle(circuit, *, stop_time, dt, integrator, initial_voltages,
                     dc_seed, max_iterations, vtol, damping, engine,
                     adaptive=False, recovery=True
                     ) -> Optional[TransientHandle]:
    """A handle for this transient request, or ``None`` when caching is
    off / bypassed / the circuit is uncacheable."""
    cache = get_active_cache()
    if cache is None:
        return None
    try:
        request = transient_request(
            circuit, stop_time=stop_time, dt=dt, integrator=integrator,
            initial_voltages=initial_voltages, dc_seed=dc_seed,
            max_iterations=max_iterations, vtol=vtol, damping=damping,
            engine=engine, adaptive=adaptive, recovery=recovery)
        key = request_key(request)
    except CacheError:
        _metrics().inc("cache.uncacheable", 1)
        return None
    return TransientHandle(cache, key, request, circuit)


def dc_handle(circuit, *, time, initial_guess, max_iterations, vtol,
              damping, recovery=True) -> Optional[DCHandle]:
    """A handle for this DC request, or ``None`` when uncacheable."""
    cache = get_active_cache()
    if cache is None:
        return None
    try:
        request = dc_request(circuit, time=time, initial_guess=initial_guess,
                             max_iterations=max_iterations, vtol=vtol,
                             damping=damping, recovery=recovery)
        key = request_key(request)
    except CacheError:
        _metrics().inc("cache.uncacheable", 1)
        return None
    return DCHandle(cache, key, request, circuit)


# ---------------------------------------------------------------------------
# Verification (``repro cache verify``)
# ---------------------------------------------------------------------------


def verify_entry(entry: CacheEntry) -> Dict[str, Any]:
    """Re-run a stored entry from its own request record and compare the
    recompute against the stored arrays **bit-exactly**.

    Returns ``{"key", "kind", "ok", "detail"}``.  The recompute runs
    under :func:`bypassed` so it can neither hit the entry being checked
    nor overwrite it.  An entry whose request this version rejects (an
    engine that no longer exists, a recovery-policy record where this
    version takes an on/off switch, or a circuit record it cannot
    rebuild) is not ok, with the rejection as its detail.
    """
    def verdict(ok: bool, detail: str) -> Dict[str, Any]:
        return {"key": entry.key, "kind": entry.kind, "ok": ok,
                "detail": detail}

    try:
        checks = _replay(entry)
    except (AnalysisError, CacheError) as exc:
        return verdict(False, f"cannot replay: {exc}")
    for label, recomputed, stored_blob in checks:
        recomputed_bytes = np.ascontiguousarray(
            np.asarray(recomputed, dtype=np.float64)).tobytes()
        stored_bytes = np.ascontiguousarray(
            _decode_array(stored_blob)).tobytes()
        if recomputed_bytes != stored_bytes:
            return verdict(False, f"{label} differs from stored bits")
    return verdict(True, "recompute is bit-identical")


def _replay(entry: CacheEntry) -> List[Tuple[str, Any, Dict[str, Any]]]:
    """Recompute an entry from its request record; returns ``(label,
    recomputed array, stored blob)`` triples to compare."""
    from repro.spice.analysis.dc import solve_dc
    from repro.spice.analysis.transient import run_transient

    request = entry.request
    recovery = request.get("recovery")
    if not isinstance(recovery, bool):
        raise AnalysisError(
            "request holds a recovery-policy record; this version has one "
            "recovery ladder, switched on or off")
    circuit = rebuild_circuit(request["circuit"])

    with bypassed():
        if entry.kind == "transient":
            result = run_transient(
                circuit, stop_time=request["stop_time"], dt=request["dt"],
                integrator=request["integrator"],
                initial_voltages=(dict(request["initial_voltages"])
                                  if request["initial_voltages"] is not None
                                  else None),
                dc_seed=(dict(request["dc_seed"])
                         if request["dc_seed"] is not None else None),
                max_iterations=request["max_iterations"],
                vtol=request["vtol"], damping=request["damping"],
                engine=request["engine"], lint="off",
                adaptive=request["adaptive"], recovery=recovery)
            return [
                ("times", result.times, entry.result["times"]),
                ("node_voltages", result.node_voltages,
                 entry.result["node_voltages"]),
                ("branch_currents", result.branch_currents,
                 entry.result["branch_currents"]),
            ]
        if entry.kind == "dc":
            dc = solve_dc(
                circuit, time=request["time"],
                initial_guess=(dict(request["initial_guess"])
                               if request["initial_guess"] is not None
                               else None),
                max_iterations=request["max_iterations"],
                vtol=request["vtol"], damping=request["damping"], lint="off",
                recovery=recovery)
            return [
                ("voltages", dc.voltages, entry.result["voltages"]),
                ("branch_currents", dc.branch_currents,
                 entry.result["branch_currents"]),
            ]
    raise CacheError(f"cannot verify entry of kind {entry.kind!r}")

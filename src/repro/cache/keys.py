"""Content-addressed cache keys for circuit analyses.

A cache key is the SHA-256 digest of a **canonical serialization** of
everything the analysis result depends on:

* the circuit fingerprint — node names plus, per device and in netlist
  order, the device type, terminal indices and every constructor
  parameter (waveform breakpoints, MOSFET model card, MTJ parameter set,
  the MTJ's *initial* magnetisation state and switching-model charge);
* the analysis options (stop time, timestep, integrator, tolerances,
  initial conditions / DC seed, the adaptive and recovery switches);
* the solver configuration (:func:`solver_config`: the fast- and
  sparse-engine constants, the recovery ladder's constants and the
  floor gmin) and, for a transient, the selected engine;
* a code-version salt (:data:`CACHE_SALT`), so upgrading the package
  invalidates every prior entry at once.

Fingerprints are *constructive*: they carry enough to rebuild the exact
circuit (see :func:`rebuild_circuit`), which is what lets ``repro cache
verify`` re-run any stored entry from its own request record and assert
bit-exact agreement.

Anything the fingerprint cannot describe — an unknown device or
waveform class — raises :class:`~repro.errors.CacheError`; callers treat
that as "uncacheable, run normally" rather than guessing at a key.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import repro
from repro.errors import CacheError
from repro.mtj.device import MTJDevice, MTJState
from repro.mtj.dynamics import SwitchingModel
from repro.mtj.parameters import MTJParameters
from repro.mtj.sot import SOTSwitchingModel
from repro.serialize import stable_digest
from repro.spice.devices.mosfet import MOSFET, MOSFETModel
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.devices.sot_element import NandSpinJunction
from repro.spice.devices.passive import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.netlist import Circuit
from repro.spice.waveforms import DC, PWL, Pulse, Waveform

#: Cache format generation; bump to orphan every existing entry.  Format
#: 2 stores one solver record per transient (format 1 kept the recovery
#: counters apart, so a replay of its ``stats`` alone would read as clean)
#: and counts a recovered DC solve's failed plain-Newton iterations.
#: Format 3 records recovery as an on/off switch (no per-call policy) and
#: keys DC requests on the solver configuration too.  Format 4's solver
#: record holds no sparse-pattern registry counts.  Format 5's counts the
#: fixed-step solves that fell back from their predicted Newton start.
CACHE_FORMAT = 5

#: Code-version salt mixed into every key: entries written by a
#: different package version or cache format never collide with ours.
CACHE_SALT = f"repro/{repro.__version__}/cache-v{CACHE_FORMAT}"

_MOSFET_MODEL_FIELDS = (  # devlint: fingerprint-fields MOSFETModel
    "polarity", "vth0", "slope_factor", "kp", "lambda_clm",
    "cox_per_area", "overlap_cap_per_width", "junction_cap_per_width",
    "temperature",
)

_MTJ_PARAM_FIELDS = (  # devlint: fingerprint-fields MTJParameters
    "radius", "free_layer_thickness", "oxide_thickness",
    "resistance_area_product", "tmr_zero_bias", "critical_current",
    "switching_current", "resistance_p", "tmr_half_bias_voltage",
    "thermal_stability", "attempt_time", "write_pulse_width",
)


# devlint: fingerprint-branches
def _waveform_fingerprint(waveform: Waveform) -> Dict[str, Any]:
    if type(waveform) is DC:
        return {"kind": "dc", "level": waveform.level}
    if type(waveform) is Pulse:
        return {"kind": "pulse", "initial": waveform.initial,
                "pulsed": waveform.pulsed, "delay": waveform.delay,
                "rise": waveform.rise, "fall": waveform.fall,
                "width": waveform.width, "period": waveform.period}
    if type(waveform) is PWL:
        return {"kind": "pwl",
                "points": [[t, v] for t, v in waveform.points]}
    raise CacheError(
        f"waveform type {type(waveform).__name__} has no cache fingerprint")


def _rebuild_waveform(data: Dict[str, Any]) -> Waveform:
    kind = data["kind"]
    if kind == "dc":
        return DC(level=float(data["level"]))
    if kind == "pulse":
        return Pulse(initial=float(data["initial"]),
                     pulsed=float(data["pulsed"]), delay=float(data["delay"]),
                     rise=float(data["rise"]), fall=float(data["fall"]),
                     width=float(data["width"]), period=float(data["period"]))
    if kind == "pwl":
        return PWL(points=tuple((float(t), float(v))
                                for t, v in data["points"]))
    raise CacheError(f"unknown waveform kind {kind!r} in cache request")


# devlint: fingerprint-branches
def _device_fingerprint(device: Any) -> Dict[str, Any]:
    if type(device) is Resistor:
        return {"type": "resistor", "name": device.name,
                "nodes": [device.positive, device.negative],
                "resistance": device.resistance}
    if type(device) is Capacitor:
        return {"type": "capacitor", "name": device.name,
                "nodes": [device.positive, device.negative],
                "capacitance": device.capacitance}
    if type(device) is VoltageSource:
        return {"type": "vsource", "name": device.name,
                "nodes": [device.positive, device.negative],
                "waveform": _waveform_fingerprint(device.waveform)}
    if type(device) is CurrentSource:
        return {"type": "isource", "name": device.name,
                "nodes": [device.positive, device.negative],
                "waveform": _waveform_fingerprint(device.waveform)}
    if type(device) is MOSFET:
        return {"type": "mosfet", "name": device.name,
                "nodes": [device.drain, device.gate, device.source,
                          device.bulk],
                "width": device.width, "length": device.length,
                "model": {f: getattr(device.model, f)
                          for f in _MOSFET_MODEL_FIELDS}}
    if type(device) is MTJElement:
        fp: Dict[str, Any] = {
            "type": "mtj", "name": device.name,
            "nodes": [device.free, device.ref],
            # The run begins with reset_state(), so only the *initial*
            # magnetisation matters — not whatever the live state is.
            "initial_state": device._initial_state.value,
            "params": {f: getattr(device.device.params, f)
                       for f in _MTJ_PARAM_FIELDS},
        }
        if device.switching is None:
            fp["switching"] = None
        else:
            fp["switching"] = {
                "dynamic_charge": device.switching.dynamic_charge}
        return fp
    if type(device) is NandSpinJunction:
        fp = {
            "type": "nandspin", "name": device.name,
            "nodes": [device.free, device.ref],
            "hm_nodes": [device.hm_left, device.hm_right],
            "hm_conductance": device.hm_conductance,
            "initial_state": device._initial_state.value,
            "params": {f: getattr(device.device.params, f)
                       for f in _MTJ_PARAM_FIELDS},
        }
        if device.switching is None:
            fp["switching"] = None
        else:
            fp["switching"] = {
                "dynamic_charge": device.switching.dynamic_charge}
        if device.sot is None:
            fp["sot"] = None
        else:
            fp["sot"] = {
                "critical_current": device.sot.critical_current,
                "dynamic_charge": device.sot.dynamic_charge}
        return fp
    raise CacheError(
        f"device type {type(device).__name__} has no cache fingerprint")


def circuit_fingerprint(circuit: Circuit) -> Dict[str, Any]:
    """Constructive fingerprint of a circuit: node names + per-device
    parameter records, in netlist order.

    Raises :class:`~repro.errors.CacheError` when the circuit contains a
    device the fingerprint cannot describe (treat as uncacheable).
    """
    return {
        "name": circuit.name,
        "nodes": circuit.node_names,
        # NV-backend identity (set by the latch builders): two backends —
        # or two parameterisations of one — never share cache entries.
        "nv_backend": getattr(circuit, "nv_backend_fingerprint", None),
        "devices": [_device_fingerprint(d) for d in circuit.devices],
    }


def rebuild_circuit(fingerprint: Dict[str, Any]) -> Circuit:
    """Reconstruct the exact circuit a fingerprint describes.

    Devices are registered directly (not through the ``add_*`` sugar, so
    a MOSFET's already-fingerprinted parasitic capacitors are not added a
    second time) in the original order; :meth:`Circuit.finalize` then
    assigns identical branch indices.  Used by cache verification to
    re-run a stored entry from nothing but its request record.
    """
    try:
        circuit = Circuit(str(fingerprint["name"]))
        for node_name in fingerprint["nodes"]:
            circuit.node(node_name)
        for fp in fingerprint["devices"]:
            kind = fp["type"]
            name = fp["name"]
            nodes = [int(n) for n in fp["nodes"]]
            if kind == "resistor":
                device: Any = Resistor(positive=nodes[0], negative=nodes[1],
                                       name=name,
                                       resistance=float(fp["resistance"]))
            elif kind == "capacitor":
                device = Capacitor(positive=nodes[0], negative=nodes[1],
                                   name=name,
                                   capacitance=float(fp["capacitance"]))
            elif kind == "vsource":
                device = VoltageSource(positive=nodes[0], negative=nodes[1],
                                       name=name,
                                       waveform=_rebuild_waveform(
                                           fp["waveform"]))
            elif kind == "isource":
                device = CurrentSource(positive=nodes[0], negative=nodes[1],
                                       name=name,
                                       waveform=_rebuild_waveform(
                                           fp["waveform"]))
            elif kind == "mosfet":
                model = MOSFETModel(**{f: fp["model"][f]
                                       for f in _MOSFET_MODEL_FIELDS})
                device = MOSFET(drain=nodes[0], gate=nodes[1],
                                source=nodes[2], bulk=nodes[3],
                                model=model, width=float(fp["width"]),
                                length=float(fp["length"]), name=name)
            elif kind == "mtj":
                params = MTJParameters(**{f: fp["params"][f]
                                          for f in _MTJ_PARAM_FIELDS})
                mtj_device = MTJDevice(
                    params=params,
                    state=MTJState(fp["initial_state"]))
                element = MTJElement(free=nodes[0], ref=nodes[1],
                                     device=mtj_device, name=name)
                if fp["switching"] is not None:
                    element.switching = SwitchingModel(
                        device=mtj_device,
                        dynamic_charge=float(
                            fp["switching"]["dynamic_charge"]))
                device = element
            elif kind == "nandspin":
                params = MTJParameters(**{f: fp["params"][f]
                                          for f in _MTJ_PARAM_FIELDS})
                mtj_device = MTJDevice(
                    params=params,
                    state=MTJState(fp["initial_state"]))
                hm_nodes = [int(n) for n in fp["hm_nodes"]]
                junction = NandSpinJunction(
                    free=nodes[0], ref=nodes[1], device=mtj_device,
                    name=name, hm_left=hm_nodes[0], hm_right=hm_nodes[1],
                    hm_conductance=float(fp["hm_conductance"]))
                if fp["switching"] is not None:
                    junction.switching = SwitchingModel(
                        device=mtj_device,
                        dynamic_charge=float(
                            fp["switching"]["dynamic_charge"]))
                if fp["sot"] is not None:
                    junction.sot = SOTSwitchingModel(
                        device=mtj_device,
                        dynamic_charge=float(fp["sot"]["dynamic_charge"]),
                        critical_current=float(
                            fp["sot"]["critical_current"]))
                device = junction
            else:
                raise CacheError(f"unknown device kind {kind!r} in cache "
                                 f"request")
            circuit._register(device, name)
        circuit.nv_backend_fingerprint = fingerprint.get("nv_backend")
        circuit.finalize()
        return circuit
    except CacheError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(
            f"malformed circuit fingerprint: {exc}") from exc


def _voltages_fingerprint(
    voltages: Optional[Dict[str, float]]
) -> Optional[List[List[Any]]]:
    """Order-independent form of an ``initial_voltages``/``dc_seed`` map."""
    if voltages is None:
        return None
    return [[name, float(value)] for name, value in sorted(voltages.items())]


def solver_config() -> Dict[str, Any]:
    """The solver-configuration record of every request: the fast- and
    sparse-engine constants, the recovery ladder's constants and the
    floor gmin every transient step and the final DC solve add to the
    matrix.  Read at call time, so a changed constant changes every key.
    """
    from repro.recovery.policy import recovery_config_fingerprint
    from repro.spice.analysis import dc
    from repro.spice.analysis.engine import engine_config_fingerprint

    return {
        **engine_config_fingerprint(),
        "ladder": recovery_config_fingerprint(),
        "floor_gmin": dc.FLOOR_GMIN,
    }


def transient_request(
    circuit: Circuit,
    stop_time: float,
    dt: float,
    integrator: str,
    initial_voltages: Optional[Dict[str, float]],
    dc_seed: Optional[Dict[str, float]],
    max_iterations: int,
    vtol: float,
    damping: float,
    engine: str,
    adaptive: bool = False,
    recovery: bool = True,
) -> Dict[str, Any]:
    """The full request record a transient key digests (also stored in
    the cache entry, so verification can replay it).

    ``adaptive`` is part of the digest so a fixed-step entry can never
    replay as an adaptive result or vice versa; ``recovery`` so a run
    that climbs the recovery ladder never shares an entry with one that
    raises at its first failed step."""
    return {
        "kind": "transient",
        "salt": CACHE_SALT,
        "circuit": circuit_fingerprint(circuit),
        "stop_time": stop_time,
        "dt": dt,
        "integrator": integrator,
        "initial_voltages": _voltages_fingerprint(initial_voltages),
        "dc_seed": _voltages_fingerprint(dc_seed),
        "max_iterations": max_iterations,
        "vtol": vtol,
        "damping": damping,
        "engine": engine,
        "adaptive": adaptive,
        "recovery": recovery,
        "solver_config": solver_config(),
    }


def dc_request(
    circuit: Circuit,
    time: float,
    initial_guess: Optional[Dict[str, float]],
    max_iterations: int,
    vtol: float,
    damping: float,
    recovery: bool = True,
) -> Dict[str, Any]:
    """Request record for a DC operating-point solve (see
    :func:`transient_request`)."""
    return {
        "kind": "dc",
        "salt": CACHE_SALT,
        "circuit": circuit_fingerprint(circuit),
        "time": time,
        "initial_guess": _voltages_fingerprint(initial_guess),
        "max_iterations": max_iterations,
        "vtol": vtol,
        "damping": damping,
        "recovery": recovery,
        "solver_config": solver_config(),
    }


def request_key(request: Dict[str, Any]) -> str:
    """SHA-256 digest of a request record's canonical serialization."""
    return stable_digest(request)

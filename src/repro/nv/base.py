"""Pluggable NV-backend protocol (ROADMAP item 5).

The latch topologies in :mod:`repro.cells` are NV-technology-agnostic
sense amplifiers; what actually *stores* the bits — the devices between
the write rails and the common tap, the drive circuit that backs data up
into them, the sequencing that does so safely — is the business of an
:class:`NVBackend`.  Each backend declares:

==========================  =================================================
responsibility              method
==========================  =================================================
storage devices             :meth:`NVBackend.attach_storage`
write/backup drive circuit  :meth:`NVBackend.attach_write_drivers`
backup sequencing           :meth:`NVBackend.store_schedule`
restore sense interface     :meth:`NVBackend.restore_schedule` /
                            :meth:`NVBackend.power_cycle`
cache identity              :meth:`NVBackend.fingerprint` (enters every
                            cache key via :mod:`repro.cache.keys`)
cache state hydration       :func:`capture_storage_state` /
                            :func:`hydrate_storage_state`
Monte-Carlo variation       :meth:`NVBackend.sample_parameters`
system-level cell costs     :meth:`NVBackend.cell_costs`
==========================  =================================================

Backends register under a short name (``"mtj"``, ``"nandspin"``) and are
selected with ``backend=`` on the cell builders, ``Session`` flows and
the CLI.  Two backends never share cache
entries: the builders stamp the backend fingerprint onto the circuit and
:func:`repro.cache.keys.circuit_fingerprint` digests it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.errors import AnalysisError, suggest_names
from repro.mtj.device import MTJState
from repro.mtj.parameters import MTJParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.cells.control import ControlSchedule, PowerCycle
    from repro.cells.sizing import LatchSizing
    from repro.core.evaluate import NVCellCosts
    from repro.mtj.variation import MTJVariation
    from repro.spice.devices.mosfet import MOSFETModel
    from repro.spice.devices.mtj_element import MTJElement
    from repro.spice.netlist import Circuit


@dataclass(frozen=True)
class CellContext:
    """Everything a backend needs to add devices to a latch under
    construction: the circuit plus the corner-resolved models/sizing."""

    circuit: "Circuit"
    nmos: "MOSFETModel"
    pmos: "MOSFETModel"
    sizing: "LatchSizing"
    params: MTJParameters
    vdd: float


@dataclass(frozen=True)
class PairSpec:
    """One complementary bit slot of a latch.

    ``side_a``/``side_b`` are the write/sense rail nodes, ``common`` the
    shared center tap toward the enable device.  ``state_a``/``state_b``
    are the initial magnetisations encoding the pre-programmed bit.
    ``data``/``data_b`` name the data signal nodes and ``driver_a``/
    ``driver_b`` the tristate-driver prefixes for this slot.
    ``inverted=True`` flags the opposite bit↔state polarity (the proposed
    latch's upper pair, where D=1 is stored as device A parallel).
    """

    name_a: str
    name_b: str
    side_a: str
    side_b: str
    common: str
    state_a: MTJState
    state_b: MTJState
    data: str
    data_b: str
    driver_a: str
    driver_b: str
    inverted: bool = False


class NVBackend(abc.ABC):
    """One non-volatile storage technology behind the latch sense amps."""

    #: Registry name; also the ``backend=`` value everywhere.
    name: str = ""

    # -- identity ----------------------------------------------------------

    @abc.abstractmethod
    def fingerprint(self) -> Dict[str, Any]:
        """Stable, JSON-serialisable identity record.

        Mixed into every circuit fingerprint built with this backend
        (:func:`repro.cache.keys.circuit_fingerprint`), so results from
        two backends — or two parameterisations of one backend — never
        share a cache entry.
        """

    # -- netlist construction ----------------------------------------------

    def control_signals(self, vdd: float) -> Dict[str, float]:
        """Extra control signals this backend adds to a cell, mapped to
        their idle levels in volts (empty for the baseline MTJ pair)."""
        return {}

    @abc.abstractmethod
    def attach_storage(
        self, ctx: CellContext, spec: PairSpec,
    ) -> Tuple["MTJElement", "MTJElement"]:
        """Insert the storage devices of one bit slot and return the two
        complementary elements (handles used by measurements)."""

    @abc.abstractmethod
    def attach_write_drivers(self, ctx: CellContext, spec: PairSpec) -> None:
        """Insert the backup drive circuit of one bit slot (tristate data
        drivers plus whatever rails the technology needs)."""

    # -- sequencing --------------------------------------------------------

    @abc.abstractmethod
    def store_schedule(self, design: str, **kwargs: Any) -> "ControlSchedule":
        """Backup sequence for ``design`` (``"standard"``/``"proposed"``).

        Keyword arguments mirror the design's stock store schedule
        (``bit=``/``bits=``, ``vdd=``, ``write_width=``, ``slew=``...).
        """

    def restore_schedule(self, design: str, **kwargs: Any) -> "ControlSchedule":
        """Restore (sense) sequence — shared differential sensing, so the
        default delegates to the stock schedules and parks any extra
        backend signals at their idle levels."""
        from repro.cells.control import (
            proposed_restore_schedule,
            standard_restore_schedule,
        )

        if design == "standard":
            return self._with_idle_extras(standard_restore_schedule(**kwargs))
        if design == "proposed":
            return self._with_idle_extras(proposed_restore_schedule(**kwargs))
        raise AnalysisError(f"unknown design {design!r}")

    def power_cycle(self, design: str, **kwargs: Any) -> "PowerCycle":
        """Full store → power-off → restore cycle for ``design``."""
        from repro.cells.control import (
            standard_power_cycle,
            proposed_power_cycle,
        )

        if design == "standard":
            cycle = standard_power_cycle(**kwargs)
        elif design == "proposed":
            cycle = proposed_power_cycle(**kwargs)
        else:
            raise AnalysisError(f"unknown design {design!r}")
        self._with_idle_extras(cycle.schedule)
        return cycle

    def _with_idle_extras(self, schedule: "ControlSchedule") -> "ControlSchedule":
        """Add this backend's extra signals to a schedule as constants at
        their idle levels (no-op for backends without extras)."""
        from repro.spice.waveforms import PWL

        for signal, idle in self.control_signals(schedule.vdd).items():
            schedule.signals.setdefault(signal, PWL(points=((0.0, idle),)))
        return schedule

    # -- Monte-Carlo variation ---------------------------------------------

    def sample_parameters(
        self,
        base: MTJParameters,
        variation: "MTJVariation",
        rng: "np.random.Generator",
    ) -> MTJParameters:
        """Draw one device-parameter sample for this technology."""
        from repro.mtj.variation import sample_parameters

        return sample_parameters(base, variation, count=1, rng=rng)[0]

    # -- system accounting -------------------------------------------------

    def cell_costs(self) -> "NVCellCosts":
        """Cell-level area/energy constants feeding the Table III system
        accounting for this technology."""
        from repro.core.evaluate import PAPER_COSTS

        return PAPER_COSTS

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<NVBackend {self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, NVBackend] = {}

#: Canonical comparison order (registration order).
BACKEND_ORDER: List[str] = []


def register_backend(backend: NVBackend, replace: bool = False) -> NVBackend:
    """Register a backend instance under its ``name``."""
    if not backend.name:
        raise AnalysisError("NV backend must declare a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise AnalysisError(
            f"NV backend {backend.name!r} is already registered "
            f"(pass replace=True to override)")
    if backend.name not in _REGISTRY:
        BACKEND_ORDER.append(backend.name)
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(backend: Any = None) -> NVBackend:
    """Resolve ``backend`` — a name, an instance, or ``None`` (→ MTJ)."""
    if backend is None:
        backend = "mtj"
    if isinstance(backend, NVBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except (KeyError, TypeError):
        raise AnalysisError(
            f"unknown NV backend {backend!r}"
            + suggest_names(str(backend), _REGISTRY)) from None


def list_backends() -> List[str]:
    """Registered backend names in registration order."""
    return list(BACKEND_ORDER)


# ---------------------------------------------------------------------------
# Storage events and cache-state hydration (backend-device dispatch)
# ---------------------------------------------------------------------------


def storage_events(element: "MTJElement") -> List[Any]:
    """Every switching event of one storage element, across all of its
    dynamics models (STT, and SOT for NAND-SPIN junctions), time-sorted."""
    events: List[Any] = []
    if element.switching is not None:
        events.extend(element.switching.events)
    sot = getattr(element, "sot", None)
    if sot is not None:
        events.extend(sot.events)
    return sorted(events, key=lambda e: e.time)


def _events_payload(events: List[Any]) -> List[Dict[str, Any]]:
    return [{"time": e.time, "state": e.new_state.value, "current": e.current}
            for e in events]


def _events_from_payload(records: List[Dict[str, Any]]) -> List[Any]:
    from repro.mtj.dynamics import SwitchingEvent

    return [SwitchingEvent(time=float(e["time"]),
                           new_state=MTJState(e["state"]),
                           current=float(e["current"]))
            for e in records]


def capture_storage_state(circuit: "Circuit") -> List[Dict[str, Any]]:
    """Per-storage-device end state after a transient, in netlist order.

    Covers every backend's device state: magnetisation, STT switching
    progress/events, and — for NAND-SPIN junctions — the SOT model's
    progress/events, so a warm-cache replay rehydrates the device
    bit-exactly regardless of technology.
    """
    from repro.spice.devices.mtj_element import MTJElement

    records: List[Dict[str, Any]] = []
    for device in circuit.devices:
        if not isinstance(device, MTJElement):
            continue
        record: Dict[str, Any] = {
            "name": device.name,
            "state": device.device.state.value,
        }
        if device.switching is not None:
            record["progress"] = device.switching.progress
            record["events"] = _events_payload(device.switching.events)
        sot = getattr(device, "sot", None)
        if sot is not None:
            record["sot"] = {
                "progress": sot.progress,
                "events": _events_payload(sot.events),
            }
        records.append(record)
    return records


def hydrate_storage_state(
    circuit: "Circuit", records: List[Dict[str, Any]]
) -> None:
    """Write captured storage end state back into the caller's circuit."""
    for record in records:
        device = circuit.device(record["name"])
        device.device.state = MTJState(record["state"])
        if device.switching is not None:
            device.switching.progress = float(record.get("progress", 0.0))
            device.switching.events = _events_from_payload(
                record.get("events", []))
        sot = getattr(device, "sot", None)
        if sot is not None:
            payload = record.get("sot", {})
            sot.progress = float(payload.get("progress", 0.0))
            sot.events = _events_from_payload(payload.get("events", []))

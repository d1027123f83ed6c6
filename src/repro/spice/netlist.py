"""Circuit container: named nodes, typed element constructors.

Nodes are referred to by string names; the special names ``"0"``,
``"gnd"`` and ``"GND"`` denote ground (internal index ``-1``).  All
``add_*`` helpers return the created device so callers can keep handles
for measurements.

The :meth:`Circuit.add_mosfet` helper attaches the transistor's parasitic
capacitances (gate-source, gate-drain, drain-bulk, source-bulk) as
explicit :class:`~repro.spice.devices.passive.Capacitor` elements, which
keeps the MOSFET stamp purely resistive and the integrator handling in
one place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import NetlistError, suggest_names
from repro.mtj.device import MTJDevice, MTJState
from repro.mtj.dynamics import SwitchingModel
from repro.mtj.parameters import MTJParameters, PAPER_TABLE_I
from repro.spice.devices.base import Device
from repro.spice.devices.mosfet import MOSFET, MOSFETModel, NMOS_40LP, PMOS_40LP
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.devices.passive import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.waveforms import DC, Waveform

#: Canonical ground node name.
GROUND = "0"

_GROUND_ALIASES = frozenset({"0", "gnd", "GND", "vss", "VSS"})


def _as_waveform(value: Union[Waveform, float, int]) -> Waveform:
    if isinstance(value, Waveform):
        return value
    return DC(float(value))


class Circuit:
    """A flat netlist of devices over named nodes."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._node_index: Dict[str, int] = {}
        self._node_names: List[str] = []
        self.devices: List[Device] = []
        self._device_index: Dict[str, Device] = {}
        self._num_branches = 0
        self._finalized = False
        #: NV-backend identity record (set by the latch builders); enters
        #: the cache fingerprint so backends never share cache entries.
        self.nv_backend_fingerprint: Optional[Dict[str, object]] = None

    # -- nodes -----------------------------------------------------------------

    def node(self, name: str) -> int:
        """Index of the named node, creating it on first use."""
        if name in _GROUND_ALIASES:
            return -1
        index = self._node_index.get(name)
        if index is None:
            if self._finalized:
                raise NetlistError(
                    f"cannot create node {name!r} after the circuit was "
                    f"finalized"
                    + suggest_names(name, self._node_index)
                )
            index = len(self._node_names)
            self._node_index[name] = index
            self._node_names.append(name)
        return index

    def node_name(self, index: int) -> str:
        """Name of a node index (ground for ``-1``)."""
        if index == -1:
            return GROUND
        return self._node_names[index]

    def has_node(self, name: str) -> bool:
        return name in _GROUND_ALIASES or name in self._node_index

    @property
    def num_nodes(self) -> int:
        return len(self._node_names)

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    # -- device registry ---------------------------------------------------------

    def _register(self, device: Device, name: str) -> Device:
        if self._finalized:
            raise NetlistError(f"cannot add device {name!r} after finalize()")
        if not name:
            raise NetlistError("device name must be non-empty")
        if name in self._device_index:
            raise NetlistError(f"duplicate device name {name!r}")
        device.name = name
        self.devices.append(device)
        self._device_index[name] = device
        return device

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        try:
            return self._device_index[name]
        except KeyError:
            raise NetlistError(
                f"no device named {name!r} in circuit {self.name!r}"
                + suggest_names(name, self._device_index)
            ) from None

    def devices_of_type(self, cls: type) -> List[Device]:
        """All devices that are instances of ``cls``."""
        return [d for d in self.devices if isinstance(d, cls)]

    # -- element constructors ------------------------------------------------------

    def add_resistor(self, name: str, a: str, b: str, resistance: float) -> Resistor:
        return self._register(
            Resistor(positive=self.node(a), negative=self.node(b), resistance=resistance),
            name,
        )

    def add_capacitor(self, name: str, a: str, b: str, capacitance: float) -> Capacitor:
        return self._register(
            Capacitor(positive=self.node(a), negative=self.node(b), capacitance=capacitance),
            name,
        )

    def add_vsource(
        self, name: str, positive: str, negative: str, waveform: Union[Waveform, float]
    ) -> VoltageSource:
        return self._register(
            VoltageSource(
                positive=self.node(positive),
                negative=self.node(negative),
                waveform=_as_waveform(waveform),
            ),
            name,
        )

    def add_isource(
        self, name: str, positive: str, negative: str, waveform: Union[Waveform, float]
    ) -> CurrentSource:
        return self._register(
            CurrentSource(
                positive=self.node(positive),
                negative=self.node(negative),
                waveform=_as_waveform(waveform),
            ),
            name,
        )

    def add_mosfet(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        model: MOSFETModel,
        width: float = 120e-9,
        length: float = 40e-9,
        with_caps: bool = True,
    ) -> MOSFET:
        """Add a transistor plus (optionally) its parasitic capacitances."""
        fet = MOSFET(
            drain=self.node(drain),
            gate=self.node(gate),
            source=self.node(source),
            bulk=self.node(bulk),
            model=model,
            width=width,
            length=length,
        )
        self._register(fet, name)
        if with_caps:
            half_gate = 0.5 * fet.gate_channel_capacitance() + fet.overlap_capacitance()
            junction = fet.junction_capacitance()
            self.add_capacitor(f"{name}.cgs", gate, source, half_gate)
            self.add_capacitor(f"{name}.cgd", gate, drain, half_gate)
            self.add_capacitor(f"{name}.cdb", drain, bulk, junction)
            self.add_capacitor(f"{name}.csb", source, bulk, junction)
        return fet

    def add_nmos(self, name: str, drain: str, gate: str, source: str,
                 model: MOSFETModel = NMOS_40LP, width: float = 120e-9,
                 length: float = 40e-9, bulk: str = GROUND) -> MOSFET:
        """NMOS with bulk defaulting to ground."""
        return self.add_mosfet(name, drain, gate, source, bulk, model, width, length)

    def add_pmos(self, name: str, drain: str, gate: str, source: str, bulk: str,
                 model: MOSFETModel = PMOS_40LP, width: float = 240e-9,
                 length: float = 40e-9) -> MOSFET:
        """PMOS; the bulk (n-well) node must be given explicitly — it is
        normally the VDD rail."""
        return self.add_mosfet(name, drain, gate, source, bulk, model, width, length)

    def add_mtj(
        self,
        name: str,
        free: str,
        ref: str,
        params: Optional[MTJParameters] = None,
        state: MTJState = MTJState.PARALLEL,
        dynamic: bool = True,
    ) -> MTJElement:
        """Add an MTJ; ``dynamic=True`` attaches STT switching dynamics so
        transient write currents can flip the stored bit."""
        device = MTJDevice(params=params or PAPER_TABLE_I, state=state)
        switching = SwitchingModel(device=device) if dynamic else None
        element = MTJElement(free=self.node(free), ref=self.node(ref),
                             device=device, switching=switching)
        self._register(element, name)
        return element

    # -- lifecycle ---------------------------------------------------------------

    def finalize(self) -> None:
        """Assign branch-current indices.  Called automatically by analyses;
        idempotent.  After finalisation the topology is frozen.
        """
        if not self._finalized:
            branch = 0
            for device in self.devices:
                count = device.num_branches()
                if count:
                    device.assign_branches(branch)
                    branch += count
            self._num_branches = branch
            self._finalized = True

    @property
    def num_branches(self) -> int:
        if not self._finalized:
            self.finalize()
        return self._num_branches

    def reset_state(self) -> None:
        """Reset all device dynamic state (capacitor history, MTJ progress)."""
        for device in self.devices:
            device.reset_state()

    def summary(self) -> str:
        """One-line inventory used in logs and examples."""
        kinds: Dict[str, int] = {}
        for device in self.devices:
            kinds[type(device).__name__] = kinds.get(type(device).__name__, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return f"{self.name}: {self.num_nodes} nodes, {parts}"

"""Standard single-bit NV shadow latch (paper Fig 2(b)).

Topology — the pre-charge sense amplifier of Zhao et al. [28] with
transmission-gate isolation and tristate write drivers:

* cross-coupled inverters P1/N1, P2/N2 form the sense amplifier with
  outputs ``out`` (= mtj_read) and ``outb``;
* two pre-charge PMOS pull both outputs to VDD (gate ``pc_b``);
* the NMOS sources descend through isolation transmission gates TG1/TG2
  into the two MTJs, which join at ``com`` above the read-enable foot
  transistor (gate ``ren``);
* write drivers I1/I2 (tristate inverters) push the write current through
  the two MTJs in series: ``w1 → MTJ1 → com → MTJ2 → w2`` or the reverse,
  so the junctions always store complementary states.

Read-path transistor count: 4 (SA) + 2 (pre-charge) + 1 (foot)
+ 4 (TGs) = **11**, i.e. 22 for two bits — the paper's Table II row.

Conventions: logical bit ``1`` is stored as MTJ1 = AP / MTJ2 = P; after a
restore, ``out`` carries the stored bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cells.control import ControlSchedule
from repro.cells.primitives import add_transmission_gate
from repro.cells.sizing import DEFAULT_SIZING, LatchSizing
from repro.mtj.device import MTJState
from repro.mtj.parameters import MTJParameters, PAPER_TABLE_I
from repro.nv.base import CellContext, NVBackend, PairSpec, get_backend
from repro.spice.corners import CORNERS, SimulationCorner
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.netlist import GROUND, Circuit
from repro.spice.waveforms import DC, Waveform

#: Device-name prefixes of the write path (excluded from the read-path
#: transistor count, as in the paper).
WRITE_PREFIXES = ("wr",)


@dataclass
class StandardNVLatch:
    """Handle to a built standard 1-bit latch."""

    circuit: Circuit
    vdd_source: str
    out: str
    outb: str
    mtj1: MTJElement
    mtj2: MTJElement
    schedule: Optional[ControlSchedule]
    #: NV technology the storage devices belong to.
    backend: Optional[NVBackend] = None

    def program(self, bit: int) -> None:
        """Force the stored bit directly into the MTJ pair (the electrical
        write path is exercised by the store simulations instead)."""
        self.mtj1.set_initial_state(MTJState.from_bit(bit))
        self.mtj2.set_initial_state(MTJState.from_bit(bit).flipped())

    def stored_bit(self) -> Optional[int]:
        """Bit currently encoded by the MTJ pair, or None if the pair is in
        an invalid (equal-state) configuration."""
        if self.mtj1.device.state is self.mtj2.device.state:
            return None
        return self.mtj1.device.state.bit

    def read_transistor_count(self) -> int:
        """MOSFET count excluding the write drivers (paper counts 11)."""
        from repro.spice.devices.mosfet import MOSFET

        return sum(
            1
            for dev in self.circuit.devices
            if isinstance(dev, MOSFET)
            and not any(dev.name.startswith(p) for p in WRITE_PREFIXES)
        )


def build_standard_latch(
    schedule: Optional[ControlSchedule] = None,
    corner: SimulationCorner = CORNERS["typical"],
    sizing: LatchSizing = DEFAULT_SIZING,
    mtj_params: Optional[MTJParameters] = None,
    stored_bit: int = 1,
    vdd: float = 1.1,
    vdd_waveform: Optional["Waveform"] = None,
    name: str = "std1b",
    backend: Any = "mtj",
) -> StandardNVLatch:
    """Build the standard 1-bit NV latch.

    ``schedule`` supplies the control waveforms (see
    :mod:`repro.cells.control`); without one, all controls sit at their
    idle levels — the configuration used for leakage analysis.

    ``backend`` selects the NV storage technology (a registered name or
    an :class:`~repro.nv.NVBackend` instance); the sense amplifier and
    read path are technology-agnostic.
    """
    nv = get_backend(backend)
    nmos = corner.nmos_model()
    pmos = corner.pmos_model()
    params = corner.mtj_params(mtj_params or PAPER_TABLE_I)

    c = Circuit(name)
    c.add_vsource("vdd", "vdd", GROUND,
                  vdd_waveform if vdd_waveform is not None else DC(vdd))

    signal_idle: Dict[str, float] = {
        "pc_b": vdd, "ren": 0.0, "tg": vdd, "tg_b": 0.0,
        "wen": 0.0, "wen_b": vdd, "d": 0.0, "d_b": vdd,
    }
    signal_idle.update(nv.control_signals(vdd))
    for sig, idle_level in signal_idle.items():
        waveform = schedule.signal(sig) if schedule is not None else DC(idle_level)
        c.add_vsource(f"src_{sig}", sig, GROUND, waveform)

    # Pre-charge devices.
    c.add_pmos("pc1", "out", "pc_b", "vdd", "vdd", pmos, sizing.precharge_width,
               sizing.length)
    c.add_pmos("pc2", "outb", "pc_b", "vdd", "vdd", pmos, sizing.precharge_width,
               sizing.length)

    # Cross-coupled sense amplifier.
    c.add_pmos("p1", "out", "outb", "vdd", "vdd", pmos, sizing.sa_pmos_width,
               sizing.length)
    c.add_pmos("p2", "outb", "out", "vdd", "vdd", pmos, sizing.sa_pmos_width,
               sizing.length)
    c.add_nmos("n1", "out", "outb", "br1", nmos, sizing.sa_nmos_width, sizing.length)
    c.add_nmos("n2", "outb", "out", "br2", nmos, sizing.sa_nmos_width, sizing.length)

    # Isolation transmission gates between the SA branches and the MTJs.
    add_transmission_gate(c, "tg1", "br1", "w1", "tg", "tg_b", "vdd",
                          nmos, pmos, sizing.tgate_width, sizing.length)
    add_transmission_gate(c, "tg2", "br2", "w2", "tg", "tg_b", "vdd",
                          nmos, pmos, sizing.tgate_width, sizing.length)

    # Storage devices: bit b → device 1 = AP iff b = 1, device 2
    # complementary.  The backend owns the devices and their write/backup
    # drive circuit; the slot geometry (rails, common tap, polarity) is
    # fixed by the latch.
    ctx = CellContext(circuit=c, nmos=nmos, pmos=pmos, sizing=sizing,
                      params=params, vdd=vdd)
    state1 = MTJState.from_bit(stored_bit)
    pair = PairSpec(
        name_a="mtj1", name_b="mtj2", side_a="w1", side_b="w2",
        common="com", state_a=state1, state_b=state1.flipped(),
        data="d", data_b="d_b", driver_a="wr.i1", driver_b="wr.i2",
    )
    mtj1, mtj2 = nv.attach_storage(ctx, pair)

    # Read-enable foot transistor (current-limiting long channel).
    c.add_nmos("nfoot", "com", "ren", GROUND, nmos, sizing.enable_width,
               sizing.enable_length)

    # Write/backup drivers (tristate, off outside the store window).
    nv.attach_write_drivers(ctx, pair)

    # Output loading: restore buffers + local wiring.
    c.add_capacitor("cload_out", "out", GROUND, sizing.output_load)
    c.add_capacitor("cload_outb", "outb", GROUND, sizing.output_load)
    c.nv_backend_fingerprint = nv.fingerprint()
    return StandardNVLatch(
        circuit=c, vdd_source="vdd", out="out", outb="outb",
        mtj1=mtj1, mtj2=mtj2, schedule=schedule, backend=nv,
    )

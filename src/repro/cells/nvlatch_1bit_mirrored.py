"""Mirrored single-bit NV latch (paper Fig 4(a)).

The stepping stone between the standard latch and the proposed 2-bit
design: "another way of the implementation of the shadow latch" with the
two MTJs connected *above* the read component and the read enabled by a
PMOS head transistor.  The outputs are pre-charged to GND and the
evaluation charges them through the MTJ branches — the upper half of the
proposed architecture in isolation.

Topology:

* GND pre-charge NMOS pair (gate ``pcg``),
* cross-coupled sense amplifier P1/N1, P2/N2 with the PMOS sources on
  split rails ``ps1``/``ps2`` and the NMOS sources grounded,
* MTJ1: ``ps1`` ↔ ``uc``, MTJ2: ``ps2`` ↔ ``uc`` (free layers facing the
  write rails), head PMOS P3 from VDD to ``uc`` (gate ``p3_b``),
* tristate write drivers on ``ps1``/``ps2`` (series write through ``uc``).

Conventions: bit ``1`` stored as MTJ1 = P / MTJ2 = AP (the low-resistance
branch charges ``out`` faster); after a restore ``out`` carries the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cells.control import ControlSchedule
from repro.cells.primitives import add_tristate_inverter
from repro.cells.sizing import DEFAULT_SIZING, LatchSizing
from repro.cells.nvlatch_1bit import WRITE_PREFIXES
from repro.mtj.device import MTJState
from repro.mtj.parameters import MTJParameters, PAPER_TABLE_I
from repro.spice.corners import CORNERS, SimulationCorner
from repro.spice.devices.mtj_element import MTJElement
from repro.spice.netlist import GROUND, Circuit
from repro.spice.waveforms import DC, Waveform


@dataclass
class MirroredNVLatch:
    """Handle to a built Fig 4(a) latch."""

    circuit: Circuit
    vdd_source: str
    out: str
    outb: str
    mtj1: MTJElement
    mtj2: MTJElement
    schedule: Optional[ControlSchedule]

    def program(self, bit: int) -> None:
        """bit 1 → MTJ1 parallel (fast branch on ``out``)."""
        self.mtj1.set_initial_state(MTJState.from_bit(bit).flipped())
        self.mtj2.set_initial_state(MTJState.from_bit(bit))

    def stored_bit(self) -> Optional[int]:
        if self.mtj1.device.state is self.mtj2.device.state:
            return None
        return self.mtj2.device.state.bit

    def read_transistor_count(self) -> int:
        from repro.spice.devices.mosfet import MOSFET

        return sum(
            1 for dev in self.circuit.devices
            if isinstance(dev, MOSFET)
            and not any(dev.name.startswith(p) for p in WRITE_PREFIXES)
        )


def mirrored_restore_schedule(
    bit: int = 1,
    precharge_width: float = 0.40e-9,
    eval_width: float = 0.80e-9,
    tail: float = 0.20e-9,
    vdd: float = 1.1,
) -> ControlSchedule:
    """GND pre-charge, then PMOS-enabled evaluation (Fig 4(a) read)."""
    from repro.cells.control import (
        DEFAULT_SLEW,
        ControlSchedule,
        Phase,
        _complement,
        _waveforms_from_phases,
    )

    signals = ("pcg", "p3_b", "wen", "wen_b", "d", "d_b")

    def levels(pc: bool, ren: bool, wen: bool) -> Dict[str, bool]:
        base = {"pcg": pc, "p3_b": not ren, "wen": wen, "d": bool(bit)}
        return _complement(base, {"wen": "wen_b", "d": "d_b"})

    t_eval = precharge_width
    t_eval_end = t_eval + eval_width
    stop = t_eval_end + tail
    phases = [
        Phase("precharge", 0.0, t_eval, levels(pc=True, ren=False, wen=False)),
        Phase("evaluate", t_eval, t_eval_end,
              levels(pc=False, ren=True, wen=False)),
        Phase("hold", t_eval_end, stop, levels(pc=False, ren=True, wen=False)),
    ]
    waves = _waveforms_from_phases(phases, signals, vdd, DEFAULT_SLEW)
    markers = {
        "eval_start": t_eval,
        "eval_end": t_eval_end,
        "energy_window_start": 0.0,
        "energy_window_end": t_eval_end,
    }
    return ControlSchedule("mirrored-restore", phases, waves, stop, markers, vdd)


def build_mirrored_latch(
    schedule: Optional[ControlSchedule] = None,
    corner: SimulationCorner = CORNERS["typical"],
    sizing: LatchSizing = DEFAULT_SIZING,
    mtj_params: Optional[MTJParameters] = None,
    stored_bit: int = 1,
    vdd: float = 1.1,
    vdd_waveform: Optional[Waveform] = None,
    name: str = "mir1b",
) -> MirroredNVLatch:
    """Build the Fig 4(a) latch."""
    nmos = corner.nmos_model()
    pmos = corner.pmos_model()
    params = corner.mtj_params(mtj_params or PAPER_TABLE_I)

    c = Circuit(name)
    c.add_vsource("vdd", "vdd", GROUND,
                  vdd_waveform if vdd_waveform is not None else DC(vdd))

    signal_idle = {"pcg": vdd, "p3_b": vdd, "wen": 0.0, "wen_b": vdd,
                   "d": 0.0, "d_b": vdd}
    for sig, idle in signal_idle.items():
        waveform = schedule.signal(sig) if schedule is not None else DC(idle)
        c.add_vsource(f"src_{sig}", sig, GROUND, waveform)

    # GND pre-charge.
    c.add_nmos("pcg1", "out", "pcg", GROUND, nmos, sizing.precharge_width,
               sizing.length)
    c.add_nmos("pcg2", "outb", "pcg", GROUND, nmos, sizing.precharge_width,
               sizing.length)

    # Cross-coupled SA: PMOS sources on the MTJ rails, NMOS grounded.
    c.add_pmos("p1", "out", "outb", "ps1", "vdd", pmos, sizing.sa_pmos_width,
               sizing.length)
    c.add_pmos("p2", "outb", "out", "ps2", "vdd", pmos, sizing.sa_pmos_width,
               sizing.length)
    c.add_nmos("n1", "out", "outb", GROUND, nmos, sizing.sa_nmos_width,
               sizing.length)
    c.add_nmos("n2", "outb", "out", GROUND, nmos, sizing.sa_nmos_width,
               sizing.length)

    # MTJs above, bridged at uc under the head transistor.
    state = MTJState.from_bit(stored_bit)
    mtj1 = c.add_mtj("mtj1", "ps1", "uc", params, state.flipped())
    mtj2 = c.add_mtj("mtj2", "ps2", "uc", params, state)
    c.add_pmos("p3", "uc", "p3_b", "vdd", "vdd", pmos,
               sizing.enable_pmos_width, sizing.enable_length)

    # Write drivers on the free-layer rails.
    add_tristate_inverter(c, "wr.i1", "d", "ps1", "wen", "wen_b", "vdd",
                          nmos, pmos, sizing.write_nmos_width,
                          sizing.write_pmos_width, sizing.length)
    add_tristate_inverter(c, "wr.i2", "d_b", "ps2", "wen", "wen_b", "vdd",
                          nmos, pmos, sizing.write_nmos_width,
                          sizing.write_pmos_width, sizing.length)

    c.add_capacitor("cload_out", "out", GROUND, sizing.output_load)
    c.add_capacitor("cload_outb", "outb", GROUND, sizing.output_load)
    return MirroredNVLatch(circuit=c, vdd_source="vdd", out="out",
                           outb="outb", mtj1=mtj1, mtj2=mtj2,
                           schedule=schedule)

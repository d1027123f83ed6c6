"""Proposed 2-bit NV shadow latch (paper Fig 5).

One sense amplifier serves two MTJ pairs:

* **lower pair** (MTJ3/MTJ4, stores bit D0) sits between the NMOS sources
  of the sense amplifier (``sl1``/``sl2``) and the foot transistor N3 —
  read with a VDD pre-charge, exactly like the standard latch;
* **upper pair** (MTJ1/MTJ2, stores bit D1) sits between the transmission
  gates T1/T2 above the PMOS sources and the head transistor P3 — read
  with a GND pre-charge, the mirrored scheme of the paper's Fig 4(a);
* P4 shorts the PMOS source rails during the lower read (so the upper
  MTJs cannot skew it); N4 shorts the NMOS source rails during the upper
  read;
* the pre-charge circuit can pull the outputs to VDD (two PMOS) or to
  GND (two NMOS); the GND clamp also holds the outputs low during writes,
  which the paper requires for a clean lower-pair write path;
* T1/T2 isolate the upper write rails from the PMOS sources during the
  store, preventing sneak currents through P1/P2.

Read-path transistor count: 4 (SA) + 4 (pre-charge) + 2 (N3/P3)
+ 2 (P4/N4) + 4 (T1/T2) = **16** — the paper's Table II row
(5 more than one standard latch, 6 fewer than two).

Conventions: D0 = 1 is stored as MTJ3 = AP / MTJ4 = P; D1 = 1 as
MTJ1 = P / MTJ2 = AP.  After each evaluation phase, ``out`` carries the
bit being read (D0 during the lower phase, D1 during the upper phase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

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

from repro.cells.nvlatch_1bit import WRITE_PREFIXES


@dataclass
class ProposedNVLatch:
    """Handle to a built proposed 2-bit latch."""

    circuit: Circuit
    vdd_source: str
    out: str
    outb: str
    #: Upper pair (bit D1).
    mtj1: MTJElement
    mtj2: MTJElement
    #: Lower pair (bit D0).
    mtj3: MTJElement
    mtj4: MTJElement
    schedule: Optional[ControlSchedule]
    #: NV technology the storage devices belong to.
    backend: Optional[NVBackend] = None

    def program(self, bits: Tuple[int, int]) -> None:
        """Force (D0, D1) into the MTJ pairs."""
        d0, d1 = bits
        self.mtj3.set_initial_state(MTJState.from_bit(d0))
        self.mtj4.set_initial_state(MTJState.from_bit(d0).flipped())
        self.mtj1.set_initial_state(MTJState.from_bit(d1).flipped())
        self.mtj2.set_initial_state(MTJState.from_bit(d1))

    def stored_bits(self) -> Tuple[Optional[int], Optional[int]]:
        """(D0, D1) currently encoded, None per bit when a pair is invalid."""
        d0: Optional[int] = None
        d1: Optional[int] = None
        if self.mtj3.device.state is not self.mtj4.device.state:
            d0 = self.mtj3.device.state.bit
        if self.mtj1.device.state is not self.mtj2.device.state:
            d1 = self.mtj2.device.state.bit
        return d0, d1

    def read_transistor_count(self) -> int:
        """MOSFET count excluding the write drivers (paper counts 16)."""
        from repro.spice.devices.mosfet import MOSFET

        return sum(
            1
            for dev in self.circuit.devices
            if isinstance(dev, MOSFET)
            and not any(dev.name.startswith(p) for p in WRITE_PREFIXES)
        )


def build_proposed_latch(
    schedule: Optional[ControlSchedule] = None,
    corner: SimulationCorner = CORNERS["typical"],
    sizing: LatchSizing = DEFAULT_SIZING,
    mtj_params: Optional[MTJParameters] = None,
    stored_bits: Tuple[int, int] = (1, 0),
    vdd: float = 1.1,
    vdd_waveform: Optional["Waveform"] = None,
    name: str = "prop2b",
    backend: Any = "mtj",
) -> ProposedNVLatch:
    """Build the proposed 2-bit NV latch.

    ``stored_bits`` = (D0, D1) pre-programs the MTJ pairs; the electrical
    write path (store schedules) can overwrite them during simulation.

    ``backend`` selects the NV storage technology (see
    :mod:`repro.nv`); both bit slots use the same backend.
    """
    nv = get_backend(backend)
    nmos = corner.nmos_model()
    pmos = corner.pmos_model()
    params = corner.mtj_params(mtj_params or PAPER_TABLE_I)
    d0, d1 = stored_bits

    c = Circuit(name)
    c.add_vsource("vdd", "vdd", GROUND,
                  vdd_waveform if vdd_waveform is not None else DC(vdd))

    signal_idle: Dict[str, float] = {
        "pcv_b": vdd, "pcg": vdd, "n3": 0.0, "p3_b": vdd,
        "tg": 0.0, "tg_b": vdd, "eqp_b": vdd, "eqn": vdd,
        "wen": 0.0, "wen_b": vdd,
        "d0": 0.0, "d0_b": vdd, "d1": 0.0, "d1_b": vdd,
    }
    signal_idle.update(nv.control_signals(vdd))
    for sig, idle_level in signal_idle.items():
        waveform = schedule.signal(sig) if schedule is not None else DC(idle_level)
        c.add_vsource(f"src_{sig}", sig, GROUND, waveform)

    # Pre-charge circuit: VDD pull-ups and GND pull-downs.
    c.add_pmos("pcv1", "out", "pcv_b", "vdd", "vdd", pmos, sizing.precharge_width,
               sizing.length)
    c.add_pmos("pcv2", "outb", "pcv_b", "vdd", "vdd", pmos, sizing.precharge_width,
               sizing.length)
    c.add_nmos("pcg1", "out", "pcg", GROUND, nmos, sizing.precharge_width,
               sizing.length)
    c.add_nmos("pcg2", "outb", "pcg", GROUND, nmos, sizing.precharge_width,
               sizing.length)

    # Cross-coupled sense amplifier with split source rails.
    c.add_pmos("p1", "out", "outb", "ps1", "vdd", pmos, sizing.sa_pmos_width,
               sizing.length)
    c.add_pmos("p2", "outb", "out", "ps2", "vdd", pmos, sizing.sa_pmos_width,
               sizing.length)
    c.add_nmos("n1", "out", "outb", "sl1", nmos, sizing.sa_nmos_width, sizing.length)
    c.add_nmos("n2", "outb", "out", "sl2", nmos, sizing.sa_nmos_width, sizing.length)

    # Output stabilisers: P4 equalises the PMOS sources (lower read),
    # N4 the NMOS sources (upper read).
    c.add_pmos("p4", "ps1", "eqp_b", "ps2", "vdd", pmos, sizing.equalizer_width,
               sizing.length)
    c.add_nmos("n4", "sl1", "eqn", "sl2", nmos, sizing.equalizer_width,
               sizing.length)

    # Transmission gates isolating the upper write rails.
    add_transmission_gate(c, "t1", "ps1", "su1", "tg", "tg_b", "vdd",
                          nmos, pmos, sizing.tgate_width, sizing.length)
    add_transmission_gate(c, "t2", "ps2", "su2", "tg", "tg_b", "vdd",
                          nmos, pmos, sizing.tgate_width, sizing.length)

    ctx = CellContext(circuit=c, nmos=nmos, pmos=pmos, sizing=sizing,
                      params=params, vdd=vdd)

    # Upper pair (bit D1), free layers facing the write rails su1/su2.
    # D1 = 1 → device 1 = P, device 2 = AP (inverted polarity).
    state_d1 = MTJState.from_bit(d1)
    upper = PairSpec(
        name_a="mtj1", name_b="mtj2", side_a="su1", side_b="su2",
        common="uc", state_a=state_d1.flipped(), state_b=state_d1,
        data="d1", data_b="d1_b", driver_a="wr.i1", driver_b="wr.i2",
        inverted=True,
    )
    mtj1, mtj2 = nv.attach_storage(ctx, upper)
    c.add_pmos("p3", "uc", "p3_b", "vdd", "vdd", pmos, sizing.enable_pmos_width,
               sizing.enable_length)

    # Lower pair (bit D0), free layers facing sl1/sl2.
    # D0 = 1 → device 3 = AP, device 4 = P.
    state_d0 = MTJState.from_bit(d0)
    lower = PairSpec(
        name_a="mtj3", name_b="mtj4", side_a="sl1", side_b="sl2",
        common="lc", state_a=state_d0, state_b=state_d0.flipped(),
        data="d0", data_b="d0_b", driver_a="wr.i3", driver_b="wr.i4",
    )
    mtj3, mtj4 = nv.attach_storage(ctx, lower)
    c.add_nmos("n3", "lc", "n3", GROUND, nmos, sizing.enable_width,
               sizing.enable_length)

    # Write/backup drivers, lower bit first (matching the paper's
    # store-phase description and the pre-refactor build order).
    nv.attach_write_drivers(ctx, lower)
    nv.attach_write_drivers(ctx, upper)

    # Output loading: restore buffers for both flip-flops + local wiring.
    c.add_capacitor("cload_out", "out", GROUND, sizing.output_load)
    c.add_capacitor("cload_outb", "outb", GROUND, sizing.output_load)
    c.nv_backend_fingerprint = nv.fingerprint()
    return ProposedNVLatch(
        circuit=c, vdd_source="vdd", out="out", outb="outb",
        mtj1=mtj1, mtj2=mtj2, mtj3=mtj3, mtj4=mtj4, schedule=schedule,
        backend=nv,
    )

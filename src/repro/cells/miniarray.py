"""Mini-array checkpointing baseline (Chabi et al. [17]).

The paper's closest prior work backs flip-flops up in a *shared MTJ
mini-array* instead of per-flop shadow cells: NV bits are organised as a
small 1T-1MTJ array with one sense amplifier, a manufactured mid-point
*reference cell*, and a row/column decoder.  The paper's criticism —
which this model quantifies — is that the reference cell and the decoder
"impose not only extra area but also consume more energy", and the
word-serial access adds restore latency.

The cost model is structural (transistor/area accounting on the same
40 nm rule set as the latches) rather than transistor-level simulation:
the array's analog core is the same PCSA we already characterise, so its
per-access sensing energy is taken from the standard-latch measurement
plus the decoder/bit-line overheads modelled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AnalysisError
from repro.layout.design_rules import DesignRules, RULES_40NM

#: Area of one 1T-1MTJ array bit cell in units of F² (F = feature size):
#: the classic ~45 F² STT-MRAM bit cell.
ARRAY_BIT_AREA_F2 = 45.0
#: Feature size F [m].
FEATURE_SIZE = 40e-9

#: Bit-line capacitance per array row [F] (wire + drain junctions).
BITLINE_CAP_PER_ROW = 0.25e-15
#: Energy per decoder output toggle [J] (predecoder + wordline driver).
DECODER_TOGGLE_ENERGY = 1.5e-15
#: Transistors per decoder output (NAND + driver).
DECODER_TRANSISTORS_PER_OUTPUT = 6
#: Transistors of the shared sense amplifier + write driver + reference
#: biasing of the mini-array periphery.
PERIPHERY_TRANSISTORS = 30
#: Extra margin loss of single-ended sensing against a reference cell,
#: relative to the differential 2-MTJ scheme (reference sits mid-way, so
#: the usable margin halves).
REFERENCE_MARGIN_FACTOR = 0.5


@dataclass(frozen=True)
class MiniArrayCheckpoint:
    """Cost model of one mini-array serving ``num_bits`` flip-flops."""

    num_bits: int
    #: Array word width (bits restored per access).
    word_width: int = 8
    #: Access cycle time [s] (decode + sense, from the PCSA resolve class).
    access_time: float = 1.0e-9
    #: Sensing energy per *bit* of an access [J].  Single-ended sensing
    #: against the mid-point reference halves the usable margin
    #: (REFERENCE_MARGIN_FACTOR), so the sense amplifier must integrate
    #: about twice as long as the differential shadow latch — the default
    #: doubles the differential per-bit sensing energy class.
    sense_energy_per_bit: float = 6.0e-15
    rules: DesignRules = field(default_factory=lambda: RULES_40NM)

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise AnalysisError("mini-array needs at least one bit")
        if self.word_width < 1:
            raise AnalysisError("word width must be positive")

    # -- organisation ----------------------------------------------------------

    @property
    def num_words(self) -> int:
        return -(-self.num_bits // self.word_width)

    @property
    def decoder_outputs(self) -> int:
        return self.num_words

    # -- area -------------------------------------------------------------------

    def array_area(self) -> float:
        """MTJ array core area [m²] (dense 1T-1MTJ bit cells, ~45 F²)."""
        return self.num_bits * ARRAY_BIT_AREA_F2 * FEATURE_SIZE ** 2

    def periphery_area(self) -> float:
        """Decoder + sense amp + reference + write-driver area [m²]."""
        transistors = (PERIPHERY_TRANSISTORS
                       + DECODER_TRANSISTORS_PER_OUTPUT * self.decoder_outputs)
        per_transistor = self.rules.poly_pitch * self.rules.cell_height * 0.6
        return transistors * per_transistor

    def routing_area(self) -> float:
        """Track area for hauling every flip-flop's data to the array
        (the paper's 'routing overheads' of centralised back-up):
        one track pair per word-width channel across half the bit count."""
        channel_length = math.sqrt(self.num_bits) * 4.0 * self.rules.cell_height
        track_width = 2.0 * self.rules.track_pitch
        return self.word_width * channel_length * track_width

    def total_area(self) -> float:
        return self.array_area() + self.periphery_area() + self.routing_area()

    # -- energy / latency ---------------------------------------------------------

    def restore_energy(self) -> float:
        """Energy of one full restore [J]: per-word decode toggles +
        bit-line swings + per-bit sensing."""
        decode = self.num_words * DECODER_TOGGLE_ENERGY * 2  # select + deselect
        bitlines = (self.num_words * self.word_width
                    * BITLINE_CAP_PER_ROW * max(1, self.num_words) ** 0.5
                    * 1.1 ** 2)
        sensing = self.num_bits * self.sense_energy_per_bit
        return decode + bitlines + sensing

    def restore_latency(self) -> float:
        """Serial word-by-word restore [s] — the decoder is the paper's
        'complex controlling mechanism'."""
        return self.num_words * self.access_time

    def read_margin_factor(self) -> float:
        """Usable sensing margin relative to the differential shadow
        latch (the manufactured reference sits between R_P and R_AP)."""
        return REFERENCE_MARGIN_FACTOR

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> str:
        return (f"mini-array[{self.num_bits}b as {self.num_words}x"
                f"{self.word_width}]: area {self.total_area() * 1e12:.2f} um^2, "
                f"restore {self.restore_energy() * 1e15:.1f} fJ in "
                f"{self.restore_latency() * 1e9:.1f} ns")


# ---------------------------------------------------------------------------
# Transistor-level mini-array netlist
# ---------------------------------------------------------------------------

#: Bit-line driver resistance [Ω] (read-path series resistance).
BITLINE_DRIVER_RESISTANCE = 2e3
#: Lumped bit-line wire capacitance per attached row [F].
BITLINE_WIRE_CAP_PER_ROW = 0.25e-15


def build_mini_array(
    rows: int = 8,
    cols: int = 8,
    read_voltage: float = 0.3,
    wl_voltage: float = 1.1,
    active_rows: int = 2,
    access_time: float = 1.0e-9,
    params: Optional["MTJParameters"] = None,
    dynamic: bool = False,
    access_width: float = 480e-9,
):
    """Transistor-level netlist of a ``rows x cols`` 1T-1MTJ mini-array.

    This is the *simulatable* counterpart of the
    :class:`MiniArrayCheckpoint` cost model — the array-scale workload
    that motivates the sparse engine (every bit cell adds a node, so the
    dense engines cube in ``rows*cols``).  Topology per cell ``(r, c)``:
    bit line ``bl{c}`` — access NMOS gated by word line ``wl{r}`` —
    internal node ``n{r}_{c}`` — MTJ to ground (the shared source
    line).  Every bit line hangs off one read supply through a driver
    resistor plus a lumped wire capacitance; every internal node reaches
    ground through its MTJ, so the netlist is lint-clean (no floating
    nodes) by construction.

    The first ``active_rows`` word lines fire one after another
    (word-serial access, pulse ``r`` delayed by ``r * access_time``);
    the remaining rows stay at 0 V and contribute only leakage and
    loading — exactly the half-selected cells that make the array
    matrix large but *sparse*.  Stored data is a checkerboard of P/AP
    states so both resistance branches appear on every bit line.

    ``dynamic=False`` (default) models a read access — switching
    dynamics are left off so the stored pattern cannot be disturbed;
    pass ``dynamic=True`` to study write currents.  A transient of
    ``active_rows * access_time`` plus settling covers the access
    sequence (the ``mini_array`` workload of ``bench/workloads.py`` runs
    a 32x32 array for 2.5 ns).
    """
    from repro.mtj.device import MTJState
    from repro.spice.netlist import Circuit
    from repro.spice.waveforms import Pulse

    if rows < 1 or cols < 1:
        raise AnalysisError(
            f"mini-array needs at least one row and column, got "
            f"{rows}x{cols}")
    if not 0 <= active_rows <= rows:
        raise AnalysisError(
            f"active_rows must lie in [0, {rows}], got {active_rows}")

    circuit = Circuit(f"mini_array_{rows}x{cols}")
    circuit.add_vsource("VREAD", "vread", "0", read_voltage)
    for r in range(rows):
        if r < active_rows:
            circuit.add_vsource(
                f"VWL{r}", f"wl{r}", "0",
                Pulse(initial=0.0, pulsed=wl_voltage,
                      delay=r * access_time + 0.1e-9,
                      rise=0.05e-9, fall=0.05e-9,
                      width=0.7 * access_time,
                      period=max(rows, 1) * 10.0 * access_time))
        else:
            circuit.add_vsource(f"VWL{r}", f"wl{r}", "0", 0.0)
    for c in range(cols):
        circuit.add_resistor(f"RBL{c}", "vread", f"bl{c}",
                             BITLINE_DRIVER_RESISTANCE)
        circuit.add_capacitor(f"CBL{c}", f"bl{c}", "0",
                              BITLINE_WIRE_CAP_PER_ROW * rows)
    for r in range(rows):
        for c in range(cols):
            cell = f"n{r}_{c}"
            circuit.add_nmos(f"M{r}_{c}", f"bl{c}", f"wl{r}", cell,
                             width=access_width)
            circuit.add_mtj(
                f"X{r}_{c}", cell, "0", params=params,
                state=(MTJState.PARALLEL if (r + c) % 2 == 0
                       else MTJState.ANTIPARALLEL),
                dynamic=dynamic)
    return circuit

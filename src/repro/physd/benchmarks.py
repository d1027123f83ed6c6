"""Synthetic ISCAS'89 / ITC'99 / or1200 benchmark netlists.

The paper evaluates 13 benchmark circuits.  Their RTL is not shipped
here; instead each circuit is generated synthetically with

* the **exact flip-flop count of the paper's Table III** (this is the
  quantity the system-level result is linear in),
* a combinational gate count taken from the published synthesis
  statistics of each benchmark (approximate — marked per entry),
* Rent-style wiring locality: gate inputs are drawn from recently
  created nets, and flip-flops are distributed across the creation
  order, which reproduces the local clustering that makes placed
  flip-flops land near each other — the effect the paper's Fig 9 shows
  and its merge script exploits.

The generator is fully seeded, so every run of the Table III flow sees
the same designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cells.library import CellLibrary, build_default_library
from repro.errors import NetlistError
from repro.obs import span as _obs_span
from repro.physd.netlist import GateNetlist

#: Clock net name used by every generated design.
CLOCK_NET = "clk"


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one benchmark circuit.

    ``num_flip_flops`` matches the paper's Table III exactly;
    ``num_gates`` is the approximate combinational cell count from
    published synthesis data for the benchmark; ``paper_merged_pairs``
    is the paper's reported number of 2-bit NV flip-flops (for
    side-by-side comparison with our placement's pairing count).
    """

    name: str
    family: str
    num_flip_flops: int
    num_gates: int
    num_inputs: int
    num_outputs: int
    paper_merged_pairs: int
    #: Paper Table III reference values (µm² / fJ) for reporting.
    paper_area_1bit: float = 0.0
    paper_energy_1bit: float = 0.0
    paper_area_2bit: float = 0.0
    paper_energy_2bit: float = 0.0


BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        BenchmarkSpec("s344", "iscas89", 15, 160, 9, 11, 5,
                      42.255, 42.375, 32.565, 37.06),
        BenchmarkSpec("s838", "iscas89", 32, 446, 34, 1, 12,
                      90.144, 90.4, 66.888, 77.644),
        BenchmarkSpec("s1423", "iscas89", 74, 657, 17, 5, 23,
                      208.458, 209.05, 163.884, 184.601),
        BenchmarkSpec("s5378", "iscas89", 176, 2779, 35, 49, 64,
                      495.792, 497.2, 371.76, 429.168),
        BenchmarkSpec("s13207", "iscas89", 627, 7951, 62, 152, 259,
                      1766.259, 1771.275, 1264.317, 1495.958),
        BenchmarkSpec("s38584", "iscas89", 1424, 19253, 38, 304, 473,
                      4011.408, 4022.8, 3094.734, 3520.001),
        BenchmarkSpec("s35932", "iscas89", 1728, 16065, 35, 320, 472,
                      4867.776, 4881.6, 3953.04, 4379.864),
        BenchmarkSpec("b14", "itc99", 215, 9767, 32, 54, 90,
                      605.655, 607.375, 431.235, 511.705),
        BenchmarkSpec("b15", "itc99", 416, 8367, 36, 70, 189,
                      1171.872, 1175.2, 805.59, 974.293),
        BenchmarkSpec("b17", "itc99", 1317, 30777, 37, 97, 542,
                      3709.989, 3720.525, 2659.593, 3144.379),
        BenchmarkSpec("b18", "itc99", 3020, 111241, 37, 23, 1260,
                      8507.34, 8531.5, 6065.46, 7192.12),
        BenchmarkSpec("b19", "itc99", 6042, 224624, 24, 30, 2530,
                      17020.314, 17068.65, 12117.174, 14379.26),
        BenchmarkSpec("or1200", "opencores", 2887, 26509, 385, 394, 1269,
                      8132.679, 8155.775, 5673.357, 6806.828),
    ]
}

#: Combinational cell mix (cell name → relative weight).
_GATE_MIX = (
    ("INV_X1", 0.18),
    ("BUF_X1", 0.10),
    ("NAND2_X1", 0.26),
    ("NOR2_X1", 0.18),
    ("NAND3_X1", 0.10),
    ("XOR2_X1", 0.06),
    ("AOI21_X1", 0.12),
)

#: Fan-in per combinational cell (pins minus output).
_FAN_IN = {
    "INV_X1": 1, "BUF_X1": 1, "NAND2_X1": 2, "NOR2_X1": 2,
    "NAND3_X1": 3, "XOR2_X1": 2, "AOI21_X1": 3,
}


def generate_benchmark(
    name: str,
    seed: int = 1,
    library: Optional[CellLibrary] = None,
    locality_window: float = 60.0,
) -> GateNetlist:
    """Generate the named benchmark as a seeded synthetic netlist.

    ``locality_window`` is the mean look-back distance (in nets) when a
    gate picks its inputs — small values make tightly clustered logic
    cones, large values approach uniformly random wiring.
    """
    try:
        spec = BENCHMARKS[name]
    except KeyError:
        raise NetlistError(
            f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}"
        ) from None
    with _obs_span("physd.generate_benchmark", category="physd") as span:
        netlist = generate_from_spec(spec, seed=seed, library=library,
                                     locality_window=locality_window)
        span.annotate(cells=netlist.num_instances)
    return netlist


def generate_from_spec(
    spec: BenchmarkSpec,
    seed: int = 1,
    library: Optional[CellLibrary] = None,
    locality_window: float = 60.0,
) -> GateNetlist:
    """Generate a netlist from an arbitrary spec (see
    :func:`generate_benchmark`)."""
    if spec.num_flip_flops < 1:
        raise NetlistError("benchmark needs at least one flip-flop")
    if locality_window <= 0:
        raise NetlistError("locality_window must be positive")
    library = library or build_default_library()
    rng = np.random.default_rng(seed)
    netlist = GateNetlist(spec.name, library)

    netlist.add_net(CLOCK_NET, is_port=True)

    # Source nets grow as the design is built: primary inputs, flip-flop
    # outputs (sequential feedback is allowed), then gate outputs.
    sources: List[str] = []
    for i in range(spec.num_inputs):
        net = f"pi{i}"
        netlist.add_net(net, is_port=True)
        sources.append(net)

    # Flip-flops belong to *registers* (multi-bit buses of 4–32 flops
    # sharing control logic), the dominant structure of real RTL: all
    # flops of a register read from and feed the same logic region, so
    # the placer keeps them together — the clustering the paper's Fig 9
    # shows and its merge script exploits.
    ff_q_nets = [f"ff{j}_q" for j in range(spec.num_flip_flops)]
    for net in ff_q_nets:
        netlist.add_net(net)

    registers: List[List[int]] = []
    j = 0
    while j < spec.num_flip_flops:
        size = min(spec.num_flip_flops - j, int(rng.integers(4, 33)))
        registers.append(list(range(j, j + size)))
        j += size

    # Each register is anchored at a gate index; its Q nets enter the
    # source pool there, so surrounding logic consumes them locally.
    anchor_gates = np.sort(rng.integers(0, max(1, spec.num_gates),
                                        size=len(registers)))
    injection: Dict[int, List[int]] = {}
    for g, anchor in enumerate(anchor_gates):
        injection.setdefault(int(anchor), []).append(g)
    register_source_pos: Dict[int, int] = {}

    gate_names = [g for g, _ in _GATE_MIX]
    gate_weights = np.array([w for _, w in _GATE_MIX])
    gate_weights = gate_weights / gate_weights.sum()
    gate_choices = rng.choice(len(gate_names), size=spec.num_gates,
                              p=gate_weights)
    # Each gate input looks back a geometric distance from the frontier.
    # All look-backs are drawn in one call, one per input in gate order;
    # tests/test_golden_physd.py pins that stream order.
    fan_ins = np.array([_FAN_IN[name] for name in gate_names])[gate_choices]
    backs = (rng.exponential(locality_window, size=int(fan_ins.sum()))
             .astype(np.int64) + 1).tolist()
    first_back = 0
    for k, choice in enumerate(gate_choices.tolist()):
        for g in injection.get(k, ()):
            register_source_pos[g] = len(sources)
            sources.extend(ff_q_nets[j] for j in registers[g])
        cell_name = gate_names[choice]
        last_back = first_back + _FAN_IN[cell_name]
        frontier = len(sources)
        nets = [sources[max(0, frontier - back)]
                for back in backs[first_back:last_back]]
        first_back = last_back
        out_net = f"n{k}"
        nets.append(out_net)
        netlist.add_instance(f"g{k}", cell_name, nets)
        sources.append(out_net)
    for g in injection.get(spec.num_gates, ()):  # anchors at the very end
        register_source_pos[g] = len(sources)
        sources.extend(ff_q_nets[j] for j in registers[g])

    # D inputs: sampled around the register's own source-pool position.
    # Each flip-flop also carries the structure that makes real scan
    # designs cluster: a scan-chain input from the previous flop's Q
    # (ISCAS'89/ITC'99 evaluations are full-scan netlists) and a shared
    # per-register enable net.
    total_sources = len(sources)
    for g, members in enumerate(registers):
        base = register_source_pos.get(g, total_sources - 1)
        enable_net = f"reg{g}_en"
        netlist.add_net(enable_net)
        for j in members:
            offset = int(rng.exponential(locality_window / 2)) \
                - int(locality_window / 4)
            idx = min(total_sources - 1, max(0, base + offset))
            nets = [sources[idx], CLOCK_NET, enable_net]
            if j > 0:
                nets.append(ff_q_nets[j - 1])  # scan-in from the previous flop
            nets.append(ff_q_nets[j])
            netlist.add_instance(f"ff{j}", "DFF_X1", nets)

    # Primary outputs tap late nets.
    for i in range(spec.num_outputs):
        back = int(rng.exponential(locality_window)) + 1
        idx = max(0, len(sources) - back)
        netlist.add_net(sources[idx], is_port=True)

    netlist.validate()
    return netlist

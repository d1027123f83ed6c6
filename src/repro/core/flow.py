"""End-to-end system flow: netlist → placement → pairing → accounting.

One call reproduces one row of the paper's Table III:

1. generate (or accept) the benchmark netlist,
2. floorplan and place it (quadratic + Abacus legalisation),
3. run the neighbour-pairing script under the 2×-NV-width threshold,
4. plan the NV-component replacement ECO,
5. evaluate the area/read-energy against the all-1-bit baseline.

CPython's cyclic garbage collector is paused while the flow runs.  The
netlist, placement and merge records refer to each other by name, so the
flow builds no reference cycles: reference counting frees all of it when
the outcome is dropped, and the collector's repeated scans of the growing
object graph would find nothing to free.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core.evaluate import NVCellCosts, PAPER_COSTS, SystemResult, evaluate_system
from repro.core.merge import MergeConfig, MergeResult, find_mergeable_pairs
from repro.core.replace import ReplacementPlan, plan_replacement
from repro.physd.benchmarks import generate_benchmark
from repro.physd.netlist import GateNetlist
from repro.physd.placement import Placement, place_design


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the system flow (defaults mirror the paper's setup)."""

    utilization: float = 0.70
    seed: int = 1
    merge: MergeConfig = field(default_factory=MergeConfig)
    #: Cell costs for the accounting; defaults to the paper's Table II
    #: typical constants so results are directly comparable to Table III.
    costs: NVCellCosts = PAPER_COSTS


@dataclass
class FlowOutcome:
    """Everything the flow produced, for inspection and reporting."""

    netlist: GateNetlist
    placement: Placement
    merge: MergeResult
    replacement: ReplacementPlan
    result: SystemResult


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, then re-enable it only
    if it was enabled on entry (a caller that had it off keeps it off)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_system_flow(
    benchmark: str,
    config: Optional[FlowConfig] = None,
    netlist: Optional[GateNetlist] = None,
) -> FlowOutcome:
    """Run the full flow for one benchmark and return all artefacts.

    The cyclic collector is paused for the whole flow (see the module
    docstring), and the caller's collector state is restored on return
    and on raise.
    """
    config = config or FlowConfig()
    with gc_paused():
        if netlist is None:
            netlist = generate_benchmark(benchmark, seed=config.seed)
        placement = place_design(netlist, utilization=config.utilization,
                                 seed=config.seed)
        merge = find_mergeable_pairs(placement, config.merge)
        replacement = plan_replacement(placement, merge)
        result = evaluate_system(benchmark, netlist.num_flip_flops, merge,
                                 config.costs)
    return FlowOutcome(netlist=netlist, placement=placement, merge=merge,
                       replacement=replacement, result=result)

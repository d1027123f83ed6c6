"""Quadratic (Laplacian) global placement.

Minimises Σ_e w_e · ((x_i − x_j)² + (y_i − y_j)²) over all movable
cells, with primary-I/O nets anchored to pad locations spread around the
die boundary.  Nets are modelled as cliques up to 8 pins and as stars
(hub = first pin) above that; nets beyond
:data:`~repro.physd.placement.result.HIGH_FANOUT_LIMIT` pins (the clock)
are ignored, as in production placers.

The x and y systems share one symmetric positive-definite matrix and are
solved by conjugate gradients with a Jacobi preconditioner.  A small
seeded jitter decollapses cells that the quadratic model would place at
identical coordinates (e.g. symmetric fanout trees).
"""

from __future__ import annotations

from array import array
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import PlacementError
from repro.obs import span as _obs_span
from repro.physd.floorplan import Floorplan
from repro.physd.netlist import GateNetlist
from repro.physd.placement.result import HIGH_FANOUT_LIMIT

#: Net size at which the clique model switches to a star model.
CLIQUE_LIMIT = 8


class _IterationCounter:
    """Conjugate-gradient ``callback`` counting iterations; it never
    touches the iterate."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, _iterate: np.ndarray) -> None:
        self.count += 1


def _pad_positions(netlist: GateNetlist, floorplan: Floorplan) -> Dict[str, Tuple[float, float]]:
    """Evenly distribute the port nets' pads around the die perimeter."""
    ports = sorted(net.name for net in netlist.port_nets())
    die = floorplan.die
    perimeter = 2.0 * (die.width + die.height)
    pads: Dict[str, Tuple[float, float]] = {}
    for k, name in enumerate(ports):
        s = (k + 0.5) / max(1, len(ports)) * perimeter
        if s < die.width:
            pads[name] = (die.x_min + s, die.y_min)
        elif s < die.width + die.height:
            pads[name] = (die.x_max, die.y_min + (s - die.width))
        elif s < 2 * die.width + die.height:
            pads[name] = (die.x_max - (s - die.width - die.height), die.y_max)
        else:
            pads[name] = (die.x_min, die.y_max - (s - 2 * die.width - die.height))
    return pads


def global_place(
    netlist: GateNetlist,
    floorplan: Floorplan,
    seed: int = 1,
    jitter_fraction: float = 0.02,
    cg_tolerance: float = 1e-5,
) -> Dict[str, Tuple[float, float]]:
    """Return unconstrained (overlapping) cell-center positions."""
    names = sorted(netlist.instances)
    if not names:
        raise PlacementError("cannot place an empty netlist")
    with _obs_span("physd.global_place", category="physd",
                   attrs={"cells": len(names)}) as span:
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        pads = _pad_positions(netlist, floorplan)

        # Edges go into typed arrays (16 bytes an edge), and the diagonal
        # and pad anchors sum in Python floats: a float ``+=`` is the same
        # IEEE add as a numpy scalar ``+=``, and cheaper.  Each temporary
        # is dropped once used: the flow's peak memory is the netlist plus
        # the largest stage peak on top of it.
        rows_i = array("i")
        rows_j = array("i")
        weights = array("d")
        diag = [0.0] * n
        bx = [0.0] * n
        by = [0.0] * n
        for net in netlist.nets.values():
            pins = [index[name] for name in net.instances]
            pad = pads.get(net.name) if net.is_port else None
            p = len(pins) + (1 if pad else 0)
            if p < 2 or len(pins) > HIGH_FANOUT_LIMIT:
                continue
            w = 1.0 / (p - 1)
            if p <= CLIQUE_LIMIT:
                for a in range(len(pins)):
                    i = pins[a]
                    for b in range(a + 1, len(pins)):
                        j = pins[b]
                        rows_i.append(i)
                        rows_j.append(j)
                        weights.append(w)
                        diag[i] += w
                        diag[j] += w
                    if pad:
                        diag[i] += w
                        bx[i] += w * pad[0]
                        by[i] += w * pad[1]
            else:
                hub = pins[0]
                for j in pins[1:]:
                    rows_i.append(hub)
                    rows_j.append(j)
                    weights.append(w)
                    diag[hub] += w
                    diag[j] += w
                if pad:
                    diag[hub] += w
                    bx[hub] += w * pad[0]
                    by[hub] += w * pad[1]
        del index
        diag = np.array(diag)
        bx = np.array(bx)
        by = np.array(by)

        if not np.any(bx) and not np.any(by):
            # No pads at all: anchor everything weakly at the die center.
            center = floorplan.die.center
            diag += 1e-3
            bx += 1e-3 * center.x
            by += 1e-3 * center.y

        # Weak center anchor regularises cells untouched by any modelled net
        # and bounds the Laplacian's condition number on very large designs.
        center = floorplan.die.center
        regular = 1e-5
        diag += regular
        bx += regular * center.x
        by += regular * center.y

        # COO triplets: each edge as (i, j) and (j, i), then the diagonal.
        # ``tocsr`` sums duplicates in this entry order, so it is kept.
        m = len(weights)
        w_arr = np.frombuffer(weights, dtype=np.float64)
        i_arr = np.frombuffer(rows_i, dtype=np.intc)
        j_arr = np.frombuffer(rows_j, dtype=np.intc)
        data = np.empty(2 * m + n)
        np.negative(w_arr, out=data[:m])
        np.negative(w_arr, out=data[m:2 * m])
        data[2 * m:] = diag
        on_diagonal = np.arange(n, dtype=np.int32)
        rows = np.concatenate([i_arr, j_arr, on_diagonal])
        cols = np.concatenate([j_arr, i_arr, on_diagonal])
        del w_arr, i_arr, j_arr, weights, rows_i, rows_j, diag, on_diagonal
        matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        del data, rows, cols

        preconditioner = sp.diags(1.0 / matrix.diagonal())
        x0 = np.full(n, center.x)
        y0 = np.full(n, center.y)
        x_iterations = _IterationCounter()
        y_iterations = _IterationCounter()
        x, info_x = spla.cg(matrix, bx, x0=x0, rtol=cg_tolerance, maxiter=3000,
                            M=preconditioner, callback=x_iterations)
        y, info_y = spla.cg(matrix, by, x0=y0, rtol=cg_tolerance, maxiter=3000,
                            M=preconditioner, callback=y_iterations)
        span.annotate(cg_iterations_x=x_iterations.count,
                      cg_iterations_y=y_iterations.count)
        if info_x < 0 or info_y < 0:
            raise PlacementError(
                f"conjugate-gradient placement broke down (x={info_x}, y={info_y})"
            )
        # info > 0 (iteration cap) is acceptable: the last iterate is already a
        # good approximate minimiser, and the legaliser absorbs residual error.
        del matrix, preconditioner, bx, by, x0, y0

        rng = np.random.default_rng(seed)
        die = floorplan.die
        # Symmetry-breaking jitter at *cell* scale: proportional jitter on a
        # large die would scatter register clusters and destroy the local
        # flip-flop proximity the merge flow depends on.
        row_height = floorplan.rows[0].height if floorplan.rows else 1.68e-6
        jitter = min(jitter_fraction * min(die.width, die.height), row_height)
        x = x + rng.uniform(-jitter, jitter, size=n)
        y = y + rng.uniform(-jitter, jitter, size=n)

        # Density spreading: the pure quadratic solution collapses toward the
        # die center.  Blend each axis with its rank-uniform mapping (order
        # preserved, density equalised) — a lightweight stand-in for the
        # look-ahead-legalisation spreading of production quadratic placers.
        x = _spread_axis(x, die.x_min, die.x_max, SPREADING_BLEND)
        y = _spread_axis(y, die.y_min, die.y_max, SPREADING_BLEND)

        return dict(zip(names, zip(x.tolist(), y.tolist())))


#: Blend factor of the rank-uniform spreading (1 = fully uniform density,
#: 0 = raw quadratic solution).
SPREADING_BLEND = 0.65


def _spread_axis(values: np.ndarray, lo: float, hi: float, blend: float) -> np.ndarray:
    """Blend coordinates with their rank-uniform spread over [lo, hi]."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    uniform = np.empty(n)
    uniform[order] = lo + (np.arange(n) + 0.5) / n * (hi - lo)
    spread = blend * uniform + (1.0 - blend) * values
    return np.clip(spread, lo, hi)

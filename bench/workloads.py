"""The benchmark's workloads and their correctness checks.

Each workload calls only public entry points of the program, so solver
merges and deletions behind them cannot break it.  ``run`` is the timed
flow call; ``check`` runs afterwards, outside the timed region, and
returns one message per failed operation.  An operation fails when it
raises or when its output leaves the reference band.

Reference outputs (``bench/reference/<workload>.json``) were recorded
for :data:`DEFAULT_SEED`.  ``table2`` and ``mini_array`` take nothing
from the seed, so their reference checks run under every seed;
``table3`` and ``mc_ensemble`` fall back to the seed-free checks
(restored bits, the Table III paper bands) under any other seed.

This module imports nothing from ``repro`` at import time: the parent
process imports it for the workload names and stays free of the program.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import Layer

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "bench" / "reference"
GOLDEN_DIR = ROOT / "tests" / "golden"
DEFAULT_SEED = 1

#: ``(outputs, errors)``: JSON-able outputs keyed by operation, and the
#: message of every operation that raised.
RunResult = Tuple[Dict[str, Any], Dict[str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Operation ids, in report order.
    ops: Tuple[str, ...]
    run: Callable[[Any, int], RunResult]
    #: ``check(outputs, reference or None) -> {op: message}``.
    check: Callable[[Dict[str, Any], Optional[Dict[str, Any]]], Dict[str, str]]
    #: Whether the inputs depend on the seed (reference checks then run
    #: only under :data:`DEFAULT_SEED`).
    seeded: bool = False
    #: ``paper(outputs) -> {name: value}``: ungated deviation from the
    #: source paper, printed beside the wall time.
    paper: Optional[Callable[[Dict[str, Any]], Dict[str, float]]] = None


def _rel_close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def _load_golden(name: str) -> Dict[str, Any]:
    return json.loads((GOLDEN_DIR / name).read_text())


# ---------------------------------------------------------------------------
# table2 — paper Table II on both NV backends
# ---------------------------------------------------------------------------

_T2_BACKENDS = ("mtj", "nandspin")
_T2_DESIGNS = ("standard", "proposed")
_T2_FLOATS = ("read_energy", "read_delay", "leakage", "write_energy",
              "write_latency")
_T2_EXACT = ("transistor_count", "read_values_ok")
_T2_REL = 1e-3
#: The time step of tests/golden/table2.json.
_T2_DT = 2e-12
#: The ops checked against tests/golden/table2.json, by golden key.
_T2_GOLDEN = {"mtj/standard": "standard", "mtj/proposed": "proposed"}


def _run_table2(session, seed: int) -> RunResult:
    outputs: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    for backend in _T2_BACKENDS:
        try:
            data = session.table2(corners=["typical"], dt=_T2_DT,
                                  include_write=True, backend=backend,
                                  engine="fast")
        except Exception as exc:  # a raising op is a failed op
            for design in _T2_DESIGNS:
                errors[f"{backend}/{design}"] = repr(exc)
            continue
        for design in _T2_DESIGNS:
            metrics = getattr(data, design)["typical"]
            outputs[f"{backend}/{design}"] = dataclasses.asdict(metrics)
    return outputs, errors


def _latch_problems(measured: Dict[str, Any], reference: Dict[str, Any],
                    label: str) -> List[str]:
    problems = [f"{field} {measured[field]!r} != {label} {reference[field]!r}"
                for field in _T2_EXACT if measured[field] != reference[field]]
    problems += [f"{field} {measured[field]:.6g} outside {_T2_REL:.1%} of "
                 f"{label} {reference[field]:.6g}"
                 for field in _T2_FLOATS
                 if not _rel_close(measured[field], reference[field], _T2_REL)]
    return problems


def _check_table2(outputs, reference) -> Dict[str, str]:
    golden = _load_golden("table2.json")
    failures: Dict[str, str] = {}
    for op, measured in outputs.items():
        problems = [] if measured["read_values_ok"] else ["read values wrong"]
        if op in _T2_GOLDEN:
            problems += _latch_problems(measured, golden[_T2_GOLDEN[op]],
                                        "golden")
        if reference is not None:
            problems += _latch_problems(measured, reference[op], "reference")
        if problems:
            failures[op] = "; ".join(problems)
    return failures


def _paper_table2(outputs) -> Dict[str, float]:
    """Typical-corner read energy and delay of the MTJ backend against
    ``PAPER_TABLE_II`` (standard energies doubled: two 1-bit latches)."""
    from repro.analysis.tables import PAPER_TABLE_II

    out: Dict[str, float] = {}
    paper_energy = PAPER_TABLE_II["read_energy_fj"]
    paper_delay = PAPER_TABLE_II["read_delay_ps"]
    for index, design in enumerate(_T2_DESIGNS):
        metrics = outputs.get(f"mtj/{design}")
        if metrics is None:
            continue
        energy_fj = metrics["read_energy"] * 1e15 * (2 if index == 0 else 1)
        delay_ps = metrics["read_delay"] * 1e12
        out[f"{design}.read_energy_dev_pct"] = (
            100 * (energy_fj / paper_energy[index][1] - 1))
        out[f"{design}.read_delay_dev_pct"] = (
            100 * (delay_ps / paper_delay[index][1] - 1))
    return out


# ---------------------------------------------------------------------------
# table3 — paper Table III system flow
# ---------------------------------------------------------------------------

#: Every benchmark but b19, which runs the code of b18 at twice the size.
_T3_BENCHMARKS = ("s344", "s838", "s1423", "s5378", "s13207", "s38584",
                  "s35932", "b14", "b15", "b17", "b18", "or1200")
_T3_INTS = ("total_flip_flops", "merged_pairs")
_T3_FLOATS = ("area_baseline", "energy_baseline", "area_proposed",
              "energy_proposed")
_T3_REL = 1e-9
#: Tolerance of tests/test_golden_table3.py.
_T3_GOLDEN_REL = 1e-6
#: Paper bands of benchmarks/bench_table3_system.py.
_T3_AREA_BAND = (0.10, 0.35)
_T3_ENERGY_MIN = 0.05
_T3_PAIRS_BAND = (0.5, 1.8)
_T3_MEAN_AREA = (0.26, 0.06)
_T3_MEAN_ENERGY = (0.14, 0.04)


def _run_table3(session, seed: int) -> RunResult:
    from repro.core.flow import FlowConfig
    from repro.nv.base import get_backend

    config = FlowConfig(seed=seed, costs=get_backend("mtj").cell_costs())
    try:
        rows = session.table3(list(_T3_BENCHMARKS), config=config)
    except Exception as exc:  # a raising op is a failed op
        return {}, {name: repr(exc) for name in _T3_BENCHMARKS}
    outputs = {}
    for result, paper_pairs in rows:
        row = {field: getattr(result, field)
               for field in _T3_INTS + _T3_FLOATS}
        row["area_improvement"] = result.area_improvement
        row["energy_improvement"] = result.energy_improvement
        row["paper_merged_pairs"] = paper_pairs
        outputs[result.benchmark] = row
    return outputs, {}


def _row_problems(row, reference, rel: float, label: str) -> List[str]:
    problems = [f"{field} {row[field]} != {label} {reference[field]}"
                for field in _T3_INTS if row[field] != reference[field]]
    problems += [f"{field} {row[field]:.12g} outside {rel:g} of {label} "
                 f"{reference[field]:.12g}"
                 for field in _T3_FLOATS
                 if not _rel_close(row[field], reference[field], rel)]
    return problems


def _check_table3(outputs, reference) -> Dict[str, str]:
    golden = _load_golden("table3.json") if reference is not None else {}
    failures: Dict[str, List[str]] = {}
    for name, row in outputs.items():
        problems = []
        area, energy = row["area_improvement"], row["energy_improvement"]
        if not _T3_AREA_BAND[0] < area < _T3_AREA_BAND[1]:
            problems.append(f"area improvement {area:.3f} outside paper band")
        if not energy > _T3_ENERGY_MIN:
            problems.append(f"energy improvement {energy:.3f} below paper band")
        low, high = _T3_PAIRS_BAND
        paper = row["paper_merged_pairs"]
        if not low * paper <= row["merged_pairs"] <= high * paper:
            problems.append(f"{row['merged_pairs']} pairs outside "
                            f"[{low}, {high}] x paper {paper}")
        if reference is not None:
            problems += _row_problems(row, reference[name], _T3_REL,
                                      "reference")
            if name in golden.get("benchmarks", ()):
                problems += _row_problems(row, golden[name], _T3_GOLDEN_REL,
                                          "golden")
        if problems:
            failures[name] = problems
    if outputs:
        means = _paper_table3(outputs)
        for key, (target, width) in (("mean_area_improvement", _T3_MEAN_AREA),
                                     ("mean_energy_improvement",
                                      _T3_MEAN_ENERGY)):
            if abs(means[key] - target) > width:
                for name in outputs:
                    failures.setdefault(name, []).append(
                        f"{key} {means[key]:.3f} outside {target}±{width}")
    return {name: "; ".join(problems) for name, problems in failures.items()}


def _paper_table3(outputs) -> Dict[str, float]:
    """Mean area and energy improvement against the paper's 26 % / 14 %."""
    rows = list(outputs.values())
    area = sum(r["area_improvement"] for r in rows) / len(rows)
    energy = sum(r["energy_improvement"] for r in rows) / len(rows)
    return {"mean_area_improvement": area,
            "mean_energy_improvement": energy,
            "mean_area_dev_pts": 100 * (area - _T3_MEAN_AREA[0]),
            "mean_energy_dev_pts": 100 * (energy - _T3_MEAN_ENERGY[0])}


# ---------------------------------------------------------------------------
# mc_ensemble — batched Monte-Carlo restore of the proposed 2-bit latch
# ---------------------------------------------------------------------------

_MC_SAMPLES = 128
_MC_BITS = (1, 0)
_MC_VDD = 1.1
_MC_DT = 4e-12
_MC_TOL_V = 1e-6
_MC_PROBES = ("out_low", "outb_low", "out_high", "outb_high")
_MC_OPS = tuple(f"sample{i}" for i in range(_MC_SAMPLES))


def _mc_build(schedule, params):
    from repro.cells.nvlatch_2bit import build_proposed_latch
    from repro.cells.sizing import DEFAULT_SIZING
    from repro.spice.corners import CORNERS

    return build_proposed_latch(schedule, CORNERS["typical"], DEFAULT_SIZING,
                                mtj_params=params, stored_bits=_MC_BITS,
                                vdd=_MC_VDD).circuit


def _mc_extract(t_low: float, t_high: float, result) -> List[float]:
    return [result.sample("out", t_low), result.sample("outb", t_low),
            result.sample("out", t_high), result.sample("outb", t_high)]


def _run_mc(session, seed: int) -> RunResult:
    from repro.cells.control import proposed_restore_schedule
    from repro.mtj.parameters import PAPER_TABLE_I
    from repro.mtj.variation import monte_carlo_ensemble

    schedule = proposed_restore_schedule(bits=_MC_BITS, vdd=_MC_VDD)
    extract = partial(_mc_extract, schedule.markers["eval_low_end"],
                      schedule.markers["eval_high_end"])
    try:
        values = monte_carlo_ensemble(
            partial(_mc_build, schedule), extract, PAPER_TABLE_I,
            stop_time=schedule.stop_time, dt=_MC_DT, count=_MC_SAMPLES,
            seed=seed, initial_voltages={"vdd": _MC_VDD}, workers=1)
    except Exception as exc:  # a raising op is a failed op
        return {}, {op: repr(exc) for op in _MC_OPS}
    return {op: dict(zip(_MC_PROBES, v)) for op, v in zip(_MC_OPS, values)}, {}


def _check_mc(outputs, reference) -> Dict[str, str]:
    failures = {}
    for op, v in outputs.items():
        bits = (int(v["out_low"] > v["outb_low"]),
                int(v["out_high"] > v["outb_high"]))
        problems = [] if bits == _MC_BITS else [f"restored {bits}"]
        if reference is not None:
            problems += [f"{probe} {v[probe]:.9f} V off reference by more "
                         f"than {_MC_TOL_V:g} V"
                         for probe in _MC_PROBES
                         if abs(v[probe] - reference[op][probe]) > _MC_TOL_V]
        if problems:
            failures[op] = "; ".join(problems)
    return failures


# ---------------------------------------------------------------------------
# mini_array — one large sparse transient
# ---------------------------------------------------------------------------

_ARRAY_SIZE = 32
_ARRAY_STOP = 2.5e-9
_ARRAY_DT = 2.5e-12
_ARRAY_TOL_V = 1e-6
_ARRAY_OPS = tuple(f"bl{c}" for c in range(_ARRAY_SIZE))


def _run_mini_array(session, seed: int) -> RunResult:
    from repro.cells.miniarray import build_mini_array
    from repro.spice.analysis.transient import run_transient

    try:
        circuit = build_mini_array(rows=_ARRAY_SIZE, cols=_ARRAY_SIZE)
        result = run_transient(circuit, _ARRAY_STOP, _ARRAY_DT,
                               engine="sparse")
    except Exception as exc:  # a raising op is a failed op
        return {}, {op: repr(exc) for op in _ARRAY_OPS}
    return {op: result.final_voltage(op) for op in _ARRAY_OPS}, {}


def _check_mini_array(outputs, reference) -> Dict[str, str]:
    failures = {}
    for op, volts in outputs.items():
        if not math.isfinite(volts):
            failures[op] = f"final voltage {volts}"
        elif reference is not None and abs(volts - reference[op]) > _ARRAY_TOL_V:
            failures[op] = (f"final voltage {volts:.9f} V off reference "
                            f"{reference[op]:.9f} V by more than "
                            f"{_ARRAY_TOL_V:g} V")
    return failures


# ---------------------------------------------------------------------------
# rc — the self-test's tiny transient
# ---------------------------------------------------------------------------

_RC_TAU = 1e-9
_RC_STOP = 5e-9


def _run_rc(session, seed: int) -> RunResult:
    from repro.spice.analysis.transient import run_transient
    from repro.spice.netlist import Circuit

    circuit = Circuit("bench_rc")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", _RC_TAU / 1e3)
    result = run_transient(circuit, _RC_STOP, 1e-11,
                           initial_voltages={"in": 1.0})
    return {"out": result.final_voltage("out")}, {}


def _check_rc(outputs, reference) -> Dict[str, str]:
    expected = 1.0 - math.exp(-_RC_STOP / _RC_TAU)
    volts = outputs["out"]
    if abs(volts - expected) > 1e-2:
        return {"out": f"{volts:.6f} V, expected {expected:.6f} V"}
    return {}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table2",
             tuple(f"{b}/{d}" for b in _T2_BACKENDS for d in _T2_DESIGNS),
             _run_table2, _check_table2, paper=_paper_table2),
    Workload("table3", _T3_BENCHMARKS, _run_table3, _check_table3,
             seeded=True, paper=_paper_table3),
    Workload("mc_ensemble", _MC_OPS, _run_mc, _check_mc, seeded=True),
    Workload("mini_array", _ARRAY_OPS, _run_mini_array, _check_mini_array),
)}

#: Harness self-test workload (not part of the benchmark).  It has no
#: reference file, and its traced child also wraps :data:`MISSING_LAYER`.
SELF_TEST = Workload("rc", ("out",), _run_rc, _check_rc)

#: A wrap target that does not exist, for the self-test.
MISSING_TARGET = "repro.spice.analysis.engine:NoSuchSolver.solve"
MISSING_LAYER = Layer("selftest.missing", (MISSING_TARGET,))


def get(name: str) -> Workload:
    if name == SELF_TEST.name:
        return SELF_TEST
    return WORKLOADS[name]


def load_reference(name: str) -> Optional[Dict[str, Any]]:
    """The recorded outputs of workload ``name``, or ``None`` if it has
    none."""
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None

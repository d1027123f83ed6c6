"""Self-profiled named flows: ``repro profile <flow>``.

:func:`run_profile` enables a fresh tracing session, runs one of the
named flows under it, and packages the outcome three ways:

* a **breakdown table** (per-span self/total time, printed by the CLI),
* ``profile.json`` — the registry's counters (integer counts) and the
  aggregated spans (the time),
* ``trace.json`` — the Chrome ``trace_event`` export, loadable in
  ``about://tracing`` / Perfetto.

Flows:

* ``table2`` — latch characterisation (paper Table II) followed by a
  system-accounting preview, so the trace covers the engine, analysis,
  characterize and evaluate layers end to end;
* ``table3`` — the benchmark system-flow sweep (paper Table III);
* ``campaign`` — a small zero-fault restore campaign through the
  resilient runner (covers the campaign layer).

Inside the ``profile.<flow>`` span, a flow first loads the modules it
needs in a ``profile.imports`` span, so a cold import reads as its own
row of the breakdown, not as the flow's self time.

``fast=True`` shrinks each flow to a seconds-scale smoke (typical
corner only, coarser timestep, fewer benchmarks/samples) — the mode CI
runs.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.obs.export import SpanAggregate, aggregate_spans, render_breakdown
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer, disable_tracing, enable_tracing, span

#: Flow names accepted by :func:`run_profile`.
FLOWS = ("table2", "table3", "campaign")

#: Coarse timestep for the fast profile modes [s].
FAST_DT = 4e-12


@dataclass
class ProfileResult:
    """Everything :func:`run_profile` measured."""

    flow: str
    fast: bool
    wall_s: float
    counters: Dict[str, int]
    aggregates: List[SpanAggregate]
    #: Span categories present in the trace (sorted).
    categories: List[str]
    trace_path: str
    profile_path: str
    breakdown: str = field(repr=False, default="")

    def to_json(self) -> dict:
        return {
            "flow": self.flow,
            "fast": self.fast,
            "wall_s": self.wall_s,
            "counters": self.counters,
            "categories": self.categories,
            "spans": [agg.to_json() for agg in self.aggregates],
            "trace": os.path.basename(self.trace_path),
        }


# ---------------------------------------------------------------------------
# Flow bodies (run under an active tracing session)
# ---------------------------------------------------------------------------


def _flow_table2(fast: bool, workers: Optional[int]) -> None:
    from repro.analysis.tables import _build_table2, render_table2
    from repro.core.evaluate import costs_from_layout, evaluate_system

    corners = ["typical"] if fast else None
    kwargs = {"workers": workers}
    if corners is not None:
        kwargs["corners"] = corners
    data = _build_table2(dt=FAST_DT if fast else 1e-12,
                         include_write=not fast, **kwargs)
    render_table2(data)
    # System-accounting preview from the measured cell energies, so the
    # trace also exercises the evaluate layer.
    costs = costs_from_layout(
        energy_1bit=data.standard["typical"].read_energy,
        energy_2bit=data.proposed["typical"].read_energy)
    evaluate_system("profile-preview", total_flip_flops=100, merged=30,
                    costs=costs)


def _flow_table3(fast: bool, workers: Optional[int]) -> None:
    from repro.analysis.tables import _build_table3, render_table3
    from repro.physd.benchmarks import BENCHMARKS

    names = list(BENCHMARKS)[:2] if fast else None
    render_table3(_build_table3(names, workers=workers))


def _flow_campaign(fast: bool, workers: Optional[int]) -> None:
    from repro.faults.analyses import _restore_failure_rate

    _restore_failure_rate(
        "standard", [], samples=4 if fast else 20, dt=FAST_DT,
        workers=1 if workers is None else workers)


#: Each flow's import step and run step.  The import step names the
#: modules the run step loads on first call, down to the system flow that
#: pulls in the placer and scipy.  They load in a ``profile.imports``
#: span, so in a fresh process the flow span's self time is the flow's
#: own work, not a cold import.
_FLOW_STEPS: Dict[str, Tuple[Tuple[str, ...],
                             Callable[[bool, Optional[int]], None]]] = {
    "table2": (("repro.analysis.tables", "repro.core.evaluate"),
               _flow_table2),
    "table3": (("repro.analysis.tables", "repro.core.flow"), _flow_table3),
    "campaign": (("repro.faults.analyses",), _flow_campaign),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_profile(
    flow: str,
    fast: bool = False,
    out_dir: str = ".",
    workers: Optional[int] = None,
) -> ProfileResult:
    """Run the named flow under a fresh tracing session and write
    ``profile.json`` + ``trace.json`` into ``out_dir``."""
    if flow not in FLOWS:
        raise AnalysisError(
            f"unknown profile flow {flow!r}; expected one of {FLOWS}")
    imports, body = _FLOW_STEPS[flow]

    os.makedirs(out_dir, exist_ok=True)
    tracer: Tracer = enable_tracing(fresh=True)
    try:
        start = time.perf_counter()
        with span(f"profile.{flow}", category="profile",
                  attrs={"fast": fast}):
            with span("profile.imports", category="profile"):
                for module in imports:
                    importlib.import_module(module)
            body(fast, workers)
        wall_s = time.perf_counter() - start
        snapshot = metrics().snapshot()
        records = list(tracer.records)
        chrome = tracer.to_chrome()
    finally:
        disable_tracing()

    aggregates = aggregate_spans(records)
    categories = sorted({r.category or "repro" for r in records})
    trace_path = os.path.join(out_dir, "trace.json")
    profile_path = os.path.join(out_dir, "profile.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(chrome, handle, indent=1)
        handle.write("\n")

    result = ProfileResult(
        flow=flow, fast=fast, wall_s=round(wall_s, 3),
        counters=snapshot["counters"],
        aggregates=aggregates, categories=categories,
        trace_path=trace_path, profile_path=profile_path,
        breakdown=render_breakdown(aggregates, title=f"profile: {flow} "
                                   f"({'fast' if fast else 'full'}, "
                                   f"{wall_s:.2f} s wall)"),
    )
    with open(profile_path, "w", encoding="utf-8") as handle:
        json.dump(result.to_json(), handle, indent=2)
        handle.write("\n")
    return result

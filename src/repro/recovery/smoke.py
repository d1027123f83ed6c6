"""The ``repro recovery smoke`` flow: corpus under the ladder, on CI.

Runs every pathological corpus entry on the fast and sparse engines,
twice each (recovery off → must hard-fail, recovery on → must complete
or, for the exhaustion entry, fail *with* a forensics bundle), checks
that the expected rungs fired and that recovered waveforms agree across
the engines within :data:`WAVEFORM_TOL`, then writes:

* ``<out>/recovery_metrics.json`` — the observability counter dump,
  including the ``recovery.*`` ladder counters;
* ``<out>/forensics.json`` — the forensics bundle from the
  ladder-exhaustion entry (rung history, stamped-matrix digest,
  minimal reproducing netlist);
* ``<out>/smoke_report.json`` — the structured per-entry outcomes.

The flow itself never raises for corpus-level trouble: every deviation
from the tuned expectations becomes a ``problems`` line in the report
and a non-zero exit from the CLI.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError
from repro.recovery.corpus import CorpusEntry, corpus_entries
from repro.recovery.policy import RecoveryPolicy
from repro.spice.analysis.transient import ENGINES

#: Cross-engine agreement bound for recovered waveforms [V].
WAVEFORM_TOL = 1e-6


def _run_entry(entry: CorpusEntry, engine: str,
               recovery: Optional[RecoveryPolicy]) -> Dict[str, Any]:
    """One (entry, engine, policy) run, reduced to a JSON-safe outcome."""
    try:
        result = entry.run(engine=engine, recovery=recovery)
    except ConvergenceError as exc:
        bundle = exc.forensics
        return {"status": "failed", "error": str(exc),
                "forensics": None if bundle is None else bundle.to_json()}
    stats = result.stats
    return {
        "status": "ok",
        "rung_counts": dict(stats.rung_counts),
        "recovered_steps": stats.recovered_steps,
        "condition_warnings": stats.condition_warnings,
        "worst_condition": stats.worst_condition,
        "voltages": result.node_voltages,
    }


def _check_entry(entry: CorpusEntry, outcomes: Dict[str, Dict[str, Any]],
                 disabled: Dict[str, Dict[str, Any]],
                 problems: List[str]) -> None:
    """Append a problem line for every violated corpus expectation."""
    pathological = bool(entry.expect_rungs) or entry.expect_failure
    for engine in outcomes:
        on, off = outcomes[engine], disabled[engine]
        where = f"{entry.name}/{engine}"
        if pathological and off["status"] != "failed":
            problems.append(f"{where}: completed with recovery disabled "
                            f"(entry is supposed to be pathological)")
        if entry.expect_failure:
            if on["status"] != "failed":
                problems.append(f"{where}: expected ladder exhaustion but "
                                f"the run completed")
            elif on["forensics"] is None:
                problems.append(f"{where}: exhaustion raised without a "
                                f"forensics bundle")
            continue
        if on["status"] != "ok":
            problems.append(f"{where}: hard failure under recovery: "
                            f"{on['error']}")
            continue
        for rung in entry.expect_rungs:
            if on["rung_counts"].get(rung, 0) <= 0:
                problems.append(f"{where}: expected rung {rung!r} never "
                                f"fired (counts: {on['rung_counts']})")
        if entry.expect_condition_warnings and on["condition_warnings"] <= 0:
            problems.append(f"{where}: expected condition warnings, got 0")

    waves = {e: o["voltages"] for e, o in outcomes.items()
             if o["status"] == "ok"}
    if len(waves) >= 2:
        engines = sorted(waves)
        worst = max(
            float(np.max(np.abs(waves[a] - waves[b])))
            for i, a in enumerate(engines) for b in engines[i + 1:])
        if worst > WAVEFORM_TOL:
            problems.append(f"{entry.name}: recovered waveforms disagree "
                            f"across engines by {worst:g} V "
                            f"(> {WAVEFORM_TOL:g} V)")


def run_smoke(out_dir: str,
              engines: Sequence[str] = ENGINES) -> Dict[str, Any]:
    """Run the corpus smoke; returns the report dict (also written to
    ``<out_dir>/smoke_report.json``)."""
    from repro import obs

    os.makedirs(out_dir, exist_ok=True)
    disabled_policy = RecoveryPolicy(enabled=False)

    obs.enable_tracing()
    try:
        problems: List[str] = []
        entries_report: List[Dict[str, Any]] = []
        forensics_bundle: Optional[Dict[str, Any]] = None

        for entry in corpus_entries():
            outcomes: Dict[str, Dict[str, Any]] = {}
            disabled: Dict[str, Dict[str, Any]] = {}
            for engine in engines:
                pathological = bool(entry.expect_rungs) or entry.expect_failure
                disabled[engine] = (
                    _run_entry(entry, engine, disabled_policy)
                    if pathological else {"status": "skipped"})
                outcomes[engine] = _run_entry(entry, engine, None)
            _check_entry(entry, outcomes, disabled, problems)
            if entry.expect_failure and forensics_bundle is None:
                for engine in engines:
                    bundle = outcomes[engine].get("forensics")
                    if bundle is not None:
                        forensics_bundle = bundle
                        break
            entries_report.append({
                "name": entry.name,
                "description": entry.description,
                "engines": {
                    e: {k: v for k, v in o.items() if k != "voltages"}
                    for e, o in outcomes.items()
                },
            })

        counters = obs.metrics().snapshot()["counters"]
    finally:
        obs.disable_tracing()

    metrics_path = os.path.join(out_dir, "recovery_metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump({k: counters[k] for k in sorted(counters)}, handle,
                  indent=2)
        handle.write("\n")

    forensics_path = None
    if forensics_bundle is not None:
        forensics_path = os.path.join(out_dir, "forensics.json")
        with open(forensics_path, "w", encoding="utf-8") as handle:
            json.dump(forensics_bundle, handle, indent=2, sort_keys=True)
            handle.write("\n")

    ladder_counters = {k: v for k, v in counters.items()
                       if k.startswith("recovery.")}
    report = {
        "entries": entries_report,
        "problems": problems,
        "ladder_counters": ladder_counters,
        "metrics_path": metrics_path,
        "forensics_path": forensics_path,
        "ok": not problems,
    }
    report_path = os.path.join(out_dir, "smoke_report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    report["report_path"] = report_path
    return report


def render_smoke_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a :func:`run_smoke` report."""
    lines = ["recovery smoke: pathological corpus across engines"]
    for entry in report["entries"]:
        lines.append(f"  {entry['name']}: {entry['description']}")
        for engine, outcome in entry["engines"].items():
            if outcome["status"] == "ok":
                lines.append(
                    f"    {engine:<6} ok    rungs={outcome['rung_counts']} "
                    f"condition_warnings={outcome['condition_warnings']}")
            else:
                has_forensics = outcome.get("forensics") is not None
                lines.append(
                    f"    {engine:<6} failed (forensics="
                    f"{'yes' if has_forensics else 'no'})")
    if report["ladder_counters"]:
        lines.append("  ladder counters:")
        for key in sorted(report["ladder_counters"]):
            lines.append(f"    {key} = {report['ladder_counters'][key]}")
    for problem in report["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    lines.append(f"  wrote {report['metrics_path']}")
    if report["forensics_path"]:
        lines.append(f"  wrote {report['forensics_path']}")
    lines.append("  result: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines)

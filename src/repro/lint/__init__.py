"""Static circuit & netlist diagnostics (ERC / lint).

The lint subsystem validates designs *before* simulation so that wiring
mistakes surface as precise, named diagnostics instead of downstream
solver failures (a floating node, for instance, otherwise shows up as a
cryptic Newton non-convergence deep inside a transient run).

One registry (:mod:`repro.lint.registry`) holds four rule packs:

* **SPICE ERC** over :class:`repro.spice.netlist.Circuit` — DC
  connectivity (floating nodes predict singular MNA matrices), undriven
  MOSFET gates, bulk-terminal orientation, voltage-source loops,
  non-positive passives, and the paper's NV-latch reliability invariant
  that the store paths of distinct bits share no devices.
* **Gate-netlist lint** over :class:`repro.physd.netlist.GateNetlist` —
  undriven and multi-driven nets, dangling ports, combinational loops,
  unknown cells and dead (unreachable) logic.
* **Fault-plan lint** over :class:`repro.faults.inject.InjectionPlan`.
* **Source lint** (``dev.*``) over the project's own Python source,
  registered by importing :mod:`repro.devlint`.

Entry points:

* :func:`lint_circuit` / :func:`lint_gate_netlist` — run one rule pack,
* :func:`assert_lint_clean` — raise :class:`~repro.errors.NetlistError`
  (diagnostics attached) when a subject has error-severity findings,
* the ``repro lint`` CLI subcommand (text and JSON output, nonzero exit
  on errors, ``--list-rules`` for every pack),
* the ``lint=`` pre-flight argument of
  :func:`repro.spice.analysis.transient.run_transient` and
  :func:`repro.spice.analysis.dc.solve_dc`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import NetlistError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import (
    LintRule,
    all_rules,
    rule,
    rule_ids,
    rules_for,
    run_rules,
)

# Importing the rule packs registers their rules.
from repro.lint import spice_rules as _spice_rules  # noqa: F401
from repro.lint import gate_rules as _gate_rules  # noqa: F401
from repro.lint import fault_rules as _fault_rules  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.physd.netlist import GateNetlist
    from repro.spice.netlist import Circuit

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "LintRule",
    "rule",
    "all_rules",
    "rule_ids",
    "rules_for",
    "run_rules",
    "lint_circuit",
    "lint_gate_netlist",
    "assert_lint_clean",
    "preflight",
    "LINT_MODES",
]


#: Modes accepted by the analysis pre-flight (``lint=`` argument of
#: ``run_transient`` / ``solve_dc``).
LINT_MODES = ("error", "off")


def preflight(circuit: "Circuit", mode: str) -> None:
    """ERC pre-flight used by the analyses.

    ``mode="error"`` raises :class:`~repro.errors.NetlistError` (with the
    diagnostics attached) on any error-severity finding, so a malformed
    circuit reports its root cause instead of a downstream Newton
    non-convergence.  ``mode="off"`` skips the check.
    """
    if mode == "off":
        return
    if mode not in LINT_MODES:
        from repro.errors import AnalysisError

        raise AnalysisError(
            f"unknown lint mode {mode!r}; expected one of {LINT_MODES}")
    offending = lint_circuit(circuit).errors
    if offending:
        raise NetlistError(
            f"pre-flight ERC found {len(offending)} error(s) in circuit "
            f"{circuit.name!r} — the analysis would fail or produce "
            f"garbage:\n" + "\n".join(d.one_line() for d in offending),
            diagnostics=tuple(offending),
        )


def lint_circuit(circuit: "Circuit") -> LintReport:
    """Run the SPICE ERC rule pack over a circuit."""
    return run_rules("spice", circuit, circuit.name)


def lint_gate_netlist(netlist: "GateNetlist") -> LintReport:
    """Run the gate-netlist rule pack over a design."""
    return run_rules("gates", netlist, netlist.name)


def assert_lint_clean(subject, min_severity: Severity = Severity.ERROR) -> LintReport:
    """Lint ``subject`` (a Circuit or GateNetlist) and raise
    :class:`~repro.errors.NetlistError` with the diagnostics attached if
    any finding reaches ``min_severity``.  Returns the report otherwise
    so callers can inspect softer findings."""
    from repro.spice.netlist import Circuit

    if isinstance(subject, Circuit):
        report = lint_circuit(subject)
    else:
        report = lint_gate_netlist(subject)
    offending = report.at_least(min_severity)
    if offending:
        raise NetlistError(
            f"{report.target!r} failed lint with "
            f"{len(offending)} finding(s):\n"
            + "\n".join(d.one_line() for d in offending),
            diagnostics=tuple(offending),
        )
    return report
